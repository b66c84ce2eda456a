"""Discretized state spaces, singular jump kernels and their couplings.

Kernels are dense rate matrices over a finite point set; singular radial
profiles are discretized by the midpoint rule with the diagonal excluded.
Detailed balance is enforced at the coupling level by symmetrizing theta,
never by touching the raw rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "StateSpace",
    "Kernel",
    "Coupling",
    "build_grid",
    "build_torus",
    "build_graph",
    "fractional_kernel",
    "matrix_kernel",
    "punctured_mask",
    "cutoff",
    "coupling",
    "taming_bound",
]


@dataclass(frozen=True)
class StateSpace:
    """Finite metric measure space: points, metric table and reference weights."""

    points: np.ndarray      # (n,) coordinates, or arbitrary ids as floats
    dist: np.ndarray        # (n, n) metric values
    pi: np.ndarray          # (n,) strictly positive reference weights
    kind: str = "graph"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        d = np.asarray(self.dist, dtype=float)
        p = np.asarray(self.pi, dtype=float)
        if pts.ndim != 1 or not np.all(np.isfinite(pts)):
            raise ValueError("points must be a one-dimensional array of finite values")
        n = pts.shape[0]
        if d.shape != (n, n):
            raise ValueError("metric table shape mismatch")
        if p.shape != (n,) or np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise ValueError("reference weights must be positive and finite")
        if np.any(np.diag(d) != 0) or np.any(d < 0):
            raise ValueError("metric must be nonnegative with zero diagonal")
        if not np.allclose(d, d.T, rtol=0, atol=0):
            raise ValueError("metric must be symmetric")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "pi", p)
        for arr in (self.points, self.dist, self.pi):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def check_triangle(self, samples: int = 200, seed: int = 0, tol: float = 1e-12) -> bool:
        rng = np.random.default_rng(seed)
        i, j, k = rng.integers(0, self.n, (3, samples))
        return bool(np.all(self.dist[i, k] <= self.dist[i, j] + self.dist[j, k] + tol))


@dataclass(frozen=True)
class Kernel:
    """Jump rates kappa_ij >= 0 with zero diagonal."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rates must form a square matrix")
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise ValueError("rates must be nonnegative and finite")
        if np.any(np.diag(r) != 0):
            r = r.copy()
            np.fill_diagonal(r, 0.0)
        object.__setattr__(self, "rates", r)
        self.rates.setflags(write=False)

    @property
    def n(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True)
class Coupling:
    """Symmetrized edge coupling theta_ij = pi_i kappa_ij.

    Its graph {theta > 0} is built on first use and kept: ``edges`` for the
    flux and the certificates, ``labels`` for the component-wise ones, and
    ``paths`` for the continuity norms.  ``metric`` is the space's
    (points, dist); a coupling built from theta alone has none and takes
    its states in index order with unit gaps, the path of the metric that is
    1 between any two states."""

    theta: np.ndarray
    detailed_balance_residual: float
    pi: np.ndarray
    metric: Optional[tuple] = None

    def __post_init__(self):
        if not np.array_equal(self.theta, self.theta.T):
            raise ValueError("coupling theta must be symmetric (detailed balance)")
        self.theta.setflags(write=False)  # the cached graph is read off it

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @cached_property
    def edges(self) -> tuple:
        """(rows, cols, weights) of the edges i < j with theta_ij > 0, row-major."""
        rows, cols = np.nonzero(np.triu(self.theta > 0, 1))
        edges = rows, cols, self.theta[rows, cols]
        for a in edges:
            a.setflags(write=False)
        return edges

    @cached_property
    def labels(self) -> np.ndarray:
        """Connected components, numbered in the order of their smallest state: a
        breadth-first search from each state not yet reached reads each row once."""
        adj = self.theta > 0
        labels = np.full(self.n, -1)
        c = 0
        for seed in range(self.n):
            if labels[seed] >= 0:
                continue
            frontier = np.array([seed])
            while frontier.size:
                labels[frontier] = c
                frontier = np.flatnonzero(adj[frontier].any(axis=0) & (labels < 0))
            c += 1
        labels.setflags(write=False)
        return labels

    @cached_property
    def paths(self) -> tuple:
        """The metric path, (states, gaps) over the whole space and a list of
        them per component: the states in ``points`` order (stable sort), each
        gap the metric between neighbours.  The path distance is at least the
        metric (triangle inequality), and on a line it is the metric."""
        points, dist = self.metric if self.metric is not None else (np.arange(self.n), None)
        order = np.argsort(points, kind="stable")

        def along(states):
            gaps = np.ones(states.size - 1) if dist is None else dist[states[:-1], states[1:]]
            return states, gaps

        return along(order), [along(order[self.labels[order] == c])
                              for c in range(self.labels.max() + 1)]


def build_grid(a: float, b: float, n: int) -> StateSpace:
    """Uniform midpoint grid on [a, b] with pi_i = h and the Euclidean metric."""
    if not (a < b) or n < 2:
        raise ValueError("need a < b and n >= 2")
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    dist = np.abs(x[:, None] - x[None, :])
    return StateSpace(points=x, dist=dist, pi=np.full(n, h), kind="grid",
                      meta={"a": float(a), "b": float(b), "h": h})


def build_torus(n: int) -> StateSpace:
    """Periodic unit-length grid with the wrap-around metric min(|dx|, 1 - |dx|)."""
    if n < 2:
        raise ValueError("need n >= 2")
    x = np.arange(n) / n
    raw = np.abs(x[:, None] - x[None, :])
    dist = np.minimum(raw, 1.0 - raw)
    return StateSpace(points=x, dist=dist, pi=np.full(n, 1.0 / n), kind="torus", meta={})


def build_graph(points, dist, pi) -> StateSpace:
    return StateSpace(points=np.asarray(points, float), dist=np.asarray(dist, float),
                      pi=np.asarray(pi, float), kind="graph")


def punctured_mask(space: StateSpace, split: float = 0.0) -> np.ndarray:
    """Indicator of pairs lying on the same side of the split coordinate."""
    x = space.points
    if split <= x.min() or split >= x.max():
        raise ValueError("split must lie strictly inside the coordinate range")
    left = x < split
    right = x > split
    return ((left[:, None] & left[None, :]) | (right[:, None] & right[None, :])).astype(float)


def fractional_kernel(space: StateSpace, s: float, mask=None) -> Kernel:
    """Midpoint-rule discretization of the radial profile |x - y|^(-(1+2s)).

    Rates are kappa_ij = a(x_i, x_j) d_ij^(-(1+2s)) pi_j with zero diagonal.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("fractional exponent must lie in (0, 1)")
    d = space.dist.copy()
    np.fill_diagonal(d, 1.0)  # placeholder, diagonal zeroed below
    rates = d ** (-(1.0 + 2.0 * s)) * space.pi[None, :]
    if mask is not None:
        rates = rates * np.asarray(mask, dtype=float)
    np.fill_diagonal(rates, 0.0)
    return Kernel(rates=rates)


def matrix_kernel(rates) -> Kernel:
    return Kernel(rates=np.asarray(rates, dtype=float))


def cutoff(kernel: Kernel, space: StateSpace, eps: float) -> Kernel:
    """Bounded regularization kappa_ij (1 ^ d^2) / (eps + 1 ^ d^2)."""
    if eps <= 0:
        raise ValueError("cutoff parameter must be positive")
    d2 = np.minimum(1.0, space.dist**2)
    rates = kernel.rates * d2 / (eps + d2)
    return Kernel(rates=rates)


def coupling(space: StateSpace, kernel: Kernel) -> Coupling:
    """Edge coupling theta = pi_i kappa_ij, symmetrized to enforce detailed balance.

    The residual max |theta - theta^T| is reported before symmetrization;
    the space's metric goes with it (see ``Coupling.paths``).
    """
    theta = space.pi[:, None] * kernel.rates
    residual = float(np.max(np.abs(theta - theta.T)))
    theta = 0.5 * (theta + theta.T)
    np.fill_diagonal(theta, 0.0)
    return Coupling(theta=theta, detailed_balance_residual=residual, pi=space.pi.copy(),
                    metric=(space.points, space.dist))


def taming_bound(space: StateSpace, kernel: Kernel) -> float:
    """sup_i sum_j (1 ^ d_ij^2) kappa_ij, the metric-kernel compatibility constant."""
    d2 = np.minimum(1.0, space.dist**2)
    return float(np.max(np.sum(d2 * kernel.rates, axis=1)))

"""Variational functionals: entropy, action, Fisher information, trajectory
ledger integrand, convex functionals of measures.

All edge sums run over ordered pairs (i, j), i != j, and carry the global
factor 1/2.  Extended values propagate as a saturating +inf, never as an
exception.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import DissipationTriple, d_phi, legendre
from .evolution import coupling_edges
from .measures import PosMeasure
from .quadrature import cumulative_simpson_nonuniform

__all__ = [
    "jsonify",
    "json_text",
    "Upsilon",
    "entropy",
    "entropy_series",
    "action_R",
    "fisher_D",
    "edb_integrand",
    "trajectory_L",
    "f_upsilon",
]


def jsonify(v):
    """JSON-safe scalar: non-finite floats become the strings 'nan', 'inf', '-inf'."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return v


def json_text(obj, indent: int = 2) -> str:
    """The JSON encoding of every report: sorted keys, no bare NaN or inf."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)


def _offdiag(n):
    return ~np.eye(n, dtype=bool)


def entropy(u, pi, entropy_density) -> float:
    """Relative entropy sum phi(u_i) pi_i."""
    u = np.asarray(u, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return float(np.sum(entropy_density.phi(u) * pi))


def entropy_series(U, pi, entropy_density) -> np.ndarray:
    """Relative entropy of every row of U: the row sums of phi(U) pi, taken 256
    rows at a time so the temporaries of phi stay O(256 n)."""
    pi = np.asarray(pi, dtype=float)
    return np.concatenate([(entropy_density.phi(U[k:k + 256]) * pi).sum(axis=1)
                           for k in range(0, len(U), 256)])


@np.errstate(over="ignore")  # past the float range the ratio is +-inf, and psi(+-inf) = +inf
def _ratio(w, a, out, where):
    """The ratio w / alpha of a flux to its mean, into ``out`` where ``where`` holds."""
    return np.divide(w, a, out=out, where=where)


def action_R(u, w, triple: DissipationTriple, theta):
    """Primal action of the flux density w of 2j with respect to theta.

    Sums psi(w/alpha) alpha theta / 2 over edges where alpha > 0.  The value
    is +inf when the flux measure w theta charges an edge with vanishing
    alpha (recession of the superlinear psi); edges where both w and alpha
    vanish contribute zero.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = u.size
    off = _offdiag(n)
    a = triple.flux.alpha(u[:, None], u[None, :])
    active = off & (theta > 0) & (a > 0)
    charged_degenerate = off & (theta > 0) & (a == 0) & (w != 0)
    vals = np.zeros_like(theta)
    if np.any(active):
        ratio = np.zeros_like(theta)
        _ratio(w, a, out=ratio, where=active)
        vals[active] = legendre(triple.pair, ratio[active]) * a[active] * theta[active]
    total = 0.5 * float(vals.sum())
    degenerate = bool(np.any(charged_degenerate))
    if degenerate:
        total = float("inf")
    return total


def fisher_D(u, triple: DissipationTriple, theta) -> float:
    """Fisher information sum D_phi(u_i, u_j) theta_ij / 2."""
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    off = _offdiag(u.size)
    dv = d_phi(triple, u[:, None], u[None, :])
    active = off & (theta > 0)
    if np.any(np.isinf(dv[active])):
        return float("inf")
    return 0.5 * float(np.sum(np.where(active, dv * theta, 0.0)))


def edb_integrand(u, w, triple: DissipationTriple, theta) -> float:
    """Instantaneous dissipation rate R(u, w) + D(u)."""
    return action_R(u, w, triple, theta) + fisher_D(u, triple, theta)


@dataclass(frozen=True)
class _CheckpointPass:
    """Per-checkpoint quantities that every certificate reads."""

    times: np.ndarray
    entropy: np.ndarray     # E(u_k)
    integrand: np.ndarray   # R(u_k, w_k) + D(u_k); the pairing itself under the Fenchel split
    pairing: np.ndarray     # 1/2 sum_ij -(phi'(u_j) - phi'(u_i)) w_ij theta_ij, NaN if undefined

    def ledger(self):
        """(ledger series, cumulative integral of R + D, singular-endpoint flag)."""
        integral, singular = cumulative_simpson_nonuniform(self.times, self.integrand)
        return self.entropy - self.entropy[0] + integral, integral, singular


def _checkpoint_pass(traj, triple: DissipationTriple, theta, pi) -> _CheckpointPass:
    """One pass over the checkpoints that reads each flux snapshot once, on the
    edges i < j with theta_ij > 0: for an antisymmetric flux every ordered-pair
    summand of ``action_R``, ``fisher_D`` and the chain-rule pairing is symmetric.
    On the linear flux (``traj.linear_flux``) of a canonical triple Fenchel-Young
    holds with equality on every edge, so R + D is the pairing (the Fenchel
    split); otherwise R + D is taken edge by edge."""
    rows, cols, th = coupling_edges(theta)
    U = traj.densities
    split = traj.linear_flux and triple.name in ("cosh", "quadratic")
    ent = entropy_series(U, pi, triple.entropy)
    g = np.empty(U.shape[0])
    b = g if split else np.empty(U.shape[0])
    for k, u in enumerate(U):
        w = traj.edge_flux(k, rows, cols)
        g[k] = _pairing(triple.entropy.dphi_ext(u), w, rows, cols, th)
        if split:
            continue
        ui, uj = u[rows], u[cols]
        a = triple.flux.alpha(ui, uj)
        if np.any((a == 0) & (w != 0)):
            R = np.inf  # the flux charges an edge where alpha vanishes
        else:
            ratio = _ratio(w, a, out=np.zeros_like(w), where=a > 0)
            R = float(np.sum(legendre(triple.pair, ratio) * a * th))
        dv = d_phi(triple, ui, uj)
        D = np.inf if np.any(np.isinf(dv)) else float(np.sum(dv * th))
        b[k] = R + D
    return _CheckpointPass(traj.times, ent, b, g)


def _pairing(lam, w, rows, cols, th) -> float:
    """Sum over the edges of (lam_i - lam_j) w theta, lam = phi'(u); NaN if undefined."""
    with np.errstate(invalid="ignore"):
        vals = (lam[rows] - lam[cols]) * w
    if not np.all(np.isfinite(lam)):  # an infinite slope against zero flux pairs to 0
        vals[(w == 0.0) & ~np.isfinite(vals)] = 0.0
    return float(vals @ th)


def trajectory_L(traj, triple: DissipationTriple, theta, pi, report: bool = False):
    """Energy-dissipation ledger series L_t along a trajectory.

    L at checkpoint t is E(u_t) - E(u_0) + integral of (R + D) over [0, t],
    time-quadratured by composite Simpson on the checkpoint grid.  A
    non-finite integrand at the initial or final checkpoint only (vacuum
    start under a superlinear dissipation) is integrated by the one-sided
    rectangle rule and flagged.
    """
    cp = _checkpoint_pass(traj, triple, theta, pi)
    series, integral, singular = cp.ledger()
    if not report:
        return series
    return series, {
        "entropy": cp.entropy,
        "dissipation_integral": integral,
        "integrand": cp.integrand,
        "initial_singular": singular,
    }


# ---------------------------------------------------------------------------
# convex functionals of measures


@dataclass(frozen=True)
class Upsilon:
    """Proper convex integrand on R^m with recession and perspective."""

    fn: Callable
    recession_fn: Optional[Callable] = None
    name: str = "custom"

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=float))

    def recession(self, z):
        z = np.asarray(z, dtype=float)
        if self.recession_fn is not None:
            return self.recession_fn(z)
        # numeric recession lim (Upsilon(tz) - Upsilon(0))/t; a slope still
        # growing between the two probe scales marks superlinear growth
        base = self.fn(np.zeros_like(z))
        r1 = (self.fn(1e6 * z) - base) / 1e6
        r2 = (self.fn(1e12 * z) - base) / 1e12
        if r2 > 2.0 * r1 + 1e-300:
            return float("inf")
        return r2

    def perspective(self, z, t):
        z = np.asarray(z, dtype=float)
        if t > 0:
            return float(t * self.fn(z / t))
        if t == 0:
            return float(self.recession(z))
        return float("inf")


def _density_vector(mu, nu: PosMeasure):
    """Densities and singular evaluations of a (vector of) signed measure(s)."""
    parts = mu if isinstance(mu, (list, tuple)) else [mu]
    from .measures import lebesgue_decompose

    dens, sing = [], []
    for m in parts:
        d, s = lebesgue_decompose(m, nu)
        dens.append(d)
        sing.append(s)
    return np.stack(dens, axis=-1), sing


def f_upsilon(mu, nu: PosMeasure, upsilon: Upsilon) -> float:
    """Convex functional of measures F_Upsilon(mu | nu).

    Integrates Upsilon of the density of mu with respect to nu, plus the
    recession function applied to the direction of the singular part.
    ``mu`` may be one SignedMeasurePair or a list of them (vector case).
    """
    dens, sing = _density_vector(mu, nu)
    w = nu.weights
    total = 0.0
    for i in np.flatnonzero(w > 0):
        total += upsilon(dens[i]) * w[i]
    sing_vals = np.stack([s.values for s in sing], axis=-1)
    sing_tv = np.sum(np.abs(sing_vals), axis=-1)
    for i in np.flatnonzero(sing_tv > 0):
        direction = sing_vals[i] / sing_tv[i]
        total += upsilon.recession(direction) * sing_tv[i]
    return float(total)

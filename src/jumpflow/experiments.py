"""Headline numerical scenarios: cutoff robustness sweep, density-gap ramp
probe, configuration-space lift with the exact transport estimate, and the
two-integrator uniqueness probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

# module attributes, not `from .x import name`: probe and lift execute neither
from . import evolution, ledger
from .spaces import Kernel, StateSpace, coupling, cutoff, taming_bound

if TYPE_CHECKING:  # annotations only
    from .densities import DissipationTriple
    from .spaces import Coupling

__all__ = [
    "SweepResult",
    "LiftedSpace",
    "ProbeResult",
    "robustness_sweep",
    "density_gap_probe",
    "default_probe_deltas",
    "build_lift",
    "one_particle_jumps",
    "w2_exact",
    "key_estimate_check",
    "uniqueness_probe",
]


# ---------------------------------------------------------------------------
# cutoff robustness sweep


@dataclass
class SweepResult:
    eps_list: list
    gaps: np.ndarray                # successive L1(pi) gaps, len(eps) - 1
    edb_residuals: list             # relative max EDB residual per eps

    def gap_ratios(self) -> np.ndarray:
        g = self.gaps
        return g[:-1] / np.maximum(g[1:], 1e-300)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "eps": self.eps_list,
            "gaps": self.gaps,
            "gap_ratios": self.gap_ratios(),
            "edb_residuals": self.edb_residuals,
            "strictly_decreasing": bool(np.all(np.diff(self.gaps) < 0)),
        }


def robustness_sweep(space: StateSpace, base_kernel: Kernel, triple: DissipationTriple,
                     eps_list, u0, T: float,
                     config: Optional[evolution.IntegratorConfig] = None) -> SweepResult:
    """Evolve under each cutoff regularization and record terminal L1 gaps.

    ``eps_list`` must be decreasing; the gap k is the L1(pi) distance between
    the terminal densities for eps_k and eps_{k+1}.  ``config`` defaults to
    ``IntegratorConfig()``.  The sweep computes no continuity certificate, so
    a default grid is sized for the EDB residual it reports alone.
    """
    if config is None:
        config = evolution.IntegratorConfig()
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    u0 = np.asarray(u0, dtype=float)
    terminal, residuals = [], []
    for eps in eps_list:
        coup = coupling(space, cutoff(base_kernel, space, eps))
        tol_rel = ledger.default_tolerance(eps)
        traj = evolution.evolve(coup, triple, u0, T, config, tol_rel=tol_rel,
                                continuity_grid=False)
        terminal.append(traj.densities[-1])
        rep = ledger.edb_report(traj, triple, coup, tol_rel=tol_rel)
        residuals.append(rep.max_edb_residual() / rep.energy_scale)
    terminal = np.asarray(terminal)
    gaps = np.array([np.sum(np.abs(terminal[k] - terminal[k + 1]) * space.pi)
                     for k in range(len(eps_list) - 1)])
    return SweepResult(eps_list=eps_list, gaps=gaps, edb_residuals=residuals)


# ---------------------------------------------------------------------------
# density-gap ramp probe


@dataclass
class ProbeResult:
    s: float
    deltas: np.ndarray
    seminorms: np.ndarray
    slope: Optional[float]
    target_slope: Optional[float]
    tail_relative_change: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "s": self.s,
            "deltas": self.deltas,
            "seminorms": self.seminorms,
            "slope": self.slope,
            "target_slope": self.target_slope,
            "tail_relative_change": self.tail_relative_change,
        }


def default_probe_deltas(s: float) -> np.ndarray:
    """Scaling window for the ramp probe, shifted with the exponent.

    Weak singularities see the domain-size background decay only like
    delta^(2s-1), pushing the window toward small delta; strong ones are
    mesh-limited from below, pushing it toward large delta.
    """
    windows = {0.6: (-3.0, -2.3), 0.75: (-2.5, -1.5), 0.9: (-1.5, -1.0)}
    if s in windows:
        lo, hi = windows[s]
    elif s <= 0.5:
        lo, hi = (-3.0, -2.0)
    else:
        lo, hi = (-2.5, -1.5)
    return np.logspace(hi, lo, 5)


def _ramp(x, delta):
    return np.clip((x + delta) / (2.0 * delta), 0.0, 1.0)


_DIRECT_LAGS = 64


def _toeplitz_ramp_sum(phi, h, s) -> float:
    """sum_{i != j} (phi_i - phi_j)^2 |x_i - x_j|^(-(1+2s)) h^2 on a uniform grid.

    The sum is Toeplitz: 2 sum_k w(k) S(k) with w(k) = (k h)^(-(1+2s)) h^2 and
    S(k) = sum_i (phi_i - phi_{i+k})^2, which is two prefix sums of phi^2
    minus twice the autocorrelation of phi, taken by one zero-padded FFT.
    That difference loses the FFT's roundoff on sums of size n where S(k) is
    small, so the first _DIRECT_LAGS lags, which carry the largest weights,
    are summed directly.
    """
    n = phi.size
    k = np.arange(1, n)
    sq = np.concatenate([[0.0], np.cumsum(phi * phi)])
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(phi, size)
    gaps = sq[n - k] + (sq[n] - sq[k]) - 2.0 * np.fft.irfft(f.real**2 + f.imag**2, size)[1:n]
    near = min(_DIRECT_LAGS, n - 1)
    gaps[:near] = [np.sum((phi[j:] - phi[:-j]) ** 2) for j in range(1, near + 1)]
    w = (k * h) ** (-(1.0 + 2.0 * s)) * h * h
    return 2.0 * float(w @ gaps)


def density_gap_probe(s: float, deltas=None, n: int = 4096, masked: bool = False) -> ProbeResult:
    """Ramp-seminorm scaling probe on the [-1, 1] grid.

    For s > 1/2 the seminorm of the ramp of half-width delta scales like
    delta^(1-2s); the fitted log-log slope is reported against -(2s-1).  For
    s < 1/2 the seminorm converges as delta -> 0 and the relative change of
    the two smallest deltas is reported instead.
    """
    # each message starts with the name of the argument it rejects
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if n < 2:
        raise ValueError("n must be at least 2")
    if deltas is None:
        deltas = default_probe_deltas(s)
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise ValueError("deltas must be finite and positive")
    h = 2.0 / n
    if deltas.min() < 2.0 * h:
        raise ValueError("deltas must be at least 4/n, two grid steps: the grid is too coarse")
    if deltas[0] == deltas[-1]:  # sorted, so every width is equal
        raise ValueError("deltas must hold at least two distinct ramp half-widths")
    x = -1.0 + (np.arange(n) + 0.5) * h
    # the punctured mask keeps the pairs inside x < 0 and inside x >= 0: two blocks
    blocks = np.split(x, [np.count_nonzero(x < 0)]) if masked else [x]
    vals = np.array([sum(_toeplitz_ramp_sum(_ramp(b, d), h, s) for b in blocks)
                     for d in deltas])
    if s > 0.5:
        slope = float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])
        return ProbeResult(s=s, deltas=deltas, seminorms=vals, slope=slope,
                           target_slope=-(2.0 * s - 1.0))
    rel = float(abs(vals[-1] - vals[-2]) / vals[-1])
    return ProbeResult(s=s, deltas=deltas, seminorms=vals, slope=None, target_slope=None,
                       tail_relative_change=rel)


# ---------------------------------------------------------------------------
# configuration-space lift


@dataclass
class LiftedSpace:
    """Empirical-measure lift of a small base system.

    States are multisets of size N over the m base atoms; the reference
    weights are the exact multinomial pushforward of the product measure and
    the lifted rates move one particle at a time with base rates divided
    by N.
    """

    base_space: StateSpace
    base_kernel: Kernel
    N: int
    configs: list                    # tuples of occupation counts, sum = N
    space: StateSpace                # metric = exact W2 between empirical measures
    kernel: Kernel
    index: dict = field(default_factory=dict)

    @property
    def n_configs(self) -> int:
        return len(self.configs)


def _enumerate_counts(m: int, N: int):
    """All occupation-count vectors of m nonnegative integers summing to N."""
    if m == 1:
        yield (N,)
        return
    for first in range(N + 1):
        for rest in _enumerate_counts(m - 1, N - first):
            yield (first,) + rest


def _multinomial_weight(counts, pi) -> float:
    N = sum(counts)
    coeff = math.factorial(N)
    val = 1.0
    for c, p in zip(counts, pi):
        coeff //= math.factorial(c)
        val *= p**c
    return coeff * val


def build_lift(base_space: StateSpace, base_kernel: Kernel, N: int,
               max_configs: int = 512) -> LiftedSpace:
    """Enumerate the N-particle empirical measures over the base space and
    assemble the lifted reference weights, rates and exact transport metric."""
    m = base_space.n
    if N < 1:
        raise ValueError("particle count must be at least 1")
    configs = list(_enumerate_counts(m, N))
    if len(configs) > max_configs:
        raise ValueError(f"lift too large: {len(configs)} configurations (cap {max_configs})")
    index = {c: k for k, c in enumerate(configs)}
    pi_hat = np.array([_multinomial_weight(c, base_space.pi) for c in configs])
    M = len(configs)
    rates = np.zeros((M, M))
    for k, z, y, j in one_particle_jumps(configs, index):
        rates[k, j] += configs[k][z] * base_kernel.rates[z, y] / N
    space = StateSpace(points=np.arange(M, dtype=float), dist=_lift_distances(base_space, configs),
                       pi=pi_hat, kind="lift", meta={"N": N, "m": m})
    kernel = Kernel(rates=rates)
    return LiftedSpace(base_space=base_space, base_kernel=base_kernel, N=N,
                       configs=configs, space=space, kernel=kernel, index=index)


def _lift_distances(base_space: StateSpace, configs) -> np.ndarray:
    """Exact W2 between every pair of N-atom empirical measures.

    On a line metric (dist_ij = |x_i - x_j|) the optimal plan is the monotone
    matching, so W2^2 is the mean squared gap of the sorted atoms; other base
    metrics solve one transport LP per pair.
    """
    x = base_space.points
    counts = np.array(configs)
    M, N = counts.shape[0], int(counts[0].sum())
    if x.ndim == 1 and np.array_equal(base_space.dist, np.abs(x[:, None] - x[None, :])):
        order = np.argsort(x, kind="stable")
        atoms = np.array([np.repeat(x[order], c[order]) for c in counts])   # (M, N), sorted
        d2 = np.empty((M, M))
        block = max(1, (1 << 20) // atoms.size)   # rows per broadcast: temporaries stay ~8 MiB
        for lo in range(0, M, block):
            d2[lo:lo + block] = np.mean((atoms[lo:lo + block, None, :] - atoms[None]) ** 2, axis=2)
        return np.sqrt(d2)
    cost2 = base_space.dist**2
    dist = np.zeros((M, M))
    for a in range(M):
        for b in range(a + 1, M):
            w2 = w2_exact(counts[a] / N, counts[b] / N, cost2)
            dist[a, b] = dist[b, a] = math.sqrt(max(w2, 0.0))
    return dist


def one_particle_jumps(configs, index):
    """Every move of one particle z -> y (y != z) out of an occupied atom z, as
    (source config index, z, y, target config index), configs in order."""
    m = len(configs[0])
    for k, c in enumerate(configs):
        for z in range(m):
            if c[z] == 0:
                continue
            for y in range(m):
                if y == z:
                    continue
                target = list(c)
                target[z] -= 1
                target[y] += 1
                yield k, z, y, index[tuple(target)]


def _common_denominator(weights, max_q: int = 64) -> Optional[int]:
    for q in range(1, max_q + 1):
        scaled = weights * q
        if np.max(np.abs(scaled - np.round(scaled))) < 1e-9:
            return q
    return None


def w2_exact(mu, nu, cost2) -> float:
    """Exact squared transport distance between equal-mass atom vectors.

    Solves the transportation linear program; when both marginals are
    integer multiples of 1/q for a small q, the optimal basic solution is a
    vertex of an integral polytope and is rounded to it, making the reported
    optimum exact up to float summation.
    """
    from scipy.optimize import linprog  # ~0.7 s to import: only the LP path pays it

    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    cost2 = np.asarray(cost2, dtype=float)
    if abs(mu.sum() - nu.sum()) > 1e-9 * max(mu.sum(), 1.0):
        raise ValueError("transport marginals must carry equal mass")
    m, k = mu.size, nu.size
    if cost2.shape != (m, k):
        raise ValueError("cost matrix shape mismatch")
    c = cost2.ravel()
    A_eq = np.zeros((m + k - 1, m * k))
    b_eq = np.zeros(m + k - 1)
    for i in range(m):
        A_eq[i, i * k:(i + 1) * k] = 1.0
        b_eq[i] = mu[i]
    for j in range(k - 1):
        A_eq[m + j, j::k] = 1.0
        b_eq[m + j] = nu[j]
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, k)
    q = _common_denominator(np.concatenate([mu, nu]))
    if q is not None:
        rounded = np.round(plan * q) / q
        if (np.max(np.abs(rounded.sum(axis=1) - mu)) < 1e-9
                and np.max(np.abs(rounded.sum(axis=0) - nu)) < 1e-9):
            return float(np.sum(rounded * cost2))
    return float(res.fun)


def key_estimate_check(lifted: LiftedSpace, tol: float = 1e-12) -> dict:
    """Verify the single-jump transport bound and the lifted taming bound.

    For every configuration and every admissible one-particle jump z -> y the
    squared transport distance to the target configuration must not exceed
    d^2(z, y)/N; the lifted compatibility constant must not exceed the base
    one.
    """
    base = lifted.base_space
    N = lifted.N
    worst = -math.inf
    checked = 0
    for k, z, y, j in one_particle_jumps(lifted.configs, lifted.index):
        excess = lifted.space.dist[k, j] ** 2 - base.dist[z, y] ** 2 / N
        worst = max(worst, excess)
        checked += 1
    c_base = taming_bound(base, lifted.base_kernel)
    c_lift = taming_bound(lifted.space, lifted.kernel)
    return {
        "jumps_checked": checked,
        "max_excess": worst,
        "jump_bound_ok": worst <= tol,
        "base_taming": c_base,
        "lifted_taming": c_lift,
        "taming_ok": c_lift <= c_base + tol,
        "ok": (worst <= tol) and (c_lift <= c_base + tol),
    }


# ---------------------------------------------------------------------------
# uniqueness probe


def uniqueness_probe(coup: Coupling, triple: DissipationTriple, u0, T: float,
                     checkpoints: Optional[int] = None, euler_dt: float = 2e-6) -> dict:
    """Two independent solver paths from identical data; reports the largest
    pointwise gap between the explicit and exponential trajectories."""
    cfg_expm = evolution.IntegratorConfig(method="expm", checkpoints=checkpoints)
    cfg_euler = evolution.IntegratorConfig(method="euler", checkpoints=checkpoints, dt=euler_dt)
    t_expm = evolution.evolve(coup, triple, u0, T, cfg_expm)
    t_euler = evolution.evolve(coup, triple, u0, T, cfg_euler)
    gap = float(np.max(np.abs(t_expm.densities - t_euler.densities)))
    return {"max_gap": gap, "expm": t_expm, "euler": t_euler}

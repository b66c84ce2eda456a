"""Variational functionals: entropy, action, Fisher information, trajectory
ledger integrand, convex functionals of measures.

All edge sums run over ordered pairs (i, j), i != j, and carry the global
factor 1/2.  Extended values propagate as a saturating +inf, never as an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .densities import DissipationTriple, d_phi, legendre, phi_and_slope_boltzmann
from .quadrature import cumulative_simpson_nonuniform

if TYPE_CHECKING:  # annotations only: run and verify never execute measures
    from .measures import PosMeasure

__all__ = [
    "Upsilon",
    "entropy",
    "entropy_series",
    "action_R",
    "fisher_D",
    "edb_integrand",
    "trajectory_L",
    "f_upsilon",
]


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
    off = ~np.eye(n, dtype=bool)
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
    off = ~np.eye(u.size, dtype=bool)
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
    """Per-checkpoint quantities that every certificate reads, with the
    cumulative integrals of the integrand and the pairing."""

    times: np.ndarray
    entropy: np.ndarray     # E(u_k)
    integrand: np.ndarray   # R(u_k, w_k) + D(u_k); the pairing itself under the Fenchel split
    pairing: np.ndarray     # 1/2 sum_ij -(phi'(u_j) - phi'(u_i)) w_ij theta_ij, NaN if undefined
    integral: np.ndarray          # of the integrand
    pairing_integral: np.ndarray  # of the pairing: the same array under the Fenchel split
    singular: bool                # the integrand's singular-endpoint flag

    def ledger(self):
        """(ledger series, cumulative integral of R + D, singular-endpoint flag)."""
        return self.entropy - self.entropy[0] + self.integral, self.integral, self.singular


def _integrated(times, ent, integrand, pairing) -> _CheckpointPass:
    """The pass with each distinct series integrated once, in one block call.
    The quadrature reads an endpoint sample only through isfinite, so the
    pairing's NaN and inf alike take the rectangle there; an interior one
    makes the chain rule inconclusive, which then reads no integral."""
    series = [integrand] if pairing is integrand else [integrand, pairing]
    integrals, singular = cumulative_simpson_nonuniform(times, np.column_stack(series))
    return _CheckpointPass(times, ent, integrand, pairing, integrals[:, 0], integrals[:, -1],
                           bool(singular[0]))


def _checkpoint_pass(traj, triple: DissipationTriple, coup) -> _CheckpointPass:
    """One pass over the checkpoints, on the edges i < j with theta_ij > 0: for
    an antisymmetric flux every ordered-pair summand of ``action_R``,
    ``fisher_D`` and the chain-rule pairing is symmetric.

    On the linear flux (``traj.linear_flux``) of a canonical triple Fenchel-Young
    holds with equality on every edge, so R + D is the pairing (the Fenchel
    split), and the pairing of every checkpoint comes from the densities alone
    through one Laplacian GEMM per block of rows (``_linear_pairings``, which
    takes the entropy from the same log).  Otherwise R + D is taken edge by
    edge, from each row of the flux store."""
    (rows, cols, th), store, U = coup.edges, traj.stored_flux(coup.edges), traj.densities
    if traj.linear_flux and triple.name in ("cosh", "quadratic"):
        ent, g = _linear_pairings(U, triple.entropy, coup)
        return _integrated(traj.times, ent, g, g)
    ent = entropy_series(U, coup.pi, triple.entropy)
    g, b = np.empty(U.shape[0]), np.empty(U.shape[0])
    for k, u in enumerate(U):
        ui, uj = u[rows], u[cols]
        w = ui - uj if store is None else store[k]
        g[k] = _pairing(triple.entropy.dphi_ext(u), w, rows, cols, th)
        a = triple.flux.alpha(ui, uj)
        if np.any((a == 0) & (w != 0)):
            R = np.inf  # the flux charges an edge where alpha vanishes
        else:
            ratio = _ratio(w, a, out=np.zeros_like(w), where=a > 0)
            R = float(np.sum(legendre(triple.pair, ratio) * a * th))
        dv = d_phi(triple, ui, uj)
        D = np.inf if np.any(np.isinf(dv)) else float(np.sum(dv * th))
        b[k] = R + D
    return _integrated(traj.times, ent, b, g)


PASS_BLOCK = 64  # least rows per Laplacian GEMM (at most twice that): temporaries stay O(128 n)


def _linear_pairings(U, entropy_density, coup) -> tuple:
    """The entropy of every row u of U, and its pairing with its linear flux
    w_ij = u_i - u_j: sum over the edges of (lam_i - lam_j)(u_i - u_j) theta_ij,
    lam = phi'(u), for the Boltzmann ``entropy_density`` of the canonical
    triples.  phi(u) and lam come from one log of each block
    (`densities.phi_and_slope_boltzmann`), bit for bit the values of
    ``entropy_series`` and ``dphi_ext``.

    With the Laplacian L = diag(theta 1) - theta it is (lam - phi'(c)) . (L (u - c))
    for any c constant on each coupling component (L c = 0 and 1^T L = 0 there).
    Uncentred, lam . (L u) cancels all its digits near equilibrium; c is the
    mean of u over each component, so both factors are of the size of the
    differences.  A row with a vacant state (non-finite lam) comes out
    non-finite and takes the per-edge ``_pairing``, whose +inf and NaN rules
    it keeps.  No block of rows has one row (numpy hands a one-row product to
    GEMV, which rounds differently), so no row's value depends on its block."""
    n, (rows, cols, th), labels = U.shape[1], coup.edges, coup.labels
    lap = np.zeros((n, n))
    lap[rows, cols] = lap[cols, rows] = -th
    lap[np.diag_indices(n)] = np.bincount(rows, th, n) + np.bincount(cols, th, n)
    sizes = np.bincount(labels)
    order, starts = np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes
    ent, parts = [], []
    for block in np.array_split(U, max(1, U.shape[0] // PASS_BLOCK)):
        mean = np.add.reduceat(block[:, order], starts, axis=1) / sizes  # (rows, components)
        centred = mean[:, labels]
        np.subtract(block, centred, out=centred)  # in place here and below: few temporaries
        phi, lam = phi_and_slope_boltzmann(block)  # lam = -inf at a vacant state
        phi *= coup.pi
        ent.append(phi.sum(axis=1))
        with np.errstate(invalid="ignore"):
            lam -= entropy_density.dphi_ext(mean)[:, labels]
            flow = centred @ lap
            flow *= lam
            parts.append(flow.sum(axis=1))
    ent, g = np.concatenate(ent), np.concatenate(parts)
    for k in np.flatnonzero(~np.isfinite(g)):
        u = U[k]
        g[k] = _pairing(entropy_density.dphi_ext(u), u[rows] - u[cols], rows, cols, th)
    return ent, g


def _pairing(lam, w, rows, cols, th) -> float:
    """Sum over the edges of (lam_i - lam_j) w theta, lam = phi'(u); NaN if undefined."""
    with np.errstate(invalid="ignore"):
        vals = (lam[rows] - lam[cols]) * w
    if not np.all(np.isfinite(lam)):  # an infinite slope against zero flux pairs to 0
        vals[(w == 0.0) & ~np.isfinite(vals)] = 0.0
    return float(vals @ th)


def trajectory_L(traj, triple: DissipationTriple, coup, report: bool = False):
    """Energy-dissipation ledger series L_t along a trajectory.

    L at checkpoint t is E(u_t) - E(u_0) + integral of (R + D) over [0, t],
    time-quadratured on the checkpoint grid by the sixth-order rule of
    `quadrature`.  A non-finite integrand at the initial or final checkpoint
    only (vacuum start under a superlinear dissipation) is integrated by the
    one-sided rectangle rule and flagged.
    """
    cp = _checkpoint_pass(traj, triple, coup)
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

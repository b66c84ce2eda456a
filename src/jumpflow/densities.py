"""Entropy, dissipation and flux densities and their derived maps.

Provides the two canonical triples built on the Boltzmann entropy: the
quadratic dissipation with the logarithmic-mean flux density and the cosh
dissipation with the geometric-mean flux density.  Both satisfy the
compatibility identity that turns the gradient-flow equation into the linear
jump evolution, which `compat_check` certifies numerically.

Extended values are legitimate outputs here: the Boltzmann entropy has
derivative -inf at zero, and the derived maps propagate that as +-inf or
+inf rather than raising.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EntropyDensity",
    "DissipationPair",
    "FluxDensity",
    "DissipationTriple",
    "boltzmann_entropy",
    "quadratic_pair",
    "cosh_pair",
    "log_mean_flux",
    "geometric_mean_flux",
    "canonical_triple",
    "phi_boltzmann",
    "legendre",
    "lambda_phi",
    "f_map",
    "compat_check",
    "d_phi",
]


# ---------------------------------------------------------------------------
# density descriptors


@dataclass(frozen=True)
class EntropyDensity:
    """Convex entropy density with min 0 and superlinear growth."""

    phi: Callable
    dphi: Callable          # derivative for s > 0
    dphi_at_zero: float     # limit of the derivative at 0+, may be -inf
    name: str = "custom"

    def dphi_ext(self, s):
        """Derivative extended to s = 0 by its limit value."""
        s = np.asarray(s, dtype=float)
        out = np.where(s > 0, self.dphi(np.maximum(s, 1e-300)), self.dphi_at_zero)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DissipationPair:
    """Dual pair (psi, psi*) of even convex dissipation densities.

    ``psi`` may be None, in which case `legendre` falls back to a numeric
    conjugate.
    """

    psi_star: Callable
    dpsi_star: Callable
    psi: Optional[Callable] = None
    name: str = "custom"


@dataclass(frozen=True)
class FluxDensity:
    """Concave symmetric flux density alpha(u, v) >= 0."""

    alpha: Callable
    name: str = "custom"


@dataclass(frozen=True)
class DissipationTriple:
    entropy: EntropyDensity
    pair: DissipationPair
    flux: FluxDensity
    compatible: bool = False
    name: str = "custom"


# ---------------------------------------------------------------------------
# canonical densities


def phi_boltzmann(s):
    """Boltzmann entropy density s log s - s + 1, with value 1 at s = 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("entropy density argument must be nonnegative")
    safe = np.where(s > 0, s, 1.0)
    out = np.where(s > 0, safe * np.log(safe) - safe + 1.0, 1.0)
    return out if out.ndim else float(out)


def phi_and_slope_boltzmann(s):
    """phi_boltzmann(s) and the Boltzmann dphi_ext(s) of an array s >= 0, bit
    for bit, from one log of max(s, 1e-300): below 1e-300, and at 0,
    s log s - s is far below the ulp of 1 whichever log it takes."""
    log = np.log(np.maximum(s, 1e-300))
    phi = s * log
    phi -= s
    phi += 1.0
    log[s <= 0] = -math.inf
    return phi, log


def boltzmann_entropy() -> EntropyDensity:
    return EntropyDensity(phi=phi_boltzmann, dphi=np.log, dphi_at_zero=-math.inf, name="boltzmann")


def _psi_star_quadratic(xi):
    xi = np.asarray(xi, dtype=float)
    out = 0.5 * xi**2
    return out if out.ndim else float(out)


def _psi_star_cosh(xi):
    xi = np.asarray(xi, dtype=float)
    out = 4.0 * (np.cosh(0.5 * xi) - 1.0)
    return out if out.ndim else float(out)


def _psi_cosh(w):
    # conjugate of 4(cosh(xi/2) - 1), 2a asinh(a/2) - 2 (sqrt(4 + a^2) - 2) on a = |w|,
    # as 2a (asinh(a/2) - r) with r = a / (sqrt(4 + a^2) + 2) in [0, 1]: nothing cancels
    # near 0, a^2 is never formed, and from |w| ~ 1.3e305 on the product overflows to
    # +inf, which is psi's value there (r is its limit 1 at a = inf)
    a = np.abs(np.asarray(w, dtype=float))
    r = np.divide(a, np.hypot(2.0, a) + 2.0, out=np.ones_like(a), where=~np.isinf(a))
    with np.errstate(over="ignore"):
        out = 2.0 * a * (np.arcsinh(0.5 * a) - r)
    return out if out.ndim else float(out)


def quadratic_pair() -> DissipationPair:
    return DissipationPair(
        psi_star=_psi_star_quadratic,
        dpsi_star=lambda xi: np.asarray(xi, dtype=float) * 1.0,
        psi=_psi_star_quadratic,
        name="quadratic",
    )


def cosh_pair() -> DissipationPair:
    return DissipationPair(
        psi_star=_psi_star_cosh,
        dpsi_star=lambda xi: 2.0 * np.sinh(0.5 * np.asarray(xi, dtype=float)),
        psi=_psi_cosh,
        name="cosh",
    )


def _log_mean(u, v):
    """(u - v) / (log u - log v).  For |z| < 1/2, z = (u - v)/(u + v), the log
    difference cancels; there it is 2 atanh z, exact algebra that keeps the
    quotient within a few ulp.  Near |z| = 1 the rounding of z would cost more."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, (u - v) / np.where(s > 0, s, 1.0), 0.0)
        near = (u - v) / (2.0 * np.arctanh(z))
        direct = (u - v) / (np.log(np.maximum(u, 1e-300)) - np.log(np.maximum(v, 1e-300)))
    out = np.where(np.abs(z) < 0.5, near, direct)
    out = np.where((u == 0) | (v == 0), 0.0, out)
    out = np.where(u == v, u, out)
    return out if out.ndim else float(out)


def _geo_mean(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.sqrt(np.maximum(u * v, 0.0))
    return out if out.ndim else float(out)


def log_mean_flux() -> FluxDensity:
    return FluxDensity(alpha=_log_mean, name="logmean")


def geometric_mean_flux() -> FluxDensity:
    return FluxDensity(alpha=_geo_mean, name="geomean")


def canonical_triple(kind: str) -> DissipationTriple:
    """The two compatible Boltzmann triples, by name 'quadratic' or 'cosh'."""
    if kind == "quadratic":
        return DissipationTriple(boltzmann_entropy(), quadratic_pair(), log_mean_flux(),
                                 compatible=True, name="quadratic")
    if kind == "cosh":
        return DissipationTriple(boltzmann_entropy(), cosh_pair(), geometric_mean_flux(),
                                 compatible=True, name="cosh")
    raise ValueError(f"unknown triple '{kind}'")


# ---------------------------------------------------------------------------
# spec operations


def _numeric_conjugate(fn, dfn, w, tol=1e-10):
    """sup_xi (w xi - fn(xi)) for even convex superlinear fn, by safeguarded Newton
    on dfn(xi) = |w| with the bracket grown until the slope exceeds |w|."""
    w = float(w)
    aw = abs(w)
    if aw == 0.0:
        return 0.0
    hi = 1.0
    while dfn(hi) < aw:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("conjugate bracket did not close; fn may not be superlinear")
    lo = 0.0
    xi = min(hi, aw)
    for _ in range(200):
        g = dfn(xi) - aw
        if g > 0:
            hi = xi
        else:
            lo = xi
        h2 = (dfn(xi + 1e-6) - dfn(xi - 1e-6)) / 2e-6
        step = g / h2 if h2 > 0 else 0.0
        nxt = xi - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - xi) <= tol * max(1.0, abs(xi)):
            xi = nxt
            break
        xi = nxt
    return aw * xi - fn(xi)


def legendre(pair: DissipationPair, w):
    """Primal dissipation psi(w) = sup_xi (w xi - psi*(xi)): the pair's closed
    form when it has one, else a numeric conjugate."""
    if pair.psi is not None:
        return pair.psi(w)
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        return _numeric_conjugate(pair.psi_star, pair.dpsi_star, float(w))
    return np.array([_numeric_conjugate(pair.psi_star, pair.dpsi_star, wi) for wi in w.ravel()]).reshape(w.shape)


def lambda_phi(entropy: EntropyDensity, u, v):
    """Entropy-derivative gradient phi'(v) - phi'(u), zero at the origin."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = entropy.dphi_ext(v) - entropy.dphi_ext(u)
    out = np.where((u == 0) & (v == 0), 0.0, out)
    return out if out.ndim else float(out)


def f_map(triple: DissipationTriple, u, v):
    """Flux map (psi*)'(phi'(v) - phi'(u)) alpha(u, v), with value 0 at (0, 0).

    Where alpha vanishes off the origin the product is indeterminate; for
    compatible triples it is resolved by the continuous extension v - u, for
    generic triples NaN is returned.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(triple.flux.alpha(u, v), dtype=float)
    lam = np.asarray(lambda_phi(triple.entropy, u, v), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.where(np.isinf(lam), np.sign(lam) * np.inf, triple.pair.dpsi_star(np.where(np.isfinite(lam), lam, 0.0)))
        core = slope * a
    boundary = (v - u) if triple.compatible else np.full_like(core, np.nan)
    out = np.where(a > 0, core, boundary)
    out = np.where((u == 0) & (v == 0), 0.0, out)
    return out if out.ndim else float(out)


def compat_check(triple: DissipationTriple, samples: int = 10_000,
                 lo: float = 1e-6, hi: float = 10.0) -> float:
    """Max |F(u, v) - (v - u)| over the k x k grid geomspace(lo, hi, k)^2 of the
    open quadrant, k = isqrt(samples); the grid holds its four corners."""
    axis = np.geomspace(lo, hi, math.isqrt(samples))
    u = np.repeat(axis, axis.size)
    v = np.tile(axis, axis.size)
    f = f_map(triple, u, v)
    return float(np.max(np.abs(f - (v - u))))


def d_phi(triple: DissipationTriple, u, v):
    """Fisher-information integrand.

    Closed-form lower semicontinuous envelopes for the canonical triples:
    quadratic-Boltzmann  (v - u)(log v - log u)/2, +inf when exactly one
    argument vanishes; cosh-Boltzmann  2 (sqrt v - sqrt u)^2 everywhere, taken
    as 2 ((v - u) / (sqrt v + sqrt u))^2 so nearby u, v do not cancel.
    Generic triples fall back to the raw product psi*(Lambda) alpha without
    envelope computation.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if triple.name == "cosh":
        u, v = np.maximum(u, 0.0), np.maximum(v, 0.0)
        roots = np.sqrt(v) + np.sqrt(u)
        with np.errstate(invalid="ignore"):
            out = np.where(roots > 0, 2.0 * ((v - u) / roots) ** 2, 0.0)
        return out if out.ndim else float(out)
    if triple.name == "quadratic":
        with np.errstate(divide="ignore", invalid="ignore"):
            core = 0.5 * (v - u) * (np.log(np.maximum(v, 1e-300)) - np.log(np.maximum(u, 1e-300)))
        out = np.where(u == v, 0.0, core)
        one_zero = ((u == 0) ^ (v == 0))
        out = np.where(one_zero, np.inf, out)
        return out if out.ndim else float(out)
    warnings.warn(
        f"triple '{triple.name}': returning the raw integrand; the lsc envelope is not computed",
        stacklevel=2,
    )
    a = np.asarray(triple.flux.alpha(u, v), dtype=float)
    lam = np.asarray(lambda_phi(triple.entropy, u, v), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        core = np.where(np.isfinite(lam), triple.pair.psi_star(np.where(np.isfinite(lam), lam, 0.0)), np.inf)
    out = np.where(a > 0, core * a, np.where((u == 0) & (v == 0), 0.0, np.inf))
    return out if out.ndim else float(out)

"""Verification of the variational certificates along computed trajectories.

The report checks, on the checkpoint lattice: the energy-dissipation balance
on every checkpoint pair, the one-sided energy-dissipation inequality, the
chain rule, the continuity equation over the whole class of bounded
Lipschitz test functions (on the whole space, and on each of the coupling's
components, which takes in the steps between them), and the hard trajectory
invariants (mass, maximum principle, entropy monotonicity, the mass of each
component).  ``pointwise_edb`` checks the pointwise balance against a
difference stencil on its own; the report does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .densities import DissipationTriple
from .evolution import EDB_TOL_REL, RCE_TOL, Trajectory, _w1_sums
from .functionals import _checkpoint_pass

__all__ = [
    "LedgerReport",
    "edb_report",
    "chain_rule_residual",
    "pointwise_edb",
    "rce_battery",
    "upgrade_verdict",
    "full_report",
    "render_table",
]

VERDICT_BALANCED = "Balanced/Reflecting"
VERDICT_DISSIPATIVE = "Dissipative"
VERDICT_NEITHER = "Neither"

# quadrature-limited defaults: smooth problems (EDB_TOL_REL) vs stiff small-cutoff problems
DEFAULT_TOL_STIFF = 1e-4
STIFF_EPS = 1e-3
POINTWISE_MIN_WIDTH_REL = 1e-4  # narrowest stencil `pointwise_edb` reads, relative to the span


def default_tolerance(cutoff_eps: Optional[float]) -> float:
    if cutoff_eps is not None and cutoff_eps <= STIFF_EPS:
        return DEFAULT_TOL_STIFF
    return EDB_TOL_REL


@dataclass
class LedgerReport:
    times: np.ndarray
    ledger_series: np.ndarray           # L_t at every checkpoint
    edi_ok: bool
    edb_ok: bool
    tol_abs: float
    energy_scale: float
    max_chain_residual: Optional[float] = None  # largest per-interval chain-rule residual
    chain_ok: Optional[bool] = None
    chain_inconclusive: bool = False
    ce_residual: Optional[float] = None     # the Lipschitz class on the whole space
    ce_ok: Optional[bool] = None
    rce_residual: Optional[float] = None    # and on each component, steps included
    rce_ok: Optional[bool] = None
    invariants: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    verdict: str = ""

    def max_edb_residual(self) -> float:
        # the spread of L over checkpoints bounds the residual on every pair
        return float(np.max(self.ledger_series) - np.min(self.ledger_series))

    def residual_on(self, k_s: int, k_t: int) -> float:
        return float(self.ledger_series[k_t] - self.ledger_series[k_s])

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "verdict": self.verdict,
            "tol_abs": self.tol_abs,
            "energy_scale": self.energy_scale,
            "edb_ok": self.edb_ok,
            "edi_ok": self.edi_ok,
            "max_edb_residual": self.max_edb_residual(),
            "final_ledger": float(self.ledger_series[-1]),
            "chain_ok": self.chain_ok,
            "chain_inconclusive": self.chain_inconclusive,
            "max_chain_residual": self.max_chain_residual,
            "ce_residual": self.ce_residual,
            "ce_ok": self.ce_ok,
            "rce_residual": self.rce_residual,
            "rce_ok": self.rce_ok,
            "invariants": self.invariants,
            "flags": self.flags,
            "n_checkpoints": int(self.times.size),
        }


def _invariant_checks(traj: Trajectory, ent, coup) -> dict:
    U, pi, labels = traj.densities, coup.pi, coup.labels
    mass = U @ pi
    mass_scale = max(abs(mass[0]), 1e-300)
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass_scale)
    lo, hi = float(U[0].min()), float(U[0].max())
    max_principle_excess = float(max(np.max(U) - hi, lo - np.min(U), 0.0))
    entropy_increase = float(max(np.max(np.diff(ent)), 0.0)) if ent.size > 1 else 0.0
    inv = {
        "mass_drift_rel": mass_drift,
        "mass_ok": mass_drift <= 1e-10,
        "max_principle_excess": max_principle_excess,
        "max_principle_ok": max_principle_excess <= 1e-10,
        "entropy_increase": entropy_increase,
        "entropy_monotone_ok": entropy_increase <= 1e-10,
    }
    if labels.max() > 0:
        masses = (U[:, labels == c] @ pi[labels == c] for c in range(labels.max() + 1))
        drift = max(float(np.max(np.abs(m - m[0]))) for m in masses)
        inv["component_mass_drift"] = drift / mass_scale
        inv["component_mass_ok"] = drift / mass_scale <= 1e-12
    return inv


def edb_report(traj: Trajectory, triple: DissipationTriple, coup,
               tol_rel: Optional[float] = None) -> LedgerReport:
    """Energy-dissipation report: ledger series, per-interval residuals,
    balance and inequality verdicts, and the invariant checklist.

    The tolerance is relative to the initial entropy; at (or near) the
    entropy minimum a roundoff-level floor tied to the total mass keeps the
    relative test meaningful.
    """
    return _edb_report(traj, _checkpoint_pass(traj, triple, coup), coup, tol_rel)


def _edb_report(traj, cp, coup, tol_rel) -> LedgerReport:
    series, _, singular = cp.ledger()
    mass = float(traj.densities[0] @ coup.pi)
    scale = max(float(cp.entropy[0]), 1e-12 * (1.0 + mass))
    tol = (tol_rel if tol_rel is not None else EDB_TOL_REL) * scale
    finite = np.all(np.isfinite(series))
    edb_ok = bool(finite and np.max(np.abs(series)) <= tol
                  and float(np.max(series) - np.min(series)) <= tol)
    edi_ok = bool(finite and np.max(series) <= tol)
    return LedgerReport(
        times=traj.times,
        ledger_series=series,
        edi_ok=edi_ok,
        edb_ok=edb_ok,
        tol_abs=tol,
        energy_scale=scale,
        invariants=_invariant_checks(traj, cp.entropy, coup),
        flags={"initial_singular": singular},
    )


def chain_rule_residual(traj: Trajectory, triple: DissipationTriple, coup,
                        detail: bool = False):
    """Per-interval residual |dE - integral of the entropy-gradient flux pairing|.

    Returns ``(series, inconclusive)``; the check is inconclusive rather than
    failed when the integrand is non-finite away from the trajectory
    endpoints (vacuum regions under an entropy with infinite slope at zero).
    With ``detail`` the residual spread over all checkpoint pairs is appended,
    which is the quantity compared against the ledger tolerance.
    """
    result = _chain_rule(_checkpoint_pass(traj, triple, coup))
    return result if detail else result[:2]


def _chain_rule(cp):
    """(per-interval residual, inconclusive, spread over all checkpoint pairs)."""
    g, ent = cp.pairing, cp.entropy
    if np.any(~np.isfinite(g[1:-1])):
        return np.full(g.size - 1, np.nan), True, float("nan")
    integral = cp.pairing_integral
    # the pairing equals -dE/dt along the curve, so the defect is dE + integral
    defect = (ent - ent[0]) + integral
    return np.abs(np.diff(ent) + np.diff(integral)), False, float(np.max(defect) - np.min(defect))


def pointwise_edb(traj: Trajectory, triple: DissipationTriple, coup) -> np.ndarray:
    """At interior checkpoints, |R + D + dE/dt| with a three-point difference
    stencil for the entropy derivative (nonuniform-grid form).

    Stencils narrower than ``POINTWISE_MIN_WIDTH_REL`` of the span are skipped (NaN):
    there the difference quotient only amplifies entropy roundoff.
    """
    cp = _checkpoint_pass(traj, triple, coup)
    t, ent = cp.times, cp.entropy
    floor = POINTWISE_MIN_WIDTH_REL * (t[-1] - t[0])
    out = np.full(max(t.size - 2, 0), np.nan)
    for k in range(1, t.size - 1):
        x0, x1, x2 = t[k - 1], t[k], t[k + 1]
        if x2 - x0 < floor:
            continue
        f0, f1, f2 = ent[k - 1], ent[k], ent[k + 1]
        dE = (f0 * (x1 - x2) / ((x0 - x1) * (x0 - x2))
              + f1 * (2 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
              + f2 * (x1 - x0) / ((x2 - x0) * (x2 - x1)))
        out[k - 1] = abs(cp.integrand[k] + dE)
    return out


def rce_battery(traj: Trajectory, triple: DissipationTriple, coup, cp=None) -> dict:
    """Continuity-equation values over the whole test class, relative to the mass.

    With r the flux divergence of each state and D(0, t) = pi (u_t - u_0) +
    int_0^t r, a test function phi has the defect phi . D(0, t) on [0, t], and
    its spread over all checkpoint pairs is at most 2 max_t |phi . D(0, t)|.
    Along a metric path (`Coupling.paths`) every 1-Lipschitz phi with
    |phi| <= 1 pairs with at most the path's W1 sum of D plus |net D|
    (Kantorovich-Rubinstein).  'lipschitz_class' is 2 max_t of that on the
    whole space, 'component_class' of its sum over the components: phi
    1-Lipschitz on each, the steps between them included.  With k >= 2
    components the spread of each step c < k - 1 is reported too
    (``component_step``, then ``component_step_{c}``).  ``cp`` is the
    checkpoint pass of the same arguments, computed when None."""
    if cp is None:
        cp = _checkpoint_pass(traj, triple, coup)
    mass = max(float(traj.densities[0] @ coup.pi), 1e-300)
    D = (traj.densities - traj.densities[0]) * coup.pi + cp.divergence_integral()
    whole, components = coup.paths

    def value(paths):
        nets = sum(np.abs(D[:, states].sum(axis=1)) for states, _ in paths)
        return 2.0 * float(np.max(np.abs(_w1_sums(D, paths)).sum(axis=1) + nets)) / mass

    out = {"lipschitz_class": value([whole]), "component_class": value(components)}
    for c, (states, _) in enumerate(components[:-1]):
        net = D[:, states].sum(axis=1)
        out[f"component_step_{c}" if c else "component_step"] = float(np.ptp(net)) / mass
    return out


def upgrade_verdict(report: LedgerReport) -> str:
    """Classify the trajectory from the assembled report.

    Balanced/Reflecting requires the balance on every checkpoint pair and the
    continuity equation over the class Lipschitz on each component, the steps
    included; Dissipative requires the one-sided inequality plus the plain
    continuity equation over the class Lipschitz on the whole space.
    """
    rce_good = report.rce_ok if report.rce_ok is not None else False
    ce_good = report.ce_ok if report.ce_ok is not None else rce_good
    if report.edb_ok and rce_good:
        return VERDICT_BALANCED
    if report.edi_ok and ce_good:
        return VERDICT_DISSIPATIVE
    return VERDICT_NEITHER


def full_report(traj: Trajectory, triple: DissipationTriple, coup,
                tol_rel: Optional[float] = None) -> LedgerReport:
    """Assemble the complete ledger: balance, chain rule, continuity classes
    and the final verdict."""
    cp = _checkpoint_pass(traj, triple, coup)
    report = _edb_report(traj, cp, coup, tol_rel)
    chain, report.chain_inconclusive, chain_spread = _chain_rule(cp)
    report.max_chain_residual = float(np.max(chain))
    if not report.chain_inconclusive:
        report.chain_ok = bool(np.isfinite(chain_spread) and chain_spread <= report.tol_abs)
        report.flags["chain_spread"] = chain_spread
    continuity = rce_battery(traj, triple, coup, cp)
    report.ce_residual = continuity["lipschitz_class"]
    report.ce_ok = report.ce_residual <= RCE_TOL
    report.rce_residual = float(np.maximum(report.ce_residual, continuity["component_class"]))
    report.rce_ok = report.rce_residual <= RCE_TOL
    report.flags["continuity"] = continuity
    report.verdict = upgrade_verdict(report)
    return report


def render_table(report: LedgerReport) -> str:
    """Human-readable summary table."""
    rows = [
        ("verdict", report.verdict),
        ("max |EDB residual|", f"{report.max_edb_residual():.3e}"),
        ("final ledger L_T", f"{float(report.ledger_series[-1]):.3e}"),
        ("tolerance (abs)", f"{report.tol_abs:.3e}"),
        ("EDI holds", str(report.edi_ok)),
        ("chain rule", "inconclusive" if report.chain_inconclusive else str(report.chain_ok)),
        ("CE residual (Lipschitz class)",
         "-" if report.ce_residual is None else f"{report.ce_residual:.3e}"),
        ("RCE residual (component class)",
         "-" if report.rce_residual is None else f"{report.rce_residual:.3e}"),
    ]
    for k, v in report.invariants.items():
        rows.append((k, f"{v:.3e}" if isinstance(v, float) else str(v)))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)

"""Acceptance suite: one test per criterion, pinned tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and measured values.
"""

import time

import numpy as np
import pytest

from jumpflow import evolution
from jumpflow.densities import canonical_triple, compat_check
from jumpflow.evolution import (GRID_EDB_FRACTION, GRID_RCE_FRACTION, RCE_TOL, IntegratorConfig,
                                _grid_series, _spectral_parts, evolve, generator)
from jumpflow.experiments import (build_lift, density_gap_probe, key_estimate_check,
                                  robustness_sweep, uniqueness_probe)
from jumpflow.functionals import Upsilon, entropy, f_upsilon, trajectory_L
from jumpflow.ledger import default_tolerance, edb_report, full_report
from jumpflow.measures import (PosMeasure, add, jordan_from_setfunction, restrict,
                               scale_by_function)
from jumpflow.quadrature import _interval_pieces
from jumpflow.spaces import (build_graph, build_grid, coupling, cutoff, fractional_kernel,
                             matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")
QUAD = canonical_triple("quadratic")


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def two_point_run():
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    coup = coupling(sp, matrix_kernel([[0.0, 1.0], [1.0, 0.0]]))
    t0 = time.perf_counter()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    series = trajectory_L(traj, COSH, coup)
    elapsed = time.perf_counter() - t0
    return {"space": sp, "coupling": coup, "traj": traj, "series": series,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def grid_run():
    sp = build_grid(-1.0, 1.0, 200)
    kern = cutoff(fractional_kernel(sp, 0.6), sp, 1e-3)
    coup = coupling(sp, kern)
    u0 = np.where(sp.points < 0.0, 2.0, 0.0)
    t0 = time.perf_counter()
    traj = evolve(coup, COSH, u0, 0.5)
    series = trajectory_L(traj, COSH, coup)
    elapsed = time.perf_counter() - t0
    return {"space": sp, "coupling": coup, "traj": traj, "series": series,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def punctured_run():
    sp = build_grid(-1.0, 1.0, 200)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    u0 = 1.0 + 0.8 * np.sin(np.pi * sp.points) * (sp.points < 0) + 0.3 * (sp.points > 0)
    traj = evolve(coup, COSH, u0, 0.5)
    rep = full_report(traj, COSH, coup)
    return {"space": sp, "coupling": coup, "traj": traj, "report": rep}


@pytest.fixture(scope="module")
def sweep_run():
    sp = build_grid(-1.0, 1.0, 200)
    kern = fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0))
    u0 = 1.0 + 0.8 * np.sin(np.pi * sp.points) * (sp.points < 0) + 0.3 * (sp.points > 0)
    trajs = []  # the sweep's trajectories, one per eps

    def recorded(*args, **kwargs):
        trajs.append(evolve(*args, **kwargs))
        return trajs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "evolve", recorded)
        t0 = time.perf_counter()
        result = robustness_sweep(sp, kern, COSH, [1e-1, 1e-2, 1e-3, 1e-4], u0, 0.5)
        elapsed = time.perf_counter() - t0
    return {"result": result, "elapsed": elapsed, "space": sp, "kernel": kern, "u0": u0,
            "trajs": trajs}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_compatibility_identity():
    t0 = time.perf_counter()
    res_cosh = compat_check(COSH, 10_000)
    res_quad = compat_check(QUAD, 10_000)
    elapsed = time.perf_counter() - t0
    assert res_cosh <= 1e-12
    assert res_quad <= 1e-12
    assert elapsed < 1.0
    report(1, f"compat residual cosh {res_cosh:.2e}, quadratic {res_quad:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_02_two_point_edb_oracle(two_point_run):
    traj = two_point_run["traj"]
    g = np.exp(-2.0 * traj.times)
    oracle = np.stack([1.0 + g, 1.0 - g], axis=1)
    traj_err = np.max(np.abs(traj.densities - oracle))
    assert traj_err <= 1e-10
    scale = entropy(traj.densities[0], two_point_run["space"].pi, COSH.entropy)
    rel = np.max(np.abs(two_point_run["series"])) / scale
    assert rel <= 1e-8
    assert two_point_run["elapsed"] < 1.0
    report(2, f"two-point rel |L| {rel:.2e} (traj error {traj_err:.1e}), "
              f"{two_point_run['elapsed']:.2f}s")


def test_criterion_03_grid_edb(grid_run):
    scale = entropy(grid_run["traj"].densities[0], grid_run["space"].pi, COSH.entropy)
    rel = np.max(np.abs(grid_run["series"])) / scale
    assert rel <= 1e-4
    assert grid_run["elapsed"] < 60.0
    report(3, f"grid n=200 eps=1e-3 rel |L| {rel:.2e}, {grid_run['elapsed']:.1f}s")


def test_criterion_04_mass_conservation(two_point_run, grid_run):
    worst = 0.0
    for run in (two_point_run, grid_run):
        mass = run["traj"].mass(run["space"].pi)
        worst = max(worst, float(np.max(np.abs(mass - mass[0])) / mass[0]))
    assert worst <= 1e-10
    report(4, f"mass drift {worst:.2e} across criteria 2-3 snapshots")


def test_criterion_05_maximum_principle(two_point_run, grid_run, punctured_run):
    worst = 0.0
    for run in (two_point_run, grid_run, punctured_run):
        U = run["traj"].densities
        lo, hi = U[0].min(), U[0].max()
        worst = max(worst, float(max(np.max(U) - hi, lo - np.min(U), 0.0)))
    assert worst <= 1e-10
    report(5, f"maximum-principle excess {worst:.2e}")


def test_criterion_06_entropy_monotone(two_point_run, grid_run, punctured_run):
    worst = 0.0
    for run in (two_point_run, grid_run, punctured_run):
        sp = run["space"]
        ent = np.array([entropy(u, sp.pi, COSH.entropy) for u in run["traj"].densities])
        worst = max(worst, float(np.max(np.diff(ent))))
    assert worst <= 1e-10
    report(6, f"largest entropy increase {worst:.2e}")


def test_criterion_07_robustness_sweep(sweep_run):
    res = sweep_run["result"]
    assert np.all(np.diff(res.gaps) < 0.0)
    ratios = res.gap_ratios()
    assert np.all(ratios >= 2.0)
    assert sweep_run["elapsed"] < 300.0
    report(7, "sweep gaps " + ", ".join(f"{g:.2e}" for g in res.gaps)
           + f"; ratios {np.min(ratios):.1f}+; {sweep_run['elapsed']:.1f}s")


def continuity_error(coup, u0, times):
    """The continuity error the default grid sums on the grid ``times``: the
    realized error |F(t_j+1) - F(t_j) + piece_j| of the sampler's W1 series
    against its primitive, over the intervals."""
    parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    _, (f, F) = _grid_series(parts, coup, COSH, u0, True)(times)
    pieces, _ = _interval_pieces(times, f)
    return float(np.abs(F[1:] - F[:-1] + pieces).sum())


def test_sweep_grids_are_sized_for_the_edb_alone(sweep_run):
    # the sweep computes no continuity certificate: its grids carry the EDB
    # budget only, and the gaps, from the spectral densities at T, are those of
    # the grids that also carry the continuity budget
    res, sp, trajs = sweep_run["result"], sweep_run["space"], sweep_run["trajs"]
    assert len(trajs) == len(res.eps_list)
    assert sum(traj.times.size for traj in trajs) <= 700
    terminal, full_sizes = [], 0
    for eps, traj, residual in zip(res.eps_list, trajs, res.edb_residuals):
        target = GRID_EDB_FRACTION * default_tolerance(eps)
        assert set(traj.meta["grid_error"]) == {"edb_rel"}
        assert traj.meta["grid_error"]["edb_rel"] <= target and residual <= target, eps
        coup = coupling(sp, cutoff(sweep_run["kernel"], sp, eps))
        full = evolve(coup, COSH, sweep_run["u0"], 0.5, tol_rel=default_tolerance(eps))
        # where the EDB budget alone sets K+1 (eps = 1e-1) the greedy bisection
        # may end a checkpoint apart, but the EDB-only grid then meets the
        # continuity budget too; more checkpoints in all
        assert "rce_rel" in full.meta["grid_error"]
        budget = GRID_RCE_FRACTION * RCE_TOL * float(sweep_run["u0"] @ coup.pi)
        assert (full.times.size >= traj.times.size
                or continuity_error(coup, sweep_run["u0"], traj.times) <= budget), eps
        full_sizes += full.times.size
        terminal.append(full.densities[-1])
    assert full_sizes > sum(traj.times.size for traj in trajs)
    gaps = [np.sum(np.abs(a - b) * sp.pi) for a, b in zip(terminal, terminal[1:])]
    np.testing.assert_allclose(res.gaps, gaps, rtol=1e-15, atol=0.0)


def test_criterion_08_component_masses(punctured_run):
    sp = punctured_run["space"]
    traj = punctured_run["traj"]
    left = sp.points < 0
    m_left = traj.densities[:, left] @ sp.pi[left]
    m_right = traj.densities[:, ~left] @ sp.pi[~left]
    total = m_left[0] + m_right[0]
    drift = max(np.max(np.abs(m_left - m_left[0])), np.max(np.abs(m_right - m_right[0])))
    assert drift <= 1e-12 * total
    report(8, f"component mass drift {drift:.2e} (total mass {total:.3f})")


def test_criterion_09_density_gap_probe():
    t0 = time.perf_counter()
    lines = []
    for s in (0.6, 0.75, 0.9):
        res = density_gap_probe(s, n=4096)
        err = abs(res.slope - res.target_slope)
        assert err <= 0.1, (s, res.slope, res.target_slope)
        lines.append(f"s={s}: slope {res.slope:+.3f} (target {res.target_slope:+.2f})")
    res_low = density_gap_probe(0.25, n=4096)
    assert res_low.tail_relative_change <= 0.10
    lines.append(f"s=0.25 tail change {res_low.tail_relative_change:.1%}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(9, "; ".join(lines) + f"; {elapsed:.1f}s")


def test_criterion_10_configuration_space_lift():
    base = build_grid(0.0, 1.0, 4)
    kern = fractional_kernel(base, 0.6)
    worst_excess = -np.inf
    for m, N in ((2, 2), (3, 3), (4, 4)):
        sub = build_grid(0.0, 1.0, m)
        sub_kern = fractional_kernel(sub, 0.6)
        lifted = build_lift(sub, sub_kern, N)
        verdict = key_estimate_check(lifted, tol=1e-12)
        assert verdict["jump_bound_ok"], verdict
        assert verdict["taming_ok"], verdict
        worst_excess = max(worst_excess, verdict["max_excess"])
    # lifted system is itself a valid instance: evolve + balance
    lifted = build_lift(base, kern, 4)
    coup = coupling(lifted.space, lifted.kernel)
    rng = np.random.default_rng(0)
    u0 = rng.uniform(0.2, 2.0, lifted.n_configs)
    traj = evolve(coup, COSH, u0, 0.5)
    rep = edb_report(traj, COSH, coup, tol_rel=1e-6)
    rel = rep.max_edb_residual() / rep.energy_scale
    assert rep.invariants["mass_ok"]
    assert rel <= 1e-6
    report(10, f"key-estimate excess {worst_excess:.1e}; lifted (m=4,N=4) "
               f"EDB rel {rel:.2e} over {lifted.n_configs} configs")


def test_criterion_11_jensen_inequality():
    upsilons = [
        Upsilon(lambda z: float(np.sum(np.asarray(z) ** 2)),
                recession_fn=lambda z: np.inf if np.any(np.asarray(z) != 0) else 0.0),
        Upsilon(lambda z: float(np.sum(np.abs(z))),
                recession_fn=lambda z: float(np.sum(np.abs(z)))),
        Upsilon(lambda z: float(np.sum(np.sqrt(1.0 + np.asarray(z) ** 2) - 1.0)),
                recession_fn=lambda z: float(np.sum(np.abs(z)))),
    ]
    rng = np.random.default_rng(11)
    worst = 0.0
    t0 = time.perf_counter()
    for trial in range(1000):
        ups = upsilons[trial % len(upsilons)]
        nu_w = np.where(rng.random(8) < 0.3, 0.0, rng.uniform(0.1, 2.0, 8))
        nu = PosMeasure(nu_w)
        mu_v = rng.normal(size=8)
        mu = jordan_from_setfunction(mu_v)
        # per-atom contributions: the functional is additive over atoms
        contrib = np.empty(8)
        for i in range(8):
            contrib[i] = f_upsilon(restrict(mu, [i]),
                                   PosMeasure(np.where(np.arange(8) == i, nu_w, 0.0)), ups)
        ac = np.where(nu_w > 0, mu_v, 0.0)
        sing = np.where(nu_w > 0, 0.0, mu_v)
        bits = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
        rhs = bits @ np.where(np.isfinite(contrib), contrib, 1e18)
        rhs_inf = bits @ (~np.isfinite(contrib)).astype(float) > 0
        mu_ac_B = bits @ ac
        nu_B = bits @ nu_w
        sing_B = bits @ sing
        for row in range(256):
            lhs = ups.perspective(np.array([mu_ac_B[row]]), nu_B[row]) \
                + float(ups.recession(np.array([sing_B[row]])))
            r = np.inf if rhs_inf[row] else rhs[row]
            if np.isfinite(lhs) and np.isfinite(r):
                worst = max(worst, lhs - r)
            else:
                assert not (np.isinf(lhs) and np.isfinite(r)), "Jensen violated at +inf"
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    report(11, f"Jensen worst excess {worst:.2e} over 1000 instances x 256 subsets, "
               f"{elapsed:.1f}s")


def test_criterion_12_signed_measure_round_trips():
    rng = np.random.default_rng(12)
    # exact evaluation round trip
    for _ in range(200):
        v = rng.normal(size=8)
        pair = jordan_from_setfunction(v)
        np.testing.assert_array_equal(pair.values, v)
    # mutual singularity across 10^4 random operation sequences
    n = 8
    current = jordan_from_setfunction(rng.normal(size=n))
    violations = 0
    for _ in range(10_000):
        op = rng.integers(0, 3)
        if op == 0:
            current = add(current, jordan_from_setfunction(rng.normal(size=n)))
        elif op == 1:
            current = scale_by_function(rng.normal(size=n), current)
        else:
            current = restrict(current, np.flatnonzero(rng.random(n) < 0.7))
        if np.any(np.minimum(current.pos.weights, current.neg.weights) != 0.0):
            violations += 1
        if current.tv() > 1e12:
            current = jordan_from_setfunction(current.values / current.tv())
    assert violations == 0
    report(12, "evaluation exact; 0 singularity violations in 10^4 op sequences")


def test_criterion_13_characterization_rce(punctured_run):
    rep = punctured_run["report"]
    assert rep.rce_residual <= 1e-8
    assert rep.verdict == "Balanced/Reflecting"
    continuity = rep.flags["continuity"]
    assert "component_step" in continuity
    report(13, f"RCE residual {rep.rce_residual:.2e} incl. component step "
               f"({continuity['component_step']:.2e}); verdict {rep.verdict}")


def test_criterion_14_uniqueness_probe():
    sp = build_grid(-1.0, 1.0, 100)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-1))
    u0 = 1.0 + 0.5 * np.cos(np.pi * sp.points)
    t0 = time.perf_counter()
    out = uniqueness_probe(coup, COSH, u0, 0.5, euler_dt=2e-6)
    elapsed = time.perf_counter() - t0
    assert out["max_gap"] <= 1e-5
    report(14, f"euler/expm L-inf gap {out['max_gap']:.2e} on n=100, {elapsed:.1f}s")

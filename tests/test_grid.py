"""The error-controlled default grid: its estimate against the realized
quadrature error, the certificates it is chosen for, and its intervals."""

import warnings

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from jumpflow.densities import canonical_triple
from jumpflow.evolution import (EDB_TOL_REL, GRID_EDB_FRACTION, GRID_RCE_FRACTION,
                                IntegratorConfig, RCE_TOL, _grid_series, _spectral_parts,
                                continuity_rates, evolve, generator)
from jumpflow.functionals import entropy, trajectory_L
from jumpflow.ledger import VERDICT_BALANCED, default_tolerance, full_report, rce_battery
from jumpflow.quadrature import (_interval_pieces, _piece_weights, _stencils, _weighted,
                                 cumulative_simpson_nonuniform, error_controlled_grid)
from jumpflow.spaces import (Coupling, build_graph, build_grid, build_torus, coupling, cutoff,
                             fractional_kernel, matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")
SEEDS = range(40)


def two_point():
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    return sp, coupling(sp, matrix_kernel([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture(scope="module")
def grid_certify():
    # n=200, cutoff 1e-3, vacuum start: the canonical run at the CLI's tolerance
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    tol = default_tolerance(1e-3)
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 2.0, 0.0), 0.5, tol_rel=tol)
    return sp, coup, traj, tol


@pytest.fixture(scope="module")
def torus_certify():
    # n=256, s=0.6, cutoff 1e-3, a step start: the circle cut at 0 for the W1 sums
    sp = build_torus(256)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    tol = default_tolerance(1e-3)
    traj = evolve(coup, COSH, np.where(sp.points < 0.5, 2.0, 0.2), 0.5, tol_rel=tol)
    return sp, coup, traj, tol


def punctured_config(n=200):
    # criterion 7's profile on the punctured grid, cutoff 1e-4: two components
    sp = build_grid(-1.0, 1.0, n)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.75, mask=mask), sp, 1e-4))
    x = sp.points
    return sp, coup, 1.0 + 0.8 * np.sin(np.pi * x) * (x < 0) + 0.3 * (x > 0)


def test_two_point_estimate_bounds_the_realized_ledger():
    # criterion 2's closed form u = 1 +- e^(-2t) from a vacuum start
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0)
    g = np.exp(-2.0 * traj.times)
    assert np.max(np.abs(traj.densities - np.stack([1.0 + g, 1.0 - g], axis=1))) <= 1e-12
    scale = entropy(traj.densities[0], sp.pi, COSH.entropy)
    realized = np.max(np.abs(trajectory_L(traj, COSH, coup))) / scale
    target = GRID_EDB_FRACTION * EDB_TOL_REL
    assert realized <= traj.meta["grid_error"]["edb_rel"] <= target
    assert traj.meta["checkpoints"] == traj.times.size


def test_flux_config_meets_the_rce_gate_at_every_battery_seed():
    # defect 1: n=32, s=0.75, no cutoff, step 1.8/0.3 at -0.5, T=0.5, default settings;
    # on the fixed graded grid seeds 2, 18, 20, 21, 25, 27, 28, 30, 35 and 39 read Neither
    sp = build_grid(-1.0, 1.0, 32)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, np.where(sp.points < -0.5, 1.8, 0.3), 0.5)
    for seed in SEEDS:
        rep = full_report(traj, COSH, sp, coup, seed=seed)
        assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL, seed
    assert traj.times.size <= 240


def test_grid_certify_config_is_certified_on_at_most_268_checkpoints(grid_certify):
    sp, coup, traj, tol = grid_certify
    assert traj.times.size <= 268
    for seed in SEEDS:
        rep = full_report(traj, COSH, sp, coup, tol_rel=tol, seed=seed)
        assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL, seed
        assert all(v for k, v in rep.invariants.items() if k.endswith("_ok")), seed


def test_grid_estimates_are_within_their_targets(grid_certify):
    _, _, traj, tol = grid_certify
    err = traj.meta["grid_error"]
    assert err["edb_rel"] <= GRID_EDB_FRACTION * tol
    assert err["rce_rel"] <= 0.1 * RCE_TOL
    assert traj.meta["checkpoints"] == traj.times.size and "graded_start" not in traj.meta


@pytest.mark.parametrize("config", ["grid_certify", "torus_certify"])
def test_estimates_bound_the_realized_errors_at_every_checkpoint(config, request):
    # the exact continuity integral from the spectral parts, int_0^t L u =
    # -pi ((e^(t lam) - 1) coef) @ back per component, taken in the W1 norm the
    # grid is sized in (the sampler's series: cumulative sums times the gaps);
    # the exact ledger is 0.  Middle checkpoints included.
    sp, coup, traj, _ = request.getfixturevalue(config)
    u0, ts = traj.densities[0], traj.times
    parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    _, series = _grid_series(parts, coup, COSH, u0, True)(ts)
    quadrature, _ = cumulative_simpson_nonuniform(ts, series)
    exact = np.hstack([np.cumsum(-coup.pi[idx] * ((np.expm1(ts[:, None] * lam) * coef) @ back),
                                 axis=1)[:, :-1] * np.diff(coup.points[idx])
                       for idx, lam, coef, back in parts])
    realized = np.abs(quadrature - exact).sum(axis=1) / float(u0 @ coup.pi)
    assert np.all(realized <= traj.meta["grid_error"]["rce_rel"])
    ledger = np.abs(trajectory_L(traj, COSH, coup)) / entropy(u0, sp.pi, COSH.entropy)
    assert np.all(ledger <= traj.meta["grid_error"]["edb_rel"])


def test_every_battery_member_meets_the_gate_on_the_torus(torus_certify):
    # each member is 1-Lipschitz in the path distance of the circle cut at 0,
    # so the W1 estimate bounds its defect; seeds 0-39 draw the random members
    # (grid-certify: the two tests above)
    sp, coup, traj, _ = torus_certify
    assert coup.points is not None
    assert traj.meta["grid_error"]["rce_rel"] <= GRID_RCE_FRACTION * RCE_TOL
    mass = float(traj.densities[0] @ coup.pi)
    for seed in SEEDS:
        for name, spread in rce_battery(traj, sp, coup, seed).items():
            assert spread / mass <= RCE_TOL, (seed, name)


def line_w1(x, f):
    """W1 of the zero-mass vector f on the points x of a line, from scipy: the
    distance between its positive and negative parts, times their mass."""
    pos, neg = np.maximum(f, 0.0), np.maximum(-f, 0.0)
    return pos.sum() * wasserstein_distance(x, x, pos, neg)


def circle_w1(x, f):
    """W1 of the zero-mass vector f on the unit circle at the uniform points x:
    the minimum over c of sum |C_k - c| dx of the cumulative sums C, taken at
    their median."""
    C = np.cumsum(f)
    return float(np.sum(np.abs(C - np.median(C))) * (x[1] - x[0]))


@pytest.mark.parametrize("space", ["grid", "punctured", "torus"])
def test_grid_sampler_series_is_the_w1_norm_of_the_rates(space):
    # the continuity series at t: per component, the cumulative sums of L u(t)
    # times the gaps; its l1 norm is the W1 norm of the signed, zero-mass L u(t),
    # which the sampler returns itself on the same coupling without points
    if space == "grid":
        sp = build_grid(-1.0, 1.0, 40)
        coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-2))
    elif space == "punctured":
        sp, coup, _ = punctured_config(40)
    else:
        sp = build_torus(48)
        coup = coupling(sp, fractional_kernel(sp, 0.6))
    plain = Coupling(theta=coup.theta, detailed_balance_residual=0.0, pi=coup.pi)
    labels, ts = coup.labels, np.array([0.0, 1e-3, 0.05, 0.3])
    rng = np.random.default_rng(3)
    for _ in range(5):
        u0 = rng.uniform(0.0, 2.0, sp.n)
        parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
        _, sums = _grid_series(parts, coup, COSH, u0, True)(ts)
        _, rates = _grid_series(parts, plain, COSH, u0, True)(ts)
        assert sums.shape == (ts.size, sp.n - labels.max() - 1)
        for f, row in zip(rates, sums):
            col = 0
            for c in range(labels.max() + 1):
                idx = np.flatnonzero(labels == c)
                w1 = np.abs(row[col:col + idx.size - 1]).sum()
                col += idx.size - 1
                assert w1 == pytest.approx(line_w1(sp.points[idx], f[idx]), rel=1e-12, abs=0.0)
            if space == "torus":
                assert w1 >= circle_w1(sp.points, f) * (1.0 - 1e-12)


def test_component_step_rate_is_exactly_zero_on_the_punctured_grid():
    # the step is constant on each component: its rate needs no budget
    sp, coup, u0 = punctured_config()
    traj = evolve(coup, COSH, u0, 0.5, tol_rel=default_tolerance(1e-4))
    assert coup.labels.max() == 1
    step = np.where(sp.points < 0.0, 1.0, 0.0)
    assert np.all(continuity_rates(traj, coup, step[:, None]) == 0.0)
    assert traj.meta["grid_error"]["rce_rel"] <= GRID_RCE_FRACTION * RCE_TOL
    rep = full_report(traj, COSH, sp, coup, tol_rel=default_tolerance(1e-4))
    assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL


def test_graph_spaces_keep_the_l1_estimate():
    # a graph's metric is no path distance of a line: the sampler returns L u
    sp, coup = two_point()
    assert coup.points is None
    u0 = np.array([2.0, 0.5])
    parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    _, lu = _grid_series(parts, coup, COSH, u0, True)(np.array([0.0]))
    np.testing.assert_array_equal(lu[0], [0.75, -0.75])


def test_vacuum_start_on_a_short_horizon_warns_nothing():
    # the [0, h] estimate of a dissipation infinite at h too is inf - inf: it
    # stays non-finite, and no RuntimeWarning escapes (the verdict is not pinned)
    sp, coup = two_point()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(coup, COSH, np.array([2.0, 0.0]), 1e-5)
    assert not np.isfinite(traj.meta["grid_error"]["edb_rel"])


def test_euler_runs_on_the_expm_grid():
    sp = build_grid(-1.0, 1.0, 10)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-1))
    u0 = 1.0 + 0.5 * np.cos(np.pi * sp.points)
    a = evolve(coup, COSH, u0, 0.2)
    b = evolve(coup, COSH, u0, 0.2, IntegratorConfig(method="euler", dt=1e-5))
    assert np.array_equal(a.times, b.times)
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-4


def sampler(fns):
    return lambda ts: [np.column_stack([f(ts) for f in fns])]


@pytest.mark.parametrize("case", ["smooth", "log_singular"])
def test_selected_panels_are_the_quadrature_panels(case):
    # e^(-40t) and e^(-3t) from 0, or log(1/t) with its rectangle on [0, h]
    T, h = 1.0, 1e-12 / 40.0  # the singular step 1e-12 min(T, first_step)
    if case == "smooth":
        fns = [lambda t: np.exp(-40.0 * t), lambda t: np.exp(-3.0 * t)]
        exact = lambda t: np.stack([(1 - np.exp(-40.0 * t)) / 40.0, (1 - np.exp(-3.0 * t)) / 3.0], 1)
    else:
        fns = [lambda t: -np.log(np.where(t > 0, t, 0.0))]
        exact = lambda t: (t * (1.0 - np.log(np.where(t > 0, t, 1.0))))[:, None]
    budget = 1e-9
    with np.errstate(divide="ignore"):
        times, (estimate,) = error_controlled_grid(
            sampler(fns), T, [budget], first_step=1.0 / 40.0)
        values = sampler(fns)(times)[0]
    assert times[0] == 0.0 and times[-1] == T and np.all(np.diff(times) > 0)
    start = int(case == "log_singular")
    assert (times[1] == h) == bool(start)
    # the grid's intervals are the quadrature's: no neighbouring widths 8x
    # apart cut a run, so interval j >= start takes the quintic through the
    # nodes j - 2, ..., j + 3, shifted inward to lie in start, ..., K; the
    # rectangle on [0, h] for the singular series
    fin = np.arange(times.size) >= start
    first, size = _stencils(times, fin)
    K = times.size - 1
    j = np.arange(start, K)
    assert np.all(size[start:] == 6)
    assert np.array_equal(first[start:], np.clip(j - 2, start, K - 5))
    pieces, singular = _interval_pieces(times, values[:, 0])
    assert singular == bool(start)
    if start:
        assert pieces[0] == values[1, 0] * h
    for k in j:
        nodes = first[k] + np.arange(6)
        piece = _weighted(values[nodes, :1], _piece_weights(times[nodes][:, None], times[k:k + 1],
                                                            times[k + 1:k + 2]))
        assert pieces[k] == piece[0]
    realized = np.abs(cumulative_simpson_nonuniform(times, values)[0] - exact(times)).sum(axis=1)
    assert np.max(realized) <= estimate <= budget

"""The error-controlled default grid: the realized quadrature errors it
reports against the certificates' own, the certificates it is chosen for,
and its intervals."""

import warnings

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from jumpflow import evolution
from jumpflow.densities import canonical_triple
from jumpflow.evolution import (EDB_TOL_REL, GRID_EDB_FRACTION, GRID_RCE_FRACTION,
                                IntegratorConfig, RCE_TOL, Trajectory, _grid_series,
                                _spectral_parts, _w1_sums, continuity_rates, continuity_residual,
                                evolve, generator)
from jumpflow.experiments import build_lift, w2_exact
from jumpflow.functionals import entropy, trajectory_L
from jumpflow.ledger import (VERDICT_BALANCED, VERDICT_NEITHER, default_tolerance, full_report,
                             rce_battery)
from jumpflow.quadrature import (_MAX_INTERVALS, _interval_pieces, _piece_weights, _stencils,
                                 _weighted, cumulative_simpson_nonuniform, error_controlled_grid)
from jumpflow.spaces import (Coupling, build_graph, build_grid, build_torus, coupling, cutoff,
                             fractional_kernel, matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")
SEEDS = range(40)


def two_point():
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    return sp, coupling(sp, matrix_kernel([[0.0, 1.0], [1.0, 0.0]]))


def flux_config():
    # the flux-roundtrip config: n=32, s=0.75, no cutoff, step 1.8/0.3 at -0.5
    sp = build_grid(-1.0, 1.0, 32)
    u0 = np.where(sp.points < -0.5, 1.8, 0.3)
    return sp, coupling(sp, fractional_kernel(sp, 0.75)), u0, None


def grid_certify_config():
    # n=200, cutoff 1e-3, vacuum start: the canonical run at the CLI's tolerance
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    return sp, coup, np.where(sp.points < 0.0, 2.0, 0.0), default_tolerance(1e-3)


@pytest.fixture(scope="module")
def grid_certify():
    sp, coup, u0, tol = grid_certify_config()
    return sp, coup, evolve(coup, COSH, u0, 0.5, tol_rel=tol), tol


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


def assert_battery_within_the_class(sp, coup, traj, battery):
    """Every member of the test battery at seeds 0-39, and every component's
    step, has a defect spread within the value of the class it lies in; the
    classes meet the gate.  Each spread comes from `continuity_residual`, a
    route of its own, so it may exceed the value by its roundoff."""
    values = rce_battery(traj, COSH, coup)
    mass = float(traj.densities[0] @ coup.pi)
    allowance = 1e-14  # relative to the mass
    for seed in SEEDS:
        for phi in battery(sp, seed):
            spread = continuity_residual(traj, phi, coup) / mass
            assert spread <= values["lipschitz_class"] + allowance, seed
    for c in range(coup.labels.max() + 1):
        spread = continuity_residual(traj, (coup.labels == c) * 1.0, coup) / mass
        assert spread <= values["component_class"] + allowance, c
    assert max(values["lipschitz_class"], values["component_class"]) <= RCE_TOL


def test_flux_config_meets_the_rce_gate_at_every_battery_seed(battery):
    # defect 1: n=32, s=0.75, no cutoff, step 1.8/0.3 at -0.5, T=0.5, default
    # settings; on the fixed graded grid seeds 2, 18, 20, 21, 25, 27, 28, 30,
    # 35 and 39 of the seeded battery read Neither.  The ledger certifies the
    # whole class, which holds every member at every seed
    sp, coup, u0, _ = flux_config()
    traj = evolve(coup, COSH, u0, 0.5)
    rep = full_report(traj, COSH, coup)
    assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL
    assert_battery_within_the_class(sp, coup, traj, battery)
    assert traj.times.size <= 89


def test_grid_certify_config_is_certified_on_at_most_124_checkpoints(grid_certify):
    sp, coup, traj, tol = grid_certify
    assert traj.times.size <= 124
    rep = full_report(traj, COSH, coup, tol_rel=tol)
    assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL
    assert all(v for k, v in rep.invariants.items() if k.endswith("_ok"))


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
    _, (series, _) = _grid_series(parts, coup, COSH, u0, True)(ts)
    quadrature, _ = cumulative_simpson_nonuniform(ts, series)
    exact = np.hstack([np.cumsum(-coup.pi[idx] * ((np.expm1(ts[:, None] * lam) * coef) @ back),
                                 axis=1)[:, :-1] * gaps
                       for (idx, lam, coef, back), (_, gaps) in zip(parts, coup.paths[1])])
    realized = np.abs(quadrature - exact).sum(axis=1) / float(u0 @ coup.pi)
    assert np.all(realized <= traj.meta["grid_error"]["rce_rel"])
    ledger = np.abs(trajectory_L(traj, COSH, coup)) / entropy(u0, sp.pi, COSH.entropy)
    assert np.all(ledger <= traj.meta["grid_error"]["edb_rel"])


def test_every_battery_member_meets_the_gate_on_the_torus(torus_certify, battery):
    # each member is 1-Lipschitz in the metric, so in the path distance of the
    # circle cut at 0, which is at least the metric; seeds 0-39 draw the
    # random members
    sp, coup, traj, _ = torus_certify
    assert np.array_equal(coup.paths[0][1], np.diff(sp.points))
    assert traj.meta["grid_error"]["rce_rel"] <= GRID_RCE_FRACTION * RCE_TOL
    assert_battery_within_the_class(sp, coup, traj, battery)


def dense_graph(n=6):
    # n states at random points of the plane with their Euclidean metric, the
    # points' ids for coordinates: the path takes them in index order
    xy = np.random.default_rng(5).uniform(0.0, 1.0, (n, 2))
    dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    sp = build_graph(np.arange(n), dist, np.full(n, 1.0 / n))
    rates = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)
    return sp, coupling(sp, matrix_kernel(rates))


def class_case(name):
    """(space, coupling, trajectory) of a default-grid run on a punctured grid,
    a dense graph or the m = 4, N = 4 lift of the CLI."""
    if name == "punctured":
        sp, coup, u0 = punctured_config()
        return sp, coup, evolve(coup, COSH, u0, 0.5, tol_rel=default_tolerance(1e-4))
    if name == "graph":
        sp, coup = dense_graph()
        u0 = np.linspace(2.0, 0.5, sp.n)
    else:
        base = build_grid(0.0, 1.0, 4)
        lifted = build_lift(base, fractional_kernel(base, 0.6), 4)
        sp, coup = lifted.space, coupling(lifted.space, lifted.kernel)
        u0 = 1.0 + 0.5 * np.cos(np.arange(sp.n))
    return sp, coup, evolve(coup, COSH, u0, 0.5)


@pytest.mark.parametrize("config", ["grid_certify", "punctured", "graph", "lift"])
def test_battery_members_stay_within_the_class_value(config, battery, request):
    # the flux config and the torus: the tests above
    if config == "grid_certify":
        sp, coup, traj, _ = request.getfixturevalue(config)
    else:
        sp, coup, traj = class_case(config)
    assert_battery_within_the_class(sp, coup, traj, battery)


def test_a_density_nudged_mid_run_is_caught_at_its_w1_value():
    # the class value from the hand formula: D(0, t) = pi (u_t - u_0) plus the
    # quadrature of L u, then 2 max_t of its line W1 (net moved to the last
    # state) plus |net|, relative to the mass
    sp = build_grid(-1.0, 1.0, 40)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-2))
    traj = evolve(coup, COSH, 1.0 + 0.5 * np.cos(np.pi * sp.points), 0.5)
    U = traj.densities.copy()
    U[U.shape[0] // 2:, 7] += 1e-5
    nudged = Trajectory(times=traj.times, densities=U)
    rep = full_report(nudged, COSH, coup)
    lap = np.diag(coup.theta.sum(axis=1)) - coup.theta
    D = (U - U[0]) * coup.pi + cumulative_simpson_nonuniform(traj.times, U @ lap)[0]
    net = D.sum(axis=1)
    D[:, -1] -= net
    hand = max(line_w1(sp.points, d) + abs(m) for d, m in zip(D[1:], net[1:]))  # D[0] = 0
    mass = float(U[0] @ coup.pi)
    assert rep.ce_residual == pytest.approx(2.0 * hand / mass, rel=1e-9)
    assert rep.ce_residual > 100 * RCE_TOL and rep.verdict == VERDICT_NEITHER


def test_graph_path_value_is_at_least_the_exact_w1():
    # the index path's gaps are metric distances, so its path distance is at
    # least the metric: the path value bounds the transport LP's W1
    sp, coup = dense_graph()
    rng = np.random.default_rng(2)
    for _ in range(10):
        pos, neg = rng.uniform(0.0, 1.0, (2, sp.n))
        neg *= pos.sum() / neg.sum()
        path = np.abs(_w1_sums((pos - neg)[None], [coup.paths[0]])).sum()
        assert path >= w2_exact(pos, neg, sp.dist) * (1.0 - 1e-9)


@pytest.mark.parametrize("config", ["grid_certify", "flux", "punctured", "torus_certify"])
def test_class_value_is_within_twice_the_grid_error(config, request):
    # the grid bounds the quadrature error of the W1 series per component at
    # every checkpoint, so the ledger's class value (2 max_t) is within twice
    # it, plus roundoff: the rows the ledger reads are rounded apart from the
    # sampler's, and the whole space's path crosses between components
    if config == "flux":
        _, coup, u0, _ = flux_config()
        traj = evolve(coup, COSH, u0, 0.5)
    elif config == "punctured":
        _, coup, traj = class_case(config)
    else:
        _, coup, traj, _ = request.getfixturevalue(config)
    rep = full_report(traj, COSH, coup)
    roundoff = 1e-12  # relative to the mass
    assert rep.rce_residual <= 2.0 * traj.meta["grid_error"]["rce_rel"] + roundoff


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
    # times the gaps; its l1 norm is the W1 norm of the signed, zero-mass L u(t).
    # On the same coupling without a metric the gaps are 1: the sums themselves
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
        _, (sums, _) = _grid_series(parts, coup, COSH, u0, True)(ts)
        _, (unit, _) = _grid_series(parts, plain, COSH, u0, True)(ts)
        assert sums.shape == (ts.size, sp.n - labels.max() - 1)
        assert np.array_equal(sums, unit * np.concatenate([g for _, g in coup.paths[1]]))
        for cums, row in zip(unit, sums):
            col = 0
            for c in range(labels.max() + 1):
                idx = np.flatnonzero(labels == c)
                f = np.diff(cums[col:col + idx.size - 1], prepend=0.0, append=0.0)  # L u(t)
                w1 = np.abs(row[col:col + idx.size - 1]).sum()
                col += idx.size - 1
                assert w1 == pytest.approx(line_w1(sp.points[idx], f), rel=1e-12, abs=0.0)
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
    rep = full_report(traj, COSH, coup, tol_rel=default_tolerance(1e-4))
    assert rep.verdict == VERDICT_BALANCED and rep.rce_residual <= RCE_TOL


def test_graph_spaces_take_the_path_w1_series():
    # on a graph the path runs through the states in points order, its gaps
    # the metric between neighbours: here states 1, 2, 0, gaps 2 and 3
    pts = np.array([2.0, 0.0, 1.0])
    dist = np.array([[0.0, 4.0, 3.0], [4.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    sp = build_graph(pts, dist, np.full(3, 0.5))
    coup = coupling(sp, matrix_kernel(1.0 - np.eye(3)))
    (order, gaps), [(states, _)] = coup.paths
    assert np.array_equal(order, [1, 2, 0]) and np.array_equal(gaps, [2.0, 3.0])
    assert np.array_equal(states, order)
    u0 = np.array([2.0, 0.5, 1.0])
    parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    _, (series, _) = _grid_series(parts, coup, COSH, u0, True)(np.array([0.0]))
    lu0 = 0.5 * (3.0 * u0 - u0.sum())  # theta = 0.5 off the diagonal
    np.testing.assert_array_equal(series[0], np.cumsum(lu0[order])[:-1] * gaps)


@pytest.mark.parametrize("config", [grid_certify_config, flux_config])
def test_grid_samples_each_checkpoint_once(config, monkeypatch):
    # every sampled time is a checkpoint: the sampler sees the K+1 times, once each
    seen, real = [], evolution._grid_series

    def counted(*args):
        sample = real(*args)

        def wrapped(ts):
            seen.append(np.array(ts, dtype=float))
            return sample(ts)
        return wrapped

    monkeypatch.setattr(evolution, "_grid_series", counted)
    _, coup, u0, tol = config()
    traj = evolve(coup, COSH, u0, 0.5, tol_rel=tol)
    sampled = np.concatenate(seen)
    assert sampled.size == traj.times.size
    assert np.array_equal(np.sort(sampled), traj.times)


def n12_config():
    # n = 12, s = 0.6, cutoff 1e-2, step 2/0.5 at 0
    sp = build_grid(-1.0, 1.0, 12)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-2))
    return sp, coup, np.where(sp.points < 0.0, 2.0, 0.5), default_tolerance(1e-2)


@pytest.mark.parametrize("config,T,verdict", [
    (n12_config, 1e6, VERDICT_BALANCED), (n12_config, 1e12, "Neither"),
    (n12_config, 1e100, "Neither"), (two_point, 1e100, VERDICT_BALANCED)])
def test_long_horizons_stay_far_from_the_interval_cap(config, T, verdict):
    # far past relaxation the realized errors must not carry roundoff that
    # bisection cannot lower: the settled rows' rates are exactly 0 (the null
    # eigenvalue is pinned to 0), so their intervals realize no error.  The
    # Neither verdicts are the settled tails' continuity defect (ROADMAP
    # defect 17), which the grid does not see: n = 12 settles an ulp off
    # equilibrium.  The two-point rows settle exactly, and their divergence,
    # taken from the differences of u, is exactly 0
    if config is two_point:
        sp, coup = two_point()
        u0, tol = np.array([2.0, 0.0]), None
    else:
        sp, coup, u0, tol = config()
    traj = evolve(coup, COSH, u0, T, tol_rel=tol)
    assert traj.times.size <= _MAX_INTERVALS // 8
    assert np.all(np.isfinite(list(traj.meta["grid_error"].values())))
    rep = full_report(traj, COSH, coup, tol_rel=tol)
    assert rep.verdict == verdict
    parts = _spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    (dissipation, _), (rates, _) = _grid_series(parts, coup, COSH, u0, True)(traj.times[-1:])
    assert np.all(rates == 0.0) and np.all(dissipation == 0.0)


@pytest.mark.parametrize("amplitude", [1e-3, 1e-6, 1e-9, 0.0])
def test_near_equilibrium_starts_keep_small_grids(amplitude):
    # the entropy's own rounding near u = 1 (an ulp of 1 per state in
    # (u log u - u) + 1) would add up over the intervals far over a budget
    # relative to an entropy of amplitude^2: the sampler forms
    # u log u - (u - 1), whose error falls with the amplitude
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-2))
    traj = evolve(coup, COSH, 1.0 + amplitude * np.cos(np.pi * sp.points), 0.5)
    assert traj.times.size <= 80
    assert traj.meta["grid_error"]["edb_rel"] <= GRID_EDB_FRACTION * EDB_TOL_REL


@pytest.mark.parametrize("amplitude", [1e-1, 1e-3, 1e-6, 1e-9])
def test_near_equilibrium_starts_are_certified(amplitude):
    # the ledger forms the entropy as the sampler does, u log u - (u - 1): as
    # (u log u - u) + 1 its ulps of 1 put the 1e-6 start's EDB at 2.5e-17,
    # over its tolerance of 3.0e-18 (the floor tied to the mass)
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-2))
    traj = evolve(coup, COSH, 1.0 + amplitude * np.cos(np.pi * sp.points), 0.5)
    assert full_report(traj, COSH, coup).verdict == VERDICT_BALANCED


def test_vacuum_start_on_a_short_horizon_warns_nothing():
    # the [0, h] rectangle of a dissipation infinite at h too is infinite: its
    # error stays non-finite, and no RuntimeWarning escapes (the verdict is not
    # pinned)
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


def sampler(fns, exact):
    """Each series with a primitive of its negative: minus its exact integral."""
    return lambda ts: [(np.column_stack([f(ts) for f in fns]), -exact(ts))]


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
            sampler(fns, exact), T, [budget], first_step=1.0 / 40.0)
        values = sampler(fns, exact)(times)[0][0]
    assert times[0] == 0.0 and times[-1] == T and np.all(np.diff(times) > 0)
    start = int(case == "log_singular")
    assert (times[1] == h) == bool(start)
    # the grid's intervals are the quadrature's: no neighbouring widths 8x
    # apart cut a run, so interval j >= start takes the septic through the
    # nodes j - 3, ..., j + 4, shifted inward to lie in start, ..., K; the
    # rectangle on [0, h] for the singular series
    fin = np.arange(times.size) >= start
    first, size = _stencils(times, fin)
    K = times.size - 1
    j = np.arange(start, K)
    assert np.all(size[start:] == 8)
    assert np.array_equal(first[start:], np.clip(j - 3, start, K - 7))
    pieces, singular = _interval_pieces(times, values[:, 0])
    assert singular == bool(start)
    if start:
        assert pieces[0] == values[1, 0] * h
    for k in j:
        nodes = first[k] + np.arange(8)
        piece = _weighted(values[nodes, :1], _piece_weights(times[nodes][:, None], times[k:k + 1],
                                                            times[k + 1:k + 2]))
        assert pieces[k] == piece[0]
    realized = np.abs(cumulative_simpson_nonuniform(times, values)[0] - exact(times)).sum(axis=1)
    assert np.max(realized) <= estimate <= budget

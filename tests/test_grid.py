"""The error-controlled default grid: its estimate against the realized
quadrature error, the certificates it is chosen for, and its panel layout."""

import numpy as np
import pytest

from jumpflow.densities import canonical_triple
from jumpflow.evolution import (EDB_TOL_REL, GRID_EDB_FRACTION, IntegratorConfig, RCE_TOL,
                                evolve)
from jumpflow.functionals import entropy, trajectory_L
from jumpflow.ledger import VERDICT_BALANCED, default_tolerance, full_report
from jumpflow.quadrature import (_interval_pieces, cumulative_simpson_nonuniform,
                                 error_controlled_grid)
from jumpflow.spaces import (build_graph, build_grid, coupling, cutoff, fractional_kernel,
                             matrix_kernel)

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
    assert traj.times.size <= 760


def test_grid_certify_config_is_certified_on_at_most_650_checkpoints(grid_certify):
    sp, coup, traj, tol = grid_certify
    assert traj.times.size <= 650
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
    T, h = 1.0, 1e-12  # the singular step T*1e-12
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
    # the quadrature pairs exactly the selected panels: interval j >= start with
    # j - start even opens one, so the pieces equal those of each panel alone
    pieces, singular = _interval_pieces(times, values[:, 0])
    assert singular == bool(start)
    for j in range(start, times.size - 1, 2):
        alone, _ = _interval_pieces(times[j:j + 3], values[j:j + 3, 0])
        assert np.array_equal(pieces[j:j + 2], alone)
    realized = np.abs(np.column_stack([cumulative_simpson_nonuniform(times, v)[0]
                                       for v in values.T]) - exact(times)).sum(axis=1)
    assert np.max(realized) <= estimate <= budget

"""Integrators, flux reconstruction, continuity residuals, trajectory algebra."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from jumpflow.densities import (DissipationTriple, boltzmann_entropy, canonical_triple,
                                cosh_pair, log_mean_flux)
from jumpflow import evolution
from jumpflow.cli import atomic_write
from jumpflow.evolution import (IncompatibleTripleError, IntegratorConfig, NumericalError,
                                Trajectory, concatenate, continuity_residual, evolve, flux_csv_text,
                                flux_from_csv, generator, trajectory_csv_text,
                                trajectory_from_csv)
from jumpflow.experiments import build_lift
from jumpflow.functionals import entropy
from jumpflow.spaces import (Coupling, build_graph, build_grid, coupling, cutoff,
                             fractional_kernel, matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")
QUAD = canonical_triple("quadratic")


def two_point(rate=1.0):
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    return sp, coupling(sp, matrix_kernel([[0.0, rate], [rate, 0.0]]))


def closed_form_two_point(times, rate=1.0):
    g = np.exp(-2.0 * rate * times)
    return np.stack([1.0 + g, 1.0 - g], axis=1)


def test_generator_constants_and_mass_form():
    sp = build_grid(-1.0, 1.0, 10)
    coup = coupling(sp, fractional_kernel(sp, 0.5))
    Q = generator(coup, COSH)
    const = Q @ np.full(10, 3.3)
    assert np.max(np.abs(const)) <= 1e-12
    rng = np.random.default_rng(0)
    u = rng.random(10)
    assert abs(np.sum(sp.pi * (Q @ u))) <= 1e-12


def test_generator_two_point():
    _, coup = two_point(rate=2.0)
    Q = generator(coup, COSH)
    u = np.array([3.0, 1.0])
    assert (Q @ u)[0] == pytest.approx(2.0 * (u[1] - u[0]))
    assert (Q @ u)[1] == pytest.approx(2.0 * (u[0] - u[1]))


def test_generator_refuses_incompatible_triple():
    _, coup = two_point()
    wrong = DissipationTriple(boltzmann_entropy(), cosh_pair(), log_mean_flux(),
                              compatible=True, name="mismatch")
    with pytest.raises(IncompatibleTripleError):
        generator(coup, wrong)
    undeclared = DissipationTriple(boltzmann_entropy(), cosh_pair(), log_mean_flux())
    with pytest.raises(IncompatibleTripleError):
        generator(coup, undeclared)


def test_evolve_constant_trajectory():
    _, coup = two_point()
    traj = evolve(coup, COSH, np.full(2, 0.8), 1.0, IntegratorConfig(checkpoints=16))
    assert np.max(np.abs(traj.densities - 0.8)) <= 1e-14


def test_evolve_two_point_closed_form_both_methods():
    sp, coup = two_point(rate=1.0)
    u0 = np.array([2.0, 0.0])
    expm_traj = evolve(coup, COSH, u0, 2.0, IntegratorConfig(checkpoints=256))
    oracle = closed_form_two_point(expm_traj.times)
    assert np.max(np.abs(expm_traj.densities - oracle)) <= 1e-12
    euler_traj = evolve(coup, COSH, u0, 2.0,
                        IntegratorConfig(method="euler", checkpoints=256, dt=1e-5))
    oracle_e = closed_form_two_point(euler_traj.times)
    assert np.max(np.abs(euler_traj.densities - oracle_e)) <= 1e-4


def test_evolve_cross_method_agreement():
    sp = build_grid(-1.0, 1.0, 50)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 0.1))
    u0 = 1.0 + 0.3 * np.cos(np.pi * sp.points)
    cfg_expm = IntegratorConfig(checkpoints=64)
    cfg_euler = IntegratorConfig(method="euler", checkpoints=64, dt=5e-7)
    a = evolve(coup, COSH, u0, 0.1, cfg_expm)
    b = evolve(coup, COSH, u0, 0.1, cfg_euler)
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-6


def test_evolve_on_torus_balanced():
    from jumpflow.ledger import edb_report
    from jumpflow.spaces import build_torus

    sp = build_torus(32)
    coup = coupling(sp, fractional_kernel(sp, 0.6))
    u0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * sp.points)
    traj = evolve(coup, COSH, u0, 0.2, IntegratorConfig(checkpoints=128))
    rep = edb_report(traj, COSH, coup.theta, sp.pi)
    assert rep.edb_ok
    assert rep.invariants["mass_ok"] and rep.invariants["entropy_monotone_ok"]


def test_evolve_rejects_bad_initial():
    _, coup = two_point()
    with pytest.raises(NumericalError):
        evolve(coup, COSH, np.array([1.0, -0.5]), 1.0)
    with pytest.raises(NumericalError):
        evolve(coup, COSH, np.array([1.0, np.inf]), 1.0)


def assert_matches_dense_expm(coup, u0, T, checkpoints=64):
    """The spectral propagator against scipy's dense expm(Q t) u0 at a few checkpoints."""
    traj = evolve(coup, COSH, u0, T, IntegratorConfig(checkpoints=checkpoints))
    Q = generator(coup, COSH)
    last = traj.times.size - 1
    for k in (1, last // 3, last):
        exact = expm(Q * traj.times[k]) @ u0
        assert np.max(np.abs(traj.densities[k] - exact)) <= 1e-12 * np.max(np.abs(u0))
    return traj


def test_propagator_matches_expm_cutoff_grid():
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    assert_matches_dense_expm(coup, np.where(sp.points < 0.0, 1.5, 0.25), 0.5)


def test_propagator_matches_expm_punctured_two_components():
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6, mask=punctured_mask(sp, 0.0)),
                               sp, 1e-3))
    assert_matches_dense_expm(coup, 1.0 + 0.5 * np.sin(np.pi * sp.points), 0.5)


def test_propagator_matches_expm_stiff_cutoff():
    sp = build_grid(-1.0, 1.0, 200)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.75), sp, 1e-4))
    assert np.max(-np.diag(generator(coup, COSH))) > 1.5e3
    assert_matches_dense_expm(coup, np.where(sp.points < 0.0, 1.5, 0.25), 0.5)


def test_propagator_isolated_state():
    sp = build_grid(0.0, 1.0, 4)
    rates = np.array([[0.0, 1.0, 2.0, 0.0],
                      [1.0, 0.0, 0.5, 0.0],
                      [2.0, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0]])
    u0 = np.array([1.0, 0.0, 2.0, 3.0])
    traj = assert_matches_dense_expm(coupling(sp, matrix_kernel(rates)), u0, 2.0)
    assert np.all(traj.densities[:, 3] == 3.0)


def test_component_labels_match_scipy():
    from scipy.sparse.csgraph import connected_components

    def path(order, n):
        adj = np.zeros((n, n), dtype=bool)
        adj[order[:-1], order[1:]] = adj[order[1:], order[:-1]] = True
        return adj

    n = 300
    cases = [path(np.r_[0, n - 1:0:-1], n),          # 0-(n-1)-(n-2)-...-1
             path(np.r_[0, np.arange(2, n, 2)], n)]   # a path on the even states, odd ones isolated
    rng = np.random.default_rng(5)
    for _ in range(40):
        perm = rng.permutation(n)
        cases.append(path(perm[:rng.integers(2, n)], n))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.01), 1)
        cases.append(upper | upper.T)
    for adj in cases:
        want = connected_components(adj, directed=False)[1]
        np.testing.assert_array_equal(evolution._component_labels(adj), want)


def test_propagator_matches_expm_lift_multinomial_weights():
    base = build_grid(0.0, 1.0, 3)
    lifted = build_lift(base, fractional_kernel(base, 0.6), 2)
    assert np.ptp(lifted.space.pi) > 0  # multinomial, not uniform
    u0 = np.random.default_rng(0).uniform(0.2, 2.0, lifted.n_configs)
    assert_matches_dense_expm(coupling(lifted.space, lifted.kernel), u0, 0.5)


def test_propagator_component_masses_long_horizon():
    sp = build_grid(-1.0, 1.0, 40)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0)))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 2.0, 0.5), 6.0)
    left = sp.points < 0.0
    for part in (left, ~left):
        mass = traj.densities[:, part] @ sp.pi[part]
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]


def test_propagator_refuses_nonsymmetric_theta():
    sp, coup = two_point()
    skewed = Coupling(theta=np.array([[0.0, 0.5], [0.25, 0.0]]),
                      detailed_balance_residual=0.25, pi=coup.pi)
    with pytest.raises(NumericalError, match="symmetric"):
        evolve(skewed, COSH, np.array([2.0, 0.0]), 1.0)


def test_evolve_records_clip_in_meta(monkeypatch):
    sp, coup = two_point()
    u0 = np.array([2.0, 0.0])
    assert evolve(coup, COSH, u0, 1.0).meta["clip_min"] == 0.0
    spectral = evolution._propagate_spectral

    def undershoot(theta, pi, q_diag, u0, times, U):
        spectral(theta, pi, q_diag, u0, times, U)
        U[3, 1] = -3e-16

    monkeypatch.setattr(evolution, "_propagate_spectral", undershoot)
    traj = evolve(coup, COSH, u0, 1.0)
    assert traj.meta["clip_min"] == -3e-16
    assert traj.densities[3, 1] == 0.0
    assert np.all(traj.densities >= 0.0)


def test_evolve_clip_on_chain_is_roundoff():
    # a delta on a chain leaves the far states at ~t^n, below roundoff
    sp = build_grid(0.0, 1.0, 12)
    chain = np.eye(12, k=1) + np.eye(12, k=-1)
    u0 = np.zeros(12)
    u0[0] = 1.0
    traj = evolve(coupling(sp, matrix_kernel(chain)), COSH, u0, 1.0,
                  IntegratorConfig(checkpoints=32))
    assert -1e-14 <= traj.meta["clip_min"] <= 0.0
    assert np.all(traj.densities >= 0.0)


def test_flux_values():
    u = np.array([2.0, 0.5, 1.0])
    traj = Trajectory(times=[0.0, 1.0], densities=[u, np.full(3, 0.7)])
    w = traj.flux_at(0)
    np.testing.assert_allclose(w, u[:, None] - u[None, :], atol=1e-14)
    np.testing.assert_allclose(w, -w.T, atol=1e-14)
    assert np.all(traj.flux_at(1) == 0.0)


def test_evolution_invariants():
    sp = build_grid(-1.0, 1.0, 30)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.7), sp, 1e-2))
    u0 = np.where(sp.points < 0.0, 1.5, 0.25)
    traj = evolve(coup, COSH, u0, 0.5)
    mass = traj.mass(sp.pi)
    assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]
    assert traj.densities.min() >= u0.min() - 1e-10
    assert traj.densities.max() <= u0.max() + 1e-10
    ent = np.array([entropy(u, sp.pi, COSH.entropy) for u in traj.densities])
    assert np.max(np.diff(ent)) <= 1e-10


def test_component_mass_conservation_punctured():
    sp = build_grid(-1.0, 1.0, 24)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    u0 = np.where(sp.points < 0.0, 2.0, 0.0)
    traj = evolve(coup, COSH, u0, 0.4)
    left = sp.points < 0
    m_left = traj.densities[:, left] @ sp.pi[left]
    m_right = traj.densities[:, ~left] @ sp.pi[~left]
    assert np.max(np.abs(m_left - m_left[0])) <= 1e-12 * m_left[0]
    assert np.max(np.abs(m_right)) <= 1e-12


def test_continuity_residual_constant_test_function():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 1.0)
    assert continuity_residual(traj, np.full(2, 3.0), coup.theta, sp.pi) <= 1e-12


def test_continuity_residual_two_point():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    phi = sp.points.astype(float)
    assert continuity_residual(traj, phi, coup.theta, sp.pi) <= 1e-8


def test_continuity_residual_step_under_punctured():
    sp = build_grid(-1.0, 1.0, 24)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    u0 = 1.0 + 0.5 * np.sin(np.pi * sp.points)
    traj = evolve(coup, COSH, u0, 0.5)
    step = (sp.points > 0).astype(float)
    assert continuity_residual(traj, step, coup.theta, sp.pi) <= 1e-8


def test_concatenate_requires_matching_endpoint():
    _, coup = two_point()
    a = evolve(coup, COSH, np.array([2.0, 0.0]), 0.5, IntegratorConfig(checkpoints=16))
    b = evolve(coup, COSH, np.array([1.0, 1.0]), 0.5, IntegratorConfig(checkpoints=16))
    with pytest.raises(ValueError, match="endpoint"):
        concatenate(a, b)
    c = evolve(coup, COSH, a.densities[-1], 0.5, IntegratorConfig(checkpoints=16))
    joined = concatenate(a, c)
    assert joined.T == pytest.approx(1.0)
    assert joined.times.size == a.times.size + c.times.size - 1
    # any matching endpoint is accepted, including a reversed leg
    reversed_leg = Trajectory(times=a.times, densities=a.densities[::-1].copy(),
                              flux_store=np.zeros((a.times.size, 2, 2)))
    back = concatenate(a, reversed_leg)
    assert back.densities[-1] == pytest.approx(a.densities[0])


def test_concatenate_evolved_legs_keeps_linear_flux():
    _, coup = two_point()
    a = evolve(coup, COSH, np.array([2.0, 0.0]), 0.5, IntegratorConfig(checkpoints=16))
    c = evolve(coup, COSH, a.densities[-1], 0.5, IntegratorConfig(checkpoints=16))
    joined = concatenate(a, c)
    assert joined.flux_store is None
    u = joined.densities[20]
    np.testing.assert_array_equal(joined.flux_at(20), u[:, None] - u[None, :])


def test_trajectory_rejects_non_antisymmetric_flux_store():
    store = np.zeros((2, 2, 2))
    store[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        Trajectory(times=[0.0, 1.0], densities=np.ones((2, 2)), flux_store=store)
    store[1, 1, 0] = -1.0
    traj = Trajectory(times=[0.0, 1.0], densities=np.ones((2, 2)), flux_store=store)
    np.testing.assert_array_equal(traj.flux_at(1), store[1])


def test_csv_round_trip_bit_exact(tmp_path):
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.3, IntegratorConfig(checkpoints=32))
    path = tmp_path / "traj.csv"
    path.write_text("".join(trajectory_csv_text(traj)))
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.densities, traj.densities)
    fpath = tmp_path / "flux.csv"
    fpath.write_text("".join(flux_csv_text(traj)))
    withflux = flux_from_csv(fpath, back)
    np.testing.assert_array_equal(withflux.flux_at(3), traj.flux_at(3))


def test_flux_csv_lists_each_nonzero_pair_once(tmp_path):
    sp = build_grid(-1.0, 1.0, 8)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 1.5, 0.5), 0.1,
                  IntegratorConfig(checkpoints=8))
    header, *rows = "".join(flux_csv_text(traj)).splitlines()
    assert header == "t,i,j,w"
    fields = [r.split(",") for r in rows]
    assert all(int(i) < int(j) for _, i, j, _ in fields)
    upper = np.triu(np.ones((traj.n, traj.n), dtype=bool), 1)
    assert len(rows) == sum(int(np.count_nonzero(traj.flux_at(k)[upper]))
                            for k in range(traj.times.size))
    # the same pairs listed as their j > i halves read to the same store
    fpath, lower = tmp_path / "flux.csv", tmp_path / "flux_lower.csv"
    fpath.write_text("".join(flux_csv_text(traj)))
    lower.write_text("\n".join([header] + [f"{t},{j},{i},{-float(w)!r}" for t, i, j, w in fields])
                     + "\n")
    store = flux_from_csv(fpath, traj).flux_store
    np.testing.assert_array_equal(flux_from_csv(lower, traj).flux_store, store)
    np.testing.assert_array_equal(store, np.stack([traj.flux_at(k)
                                                   for k in range(traj.times.size)]))


def test_flux_csv_values_format_as_17_digit_floats(tmp_path):
    vals = [0.0, 5e-324, 2.2250738585072009e-308, 1e-300, -1e-300, 1.0 / 3.0, -7.5, 1e300]
    n = 5
    rows, cols = np.triu_indices(n, 1)
    store = np.zeros((2, n, n))
    store[1, rows[:len(vals)], cols[:len(vals)]] = vals
    store[1] -= store[1].T
    traj = Trajectory(times=[0.0, 0.25], densities=np.ones((2, n)), flux_store=store)
    lines = "".join(flux_csv_text(traj)).splitlines()
    expected = [f"0.25,{i},{j},{format(float(store[1, i, j]), '.17g')}"
                for i, j in zip(rows, cols) if store[1, i, j] != 0]
    assert lines == ["t,i,j,w"] + expected and len(expected) == len(vals) - 1
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(flux_from_csv(fpath, traj).flux_store, store)


def test_csv_text_ends_in_one_newline():
    _, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.3, IntegratorConfig(checkpoints=8))
    for text in ("".join(trajectory_csv_text(traj)), "".join(flux_csv_text(traj))):
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.count("\n") == len(text.splitlines())


def test_trajectory_from_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u_0,u_1\n0.0,1.0\n")
    with pytest.raises(ValueError):
        trajectory_from_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("time,u_0\n0.0,1.0\n")
    with pytest.raises(ValueError):
        trajectory_from_csv(bad2)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("t,u_0,u_1\n")
    with pytest.raises(ValueError):
        trajectory_from_csv(header_only)


def test_header_only_trajectory_csv_raises_without_a_warning(tmp_path):
    # loadtxt warns on a file with no rows; the reader's own error is the report
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("t,u_0,u_1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one row"):
            trajectory_from_csv(header_only)


def stored_flux_trajectory(n=6, checkpoints=8):
    """A trajectory with a stored flux that is nonzero on every pair."""
    sp = build_grid(-1.0, 1.0, n)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, 1.0 + sp.points ** 2, 0.1,
                  IntegratorConfig(checkpoints=checkpoints, graded_start=False))
    store = np.stack([traj.flux_at(k) for k in range(traj.times.size)])
    store[0] = np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1)  # u0 is even
    return Trajectory(times=traj.times, densities=traj.densities, flux_store=store)


def both_halves_lines(traj):
    """The legacy layout: every nonzero off-diagonal entry, row-major."""
    return ["t,i,j,w"] + [f"{float(t)!r},{i},{j},{float(traj.flux_at(k)[i, j])!r}"
                          for k, t in enumerate(traj.times)
                          for i, j in zip(*np.nonzero(traj.flux_at(k)))]


@pytest.mark.parametrize("block", [1, 4, 15, 16, 1000])
def test_flux_checkpoints_split_across_blocks_read_to_the_same_store(tmp_path, monkeypatch,
                                                                    block):
    # 15 pairs per checkpoint: at blocks of 1, 4 and 16 lines checkpoints straddle
    # block boundaries; in the both-halves file a pair's two halves do too
    traj = stored_flux_trajectory()
    edge_only, legacy = tmp_path / "flux.csv", tmp_path / "flux_legacy.csv"
    edge_only.write_text("".join(flux_csv_text(traj)))
    legacy.write_text("\n".join(both_halves_lines(traj)) + "\n")
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", block)
    for path in (edge_only, legacy):
        np.testing.assert_array_equal(flux_from_csv(path, traj).flux_store, traj.flux_store)


def test_flux_csv_checkpoints_out_of_time_order_are_rejected(tmp_path, monkeypatch):
    traj = stored_flux_trajectory()
    header, *rows = "".join(flux_csv_text(traj)).splitlines()
    first = [r for r in rows if r.startswith("0,")]
    assert len(first) == 15
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join([header] + rows[15:] + first) + "\n")
    for block in (evolution.CSV_BLOCK_LINES, 7):  # within one block and across blocks
        monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", block)
        with pytest.raises(ValueError, match="time order"):
            flux_from_csv(fpath, traj)


def test_flux_csv_duplicate_across_a_block_boundary_is_rejected(tmp_path, monkeypatch):
    traj = stored_flux_trajectory()
    header, *rows = "".join(flux_csv_text(traj)).splitlines()
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join([header] + rows[:20] + rows[19:]) + "\n")
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", 20)  # lines 20 and 21 are in two blocks
    with pytest.raises(ValueError, match="twice"):
        flux_from_csv(fpath, traj)


def test_flux_csv_write_and_read_memory_is_bounded_by_a_block(tmp_path):
    # The writer holds one checkpoint's text, never the file; the reader holds
    # the (K+1, n, n) store plus one block of parsed lines, never the file's
    sp = build_grid(-1.0, 1.0, 24)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, 1.0 + sp.points ** 2, 0.5,
                  IntegratorConfig(checkpoints=600, graded_start=False))
    fpath = tmp_path / "flux.csv"
    tracemalloc.start()
    try:
        atomic_write(fpath, flux_csv_text(traj))
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        store = flux_from_csv(fpath, traj).flux_store
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = fpath.stat().st_size
    assert size > 5e6  # 601 checkpoints of 276 lines
    assert write_peak < size / 10
    block = 8 * (4 * 8 * evolution.CSV_BLOCK_LINES)  # eight (block, 4) float arrays
    assert read_peak < store.nbytes + block < size

"""Integrators, flux reconstruction, continuity residuals, trajectory algebra."""

import numpy as np
import pytest
from scipy.linalg import expm

from jumpflow.densities import (DissipationTriple, boltzmann_entropy, canonical_triple,
                                cosh_pair, log_mean_flux)
from jumpflow import evolution
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
    path.write_text(trajectory_csv_text(traj))
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.densities, traj.densities)
    fpath = tmp_path / "flux.csv"
    fpath.write_text(flux_csv_text(traj))
    withflux = flux_from_csv(fpath, back)
    np.testing.assert_array_equal(withflux.flux_at(3), traj.flux_at(3))


def test_flux_csv_lists_each_nonzero_pair_once(tmp_path):
    sp = build_grid(-1.0, 1.0, 8)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 1.5, 0.5), 0.1,
                  IntegratorConfig(checkpoints=8))
    header, *rows = flux_csv_text(traj).splitlines()
    assert header == "t,i,j,w"
    fields = [r.split(",") for r in rows]
    assert all(int(i) < int(j) for _, i, j, _ in fields)
    upper = np.triu(np.ones((traj.n, traj.n), dtype=bool), 1)
    assert len(rows) == sum(int(np.count_nonzero(traj.flux_at(k)[upper]))
                            for k in range(traj.times.size))
    # the same pairs listed as their j > i halves read to the same store
    fpath, lower = tmp_path / "flux.csv", tmp_path / "flux_lower.csv"
    fpath.write_text(flux_csv_text(traj))
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
    lines = flux_csv_text(traj).splitlines()
    expected = [f"0.25,{i},{j},{format(float(store[1, i, j]), '.17g')}"
                for i, j in zip(rows, cols) if store[1, i, j] != 0]
    assert lines == ["t,i,j,w"] + expected and len(expected) == len(vals) - 1
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(flux_from_csv(fpath, traj).flux_store, store)


def test_csv_text_ends_in_one_newline():
    _, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.3, IntegratorConfig(checkpoints=8))
    for text in (trajectory_csv_text(traj), flux_csv_text(traj)):
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

"""Integrators, flux reconstruction, continuity residuals, trajectory algebra."""

import re
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
                                StepLimitError, Trajectory, concatenate, continuity_residual,
                                evolve, flux_csv_is_linear, flux_csv_text, flux_from_csv,
                                generator, trajectory_csv_text, trajectory_from_csv)
from jumpflow.experiments import build_lift
from jumpflow.functionals import entropy
from jumpflow.quadrature import checkpoint_grid
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


def test_euler_step_cap_counts_every_interval_before_stepping(monkeypatch):
    # 4 uniform intervals of 0.25 at dt 0.125: 8 steps in all, taken at a cap of
    # 8 and refused at 7 with the count
    _, coup = two_point()
    cfg = IntegratorConfig(method="euler", checkpoints=4, dt=0.125, graded_start=False)
    monkeypatch.setattr(evolution, "EULER_MAX_STEPS", 8)
    assert evolve(coup, COSH, np.array([2.0, 0.0]), 1.0, cfg).times.size == 5
    monkeypatch.setattr(evolution, "EULER_MAX_STEPS", 7)
    with pytest.raises(StepLimitError, match=r"explicit Euler would take 8 steps over the 4 "):
        evolve(coup, COSH, np.array([2.0, 0.0]), 1.0, cfg)


def test_evolve_on_torus_balanced():
    from jumpflow.ledger import edb_report
    from jumpflow.spaces import build_torus

    sp = build_torus(32)
    coup = coupling(sp, fractional_kernel(sp, 0.6))
    u0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * sp.points)
    traj = evolve(coup, COSH, u0, 0.2, IntegratorConfig(checkpoints=128))
    rep = edb_report(traj, COSH, coup)
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


@pytest.mark.parametrize("n", [32, 200])
def test_propagated_row_does_not_depend_on_the_checkpoint_count(n):
    # the tail block of checkpoint rows is padded to the full GEMM height:
    # unpadded, the row at T was rounded by the height of its block, K+1 mod 256
    sp = build_grid(-1.0, 1.0, n)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    u0 = np.where(sp.points < 0.0, 2.0, 0.0)
    parts = evolution._spectral_parts(coup, np.diag(generator(coup, COSH)), u0)
    ends = []
    for count in range(1, 301):
        times = checkpoint_grid(0.5, count, graded_start=False)
        U = np.empty((times.size, n))
        evolution._propagate_spectral(parts, times, U)
        ends.append(U[-1])
    assert all(np.array_equal(end, ends[0]) for end in ends)
    for count in (1, 255, 256, 300):
        traj = evolve(coup, COSH, u0, 0.5, IntegratorConfig(checkpoints=count, graded_start=False))
        assert np.array_equal(traj.densities[-1], ends[0])


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
        coup = Coupling(theta=adj.astype(float), detailed_balance_residual=0.0, pi=np.ones(n))
        np.testing.assert_array_equal(coup.labels, want)


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


def test_evolve_records_clip_in_meta(monkeypatch):
    sp, coup = two_point()
    u0 = np.array([2.0, 0.0])
    assert evolve(coup, COSH, u0, 1.0).meta["clip_min"] == 0.0
    spectral = evolution._propagate_spectral

    def undershoot(parts, times, U):
        spectral(parts, times, U)
        U[3, 1] = -3e-16

    monkeypatch.setattr(evolution, "_propagate_spectral", undershoot)
    traj = evolve(coup, COSH, u0, 1.0, IntegratorConfig(checkpoints=16))
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


def dense_flux(traj, k):
    """The (n, n) flux of checkpoint k: u_i - u_j on every pair for the linear
    flux, else the store's row on its edges, mirrored, and zero elsewhere."""
    u = traj.densities[k]
    if traj.flux_store is None:
        return u[:, None] - u[None, :]
    w, (rows, cols) = np.zeros((traj.n, traj.n)), traj.flux_edges
    w[rows, cols], w[cols, rows] = traj.flux_store[k], -traj.flux_store[k]
    return w


def test_flux_values(tmp_path):
    u = np.array([2.0, 0.5, 1.0])
    traj = Trajectory(times=[0.0, 1.0], densities=[u, np.full(3, 0.7)])
    coup = Coupling(theta=1.0 - np.eye(3), detailed_balance_residual=0.0, pi=np.full(3, 1 / 3))
    fpath = tmp_path / "flux.csv"
    fpath.write_text("".join(flux_csv_text(traj, coup)))
    back = flux_from_csv(fpath, traj, coup)
    w = dense_flux(back, 0)
    np.testing.assert_allclose(w, u[:, None] - u[None, :], atol=1e-14)
    np.testing.assert_allclose(w, -w.T, atol=1e-14)
    assert np.all(dense_flux(back, 1) == 0.0)


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
    assert continuity_residual(traj, np.full(2, 3.0), coup) <= 1e-12


def test_continuity_residual_two_point():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    phi = sp.points.astype(float)
    assert continuity_residual(traj, phi, coup) <= 1e-8


def test_continuity_residual_step_under_punctured():
    sp = build_grid(-1.0, 1.0, 24)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    u0 = 1.0 + 0.5 * np.sin(np.pi * sp.points)
    traj = evolve(coup, COSH, u0, 0.5)
    step = (sp.points > 0).astype(float)
    assert continuity_residual(traj, step, coup) <= 1e-8


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
                              flux_store=np.zeros((a.times.size, 1)), flux_edges=([0], [1]))
    back = concatenate(a, reversed_leg)
    assert back.densities[-1] == pytest.approx(a.densities[0])


def test_concatenate_evolved_legs_keeps_linear_flux():
    _, coup = two_point()
    a = evolve(coup, COSH, np.array([2.0, 0.0]), 0.5, IntegratorConfig(checkpoints=16))
    c = evolve(coup, COSH, a.densities[-1], 0.5, IntegratorConfig(checkpoints=16))
    joined = concatenate(a, c)
    assert joined.flux_store is None and joined.linear_flux
    # a storeless leg joins a stored one as u_i - u_j on the stored leg's edges
    stored = Trajectory(times=c.times, densities=c.densities, flux_edges=([0], [1]),
                        flux_store=c.densities[:, :1] - c.densities[:, 1:])
    mixed = concatenate(a, stored)
    u = mixed.densities
    np.testing.assert_array_equal(mixed.flux_store, u[:, :1] - u[:, 1:])
    assert mixed.linear_flux and mixed.flux_store.shape == (joined.times.size, 1)


def test_trajectory_rejects_non_antisymmetric_flux_store():
    # the store holds w_ij on edges i < j only, so w_ji = -w_ij by construction:
    # a store that lists a pair's other half (or a diagonal) is refused
    store = np.zeros((2, 2))
    store[1, 0] = 1.0
    for edges in (([0, 1], [1, 0]), ([0, 1], [1, 1])):
        with pytest.raises(ValueError, match="antisymmetric"):
            Trajectory(times=[0.0, 1.0], densities=np.ones((2, 2)), flux_store=store,
                       flux_edges=edges)
    traj = Trajectory(times=[0.0, 1.0], densities=np.ones((2, 2)), flux_store=store[:, :1],
                      flux_edges=([0], [1]))
    np.testing.assert_array_equal(dense_flux(traj, 1), [[0.0, 1.0], [-1.0, 0.0]])


def test_csv_round_trip_bit_exact(tmp_path):
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.3, IntegratorConfig(checkpoints=32))
    path = tmp_path / "traj.csv"
    path.write_text("".join(trajectory_csv_text(traj)))
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.densities, traj.densities)
    fpath = tmp_path / "flux.csv"
    fpath.write_text("".join(flux_csv_text(traj, coup)))
    withflux = flux_from_csv(fpath, back, coup)
    np.testing.assert_array_equal(dense_flux(withflux, 3), dense_flux(traj, 3))


def test_flux_csv_is_the_store_in_row_major_order(tmp_path):
    sp = build_grid(-1.0, 1.0, 8)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 1.5, 0.5), 0.1,
                  IntegratorConfig(checkpoints=8))
    header, *lines = "".join(flux_csv_text(traj, coup)).splitlines()
    rows, cols, _ = coup.edges
    # one w_i_j column per coupling edge, row-major; row k is checkpoint k, its t
    # first, the zeros of the even-split start included
    assert header == "t," + ",".join(f"w_{i}_{j}" for i, j in zip(rows, cols))
    assert rows.size == 28 and len(lines) == traj.times.size
    fields = np.array([[float(v) for v in r.split(",")] for r in lines])
    assert fields.shape == (traj.times.size, rows.size + 1)
    np.testing.assert_array_equal(fields[:, 0], traj.times)
    assert np.count_nonzero(fields[:, 1:] == 0.0) > 0
    fpath = tmp_path / "flux.csv"
    fpath.write_text("".join(flux_csv_text(traj, coup)))
    store = flux_from_csv(fpath, traj, coup).flux_store
    upper = np.triu(np.ones((traj.n, traj.n), dtype=bool), 1)
    np.testing.assert_array_equal(store, np.stack([dense_flux(traj, k)[upper]
                                                   for k in range(traj.times.size)]))
    np.testing.assert_array_equal(store, fields[:, 1:])


def test_a_flux_store_on_other_edges_than_the_coupling_is_refused():
    sp = build_grid(-1.0, 1.0, 6)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0)))
    traj = evolve(coup, COSH, 1.0 + sp.points ** 2, 0.1, IntegratorConfig(checkpoints=8))
    rows, cols = np.triu_indices(sp.n, 1)  # every pair, the cross-component ones included
    stored = Trajectory(times=traj.times, densities=traj.densities, flux_edges=(rows, cols),
                        flux_store=traj.densities[:, rows] - traj.densities[:, cols])
    assert stored.linear_flux
    for read in (lambda: "".join(flux_csv_text(stored, coup)),
                 lambda: continuity_residual(stored, sp.points, coup)):
        with pytest.raises(ValueError, match="other edges"):
            read()


def test_flux_csv_values_format_as_17_digit_floats(tmp_path):
    vals = [0.0, 5e-324, 2.2250738585072009e-308, 1e-300, -1e-300, 1.0 / 3.0, -7.5, 1e300]
    n = 5
    rows, cols = np.triu_indices(n, 1)
    coup = Coupling(theta=1.0 - np.eye(n), detailed_balance_residual=0.0, pi=np.full(n, 1 / n))
    store = np.zeros((2, rows.size))
    store[1, :len(vals)] = vals
    traj = Trajectory(times=[0.0, 0.25], densities=np.ones((2, n)), flux_store=store,
                      flux_edges=(rows, cols))
    lines = "".join(flux_csv_text(traj, coup)).splitlines()
    expected = [t + "".join("," + format(float(w), ".17g") for w in ws)
                for t, ws in zip(("0", "0.25"), store)]
    assert lines == ["t," + ",".join(f"w_{i}_{j}" for i, j in zip(rows, cols))] + expected
    assert lines[1] == "0" + ",0" * rows.size  # zeros as 0
    assert lines[2] == ("0.25,0,4.9406564584124654e-324,2.2250738585072009e-308,1e-300,-1e-300,"
                        "0.33333333333333331,-7.5,1.0000000000000001e+300,0,0")
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(flux_from_csv(fpath, traj, coup).flux_store, store)


def test_csv_text_ends_in_one_newline():
    _, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.3, IntegratorConfig(checkpoints=8))
    for text in ("".join(trajectory_csv_text(traj)), "".join(flux_csv_text(traj, coup))):
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.count("\n") == len(text.splitlines())


def test_trajectory_csv_text_is_pinned():
    # the block-of-rows writer behind both CSVs: the header, then each
    # checkpoint's t and values as %.17g
    traj = Trajectory(times=[0.0, 0.1, 1.0],
                      densities=[[1.0, 0.5, 1.0 / 3.0], [0.1, 2.0, 1e-300], [0.0, 5e-324, 3.0]])
    assert "".join(trajectory_csv_text(traj)) == (
        "t,u_0,u_1,u_2\n"
        "0,1,0.5,0.33333333333333331\n"
        "0.10000000000000001,0.10000000000000001,2,1e-300\n"
        "1,0,4.9406564584124654e-324,3\n")


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
    """A trajectory with a stored flux that is nonzero on every edge, and its
    coupling, which joins every pair."""
    sp = build_grid(-1.0, 1.0, n)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, 1.0 + sp.points ** 2, 0.1,
                  IntegratorConfig(checkpoints=checkpoints, graded_start=False))
    rows, cols = np.triu_indices(n, 1)
    store = traj.densities[:, rows] - traj.densities[:, cols]
    store[0] = 1.0  # u0 is even
    return Trajectory(times=traj.times, densities=traj.densities, flux_store=store,
                      flux_edges=(rows, cols)), coup


@pytest.mark.parametrize("block", [1, 4, 15, 16, 32, 48, 1000])
def test_flux_checkpoints_split_across_blocks_read_to_the_same_store(tmp_path, monkeypatch,
                                                                    block):
    # E + 1 = 16 values a row, so each parse holds max(1, block // 16) of the 9 rows:
    # a single row for blocks below a row, a partial last block at 2 rows, whole
    # blocks at 3
    traj, coup = stored_flux_trajectory()
    fpath = tmp_path / "flux.csv"
    fpath.write_text("".join(flux_csv_text(traj, coup)))
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", block)
    load, parsed = evolution._load_rows, []
    monkeypatch.setattr(evolution, "_load_rows",
                        lambda fh, max_rows=None: parsed.append(load(fh, max_rows)) or parsed[-1])
    np.testing.assert_array_equal(flux_from_csv(fpath, traj, coup).flux_store,
                                  traj.flux_store)
    assert max(len(p) for p in parsed) == min(max(1, block // 16), 9)


def test_flux_csv_checkpoints_out_of_time_order_are_rejected(tmp_path, monkeypatch):
    traj, coup = stored_flux_trajectory()
    header, *rows = "".join(flux_csv_text(traj, coup)).splitlines()
    assert len(rows) == 9 and rows[0].startswith("0,")
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join([header] + rows[1:] + rows[:1]) + "\n")
    t1 = re.escape(format(traj.times[1], ".17g"))
    for block in (evolution.CSV_BLOCK_LINES, 7):  # within one block and a row per block
        monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", block)
        with pytest.raises(ValueError, match=rf"^flux CSV line 2 \(expected t=0\) has t={t1}$"):
            flux_from_csv(fpath, traj, coup)


def test_flux_csv_duplicate_across_a_block_boundary_is_rejected(tmp_path, monkeypatch):
    traj, coup = stored_flux_trajectory()
    header, *rows = "".join(flux_csv_text(traj, coup)).splitlines()
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join([header] + rows[:3] + rows[2:]) + "\n")
    monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", 48)  # 3 rows of 16: lines 4, 5 in two blocks
    t2, t3 = (re.escape(format(t, ".17g")) for t in traj.times[2:4])
    with pytest.raises(ValueError, match=rf"^flux CSV line 5 \(expected t={t3}\) has t={t2}$"):
        flux_from_csv(fpath, traj, coup)


@pytest.mark.parametrize("edit", ["last_line_missing", "one_line_more", "header_only"])
def test_flux_csv_of_another_line_count_is_rejected(tmp_path, flux_read_error, edit):
    # every row present sits where it should; only the count is wrong.  The flux
    # is the linear one, so the linearity check reads on to the count too
    traj, coup = stored_flux_trajectory()
    traj = Trajectory(times=traj.times, densities=traj.densities)
    header, *rows = "".join(flux_csv_text(traj, coup)).splitlines()
    rows, count = {"last_line_missing": (rows[:-1], 8),
                   "one_line_more": (rows + rows[-1:], 10),
                   "header_only": ([], 0)}[edit]
    fpath = tmp_path / "flux.csv"
    fpath.write_text("\n".join([header] + rows) + "\n")
    # all rows in one block, 3 a block, 1
    assert flux_read_error(fpath, traj, coup).endswith(
        f"K+1 = 9 rows after its header; it has {count}")


def test_flux_csv_write_and_read_memory_is_bounded_by_a_block(tmp_path):
    # The writer holds one block of rows' text, never the file; the reader holds
    # the (K+1, E) store plus one block of parsed rows, never the file's; the
    # linearity check holds one block of parsed rows and no store
    sp = build_grid(-1.0, 1.0, 24)
    coup = coupling(sp, fractional_kernel(sp, 0.75))
    traj = evolve(coup, COSH, 1.0 + sp.points ** 2, 0.5,
                  IntegratorConfig(checkpoints=600, graded_start=False))
    fpath = tmp_path / "flux.csv"
    tracemalloc.start()
    try:
        atomic_write(fpath, flux_csv_text(traj, coup))
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert flux_csv_is_linear(fpath, traj, coup)
        linear_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        store = flux_from_csv(fpath, traj, coup).flux_store
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = fpath.stat().st_size
    assert store.shape == (601, 276) and size > 3e6  # 601 rows of 277 values
    assert write_peak < size / 10
    block = 8 * 8 * max(evolution.CSV_BLOCK_LINES, 277)  # eight arrays of a block's floats
    assert read_peak < store.nbytes + block < size
    assert linear_peak < block

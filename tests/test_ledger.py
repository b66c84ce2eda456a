"""Energy-dissipation certificates: balance, chain rule, pointwise form, verdicts."""

import decimal
import warnings

import numpy as np
import pytest

from jumpflow import functionals
from jumpflow.cli import json_text
from jumpflow.densities import canonical_triple
from jumpflow.evolution import (IntegratorConfig, Trajectory, continuity_rates,
                                continuity_residual, evolve)
from jumpflow.functionals import _checkpoint_pass, _pairing, edb_integrand, entropy
from jumpflow.ledger import (VERDICT_BALANCED, VERDICT_DISSIPATIVE, VERDICT_NEITHER,
                             chain_rule_residual, edb_report, full_report, pointwise_edb,
                             rce_battery, render_table, upgrade_verdict)
from jumpflow.quadrature import cumulative_simpson_nonuniform
from jumpflow.spaces import (Coupling, build_graph, build_grid, build_torus, coupling, cutoff,
                             fractional_kernel, matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")
QUAD = canonical_triple("quadratic")


def two_point(rate=1.0):
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    return sp, coupling(sp, matrix_kernel([[0.0, rate], [rate, 0.0]]))


def test_edb_stationary():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.full(2, 1.2), 1.0, IntegratorConfig(checkpoints=64))
    rep = edb_report(traj, COSH, coup)
    assert rep.max_edb_residual() <= 1e-13
    assert rep.edb_ok and rep.edi_ok


def test_edb_two_point_closed_form():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    rep = edb_report(traj, COSH, coup, tol_rel=1e-8)
    assert rep.max_edb_residual() <= 1e-8 * rep.energy_scale
    assert rep.edb_ok
    assert rep.flags["initial_singular"]


def test_edb_zeroed_flux_violates_balance():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=256))
    fabricated = Trajectory(times=traj.times, densities=traj.densities,
                            flux_store=np.zeros((traj.times.size, 1)), flux_edges=([0], [1]))
    rep = edb_report(fabricated, COSH, coup)
    # with no flux the action vanishes but the entropy still drops while D > 0
    assert not rep.edb_ok
    assert rep.max_edb_residual() > 0.1 * rep.energy_scale


def test_edb_residual_additivity():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([1.5, 0.5]), 1.0, IntegratorConfig(checkpoints=128))
    rep = edb_report(traj, COSH, coup)
    K = rep.times.size - 1
    rng = np.random.default_rng(0)
    for _ in range(50):
        s, t, u = sorted(rng.integers(0, K + 1, 3))
        lhs = rep.residual_on(s, u)
        rhs = rep.residual_on(s, t) + rep.residual_on(t, u)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_edb_simpson_order_on_smooth_case():
    # smooth two-point case: doubling the checkpoint count gains >= 8x
    sp, coup = two_point()
    u0 = np.array([1.5, 0.5])
    residuals = []
    for ck in (32, 64):
        traj = evolve(coup, COSH, u0, 2.0, IntegratorConfig(checkpoints=ck))
        rep = edb_report(traj, COSH, coup)
        residuals.append(rep.max_edb_residual())
    assert residuals[0] / residuals[1] >= 8.0


def test_chain_rule_stationary_and_closed_form():
    sp, coup = two_point()
    flat = evolve(coup, COSH, np.full(2, 0.9), 1.0, IntegratorConfig(checkpoints=64))
    series, inconclusive, spread = chain_rule_residual(flat, COSH, coup,
                                                       detail=True)
    assert not inconclusive and spread <= 1e-13

    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    _, inconclusive, spread = chain_rule_residual(traj, COSH, coup, detail=True)
    scale = entropy(np.array([2.0, 0.0]), sp.pi, COSH.entropy)
    assert not inconclusive
    assert spread <= 1e-8 * scale


def test_chain_rule_inconclusive_with_vacuum_quadratic():
    # a trajectory whose density touches zero at interior times while the
    # stored flux still charges those edges: the quadratic triple's entropy
    # gradient is infinite there and the check must flag itself inconclusive
    sp, coup = two_point()
    times = np.linspace(0.0, 1.0, 9)
    densities = np.tile([2.0, 0.0], (9, 1))
    fabricated = Trajectory(times=times, densities=densities, flux_store=np.ones((9, 1)),
                            flux_edges=([0], [1]))
    _, inconclusive = chain_rule_residual(fabricated, QUAD, coup)
    assert inconclusive


def test_pointwise_edb():
    sp, coup = two_point()
    flat = evolve(coup, COSH, np.full(2, 1.1), 1.0, IntegratorConfig(checkpoints=64))
    assert np.nanmax(pointwise_edb(flat, COSH, coup)) <= 1e-12

    u0 = np.array([1.5, 0.5])
    mism = []
    for ck in (64, 128):
        traj = evolve(coup, COSH, u0, 1.0,
                      IntegratorConfig(checkpoints=ck, graded_start=False))
        series = pointwise_edb(traj, COSH, coup)
        mism.append(np.nanmax(series))
    # second-order stencil: halving the step cuts the mismatch about 4x
    assert mism[0] / mism[1] >= 3.0


def test_verdict_balanced_on_punctured_exact_flow():
    sp = build_grid(-1.0, 1.0, 20)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    u0 = np.where(sp.points < 0.0, 2.0, 0.0)
    traj = evolve(coup, COSH, u0, 0.5)
    rep = full_report(traj, COSH, coup)
    assert rep.verdict == VERDICT_BALANCED
    assert rep.invariants["component_mass_ok"]
    assert rep.rce_residual <= 1e-8


def test_verdict_neither_for_zeroed_flux():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 1.0, IntegratorConfig(checkpoints=256))
    fabricated = Trajectory(times=traj.times, densities=traj.densities,
                            flux_store=np.zeros((traj.times.size, 1)), flux_edges=([0], [1]))
    rep = full_report(fabricated, COSH, coup)
    assert rep.verdict == VERDICT_NEITHER


def test_verdict_stationary():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.full(2, 2.2), 1.0, IntegratorConfig(checkpoints=64))
    rep = full_report(traj, COSH, coup)
    assert rep.verdict == VERDICT_BALANCED


def test_verdict_dissipative_when_rce_fails():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 1.0, IntegratorConfig(checkpoints=256))
    rep = full_report(traj, COSH, coup)
    assert rep.verdict == VERDICT_BALANCED
    rep.rce_ok = False
    assert upgrade_verdict(rep) == VERDICT_DISSIPATIVE


def test_report_json_and_table():
    sp, coup = two_point()
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 0.5, IntegratorConfig(checkpoints=64))
    rep = full_report(traj, COSH, coup)
    payload = json_text(rep.to_dict())
    assert '"schema": 1' in payload
    table = render_table(rep)
    assert "verdict" in table and "mass" in table
    # the plain continuity residual (the Lipschitz class), on which the
    # Dissipative verdict rests, next to the reflecting one; the JSON is unchanged
    rows = dict(line.split("  ", 1) for line in table.splitlines())
    assert rows["CE residual (Lipschitz class)"].strip() == f"{rep.ce_residual:.3e}"
    assert rows["RCE residual (component class)"].strip() == f"{rep.rce_residual:.3e}"
    assert payload.count("ce_residual") == 2  # ce_residual and rce_residual, as before


def punctured_grid(n=16):
    sp = build_grid(-1.0, 1.0, n)
    return sp, coupling(sp, fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0)))


PASS_CASES = ["cosh_vacuum_two_point", "cosh_punctured", "quadratic_grid",
              "quadratic_vacuum_grid"]


def pass_case(name):
    if name == "cosh_vacuum_two_point":
        sp, coup = two_point()
        return sp, coup, COSH, np.array([2.0, 0.0])
    if name == "cosh_punctured":
        sp, coup = punctured_grid()
        return sp, coup, COSH, 1.0 + 0.5 * np.sin(np.pi * sp.points)
    sp = build_grid(-1.0, 1.0, 12)
    coup = coupling(sp, fractional_kernel(sp, 0.6))
    right = 0.0 if name == "quadratic_vacuum_grid" else 0.4
    return sp, coup, QUAD, np.where(sp.points < 0.0, 1.5, right)


def exact_log_pairing(u, coup):
    """Sum over the edges i < j of theta (ln u_i - ln u_j)(u_i - u_j) to 40 digits
    (+inf when an edge joins a vacant and an occupied state): R + D of either
    canonical triple on the linear flux."""
    D = decimal.Decimal
    total = D(0)
    with decimal.localcontext(decimal.Context(prec=40)):
        x = [D(float(v)) for v in u]  # exact
        ln = [v.ln() if v > 0 else None for v in x]
        for i, j, th in zip(*coup.edges):
            if x[i] == x[j]:
                continue
            if x[i] == 0 or x[j] == 0:
                return np.inf
            total += D(float(th)) * (ln[i] - ln[j]) * (x[i] - x[j])
    return float(total)


def stored_linear(traj, coup):
    """A stored copy of the linear flux on the coupling's edges."""
    rows, cols, _ = coup.edges
    return Trajectory(times=traj.times, densities=traj.densities, flux_edges=(rows, cols),
                      flux_store=traj.densities[:, rows] - traj.densities[:, cols])


def one_ulp_off(traj, coup):
    """A stored copy of the linear flux with the last checkpoint's largest
    coupling-edge flux moved one ulp: the data that sends the checkpoint pass
    down its per-edge R + D branch."""
    store = stored_linear(traj, coup).flux_store
    e = np.argmax(np.abs(store[-1]))
    store[-1, e] = np.nextafter(store[-1, e], np.inf)
    return Trajectory(times=traj.times, densities=traj.densities, flux_store=store,
                      flux_edges=coup.edges[:2])


def dense_flux(traj, k):
    """The (n, n) flux of checkpoint k: u_i - u_j on every pair for the linear
    flux, else the store's row on its edges, mirrored, and zero elsewhere."""
    u = traj.densities[k]
    if traj.flux_store is None:
        return u[:, None] - u[None, :]
    w, (rows, cols) = np.zeros((traj.n, traj.n)), traj.flux_edges
    w[rows, cols], w[cols, rows] = traj.flux_store[k], -traj.flux_store[k]
    return w


@pytest.mark.parametrize("name", PASS_CASES)
def test_checkpoint_pass_matches_single_snapshot_oracles(name, battery):
    sp, coup, triple, u0 = pass_case(name)
    traj = evolve(coup, triple, u0, 0.2, IntegratorConfig(checkpoints=32))
    off = one_ulp_off(traj, coup)
    assert traj.linear_flux and not off.linear_flux
    cp = _checkpoint_pass(traj, triple, coup)  # Fenchel split
    edge = _checkpoint_pass(off, triple, coup)  # per-edge R + D
    assert cp.integrand is cp.pairing and edge.integrand is not edge.pairing
    # minus the net flux is the rate of the indicator of each state: the
    # pass integrates it as the divergence
    phis = np.column_stack([np.eye(sp.n)] + battery(sp, 0))
    runs = [(t, p, continuity_rates(t, coup, phis))
            for t, p in ((traj, cp.pairing), (off, edge.pairing))]
    for (t, _, rates), c in zip(runs, (cp, edge)):
        integral, _ = cumulative_simpson_nonuniform(t.times, -rates[:, :sp.n])
        np.testing.assert_allclose(c.divergence_integral(), integral, rtol=1e-12, atol=1e-14)
    for k, u in enumerate(traj.densities):
        exact = exact_log_pairing(u, coup)
        np.testing.assert_allclose(cp.integrand[k], exact, rtol=1e-12)
        np.testing.assert_allclose(edge.integrand[k], exact, rtol=1e-12)
        np.testing.assert_allclose(edge.integrand[k],
                                   edb_integrand(u, dense_flux(off, k), triple, coup.theta),
                                   rtol=1e-12)
        assert cp.entropy[k] == edge.entropy[k] == entropy(u, sp.pi, triple.entropy)
        lam = triple.entropy.dphi_ext(u)
        for t, p, rates in runs:
            w = dense_flux(t, k)
            np.testing.assert_allclose(rates[k], -(w * coup.theta).sum(axis=1) @ phis,
                                       rtol=1e-12, atol=1e-14)
            with np.errstate(invalid="ignore"):
                grad = lam[None, :] - lam[:, None]
                vals = np.where(coup.theta > 0, -grad * w * coup.theta, 0.0)
            vals = np.where((w == 0.0) & ~np.isfinite(grad), 0.0, vals)
            np.fill_diagonal(vals, 0.0)
            pairing = np.nan if np.any(np.isnan(vals)) else 0.5 * np.sum(vals)
            np.testing.assert_allclose(p[k], pairing, rtol=1e-12, atol=1e-14)
    assert np.isinf(cp.integrand[0]) == np.isinf(edge.integrand[0]) == ("vacuum" in name)


@pytest.mark.parametrize("name", PASS_CASES)
def test_only_the_continuity_classes_integrate_the_divergence(name, monkeypatch):
    # the balance, the chain rule, the pointwise form and the ledger series
    # integrate the integrand and the pairing, at most two columns; the
    # (K + 1, n) divergence is integrated for the continuity classes alone
    sp, coup, triple, u0 = pass_case(name)
    traj = evolve(coup, triple, u0, 0.2, IntegratorConfig(checkpoints=32))
    columns = []

    def counted(ts, bs):
        columns.append(1 if np.ndim(bs) == 1 else np.shape(bs)[1])
        return cumulative_simpson_nonuniform(ts, bs)

    monkeypatch.setattr(functionals, "cumulative_simpson_nonuniform", counted)
    for t in (traj, one_ulp_off(traj, coup)):
        for certificate in (edb_report, chain_rule_residual, pointwise_edb,
                            functionals.trajectory_L):
            columns.clear()
            certificate(t, triple, coup)
            assert columns and max(columns) <= 2, (certificate.__name__, columns)
        columns.clear()
        full_report(t, triple, coup)
        assert sorted(columns)[-1] == sp.n and max(sorted(columns)[:-1]) <= 2, columns


def per_edge_pairings(traj, triple, coup):
    """The chain-rule pairing of every checkpoint, edge by edge: the reference for
    the pass's Laplacian GEMM on the linear flux."""
    rows, cols, th = coup.edges
    return np.array([_pairing(triple.entropy.dphi_ext(u), u[rows] - u[cols],
                              rows, cols, th) for u in traj.densities])


def vacant_component_case():
    """A punctured grid whose right component starts and stays vacant: every row
    has vacant states, yet no edge joins a vacant and an occupied state."""
    sp, coup = punctured_grid()
    return sp, coup, COSH, np.where(sp.points < 0.0, 1.5, 0.0)


@pytest.mark.parametrize("name", PASS_CASES + ["cosh_vacant_component"])
def test_centred_pairing_matches_the_per_edge_pairing(name):
    sp, coup, triple, u0 = (vacant_component_case() if name == "cosh_vacant_component"
                            else pass_case(name))
    traj = evolve(coup, triple, u0, 0.2, IntegratorConfig(checkpoints=32))
    g = _checkpoint_pass(traj, triple, coup).pairing
    ref = per_edge_pairings(traj, triple, coup)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(np.isfinite(g), finite)
    np.testing.assert_array_equal(g[~finite], ref[~finite])
    np.testing.assert_allclose(g[finite], ref[finite], rtol=1e-13)
    if name == "cosh_vacant_component":
        assert finite.all()


def test_centred_pairing_with_vacant_states_is_the_per_edge_pairing():
    # random graphs with vacant states, some of them joined only to vacant states:
    # there the centred terms are -inf times rounding noise of either sign, so a
    # row may sum +inf and -inf; it must still give the per-edge value, silently
    rng = np.random.default_rng(1)
    for _ in range(200):
        theta = np.triu(rng.random((8, 8)) * (rng.random((8, 8)) < 0.6), 1)
        coup = Coupling(theta=theta + theta.T, detailed_balance_residual=0.0, pi=np.full(8, 0.125))
        u = np.where(rng.random(8) < 0.5, 0.0, rng.random(8) + 0.5)
        traj = Trajectory(times=[0.0, 1.0], densities=np.vstack([u, u]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's own frames included
            g = _checkpoint_pass(traj, COSH, coup).pairing
        ref = per_edge_pairings(traj, COSH, coup)
        finite = np.isfinite(ref)
        np.testing.assert_array_equal(g[~finite], ref[~finite])
        np.testing.assert_allclose(g[finite], ref[finite], rtol=1e-13)


def test_centred_pairing_keeps_its_digits_near_equilibrium():
    # n=40 cosh run to T=50: from t = 10 on the density is at equilibrium to a few
    # ulps and the pairing is about 2e-28; both the centred GEMM and the per-edge
    # sum carry the rounding of log u (about 1e-4 relative), while the uncentred
    # lam . (L u) cancels every digit
    sp = build_grid(-1.0, 1.0, 40)
    coup = coupling(sp, fractional_kernel(sp, 0.6))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 1.8, 0.3), 50.0,
                  IntegratorConfig(checkpoints=64))
    g = _checkpoint_pass(traj, COSH, coup).pairing
    ref = per_edge_pairings(traj, COSH, coup)
    lap = np.diag(coup.theta.sum(axis=1)) - coup.theta
    late = np.flatnonzero(traj.times >= 10.0)
    assert late.size > 10
    for k in late:
        u = traj.densities[k]
        exact = exact_log_pairing(u, coup)
        assert abs(g[k] - exact) <= 2.0 * abs(ref[k] - exact), traj.times[k]
        plain = np.log(u) @ (lap @ u)
        assert abs(plain - exact) > 1e6 * exact, traj.times[k]


@pytest.mark.parametrize("name", PASS_CASES)
def test_centred_pairing_does_not_depend_on_its_block(name, monkeypatch):
    sp, coup, triple, u0 = pass_case(name)
    traj = evolve(coup, triple, u0, 0.2, IntegratorConfig(checkpoints=32))
    g = _checkpoint_pass(traj, triple, coup).pairing
    assert traj.times.size > 4 * functionals.PASS_BLOCK
    for drop in (1, 3, 17):
        tail = Trajectory(times=traj.times[drop:], densities=traj.densities[drop:])
        np.testing.assert_array_equal(
            _checkpoint_pass(tail, triple, coup).pairing, g[drop:])
    for block in (2, 5, 1000):
        monkeypatch.setattr(functionals, "PASS_BLOCK", block)
        np.testing.assert_array_equal(
            _checkpoint_pass(traj, triple, coup).pairing, g)


def test_split_pass_takes_the_per_edge_pairing_only_on_vacant_rows(monkeypatch):
    # the grid-certify config at n=24: a vacuum start on a cut fractional kernel,
    # on the graded grid of 1512 rows, many blocks of the pass
    sp = build_grid(-1.0, 1.0, 24)
    coup = coupling(sp, cutoff(fractional_kernel(sp, 0.6), sp, 1e-3))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 2.0, 0.0), 0.5,
                  IntegratorConfig(checkpoints=256))
    calls = []

    def counted(*args):
        calls.append(args)
        return _pairing(*args)

    monkeypatch.setattr(functionals, "_pairing", counted)
    cp = _checkpoint_pass(traj, COSH, coup)
    vacant = np.any(traj.densities == 0.0, axis=1)
    assert cp.integrand is cp.pairing and traj.times.size > 1000
    assert len(calls) == vacant.sum() == 1
    assert np.isinf(cp.pairing[0]) and np.all(np.isfinite(cp.pairing[1:]))


def test_rce_battery_equals_member_by_member_residuals(battery):
    # the ledger's one entry per member, the step's, is that member's own
    # defect spread; the class values bound the spread of each member of the
    # test battery, at every seed
    sp, coup = punctured_grid(20)
    traj = evolve(coup, COSH, 1.0 + 0.5 * np.sin(np.pi * sp.points), 0.3)
    mass = float(traj.densities[0] @ coup.pi)
    values = rce_battery(traj, COSH, coup)
    assert list(values) == ["lipschitz_class", "component_class", "component_step"]
    assert values == full_report(traj, COSH, coup).flags["continuity"]
    step = continuity_residual(traj, (sp.points < 0.0) * 1.0, coup) / mass
    assert values["component_step"] == pytest.approx(step, rel=1e-12, abs=1e-14)
    assert step <= values["component_class"]
    for seed in range(5):
        for phi in battery(sp, seed):
            assert continuity_residual(traj, phi, coup) / mass <= values["lipschitz_class"], seed


def path_graph(n):
    pts = np.arange(n, dtype=float)
    return build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(n, 1.0 / n))


@pytest.mark.parametrize("sp", [build_grid(-1.0, 1.0, 40), build_torus(30), path_graph(2)],
                         ids=["grid", "torus", "two_point_graph"])
def test_lipschitz_battery_members_are_seeded_bounded_and_1_lipschitz(sp, battery):
    def randoms(seed):
        members = battery(sp, seed)
        assert len(members) == 5 and np.array_equal(members[0], np.ones(sp.n))
        return np.column_stack(members[1:])

    assert np.array_equal(randoms(0), randoms(0))
    assert not np.array_equal(randoms(0), randoms(1))
    for seed in range(20):
        for phi in randoms(seed).T:
            assert np.all(np.abs(phi) <= 1.0)
            assert np.all(np.abs(phi[:, None] - phi[None, :]) <= sp.dist + 1e-15), seed


def test_stored_flux_copy_gives_the_same_full_report():
    # an exact stored copy of the linear flux is linear data and gives exactly the
    # storeless report; a copy one ulp off takes the per-edge R + D pass and the
    # per-checkpoint flux rates, which must agree with it
    sp60 = build_grid(-1.0, 1.0, 60)
    coup60 = coupling(sp60, fractional_kernel(sp60, 0.6, mask=punctured_mask(sp60, 0.0)))
    cases = [(name, *pass_case(name)) for name in PASS_CASES]
    cases.append(("quadratic_punctured_60", sp60, coup60, QUAD,
                  np.where(sp60.points < -0.5, 1.5, 0.4)))

    def close(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(close(x[k], y[k]) for k in x)
        if isinstance(x, float):
            return abs(x - y) <= 1e-12
        return x == y

    for name, sp, coup, triple, u0 in cases:
        traj = evolve(coup, triple, u0, 0.3, IntegratorConfig(checkpoints=64))
        stored = stored_linear(traj, coup)
        off = one_ulp_off(traj, coup)
        assert stored.linear_flux and not off.linear_flux
        split = _checkpoint_pass(stored, triple, coup)
        assert split.integrand is split.pairing
        args = (triple, coup)
        a = full_report(traj, *args).to_dict()
        assert full_report(stored, *args).to_dict() == a, name
        assert close(full_report(off, *args).to_dict(), a), name

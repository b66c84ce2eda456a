"""Variational functionals against hand computations and exhaustive oracles."""

import json
import math
import warnings

import numpy as np
import pytest

from jumpflow.cli import json_text
from jumpflow.densities import canonical_triple, legendre
from jumpflow.evolution import IntegratorConfig, Trajectory, concatenate, evolve
from jumpflow.functionals import (Upsilon, _checkpoint_pass, action_R, entropy,
                                  entropy_series, f_upsilon, fisher_D, trajectory_L)
from jumpflow.measures import PosMeasure, jordan_from_setfunction
from jumpflow.spaces import build_grid, coupling, fractional_kernel, matrix_kernel

COSH = canonical_triple("cosh")
QUAD = canonical_triple("quadratic")


def dual_R_star(u, xi, triple, theta):
    """Dual action sum psi*(xi) nu_rho / 2 with nu_rho = alpha(u_i, u_j) theta:
    the oracle of the Fisher identity and of Young duality below."""
    off = ~np.eye(u.size, dtype=bool)
    nu = triple.flux.alpha(u[:, None], u[None, :]) * theta
    return 0.5 * float(np.sum(np.where(off, triple.pair.psi_star(xi) * nu, 0.0)))


def two_point_system(rate=1.0):
    pts = np.array([0.0, 1.0])
    from jumpflow.spaces import build_graph

    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    coup = coupling(sp, matrix_kernel([[0.0, rate], [rate, 0.0]]))
    return sp, coup


def test_entropy_values():
    pi = np.full(4, 0.25)
    assert entropy(np.ones(4), pi, COSH.entropy) == 0.0
    assert entropy(np.zeros(4), pi, COSH.entropy) == pytest.approx(1.0)
    pi2 = np.array([0.5, 0.5])
    expected = 0.5 * (2.0 * math.log(2.0) - 2.0 + 1.0) + 0.5 * 1.0
    assert entropy(np.array([2.0, 0.0]), pi2, COSH.entropy) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(math.log(2.0), rel=1e-14)


def test_action_zero_flux():
    _, coup = two_point_system()
    assert action_R(np.array([1.0, 2.0]), np.zeros((2, 2)), COSH, coup.theta) == 0.0


def test_action_recession():
    _, coup = two_point_system()
    u = np.array([2.0, 0.0])     # geometric mean vanishes on the edge
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert action_R(u, w, COSH, coup.theta) == math.inf
    # vanishing flux on the degenerate edge is free
    assert action_R(u, np.zeros((2, 2)), COSH, coup.theta) == 0.0


def test_action_on_a_nearly_vacant_edge_is_inf():
    # alpha = 1e-160 > 0, so the edge is active and w / alpha overflows to inf:
    # psi(inf) is +inf, and so are R and the per-edge R + D, not NaN
    # past the float range; the overflow is the value, so it raises no warning
    sp, coup = two_point_system()
    u = np.array([1e-160, 1e-160])
    w = np.array([[0.0, 1e150], [-1e150, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert action_R(u, w, COSH, coup.theta) == math.inf
        traj = Trajectory(times=[0.0, 1.0], densities=np.stack([u, u]),
                          flux_store=np.full((2, 1), w[0, 1]), flux_edges=([0], [1]))
        assert not traj.linear_flux
        assert np.all(_checkpoint_pass(traj, COSH, coup).integrand == math.inf)


def test_action_matches_perspective_by_hand():
    _, coup = two_point_system(rate=1.0)
    u = np.array([1.0, 4.0])
    w_val = 0.7
    w = np.array([[0.0, w_val], [-w_val, 0.0]])
    val = action_R(u, w, COSH, coup.theta)
    # per ordered edge: perspective alpha psi(w / alpha) theta; psi even in w
    a = math.sqrt(4.0)
    per_edge = a * legendre(COSH.pair, w_val / a) * 0.5
    assert val == pytest.approx(0.5 * 2.0 * per_edge, rel=1e-12)


def test_dual_action_values():
    _, coup = two_point_system()
    u = np.ones(2)
    assert dual_R_star(u, np.zeros((2, 2)), COSH, coup.theta) == 0.0
    c = 1.3
    xi = np.full((2, 2), c)
    theta_total = coup.theta.sum()
    expected = 0.5 * COSH.pair.psi_star(c) * theta_total
    assert dual_R_star(u, xi, COSH, coup.theta) == pytest.approx(expected, rel=1e-14)


def test_fisher_values():
    pi = np.full(3, 1.0 / 3.0)
    theta = np.ones((3, 3)) - np.eye(3)
    assert fisher_D(np.full(3, 0.7), COSH, theta) == 0.0
    # single symmetric edge with theta = 1 in both directions
    theta2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.0, 4.0])
    assert fisher_D(u, COSH, theta2) == pytest.approx(2.0, rel=1e-14)
    assert fisher_D(np.array([0.0, 1.0]), QUAD, theta2) == math.inf


def test_fisher_equals_dual_action_at_entropy_gradient():
    rng = np.random.default_rng(1)
    sp = build_grid(-1.0, 1.0, 10)
    coup = coupling(sp, fractional_kernel(sp, 0.5))
    for triple in (COSH, QUAD):
        for _ in range(5):
            u = rng.uniform(0.2, 3.0, 10)
            lam = triple.entropy.dphi(u)
            xi = -(lam[None, :] - lam[:, None])
            assert fisher_D(u, triple, coup.theta) == pytest.approx(
                dual_R_star(u, xi, triple, coup.theta), rel=1e-10)


def test_young_duality_between_action_and_dual():
    rng = np.random.default_rng(2)
    sp = build_grid(-1.0, 1.0, 8)
    coup = coupling(sp, fractional_kernel(sp, 0.5))
    for triple in (COSH, QUAD):
        for _ in range(10):
            u = rng.uniform(0.05, 3.0, 8)
            w = rng.normal(size=(8, 8))
            w = w - w.T
            xi = rng.normal(size=(8, 8))
            np.fill_diagonal(xi, 0.0)
            pairing = 0.5 * float(np.sum(w * xi * coup.theta))
            bound = (action_R(u, w, triple, coup.theta)
                     + dual_R_star(u, xi, triple, coup.theta))
            assert pairing <= bound + 1e-10


def test_trajectory_ledger_stationary():
    sp, coup = two_point_system()
    traj = evolve(coup, COSH, np.full(2, 1.7), 1.0, IntegratorConfig(checkpoints=32))
    series = trajectory_L(traj, COSH, coup)
    # constants are exact fixed points of the flux formula; the integrator
    # leaves only machine-level entropy jitter
    assert np.max(np.abs(series)) <= 1e-14


def test_trajectory_ledger_two_point_closed_form():
    sp, coup = two_point_system(rate=1.0)
    traj = evolve(coup, COSH, np.array([2.0, 0.0]), 2.0, IntegratorConfig(checkpoints=1024))
    series, detail = trajectory_L(traj, COSH, coup, report=True)
    scale = entropy(np.array([2.0, 0.0]), sp.pi, COSH.entropy)
    assert np.max(np.abs(series)) <= 1e-8 * scale
    assert detail["initial_singular"]
    # the energy-dissipation inequality: the ledger never exceeds tolerance
    assert np.max(series) <= 1e-8 * scale


def test_trajectory_ledger_additive_under_concatenation():
    sp, coup = two_point_system()
    cfg = IntegratorConfig(checkpoints=128)
    first = evolve(coup, COSH, np.array([1.5, 0.5]), 0.5, cfg)
    second = evolve(coup, COSH, first.densities[-1], 0.7, cfg)
    joined = concatenate(first, second)
    s1 = trajectory_L(first, COSH, coup)
    s2 = trajectory_L(second, COSH, coup)
    sj = trajectory_L(joined, COSH, coup)
    assert sj[-1] == pytest.approx(s1[-1] + s2[-1], abs=1e-12)


@pytest.mark.parametrize("checkpoints", [1, 63, 300])
def test_split_path_entropy_is_entropy_series_bit_for_bit(checkpoints):
    # the split path takes the entropy from the log of its pairing's blocks,
    # 64 to 127 rows; entropy_series takes phi in blocks of 256: with vacant
    # states (a vacuum start) and any block layout the values are the same
    sp = build_grid(-1.0, 1.0, 30)
    coup = coupling(sp, fractional_kernel(sp, 0.6))
    traj = evolve(coup, COSH, np.where(sp.points < 0.0, 2.0, 0.0), 0.2,
                  IntegratorConfig(checkpoints=checkpoints, graded_start=False))
    assert traj.linear_flux and np.any(traj.densities == 0.0)
    ent = _checkpoint_pass(traj, COSH, coup).entropy
    assert ent.tobytes() == entropy_series(traj.densities, coup.pi, COSH.entropy).tobytes()


def test_f_upsilon_quadratic():
    quadratic = Upsilon(lambda z: float(np.sum(np.asarray(z) ** 2)), name="quadratic")
    nu = PosMeasure([0.5, 1.0, 2.0])
    mu = jordan_from_setfunction([1.0, -2.0, 3.0])
    expected = sum((m / g) ** 2 * g for m, g in zip([1.0, -2.0, 3.0], [0.5, 1.0, 2.0]))
    assert f_upsilon(mu, nu, quadratic) == pytest.approx(expected, rel=1e-14)
    # superlinear recession: any singular mass is infinitely expensive
    nu0 = PosMeasure([0.5, 0.0, 2.0])
    assert f_upsilon(mu, nu0, quadratic) == math.inf


def test_f_upsilon_vector_valued():
    quadratic2 = Upsilon(lambda z: float(np.sum(np.asarray(z) ** 2)),
                         recession_fn=lambda z: math.inf if np.any(np.asarray(z) != 0) else 0.0)
    nu = PosMeasure([0.5, 2.0])
    mu1 = jordan_from_setfunction([1.0, -1.0])
    mu2 = jordan_from_setfunction([2.0, 4.0])
    expected = ((1.0 / 0.5) ** 2 + (2.0 / 0.5) ** 2) * 0.5 \
        + ((-1.0 / 2.0) ** 2 + (4.0 / 2.0) ** 2) * 2.0
    assert f_upsilon([mu1, mu2], nu, quadratic2) == pytest.approx(expected, rel=1e-14)


def test_f_upsilon_one_homogeneous_independent_of_reference():
    absval = Upsilon(lambda z: float(np.sum(np.abs(z))),
                     recession_fn=lambda z: float(np.sum(np.abs(z))), name="abs")
    rng = np.random.default_rng(3)
    mu = jordan_from_setfunction(rng.normal(size=6))
    for _ in range(5):
        nu = PosMeasure(rng.uniform(0.1, 3.0, 6))
        assert f_upsilon(mu, nu, absval) == pytest.approx(mu.tv(), rel=1e-12)


def test_f_upsilon_jensen_exhaustive():
    # perspective of the value on a set never exceeds the restricted functional
    from jumpflow.measures import restrict, lebesgue_decompose

    upsilons = [
        Upsilon(lambda z: float(np.sum(np.asarray(z) ** 2)),
                recession_fn=lambda z: math.inf if np.any(np.asarray(z) != 0) else 0.0),
        Upsilon(lambda z: float(np.sum(np.abs(z))),
                recession_fn=lambda z: float(np.sum(np.abs(z)))),
        Upsilon(lambda z: float(np.sum(np.sqrt(1.0 + np.asarray(z) ** 2) - 1.0)),
                recession_fn=lambda z: float(np.sum(np.abs(z)))),
    ]
    rng = np.random.default_rng(4)
    for trial in range(40):
        ups = upsilons[trial % len(upsilons)]
        nu = PosMeasure(np.where(rng.random(8) < 0.25, 0.0, rng.uniform(0.1, 2.0, 8)))
        mu = jordan_from_setfunction(rng.normal(size=8))
        total = f_upsilon(mu, nu, ups)
        for bits in range(2**8):
            subset = tuple(i for i in range(8) if bits >> i & 1)
            mu_b = restrict(mu, subset)
            nu_b = PosMeasure(np.where([i in subset for i in range(8)], nu.weights, 0.0))
            _, singular = lebesgue_decompose(mu_b, nu_b)
            ac_mass = mu_b.evaluate() - singular.evaluate()
            lhs = ups.perspective(np.array([ac_mass]), nu_b.mass()) \
                + float(ups.recession(np.array([singular.evaluate()])))
            rhs = f_upsilon(mu_b, nu_b, ups)
            assert lhs <= rhs + 1e-12
            assert rhs <= total + 1e-12


def test_f_upsilon_jointly_convex():
    quadratic = Upsilon(lambda z: float(np.sum(np.asarray(z) ** 2)),
                        recession_fn=lambda z: math.inf if np.any(np.asarray(z) != 0) else 0.0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu1 = jordan_from_setfunction(rng.normal(size=6))
        mu2 = jordan_from_setfunction(rng.normal(size=6))
        nu1 = PosMeasure(rng.uniform(0.1, 2.0, 6))
        nu2 = PosMeasure(rng.uniform(0.1, 2.0, 6))
        mid_mu = jordan_from_setfunction(0.5 * (mu1.values + mu2.values))
        mid_nu = PosMeasure(0.5 * (nu1.weights + nu2.weights))
        lhs = f_upsilon(mid_mu, mid_nu, quadratic)
        rhs = 0.5 * (f_upsilon(mu1, nu1, quadratic) + f_upsilon(mu2, nu2, quadratic))
        assert lhs <= rhs + 1e-12


def test_json_text_writes_non_finite_and_numpy_values_at_every_depth():
    # each leaf as the scalar rule gives it: a non-finite float is the string
    # 'nan', 'inf' or '-inf', a numpy scalar is the Python one
    nan, inf = float("nan"), float("inf")
    report = {
        "top": nan,
        "flags": {"battery": {"a": inf, "b": np.float64(-inf), "c": np.float64(0.25)},
                  "ok": np.bool_(True), "count": np.int64(7)},
        "series": [1.5, nan, [np.float64(inf), np.int64(-3)], (np.bool_(False), -inf)],
        "array": np.array([0.5, nan, -inf]),
        "none": None,
    }
    leaf_by_leaf = {
        "top": "nan",
        "flags": {"battery": {"a": "inf", "b": "-inf", "c": 0.25}, "ok": True, "count": 7},
        "series": [1.5, "nan", ["inf", -3], [False, "-inf"]],
        "array": [0.5, "nan", "-inf"],
        "none": None,
    }
    text = json_text(report)
    assert text == json.dumps(leaf_by_leaf, indent=2, sort_keys=True, allow_nan=False)
    assert json_text(report, indent=None) == json.dumps(leaf_by_leaf, sort_keys=True)

"""Sweep, reflecting scenario, ramp probe, configuration-space lift, W2."""

import numpy as np
import pytest

from jumpflow.densities import canonical_triple
from jumpflow.evolution import IntegratorConfig, evolve
from jumpflow.experiments import (build_lift, default_probe_deltas, density_gap_probe,
                                  key_estimate_check, robustness_sweep, uniqueness_probe,
                                  w2_exact)
from jumpflow.functionals import entropy, entropy_series
from jumpflow.ledger import edb_report
from jumpflow.spaces import (build_graph, build_grid, build_torus, coupling,
                             fractional_kernel, matrix_kernel, punctured_mask)

COSH = canonical_triple("cosh")


def test_sweep_bounded_kernel_gaps_collapse():
    # no singularity: once eps is far below min d^2 the cutoffs are all
    # essentially the identity and the terminal states coincide
    pts = np.array([0.0, 1.0, 2.0, 3.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(4, 0.25))
    rng = np.random.default_rng(0)
    rates = rng.random((4, 4))
    rates = 0.5 * (rates + rates.T)
    np.fill_diagonal(rates, 0.0)
    kern = matrix_kernel(rates)
    u0 = np.array([2.0, 0.5, 1.0, 0.5])
    res = robustness_sweep(sp, kern, COSH, [1e-2, 1e-4, 1e-6, 1e-8], u0, 0.5,
                           IntegratorConfig(checkpoints=64))
    assert res.gaps[-1] <= 1e-6
    assert np.all(np.diff(res.gaps) < 0)


def test_sweep_stationary_all_gaps_zero():
    sp = build_grid(-1.0, 1.0, 10)
    kern = fractional_kernel(sp, 0.6)
    res = robustness_sweep(sp, kern, COSH, [1e-1, 1e-2, 1e-3], np.full(10, 1.3), 0.2,
                           IntegratorConfig(checkpoints=32))
    assert np.max(res.gaps) <= 1e-12


def test_sweep_fractional_punctured_decreasing():
    sp = build_grid(-1.0, 1.0, 40)
    kern = fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0))
    u0 = 1.0 + 0.8 * np.sin(np.pi * sp.points) * (sp.points < 0) + 0.3 * (sp.points > 0)
    res = robustness_sweep(sp, kern, COSH, [1e-1, 1e-2, 1e-3, 1e-4], u0, 0.5,
                           IntegratorConfig(checkpoints=128))
    assert np.all(np.diff(res.gaps) < 0)
    assert np.all(res.gap_ratios() >= 2.0)


def test_sweep_rejects_increasing_eps():
    sp = build_grid(-1.0, 1.0, 8)
    kern = fractional_kernel(sp, 0.6)
    with pytest.raises(ValueError):
        robustness_sweep(sp, kern, COSH, [1e-3, 1e-2], np.ones(8), 0.1)


def test_reflecting_scenario_masses_and_equilibration():
    # punctured kernel: masses stay inside the components and the profile
    # equilibrates toward the componentwise constant
    n = 40
    sp = build_grid(-1.0, 1.0, n)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=punctured_mask(sp, 0.0)))
    u0 = np.where(sp.points < 0.0, 2.0, 0.0)
    traj = evolve(coup, COSH, u0, 6.0, IntegratorConfig(checkpoints=256))
    left = sp.points < 0.0
    m_left = traj.densities[:, left] @ sp.pi[left]
    m_right = traj.densities[:, ~left] @ sp.pi[~left]
    assert np.max(np.abs(m_right - m_right[0])) <= 1e-12
    assert np.max(np.abs(m_left - m_left[0])) <= 1e-12 * 2.0
    # componentwise ergodicity: flat at 2 on the left, 0 on the right
    eq = np.where(left, m_left[0] / sp.pi[left].sum(), m_right[0] / sp.pi[~left].sum())
    assert np.max(np.abs(traj.densities[-1] - eq)) <= 1e-3
    ent = entropy_series(traj.densities, sp.pi, COSH.entropy)
    assert np.all(np.diff(ent) <= 1e-12)
    assert ent[-1] == pytest.approx(entropy(eq, sp.pi, COSH.entropy), abs=1e-6)


def test_probe_windows():
    d = default_probe_deltas(0.75)
    assert np.all((d >= 1e-3) & (d <= 1e-1))


@pytest.mark.slow
def test_probe_slope_grid_stable():
    # doubling the grid moves the fitted slope by at most 0.02
    for s in (0.6, 0.9):
        s1 = density_gap_probe(s, n=4096).slope
        s2 = density_gap_probe(s, n=8192).slope
        assert abs(s1 - s2) <= 0.02, (s, s1, s2)


@pytest.mark.slow
def test_probe_small_grid_wiring():
    res = density_gap_probe(0.75, deltas=[0.2, 0.1, 0.05], n=256)
    assert res.slope is not None and res.slope < 0
    res_low = density_gap_probe(0.25, deltas=[0.2, 0.1, 0.05], n=256)
    assert res_low.tail_relative_change is not None


def _dense_ramp_seminorm(x, h, s, delta, mask=None, chunk=512):
    """The ramp seminorm as the full double sum, a chunk of rows at a time."""
    phi = np.clip((x + delta) / (2.0 * delta), 0.0, 1.0)
    total = 0.0
    for lo in range(0, x.size, chunk):
        hi = min(lo + chunk, x.size)
        d = np.abs(x[lo:hi, None] - x[None, :])
        rows = np.arange(lo, hi)
        d[rows - lo, rows] = 1.0
        w = d ** (-(1.0 + 2.0 * s)) * h * h
        if mask is not None:
            w *= mask[lo:hi, :]
        block = (phi[lo:hi, None] - phi[None, :]) ** 2 * w
        block[rows - lo, rows] = 0.0
        total += float(block.sum())
    return total


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("s", [0.25, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("masked", [False, True])
def test_probe_matches_dense_double_sum(n, s, masked):
    # widths from the finest the grid allows to ramps across the whole domain,
    # where phi^2 prefix sums and the FFT autocorrelation cancel the most
    h = 2.0 / n
    x = -1.0 + (np.arange(n) + 0.5) * h
    left = x < 0
    mask = (left[:, None] == left[None, :]).astype(float) if masked else None
    res = density_gap_probe(s, deltas=[0.99, 0.5, 0.2, 0.05, 0.02, 2.0 * h], n=n, masked=masked)
    dense = np.array([_dense_ramp_seminorm(x, h, s, d, mask) for d in res.deltas])
    np.testing.assert_allclose(res.seminorms, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [dict(s=0.0), dict(s=1.0), dict(s=1.5), dict(n=1),
                                 dict(n=0), dict(deltas=[0.1, np.nan]),
                                 dict(deltas=[0.1, -0.2]), dict(deltas=[np.inf]),
                                 dict(deltas=[0.2]), dict(deltas=[0.2, 0.2])])
def test_probe_rejects_bad_arguments(bad):
    args = dict(s=0.75, deltas=[0.2, 0.1], n=64) | bad
    with pytest.raises(ValueError):
        density_gap_probe(**args)


def test_probe_rejects_equal_widths():
    # the widths are sorted, so equal end widths mean no two distinct ones
    with pytest.raises(ValueError, match="deltas must hold at least two distinct"):
        density_gap_probe(0.6, deltas=[0.1, 0.1])


def test_probe_rejects_coarse_grid():
    with pytest.raises(ValueError):
        density_gap_probe(0.75, deltas=[1e-3], n=64)


def test_probe_masked_kernel():
    # the punctured mask removes all cross-component pairs; the ramp seminorm
    # stays finite and strictly below the unmasked one
    plain = density_gap_probe(0.75, deltas=[0.1, 0.05], n=256)
    masked = density_gap_probe(0.75, deltas=[0.1, 0.05], n=256, masked=True)
    assert np.all(np.isfinite(masked.seminorms))
    assert np.all(masked.seminorms < plain.seminorms)


def test_w2_basics():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    """equal distributions have zero cost"""
    assert w2_exact([0.5, 0.5], [0.5, 0.5], d**2) == 0.0
    # two point masses at distance d: full transport
    assert w2_exact([1.0, 0.0], [0.0, 1.0], d**2) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        w2_exact([1.0, 0.0], [0.3, 0.3], d**2)


def test_w2_jump_example():
    # two particles at {0, 1}; one jumps from 0 to 1: cost d^2 / N exactly
    d2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    nu = np.array([0.5, 0.5])
    eta = np.array([0.0, 1.0])
    assert w2_exact(nu, eta, d2) == pytest.approx(0.5, abs=1e-14)


def test_w2_matches_sorted_coupling_on_line():
    # on the line the optimal quadratic-cost plan is the monotone rearrangement
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-1, 1, 5))
    c2 = (x[:, None] - x[None, :]) ** 2
    for _ in range(10):
        a_cnt = rng.integers(1, 4, 5)
        b_cnt = rng.permutation(a_cnt)
        total = a_cnt.sum()
        lp = w2_exact(a_cnt / total, b_cnt / total, c2)
        # quantile-coupling oracle on the integer-mass quantization
        qa = np.repeat(x, a_cnt)
        qb = np.repeat(x, b_cnt)
        oracle = float(np.mean((qa - qb) ** 2))
        assert lp == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("m,N", [(2, 2), (3, 3), (4, 4)])
def test_lift_line_distances_equal_transport_lp(m, N):
    base = build_grid(0.0, 1.0, m)
    lifted = build_lift(base, fractional_kernel(base, 0.6), N)
    dist = lifted.space.dist
    assert np.array_equal(dist, dist.T) and not np.any(np.diag(dist))
    for a, ca in enumerate(lifted.configs):
        for b in range(a + 1, lifted.n_configs):
            lp = w2_exact(np.array(ca) / N, np.array(lifted.configs[b]) / N, base.dist**2)
            assert abs(dist[a, b] ** 2 - lp) <= 1e-15, (ca, lifted.configs[b])


def test_lift_torus_base_solves_transport_lp(monkeypatch):
    # on the three-point torus every pair sits at distance 1/3, so W2^2 is
    # 1/9 times the mass that moves; the line matching would give (2/3)^2
    # between the two outer atoms
    from jumpflow import experiments

    calls = []

    def counted(*args):
        calls.append(args)
        return w2_exact(*args)

    monkeypatch.setattr(experiments, "w2_exact", counted)
    base, N = build_torus(3), 2
    lifted = build_lift(base, fractional_kernel(base, 0.6), N)
    assert len(calls) == lifted.n_configs * (lifted.n_configs - 1) // 2
    for a, ca in enumerate(lifted.configs):
        for b, cb in enumerate(lifted.configs):
            moved = 0.5 * np.abs(np.subtract(ca, cb)).sum() / N
            assert lifted.space.dist[a, b] ** 2 == pytest.approx(moved / 9.0, abs=1e-15)


def test_lift_single_particle_is_base():
    base = build_grid(0.0, 1.0, 3)
    kern = fractional_kernel(base, 0.6)
    lifted = build_lift(base, kern, 1)
    assert lifted.n_configs == 3
    np.testing.assert_allclose(lifted.space.pi, base.pi, rtol=1e-14)
    np.testing.assert_allclose(lifted.kernel.rates, kern.rates, rtol=1e-14)
    np.testing.assert_allclose(lifted.space.dist, base.dist, rtol=1e-12, atol=1e-12)


def test_lift_two_by_two():
    base = build_grid(0.0, 1.0, 2)
    kern = fractional_kernel(base, 0.6)
    lifted = build_lift(base, kern, 2)
    assert lifted.n_configs == 3
    p, q = base.pi
    # multinomial pushforward of the product measure
    weights = {c: w for c, w in zip(lifted.configs, lifted.space.pi)}
    assert weights[(2, 0)] == pytest.approx(p * p, rel=1e-14)
    assert weights[(1, 1)] == pytest.approx(2 * p * q, rel=1e-14)
    assert weights[(0, 2)] == pytest.approx(q * q, rel=1e-14)
    assert lifted.space.pi.sum() == pytest.approx(base.pi.sum() ** 2, rel=1e-14)
    # detailed balance of the lifted coupling
    theta_hat = lifted.space.pi[:, None] * lifted.kernel.rates
    assert np.max(np.abs(theta_hat - theta_hat.T)) <= 1e-12


def test_lift_key_estimate():
    base = build_grid(0.0, 1.0, 3)
    kern = fractional_kernel(base, 0.6)
    for N in (1, 2, 3):
        lifted = build_lift(base, kern, N)
        verdict = key_estimate_check(lifted)
        assert verdict["ok"], verdict
    # N = 1 jumps meet the bound with equality
    lifted1 = build_lift(base, kern, 1)
    v1 = key_estimate_check(lifted1)
    assert v1["max_excess"] == pytest.approx(0.0, abs=1e-12)


def test_lift_equality_case_two_particles():
    base = build_grid(0.0, 1.0, 2)
    kern = fractional_kernel(base, 0.6)
    lifted = build_lift(base, kern, 2)
    k_from = lifted.index[(1, 1)]
    k_to = lifted.index[(0, 2)]
    d = base.dist[0, 1]
    assert lifted.space.dist[k_from, k_to] ** 2 == pytest.approx(d**2 / 2.0, rel=1e-12)


def test_lift_size_cap():
    base = build_grid(0.0, 1.0, 6)
    kern = fractional_kernel(base, 0.6)
    with pytest.raises(ValueError):
        build_lift(base, kern, 5, max_configs=10)


def test_lifted_system_evolves_with_balance():
    base = build_grid(0.0, 1.0, 2)
    kern = fractional_kernel(base, 0.6)
    lifted = build_lift(base, kern, 2)
    coup = coupling(lifted.space, lifted.kernel)
    u0 = np.array([2.0, 0.5, 0.5])
    traj = evolve(coup, COSH, u0, 0.5, IntegratorConfig(checkpoints=256))
    rep = edb_report(traj, COSH, coup, tol_rel=1e-6)
    assert rep.edb_ok
    assert rep.invariants["mass_ok"]


def test_uniqueness_probe_small():
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    coup = coupling(sp, matrix_kernel([[0.0, 1.0], [1.0, 0.0]]))
    out = uniqueness_probe(coup, COSH, np.full(2, 1.4), 0.5, checkpoints=32)
    assert out["max_gap"] <= 1e-12
    out2 = uniqueness_probe(coup, COSH, np.array([2.0, 0.0]), 1.0,
                            checkpoints=64, euler_dt=1e-5)
    g = np.exp(-2.0 * out2["expm"].times)
    oracle = np.stack([1.0 + g, 1.0 - g], axis=1)
    assert np.max(np.abs(out2["expm"].densities - oracle)) <= 1e-6
    assert np.max(np.abs(out2["euler"].densities - oracle)) <= 1e-4

"""State spaces, kernels and couplings."""

import numpy as np
import pytest

from jumpflow.spaces import (Coupling, build_graph, build_grid, build_torus, coupling, cutoff,
                             fractional_kernel, matrix_kernel, punctured_mask, taming_bound)


def test_build_grid_points():
    sp = build_grid(-1.0, 1.0, 4)
    np.testing.assert_allclose(sp.points, [-0.75, -0.25, 0.25, 0.75])
    np.testing.assert_allclose(sp.pi, 0.5)
    sp2 = build_grid(-1.0, 1.0, 2)
    np.testing.assert_allclose(sp2.points, [-0.5, 0.5])
    assert np.all(np.diag(sp.dist) == 0.0)
    np.testing.assert_array_equal(sp.dist, sp.dist.T)
    assert sp.check_triangle()


def test_build_grid_rejects():
    with pytest.raises(ValueError):
        build_grid(1.0, -1.0, 4)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 1)


def test_build_torus_metric():
    sp = build_torus(4)
    assert sp.dist[0, 2] == pytest.approx(0.5)
    assert sp.dist[0, 3] == pytest.approx(0.25)
    np.testing.assert_array_equal(sp.dist, sp.dist.T)
    assert sp.check_triangle()


def test_fractional_kernel_adjacent_rate():
    n = 10
    sp = build_grid(-1.0, 1.0, n)
    h = 2.0 / n
    k = fractional_kernel(sp, 0.5)
    # adjacent points at distance h: rate h^(-(1+1)) * h = 1/h
    assert k.rates[0, 1] == pytest.approx(1.0 / h, rel=1e-12)
    assert np.all(np.diag(k.rates) == 0.0)


def test_fractional_kernel_masked_zero():
    sp = build_grid(-1.0, 1.0, 8)
    k = fractional_kernel(sp, 0.5, mask=np.zeros((8, 8)))
    assert np.all(k.rates == 0.0)


def test_fractional_kernel_rejects_exponent():
    sp = build_grid(-1.0, 1.0, 8)
    for s in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            fractional_kernel(sp, s)


def test_taming_bound_finite_all_exponents():
    # Riemann sums of (1 ^ r^2) r^(-1-2s) converge for every s in (0, 1)
    sp = build_grid(-1.0, 1.0, 100)
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert np.isfinite(taming_bound(sp, fractional_kernel(sp, s)))


def test_taming_bound_values():
    sp = build_grid(-1.0, 1.0, 6)
    zero = matrix_kernel(np.zeros((6, 6)))
    assert taming_bound(sp, zero) == 0.0
    # all distances on a wide graph >= 1: bound equals the max row sum
    pts = np.arange(4, dtype=float) * 3.0
    dist = np.abs(pts[:, None] - pts[None, :])
    wide = build_graph(pts, dist, np.ones(4))
    rng = np.random.default_rng(0)
    rates = rng.random((4, 4))
    np.fill_diagonal(rates, 0.0)
    assert taming_bound(wide, matrix_kernel(rates)) == pytest.approx(rates.sum(axis=1).max())


def test_taming_bound_stable_under_refinement():
    vals = []
    for n in (200, 400):
        sp = build_grid(-1.0, 1.0, n)
        vals.append(taming_bound(sp, fractional_kernel(sp, 0.75)))
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


def test_punctured_mask():
    sp = build_grid(-1.0, 1.0, 8)
    m = punctured_mask(sp, 0.0)
    x = sp.points
    both_neg = np.flatnonzero(x < 0)
    assert m[both_neg[0], both_neg[1]] == 1.0
    assert m[both_neg[0], np.flatnonzero(x > 0)[0]] == 0.0
    np.testing.assert_array_equal(m, m.T)
    with pytest.raises(ValueError):
        punctured_mask(sp, 5.0)


def test_cutoff_factor():
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.ones(2))
    base = matrix_kernel([[0.0, 1.0], [1.0, 0.0]])
    cut = cutoff(base, sp, 1.0)
    assert cut.rates[0, 1] == pytest.approx(0.5)

    grid = build_grid(-1.0, 1.0, 16)
    frac = fractional_kernel(grid, 0.6)
    for eps in (1e-2, 1e-5, 1e-8):
        c = cutoff(frac, grid, eps)
        assert np.all(c.rates <= frac.rates + 1e-15)
    tiny = cutoff(frac, grid, 1e-12).rates
    off = ~np.eye(16, dtype=bool)
    np.testing.assert_allclose(tiny[off], frac.rates[off], rtol=1e-6)


def test_cutoff_monotone_in_eps():
    grid = build_grid(-1.0, 1.0, 16)
    frac = fractional_kernel(grid, 0.6)
    k1 = cutoff(frac, grid, 1e-3).rates
    k2 = cutoff(frac, grid, 1e-2).rates
    assert np.all(k1 >= k2)
    assert taming_bound(grid, cutoff(frac, grid, 1e-3)) <= taming_bound(grid, frac) + 1e-12


def test_cutoff_total_rate_bounded_by_taming_over_eps():
    grid = build_grid(-1.0, 1.0, 32)
    frac = fractional_kernel(grid, 0.8)
    c_kappa = taming_bound(grid, frac)
    for eps in (1.0, 1e-1, 1e-2):
        total = np.max(cutoff(frac, grid, eps).rates.sum(axis=1))
        assert total <= c_kappa / eps + 1e-12


def test_coupling_residuals():
    sp = build_grid(-1.0, 1.0, 8)
    sym = matrix_kernel(np.ones((8, 8)) - np.eye(8))
    coup = coupling(sp, sym)
    assert coup.detailed_balance_residual == 0.0
    assert np.max(np.abs(coup.theta - coup.theta.T)) == 0.0

    frac = coupling(sp, fractional_kernel(sp, 0.7))
    assert frac.detailed_balance_residual <= 1e-14

    rng = np.random.default_rng(1)
    rates = rng.random((8, 8))
    np.fill_diagonal(rates, 0.0)
    asym = coupling(sp, matrix_kernel(rates))
    assert asym.detailed_balance_residual > 0.0
    assert np.max(np.abs(asym.theta - asym.theta.T)) == 0.0


def test_punctured_coupling_blocks_cross_edges():
    sp = build_grid(-1.0, 1.0, 12)
    mask = punctured_mask(sp, 0.0)
    coup = coupling(sp, fractional_kernel(sp, 0.75, mask=mask))
    left = sp.points < 0
    assert np.all(coup.theta[np.ix_(left, ~left)] == 0.0)
    assert np.all(coup.theta[np.ix_(~left, left)] == 0.0)


def test_coupling_refuses_nonsymmetric_theta():
    # detailed balance: theta is checked where the coupling is made, once
    with pytest.raises(ValueError, match="symmetric"):
        Coupling(theta=np.array([[0.0, 0.5], [0.25, 0.0]]), detailed_balance_residual=0.25,
                 pi=np.full(2, 0.5))

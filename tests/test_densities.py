"""Density maps against closed-form values and grid-search oracles."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpflow import densities
from jumpflow.densities import (DissipationTriple, boltzmann_entropy, canonical_triple,
                                compat_check, cosh_pair, d_phi, f_map, geometric_mean_flux,
                                lambda_phi, legendre, log_mean_flux, phi_and_slope_boltzmann,
                                phi_boltzmann, quadratic_pair)

COSH = canonical_triple("cosh")
QUAD = canonical_triple("quadratic")
LOGMEAN = log_mean_flux().alpha
GEOMEAN = geometric_mean_flux().alpha


def test_phi_boltzmann_values():
    assert phi_boltzmann(1.0) == 0.0
    assert phi_boltzmann(0.0) == 1.0
    assert phi_boltzmann(math.e) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        phi_boltzmann(-0.1)


def test_phi_and_slope_take_one_log_bit_for_bit():
    # below 1e-300, and at 0, s log s - s + 1 rounds to 1 whichever log it
    # takes, so one log of max(s, 1e-300) gives phi and phi' both
    s = np.array([[0.0, 5e-324, 1e-310, 1e-300, 2e-300, 1e-17],
                  [0.3, 1.0, math.e, 2.0, 1e100, 1e300]])
    phi, slope = phi_and_slope_boltzmann(s)
    assert phi.tobytes() == phi_boltzmann(s).tobytes()
    assert slope.tobytes() == boltzmann_entropy().dphi_ext(s).tobytes()


def test_psi_star_values():
    assert quadratic_pair().psi_star(0.0) == 0.0
    assert cosh_pair().psi_star(0.0) == 0.0
    assert quadratic_pair().psi_star(2.0) == 2.0
    assert cosh_pair().psi_star(2.0) == pytest.approx(4.0 * (math.cosh(1.0) - 1.0), rel=1e-15)


def test_alpha_values():
    for u in (0.3, 1.0, 5.0):
        assert LOGMEAN(u, u) == pytest.approx(u, rel=1e-12)
    assert LOGMEAN(4.0, 0.0) == 0.0
    assert GEOMEAN(4.0, 0.0) == 0.0
    assert LOGMEAN(1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)


def test_alpha_near_diagonal_stability():
    # series branch must agree with a high-precision quotient across the switch
    import mpmath

    mpmath.mp.dps = 40
    u = 1.234
    for off in (1e-9, 1e-7, 1e-5, 1e-3):
        hi = mpmath.mpf(u) + mpmath.mpf(off)
        exact = float(mpmath.mpf(off) / (mpmath.log(hi) - mpmath.log(mpmath.mpf(u))))
        assert LOGMEAN(u + off, u) == pytest.approx(exact, rel=1e-10)


def test_log_mean_is_exact_to_roundoff_where_the_log_difference_cancels():
    # 40-digit references for pairs with |z| = |u - v|/(u + v) in [1e-8, 0.3],
    # where (u - v)/(log u - log v) loses digits to the log difference
    import mpmath

    mpmath.mp.dps = 40
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(np.log(1e-8), np.log(0.3), 20000)) * rng.choice([-1.0, 1.0], 20000)
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 20000))
    u = np.append(s * (1.0 + z) / 2.0, 2.0)
    v = np.append(s * (1.0 - z) / 2.0, 2.00001)
    exact = np.array([float((mpmath.mpf(a) - mpmath.mpf(b))
                            / (mpmath.log(mpmath.mpf(a)) - mpmath.log(mpmath.mpf(b))))
                      for a, b in zip(u.tolist(), v.tolist())])
    np.testing.assert_allclose(LOGMEAN(u, v), exact, rtol=1e-15, atol=0.0)
    assert LOGMEAN(2.0, 2.00001) == pytest.approx(exact[-1], rel=1e-15, abs=0.0)


def test_alpha_one_homogeneous():
    rng = np.random.default_rng(0)
    u, v = rng.uniform(0.01, 5.0, (2, 200))
    lam = rng.uniform(1e-3, 10.0, 200)
    for alpha in (LOGMEAN, GEOMEAN):
        a1 = alpha(lam * u, lam * v)
        a2 = lam * alpha(u, v)
        np.testing.assert_allclose(a1, a2, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0), st.floats(1e-3, 10.0),
       st.sampled_from([LOGMEAN, GEOMEAN]))
def test_alpha_homogeneity_property(u, v, lam, alpha):
    assert alpha(lam * u, lam * v) == pytest.approx(lam * alpha(u, v), rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.sampled_from(["quadratic", "cosh"]))
def test_legendre_young_inequality_property(xi, w, kind):
    pair = quadratic_pair() if kind == "quadratic" else cosh_pair()
    assert pair.psi_star(xi) + legendre(pair, w) >= xi * w - 1e-10


def legendre_grid_oracle(pair, w, xi_max=80.0, n=200_001):
    # coarse sup followed by a refined sweep around the coarse argmax
    xi = np.linspace(-xi_max, xi_max, n)
    vals = w * xi - pair.psi_star(xi)
    k = int(np.argmax(vals))
    lo, hi = xi[max(k - 2, 0)], xi[min(k + 2, n - 1)]
    fine = np.linspace(lo, hi, n)
    return float(np.max(w * fine - pair.psi_star(fine)))


def test_legendre_closed_forms():
    assert legendre(quadratic_pair(), 0.0) == 0.0
    assert legendre(cosh_pair(), 0.0) == 0.0
    assert legendre(quadratic_pair(), 2.0) == 2.0


def decimal_psi_cosh(w):
    """psi(w) = 2w asinh(w/2) - 2 sqrt(4 + w^2) + 4 to 60 digits, on |w| (psi is
    even), with asinh(x) = ln(x + sqrt(x^2 + 1))."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x = abs(decimal.Decimal(float(w)))  # exact
        asinh = (x / 2 + (x * x / 4 + 1).sqrt()).ln()
        return float(2 * x * asinh - 2 * (4 + x * x).sqrt() + 4)


@pytest.mark.parametrize("w", [1e-8, -1e-8, 1e-6, 1e-4, 1e-2, 1.0, 30.0, 1e8, 1e200])
def test_legendre_cosh_matches_a_decimal_reference(w):
    # the textbook form cancels near 0 (8.3e-8 relative off at w = 1e-4) and
    # overflows in w^2 at 1e200
    assert legendre(cosh_pair(), w) == pytest.approx(decimal_psi_cosh(w), rel=1e-14, abs=0)


@pytest.mark.parametrize("w", [math.inf, -math.inf, 1e308, -1e308, np.finfo(float).max])
def test_legendre_cosh_overflows_to_inf(w):
    # psi(w) ~ 2|w| log|w| passes the float max near |w| = 1.3e305; the
    # two-term form gave inf - inf = NaN (and RuntimeWarnings) once 2w overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert legendre(cosh_pair(), w) == math.inf
        assert np.all(legendre(cosh_pair(), np.array([w, -w, 1.0]))[:2] == math.inf)


def test_legendre_cosh_matches_grid_search():
    pair = cosh_pair()
    rng = np.random.default_rng(1)
    for w in rng.uniform(-8.0, 8.0, 12):
        assert legendre(pair, w) == pytest.approx(legendre_grid_oracle(pair, w), abs=1e-8)


def test_legendre_numeric_pair():
    # strip the closed form: the numeric conjugate must recover it
    pair = cosh_pair()
    blind = quadratic_pair().__class__(psi_star=pair.psi_star, dpsi_star=pair.dpsi_star,
                                       psi=None, name="blind")
    for w in (-3.0, -0.5, 0.7, 4.2):
        assert legendre(blind, w) == pytest.approx(legendre(pair, w), abs=1e-9)


def test_legendre_duality_property():
    rng = np.random.default_rng(2)
    for pair in (quadratic_pair(), cosh_pair()):
        xi = rng.uniform(-5, 5, 100)
        w = rng.uniform(-5, 5, 100)
        gaps = pair.psi_star(xi) + legendre(pair, w) - xi * w
        assert np.min(gaps) >= -1e-10
        w_star = pair.dpsi_star(xi)
        touch = pair.psi_star(xi) + legendre(pair, w_star) - xi * w_star
        assert np.max(np.abs(touch)) <= 1e-8


def test_lambda_phi():
    ent = boltzmann_entropy()
    assert lambda_phi(ent, 0.7, 0.7) == 0.0
    assert lambda_phi(ent, 1.0, math.e) == pytest.approx(1.0, abs=1e-15)
    assert lambda_phi(ent, 0.0, 1.0) == math.inf
    assert lambda_phi(ent, 1.0, 0.0) == -math.inf
    assert lambda_phi(ent, 0.0, 0.0) == 0.0


def test_f_map_values():
    assert f_map(COSH, 0.4, 0.4) == pytest.approx(0.0, abs=1e-14)
    assert f_map(COSH, 1.0, 4.0) == pytest.approx(3.0, rel=1e-13)
    assert f_map(QUAD, 2.0, 5.0) == pytest.approx(3.0, rel=1e-13)
    assert f_map(COSH, 0.0, 0.0) == 0.0


def test_f_map_antisymmetry():
    rng = np.random.default_rng(3)
    u, v = rng.uniform(1e-6, 10.0, (2, 500))
    for triple in (COSH, QUAD):
        fw = f_map(triple, u, v)
        bw = f_map(triple, v, u)
        np.testing.assert_allclose(fw, -bw, atol=1e-12)


def test_compat_check():
    assert compat_check(COSH, 10_000) <= 1e-12
    assert compat_check(QUAD, 10_000) <= 1e-12


def test_compat_check_grid_holds_the_corners(monkeypatch):
    # uniform samples on [1e-6, 10] almost never reach below 1e-3; the geometric
    # grid has every u / v ratio from 1e-7 to 1e7, the corners included
    seen = []

    def spy(triple, u, v):
        seen.append(set(zip(u.tolist(), v.tolist())))
        return f_map(triple, u, v)

    monkeypatch.setattr(densities, "f_map", spy)
    assert compat_check(COSH, 256) <= 1e-12
    (points,) = seen
    assert len(points) == 256
    assert {(1e-6, 1e-6), (1e-6, 10.0), (10.0, 1e-6)} <= points


def test_compat_check_mismatched_triple():
    # cosh dissipation with the logarithmic mean is not compatible
    wrong = DissipationTriple(boltzmann_entropy(), cosh_pair(), log_mean_flux(),
                              compatible=True, name="mismatch")
    # residual at (1, 4): 2 sinh(log 2) logmean(1, 4) vs 3
    expected = 2.0 * math.sinh(math.log(2.0)) * (3.0 / math.log(4.0)) - 3.0
    assert abs(f_map(wrong, 1.0, 4.0) - 3.0) == pytest.approx(abs(expected), rel=1e-12)
    assert compat_check(wrong, 2000) > 1e-2


def test_d_phi_closed_forms():
    assert d_phi(COSH, 0.9, 0.9) == 0.0
    assert d_phi(QUAD, 0.9, 0.9) == 0.0
    assert d_phi(COSH, 1.0, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert d_phi(QUAD, 1.0, math.e) == pytest.approx(0.5 * (math.e - 1.0), rel=1e-14)
    assert d_phi(QUAD, 0.0, 1.0) == math.inf
    assert d_phi(QUAD, 1.0, 0.0) == math.inf
    assert d_phi(QUAD, 0.0, 0.0) == 0.0
    assert d_phi(COSH, 0.0, 4.0) == pytest.approx(8.0, rel=1e-14)


@pytest.mark.parametrize("u, gap", [(1.0, 1e-8), (1e-3, 1e-6), (2.5, 1e-4), (7.0, 1e-2),
                                    (1e-9, 1e-5), (1e6, 1e-12)])
def test_d_phi_cosh_near_diagonal_matches_a_decimal_reference(u, gap):
    # 2 (sqrt v - sqrt u)^2 to 60 digits; the float difference of roots cancels here
    v = u * (1.0 + gap)
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = float(2 * (decimal.Decimal(v).sqrt() - decimal.Decimal(u).sqrt()) ** 2)
    assert d_phi(COSH, u, v) == pytest.approx(exact, rel=1e-14, abs=0)
    assert d_phi(COSH, v, u) == pytest.approx(exact, rel=1e-14, abs=0)


def test_d_phi_matches_product_off_degeneracy():
    rng = np.random.default_rng(4)
    u, v = rng.uniform(1e-4, 10.0, (2, 300))
    for triple in (COSH, QUAD):
        a = triple.flux.alpha(u, v)
        prod = triple.pair.psi_star(lambda_phi(triple.entropy, u, v)) * a
        np.testing.assert_allclose(d_phi(triple, u, v), prod, rtol=1e-10, atol=1e-12)


def test_d_phi_symmetry():
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.0, 10.0, (2, 300))
    for triple in (COSH, QUAD):
        np.testing.assert_allclose(d_phi(triple, u, v), d_phi(triple, v, u),
                                   rtol=1e-12, atol=1e-15)


def test_d_phi_generic_warns():
    generic = DissipationTriple(boltzmann_entropy(), cosh_pair(), log_mean_flux(), name="generic")
    with pytest.warns(UserWarning):
        d_phi(generic, 1.0, 2.0)


def midpoint_convex(fn, samples=2000, seed=0, lo=1e-3, hi=20.0, tol=1e-12):
    """Random midpoint convexity test of fn on the open quadrant."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(lo, hi, (samples, 2))
    q = rng.uniform(lo, hi, (samples, 2))
    mid = 0.5 * (p + q)
    lhs = fn(mid[:, 0], mid[:, 1])
    rhs = 0.5 * (fn(p[:, 0], p[:, 1]) + fn(q[:, 0], q[:, 1]))
    return bool(np.all(lhs <= rhs + tol * np.maximum(1.0, np.abs(rhs))))


def test_convexity_check():
    # the Fisher integrand is jointly convex for both canonical triples
    assert midpoint_convex(lambda u, v: d_phi(COSH, u, v))
    assert midpoint_convex(lambda u, v: d_phi(QUAD, u, v))
    assert not midpoint_convex(lambda u, v: -u * v)


def test_psistar_bounds():
    # even, increasing on [0, M], zero at 0 and at least quadratic: xi^2 <= 2 psi*(xi)
    xi = np.linspace(0.0, 5.0, 257)
    for pair in (cosh_pair(), quadratic_pair()):
        assert np.max(np.abs(pair.psi_star(xi) - pair.psi_star(-xi))) <= 1e-10
        assert np.min(np.diff(pair.psi_star(xi))) >= 0.0
        assert pair.psi_star(0.0) == 0.0
        assert np.all(xi**2 <= 2.0 * pair.psi_star(xi) + 1e-12)


def test_flux_growth_constant():
    rng = np.random.default_rng(6)
    u, v = rng.uniform(0.0, 50.0, (2, 500))
    for flux in (log_mean_flux(), geometric_mean_flux()):
        assert np.all(flux.alpha(u, v) <= 1.0 + u + v + 1e-12)

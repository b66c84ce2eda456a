"""Jordan-pair measure algebra against brute-force set-function oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpflow.measures import (PosMeasure, SignedMeasurePair, add, jordan_from_setfunction,
                               lebesgue_decompose, restrict, scale_by_function)


def all_subsets(n):
    """All atom subsets of a small universe, as index tuples."""
    for bits in range(2**n):
        yield tuple(i for i in range(n) if bits >> i & 1)


def subset_eval_oracle(values, subset):
    return float(sum(values[i] for i in subset))


def test_jordan_zero():
    pair = jordan_from_setfunction(np.zeros(5))
    assert pair.pos.support.size == 0
    assert pair.neg.support.size == 0
    assert pair.evaluate() == 0.0


def test_jordan_reciprocal_grid():
    # density 1/x on a grid avoiding the origin splits by the sign of x
    n = 10
    h = 2.0 / n
    x = -1.0 + (np.arange(n) + 0.5) * h
    values = h / x
    pair = jordan_from_setfunction(values)
    assert np.array_equal(pair.pos.support, np.flatnonzero(x > 0))
    assert np.array_equal(pair.neg.support, np.flatnonzero(x < 0))
    expected_pos = np.where(x > 0, np.abs(x) ** -1 * h, 0.0)
    expected_neg = np.where(x < 0, np.abs(x) ** -1 * h, 0.0)
    np.testing.assert_allclose(pair.pos.weights, expected_pos, rtol=1e-15)
    np.testing.assert_allclose(pair.neg.weights, expected_neg, rtol=1e-15)


def test_jordan_roundtrip_all_subsets():
    rng = np.random.default_rng(7)
    values = rng.normal(size=8)
    pair = jordan_from_setfunction(values)
    for subset in all_subsets(8):
        assert pair.evaluate(subset) == pytest.approx(subset_eval_oracle(values, subset), abs=1e-14)


def test_jordan_rejects_nonfinite():
    with pytest.raises(ValueError):
        jordan_from_setfunction([1.0, np.nan])
    with pytest.raises(ValueError):
        jordan_from_setfunction([np.inf, 0.0])


def test_jordan_uniqueness():
    # any disjoint pair realizing the same set function equals the Jordan pair
    rng = np.random.default_rng(3)
    values = rng.normal(size=6)
    reference = jordan_from_setfunction(values)
    overlap = np.abs(rng.normal(size=6))
    messy = SignedMeasurePair(PosMeasure(np.maximum(values, 0) + overlap),
                              PosMeasure(np.maximum(-values, 0) + overlap))
    np.testing.assert_allclose(messy.pos.weights, reference.pos.weights, atol=1e-12)
    np.testing.assert_allclose(messy.neg.weights, reference.neg.weights, atol=1e-12)


def test_add_inverse_and_cancellation():
    rng = np.random.default_rng(0)
    values = rng.normal(size=6)
    a = jordan_from_setfunction(values)
    neg_a = jordan_from_setfunction(-values)
    zero = add(a, neg_a)
    assert zero.tv() == 0.0

    delta_pos = SignedMeasurePair(PosMeasure([1.0, 0.0]), PosMeasure.zero(2))
    delta_neg = SignedMeasurePair(PosMeasure.zero(2), PosMeasure([1.0, 0.0]))
    assert add(delta_pos, delta_neg).tv() == 0.0


def test_add_atomwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        va, vb = rng.normal(size=(2, 8))
        out = add(jordan_from_setfunction(va), jordan_from_setfunction(vb))
        np.testing.assert_allclose(out.values, va + vb, atol=1e-14)


def test_scale_identity_and_flip():
    rng = np.random.default_rng(2)
    v = rng.normal(size=7)
    nu = jordan_from_setfunction(v)
    same = scale_by_function(np.ones(7), nu)
    np.testing.assert_array_equal(same.pos.weights, nu.pos.weights)
    np.testing.assert_array_equal(same.neg.weights, nu.neg.weights)
    flipped = scale_by_function(-np.ones(7), nu)
    np.testing.assert_array_equal(flipped.pos.weights, nu.neg.weights)
    np.testing.assert_array_equal(flipped.neg.weights, nu.pos.weights)


def test_scale_atomwise_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = rng.normal(size=8)
        v = rng.normal(size=8)
        out = scale_by_function(f, jordan_from_setfunction(v))
        np.testing.assert_allclose(out.values, f * v, atol=1e-14)


def test_scale_extended_f_off_support():
    nu = jordan_from_setfunction([1.0, 0.0, -2.0])
    out = scale_by_function([2.0, np.inf, 3.0], nu)
    np.testing.assert_allclose(out.values, [2.0, 0.0, -6.0])
    with pytest.raises(ValueError):
        scale_by_function([np.inf, 1.0, 1.0], nu)


def test_restrict():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8)
    mu = jordan_from_setfunction(v)
    whole = restrict(mu, range(8))
    np.testing.assert_array_equal(whole.values, mu.values)
    assert restrict(mu, []).tv() == 0.0
    sub = (0, 3, 5)
    cut = restrict(mu, sub)
    for subset in all_subsets(8):
        inter = tuple(i for i in subset if i in sub)
        assert cut.evaluate(subset) == pytest.approx(mu.evaluate(inter), abs=1e-14)


def test_lebesgue_absolutely_continuous():
    gamma = PosMeasure([0.5, 1.0, 2.0])
    mu = jordan_from_setfunction([1.0, -3.0, 4.0])
    density, singular = lebesgue_decompose(mu, gamma)
    np.testing.assert_allclose(density, [2.0, -3.0, 2.0])
    assert singular.tv() == 0.0


def test_lebesgue_fully_singular():
    gamma = PosMeasure.zero(3)
    mu = jordan_from_setfunction([1.0, -2.0, 0.5])
    density, singular = lebesgue_decompose(mu, gamma)
    assert np.all(density == 0.0)
    np.testing.assert_array_equal(singular.values, mu.values)


def test_lebesgue_tv_additivity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = np.where(rng.random(8) < 0.5, 0.0, rng.random(8) + 0.1)
        v = rng.normal(size=8)
        gamma = PosMeasure(g)
        mu = jordan_from_setfunction(v)
        density, singular = lebesgue_decompose(mu, gamma)
        lhs = mu.tv()
        rhs = float(np.sum(np.abs(density) * g)) + singular.tv()
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # singular part is carried exactly by the null set of gamma
        assert np.all(singular.values[g > 0] == 0.0)


def test_total_variation():
    assert SignedMeasurePair.zero(4).tv() == 0.0
    pair = SignedMeasurePair(PosMeasure([1.0, 0.0]), PosMeasure([0.0, 1.0]))
    assert pair.tv((0, 1)) == 2.0
    rng = np.random.default_rng(8)
    v = rng.normal(size=8)
    assert jordan_from_setfunction(v).tv() == pytest.approx(np.abs(v).sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_ops_commute_with_evaluation(n, seed):
    rng = np.random.default_rng(seed)
    va, vb = rng.normal(size=(2, n))
    f = rng.normal(size=n)
    a, b = jordan_from_setfunction(va), jordan_from_setfunction(vb)
    summed = add(a, b)
    scaled = scale_by_function(f, a)
    sub = np.flatnonzero(rng.random(n) < 0.5)
    cut = restrict(a, sub)
    # exhaustive subset check via one matrix of subset indicators
    bits = (np.arange(2**min(n, 12))[:, None] >> np.arange(min(n, 12))[None, :]) & 1
    idx = rng.choice(n, size=min(n, 12), replace=False)
    for row in bits:
        subset = tuple(idx[row.astype(bool)])
        assert summed.evaluate(subset) == pytest.approx(
            a.evaluate(subset) + b.evaluate(subset), abs=1e-10)
        assert scaled.evaluate(subset) == pytest.approx(
            float(np.sum(f[list(subset)] * va[list(subset)])) if subset else 0.0, abs=1e-10)
        inter = tuple(i for i in subset if i in set(sub.tolist()))
        assert cut.evaluate(subset) == pytest.approx(a.evaluate(inter), abs=1e-10)


def test_mutual_singularity_random_op_sequences():
    rng = np.random.default_rng(42)
    n = 8
    current = jordan_from_setfunction(rng.normal(size=n))
    for _ in range(1000):
        op = rng.integers(0, 3)
        if op == 0:
            current = add(current, jordan_from_setfunction(rng.normal(size=n)))
        elif op == 1:
            current = scale_by_function(rng.normal(size=n), current)
        else:
            current = restrict(current, np.flatnonzero(rng.random(n) < 0.7))
        assert np.all(np.minimum(current.pos.weights, current.neg.weights) == 0.0)
        if current.tv() > 1e12:  # keep the walk bounded
            current = jordan_from_setfunction(current.values / current.tv())

"""Nonuniform composite Simpson: the array panel plan against the greedy scan,
and the cubic split of each panel."""

import numpy as np
import pytest

from jumpflow import quadrature
from jumpflow.quadrature import (_Plan, _fourth_nodes, _interval_pieces, _panel_errors,
                                 _poly_piece, _sorted_distinct, _split, checkpoint_grid,
                                 cumulative_simpson_nonuniform, error_controlled_grid,
                                 simpson_nonuniform)

RATIO = 3.0


def _scan_pieces(ts, bs):
    """The quadrature rule as a left-to-right scan, one interval at a time.  A
    panel's first piece is the cubic's through its nodes and t[k+3], or else
    t[k-1], where finite and its interval at most RATIO times the panel's
    wider one; the second piece is the rest of the panel's Simpson total."""
    K = ts.size - 1
    pieces = np.zeros(K)
    singular = False
    k, last = 0, K
    if not np.isfinite(bs[0]) and np.isfinite(bs[1]):
        pieces[0] = bs[1] * (ts[1] - ts[0])
        singular, k = True, 1
    if not np.isfinite(bs[K]) and K >= 2 and np.isfinite(bs[K - 1]):
        pieces[K - 1] = bs[K - 1] * (ts[K] - ts[K - 1])
        singular, last = True, K - 1
    fin = lambda i: i <= K and np.isfinite(bs[i])
    while k < last:
        w = ts[k + 1] - ts[k]
        if not (fin(k) and fin(k + 1)):
            pieces[k] = np.inf
            k += 1
            continue
        if k + 2 <= last and fin(k + 2) and \
                max(w, ts[k + 2] - ts[k + 1]) <= RATIO * min(w, ts[k + 2] - ts[k + 1]):
            total = sum(_poly_piece(ts[k:k + 3], bs[k:k + 3], a, b)
                        for a, b in ((ts[k], ts[k + 1]), (ts[k + 1], ts[k + 2])))
            wide = RATIO * max(w, ts[k + 2] - ts[k + 1])
            fourth = [k + 3] if fin(k + 3) and ts[k + 3] - ts[k + 2] <= wide else \
                [k - 1] if k >= 1 and fin(k - 1) and ts[k] - ts[k - 1] <= wide else []
            nodes = [k, k + 1, k + 2] + fourth
            pieces[k] = _poly_piece(ts[nodes], bs[nodes], ts[k], ts[k + 1])
            pieces[k + 1] = total - pieces[k]
            k += 2
            continue
        if k >= 1 and fin(k - 1) and ts[k] - ts[k - 1] <= RATIO * w:
            pieces[k] = _poly_piece(ts[k - 1:k + 2], bs[k - 1:k + 2], ts[k], ts[k + 1])
        elif fin(k + 2) and ts[k + 2] - ts[k + 1] <= RATIO * w:
            pieces[k] = _poly_piece(ts[k:k + 3], bs[k:k + 3], ts[k], ts[k + 1])
        else:
            pieces[k] = 0.5 * (bs[k] + bs[k + 1]) * w
        k += 1
    return pieces, singular


def _random_case(rng, trial):
    K = int(rng.integers(1, 40))
    widths = [rng.random(K) + 1e-3, rng.choice([1.0, 1.0, 5.0, 0.2], K),
              np.ones(K), np.exp(rng.normal(0.0, 1.0, K))][trial % 4]
    ts = np.concatenate([[0.0], np.cumsum(widths)])
    bs = rng.normal(size=K + 1)
    for _ in range(int(rng.integers(0, 3))):
        bs[rng.integers(0, K + 1)] = rng.choice([np.inf, -np.inf, np.nan])
    return ts, bs


def _assert_same_pieces(got, want, ts, bs):
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite])
    scale = np.max(np.abs(bs[np.isfinite(bs)]), initial=1.0) * (ts[-1] - ts[0])
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-14 * scale


def test_panel_plan_matches_scan():
    rng = np.random.default_rng(3)
    for trial in range(2000):
        ts, bs = _random_case(rng, trial)
        got, flag = _interval_pieces(ts, bs)
        want, want_flag = _scan_pieces(ts, bs)
        assert flag == want_flag
        _assert_same_pieces(got, want, ts, bs)


def test_cumulative_integral_is_exact_for_cubics_at_every_checkpoint():
    # panels of random widths, each halved at its midpoint (Simpson's total is
    # exact for a cubic) with neighbours close enough to take the cubic split:
    # the middle checkpoints are exact too
    rng = np.random.default_rng(5)
    for panels in (2, 3, 17):
        half = np.repeat(rng.uniform(0.5, 1.0, panels), 2)
        ts = 3.0 + np.concatenate([[0.0], np.cumsum(half)])
        c = rng.normal(size=4)
        poly = np.polynomial.Polynomial(c)
        integral, flag = cumulative_simpson_nonuniform(ts, poly(ts))
        exact = poly.integ()(ts) - poly.integ()(ts[0])
        assert not flag
        assert np.max(np.abs(integral - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_graded_grid_log_singularity():
    # int_0^T log(1/t) dt = T (1 - log T); the first sample is the rectangle
    T = 0.5
    ts = checkpoint_grid(T, 256)
    with np.errstate(divide="ignore"):
        bs = -np.log(ts)
    integral, flag = cumulative_simpson_nonuniform(ts, bs)
    assert flag
    assert integral[0] == 0.0
    assert integral[-1] == pytest.approx(T * (1.0 - np.log(T)), rel=1e-6)
    assert simpson_nonuniform(ts, bs) == integral[-1]


def _block_cases(rng):
    """Grids with their (K + 1, m) sample blocks, several finiteness patterns
    mixed in each block."""
    # intervals 1-2, 6-7 and 10-11 are panels, only 6-7 with a fourth node
    # (the cubic split); of the lone intervals 0 takes the quadratic from the
    # right, 3, 5, 8 and 9 from the left and 4 the trapezoid
    ts = np.concatenate([[0.0], np.cumsum([5.0, 0.2, 0.2, 5.0, 0.2, 5.0, 1.0, 1.0, 1.0, 9.0,
                                           1.0, 1.0])])
    bs = rng.normal(size=(ts.size, 7))
    bs[0, 1] = np.inf            # the rectangle on the first interval
    bs[-1, 2] = np.nan           # the rectangle on the last
    bs[0, 3] = bs[-1, 3] = np.inf
    bs[5, 4] = bs[5, 5] = -np.inf  # an interior inf, the same pattern in two columns
    yield ts, bs
    for K in (1, 2):             # K + 1 <= 3 samples
        ts = np.cumsum(rng.random(K + 1) + 0.1)
        bs = rng.normal(size=(K + 1, 4))
        bs[0, 1] = np.inf
        bs[-1, 2] = np.inf
        bs[0, 3] = bs[-1, 3] = np.nan
        yield ts, bs
    for trial in range(400):
        ts, _ = _random_case(rng, trial)
        bs = rng.normal(size=(ts.size, int(rng.integers(1, 6))))
        for _ in range(int(rng.integers(0, 4))):
            bs[rng.integers(0, ts.size), rng.integers(0, bs.shape[1])] = rng.choice(
                [np.inf, -np.inf, np.nan])
        yield ts, bs


def test_block_call_is_the_per_column_call_bit_for_bit(monkeypatch):
    # one plan per finiteness pattern, applied to every column of that
    # pattern: each column's integral and flag are those of the series alone
    plans = []

    class Counted(_Plan):
        def __init__(self, ts, fin):
            super().__init__(ts, fin)
            plans.append(self)

    rng = np.random.default_rng(7)
    for case, (ts, bs) in enumerate(_block_cases(rng)):
        monkeypatch.setattr(quadrature, "_Plan", Counted)
        plans.clear()
        integral, flags = cumulative_simpson_nonuniform(ts, bs)
        patterns = {np.isfinite(c).tobytes() for c in bs.T}
        assert len(plans) == len(patterns)
        monkeypatch.setattr(quadrature, "_Plan", _Plan)
        assert integral.shape == bs.shape and flags.shape == (bs.shape[1],)
        for c, col in enumerate(bs.T):
            alone, flag = cumulative_simpson_nonuniform(ts, col)
            assert integral[:, c].tobytes() == alone.tobytes(), (case, c)
            assert flags[c] == flag and isinstance(flag, bool)
        if case == 0:  # every kind of piece occurs
            finite = plans[0]
            assert finite.trapezoids[0].tolist() == [4] and finite.cubic[0].tolist() == [6]
            assert flags.tolist() == [False, True, True, True, False, False, False]
            assert np.isinf(integral[-1, 4]) and np.isinf(integral[-1, 5])


def test_single_interval_and_empty_grid():
    assert simpson_nonuniform([0.0, 2.0], [1.0, 3.0]) == 4.0
    pieces, flag = _interval_pieces([0.0], [1.0])
    assert pieces.size == 0 and not flag


def test_sorted_distinct_is_np_unique():
    rng = np.random.default_rng(3)
    for x in [rng.integers(0, 5, 40) / 4.0, rng.standard_normal((6, 5)),
              np.array([0.0, -0.0, 1.0, -0.0, 0.0]), np.array([2.5])]:
        got, want = _sorted_distinct(x), np.unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_grid_estimates_are_those_of_its_final_panels():
    # the grid updates its estimates round by round, for the bisected halves
    # and the panels next to them, whose fourth node may have moved; at the end
    # they are the estimates of the final panels, with the quadrature's fourth nodes
    def sample(ts):
        return [np.column_stack([np.exp(-40.0 * ts), np.cos(7.0 * ts)])]

    times, estimates = error_controlled_grid(sample, 1.0, [1e-10], first_step=1.0 / 40.0)
    x0, x2, x4 = times[:-1:2], times[1::2], times[2::2]
    X = np.column_stack([x0, _split(x0, x2), x2, _split(x2, x4), x4])
    fourth = _fourth_nodes(np.diff(times), np.ones(times.size, dtype=bool),
                           np.arange(0, times.size - 1, 2))
    xn = np.where(fourth >= 0, times[fourth], X[:, 1])
    E, H = _panel_errors(X, xn, fourth >= 0, [sample(X.ravel())[0].reshape(X.shape + (2,))],
                         sample(xn))
    assert np.count_nonzero(fourth >= 0) >= x0.size - 1
    assert estimates == pytest.approx(E.sum(axis=0) + H.max(axis=0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("T,first_step", [(1.0, 1.0 / 40.0), (0.5, 1e-3), (2.0, 3.0),
                                          (1e-3, 1e-7)])
def test_grids_equal_the_np_unique_grids(monkeypatch, T, first_step):
    # both grids drop repeated nodes with _sorted_distinct; with np.unique in
    # its place they must come out bit for bit the same
    def sample(ts):
        return [np.column_stack([np.exp(-40.0 * ts), np.exp(-3.0 * ts)]),
                np.sqrt(ts)[:, None]]

    def grids():
        return (checkpoint_grid(T, 64), error_controlled_grid(sample, T, [1e-9, 1e-6],
                                                              first_step))

    graded, (times, estimates) = grids()
    monkeypatch.setattr(quadrature, "_sorted_distinct", np.unique)
    graded_u, (times_u, estimates_u) = grids()
    assert graded.tobytes() == graded_u.tobytes()
    assert times.tobytes() == times_u.tobytes()
    assert np.asarray(estimates).tobytes() == np.asarray(estimates_u).tobytes()

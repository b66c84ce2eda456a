"""Nonuniform composite Simpson: the array panel plan against the greedy scan."""

import numpy as np
import pytest

from jumpflow import quadrature
from jumpflow.quadrature import (_interval_pieces, _quadratic_piece, _sorted_distinct,
                                 checkpoint_grid, cumulative_simpson_nonuniform,
                                 error_controlled_grid, simpson_nonuniform)

RATIO = 3.0


def _scan_pieces(ts, bs):
    """The quadrature rule as a left-to-right scan, one interval at a time."""
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
            nodes = (*ts[k:k + 3], *bs[k:k + 3])
            pieces[k] = _quadratic_piece(*nodes, ts[k], ts[k + 1])
            pieces[k + 1] = _quadratic_piece(*nodes, ts[k + 1], ts[k + 2])
            k += 2
            continue
        if k >= 1 and fin(k - 1) and ts[k] - ts[k - 1] <= RATIO * w:
            pieces[k] = _quadratic_piece(*ts[k - 1:k + 2], *bs[k - 1:k + 2], ts[k], ts[k + 1])
        elif fin(k + 2) and ts[k + 2] - ts[k + 1] <= RATIO * w:
            pieces[k] = _quadratic_piece(*ts[k:k + 3], *bs[k:k + 3], ts[k], ts[k + 1])
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
    assert simpson_nonuniform(ts, bs) == pytest.approx(integral[-1], rel=1e-13)


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

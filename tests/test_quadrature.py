"""The sixth-order interval rule on nonuniform grids: the array plan against a
scan one interval at a time, its exactness and order, its weights at the
ends of the accepted T range, and the error-controlled grid's estimates."""

import numpy as np
import pytest

from jumpflow import quadrature
from jumpflow.densities import canonical_triple
from jumpflow.evolution import Trajectory, evolve
from jumpflow.ledger import VERDICT_BALANCED, full_report
from jumpflow.quadrature import (_Plan, _error_weights, _interval_pieces, _piece_weights,
                                 _sorted_distinct, _split, _stencils, _weighted, checkpoint_grid,
                                 cumulative_simpson_nonuniform, error_controlled_grid,
                                 simpson_nonuniform)
from jumpflow.spaces import build_graph, coupling, matrix_kernel

RATIO = 8.0
COSH = canonical_triple("cosh")


def poly_piece(x, f, a, b):
    """Integral over [a, b] of the polynomial through the samples f at the nodes x."""
    return _weighted(f, _piece_weights(x, a, b))


def _scan_pieces(ts, bs):
    """The quadrature rule one interval at a time.  An isolated non-finite
    sample at the first or last checkpoint takes the rectangle on its
    interval, any other interval with a non-finite end is infinite, and every
    other interval the polynomial through the six nodes j - 2, ..., j + 3,
    shifted inward to stay in its run, or through the whole run when that is
    shorter.  The run is the stretch of finite samples around the interval,
    ending at a node whose two intervals differ in width by more than RATIO."""
    K = ts.size - 1
    w = np.diff(ts)
    fin = np.isfinite(bs)
    pieces = np.zeros(K)
    singular = False

    def cut(k):  # the run stops at node k
        return max(w[k - 1], w[k]) > RATIO * min(w[k - 1], w[k])

    for j in range(K):
        if not (fin[j] and fin[j + 1]):
            pieces[j] = np.inf
            continue
        lo, hi = j, j + 1
        while lo > 0 and fin[lo - 1] and not cut(lo):
            lo -= 1
        while hi < K and fin[hi + 1] and not cut(hi):
            hi += 1
        m = min(6, hi - lo + 1)
        start = min(max(j - 2, lo), hi + 1 - m)
        nodes = np.arange(start, start + m)
        pieces[j] = poly_piece(ts[nodes], bs[nodes], ts[j], ts[j + 1])
    if not fin[0] and fin[1]:
        pieces[0] = bs[1] * w[0]
        singular = True
    if not fin[K] and K >= 2 and fin[K - 1]:
        pieces[K - 1] = bs[K - 1] * w[K - 1]
        singular = True
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
    # the rule's index arrays (runs, cuts, stencils shifted inward, groups by
    # stencil size) against the scan; widths drawn from within 2x up to 25x
    # apart, so runs are cut too
    rng = np.random.default_rng(3)
    for trial in range(2000):
        ts, bs = _random_case(rng, trial)
        got, flag = _interval_pieces(ts, bs)
        want, want_flag = _scan_pieces(ts, bs)
        assert flag == want_flag
        _assert_same_pieces(got, want, ts, bs)


def test_cumulative_integral_is_exact_for_quintics_at_every_checkpoint():
    # widths within a factor 2, so no run is cut: with six checkpoints or more
    # every stencil holds six nodes and the quintic through them is the
    # polynomial itself; a shorter grid takes all of its K + 1 nodes and is
    # exact to degree K
    rng = np.random.default_rng(5)
    for K in (1, 2, 3, 4, 5, 6, 7, 17, 40):
        ts = 3.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.0, K))])
        poly = np.polynomial.Polynomial(rng.normal(size=min(K, 5) + 1))
        integral, flag = cumulative_simpson_nonuniform(ts, poly(ts))
        exact = poly.integ()(ts) - poly.integ()(ts[0])
        assert not flag
        assert np.max(np.abs(integral - exact)) <= 1e-13 * np.max(np.abs(exact)), K


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_rule_is_sixth_order(kind):
    # halving every width cuts the largest cumulative error by 2^6 in the
    # limit; on a smooth sum of exponentials and sines, by at least 2^5.5 here
    def f(t):
        return (np.exp(-3.0 * t) + 2.0 * np.exp(0.5 * t) + np.sin(7.0 * t)
                + 0.5 * np.sin(2.0 * t + 1.0))

    def F(t):
        return (-np.exp(-3.0 * t) / 3.0 + 4.0 * np.exp(0.5 * t) - np.cos(7.0 * t) / 7.0
                - 0.25 * np.cos(2.0 * t + 1.0))

    ts = np.linspace(0.0, 1.0, 17)
    if kind == "graded":
        ts = ts ** 2  # graded toward 0, neighbouring widths within 3x
    errors = []
    for _ in range(2):
        integral, _ = cumulative_simpson_nonuniform(ts, f(ts))
        errors.append(np.max(np.abs(integral - (F(ts) - F(ts[0])))))
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])]))
    assert errors[1] > 1e-13
    assert errors[0] >= 2.0 ** 5.5 * errors[1], errors


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
    # widths 20 between 1s cut the runs at nodes 7 and 9: stencils of six,
    # three and four nodes; the interior inf at node 5 leaves runs of five and
    # two nodes before it
    ts = np.concatenate([[0.0], np.cumsum([1.0, 1.5, 1.0, 1.2, 1.0, 1.0, 1.0, 20.0, 20.0, 1.0,
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
            sizes = [{len(nodes) for target, nodes, _ in plan.pieces if target.size}
                     for plan in plans]
            assert sizes == [{3, 4, 6}, {1, 3, 4, 6}, {1, 3, 6}, {1, 3, 6}, {2, 3, 4, 5}]
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
    # the grid forms an interval's estimate when the interval is made and
    # again when a bisection moves a node of its stencil; at the end they are
    # the estimates of the final intervals: twice each piece against the
    # sextic through its stencil and its midpoint
    def sample(ts):
        return [np.column_stack([np.exp(-40.0 * ts), np.cos(7.0 * ts)])]

    times, estimates = error_controlled_grid(sample, 1.0, [1e-10], first_step=1.0 / 40.0)
    start, size = _stencils(times, np.ones(times.size, dtype=bool))
    assert np.all(size == 6)
    x = np.vstack([times[start + np.arange(6)[:, None]], _split(times[:-1], times[1:])])
    w = _error_weights(x, times[:-1], times[1:])
    E = 2.0 * np.abs(_weighted(sample(x.ravel())[0].reshape(x.shape + (2,)), w[..., None]))
    assert estimates == pytest.approx([E.sum()], rel=1e-12, abs=0.0)


def test_error_weights_are_the_sextic_against_the_quintic():
    # the divided-difference form of the estimate against the two pieces it
    # stands for, on stencils of random widths within 8x, the extra node
    # anywhere inside the interval
    rng = np.random.default_rng(11)
    for _ in range(200):
        ts = np.concatenate([[0.0], np.cumsum(np.exp(rng.uniform(-1.0, 1.0, 5)))])
        j = int(rng.integers(0, 5))
        extra = ts[j] + rng.uniform(0.1, 0.9) * (ts[j + 1] - ts[j])
        x = np.append(ts, extra)
        f = np.cos(rng.normal(size=7) * 3.0)
        want = poly_piece(x, f, ts[j], ts[j + 1]) - poly_piece(ts, f[:6], ts[j], ts[j + 1])
        got = _error_weights(x, ts[j], ts[j + 1]) @ f
        assert got == pytest.approx(want, rel=1e-6, abs=1e-13 * (ts[j + 1] - ts[j]))


@pytest.mark.parametrize("T", [1e-100, 1e100])
def test_two_point_vacuum_start_at_the_ends_of_the_T_range(T):
    # criterion 2's closed form u = 1 +- e^(-2t) on the default grid at the
    # ends of the accepted T.  The weights are formed in coordinates scaled
    # by each interval's width, so the quintic's products stay in range.  The
    # trajectory is the closed form, 1 - e^(-2t) taken by expm1: the
    # propagator rounds that density to 0 at T = 1e-100 (ROADMAP defect 9)
    # and leaves the equilibrium an ulp off at T = 1e100, whose rate the
    # continuity battery then integrates over the whole horizon
    pts = np.array([0.0, 1.0])
    sp = build_graph(pts, np.abs(pts[:, None] - pts[None, :]), np.full(2, 0.5))
    coup = coupling(sp, matrix_kernel([[0.0, 1.0], [1.0, 0.0]]))
    times = evolve(coup, COSH, np.array([2.0, 0.0]), T).times
    assert times[-1] == T and np.all(np.diff(times) > 0)
    for fin in (np.ones(times.size, dtype=bool), np.arange(times.size) > 0):
        plan = _Plan(times, fin)
        assert all(np.all(np.isfinite(w)) for _, _, w in plan.pieces)
    g = -np.expm1(-2.0 * times)
    traj = Trajectory(times=times, densities=np.column_stack([2.0 - g, g]))
    rep = full_report(traj, COSH, sp, coup)
    assert rep.verdict == VERDICT_BALANCED
    assert rep.flags["initial_singular"]


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

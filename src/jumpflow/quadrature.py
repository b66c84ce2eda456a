"""Checkpoint grids and composite Simpson quadrature on nonuniform grids.

The quadrature pairs adjacent intervals into Simpson panels but never pairs
intervals of very different widths, splits each panel's total between its
two intervals by the cubic through one neighbouring node, and handles an
isolated non-finite sample at the first or last checkpoint by a one-sided
rectangle on its interval (the integrable-singularity convention).

``error_controlled_grid`` chooses a grid for given series under a global
error budget, estimating each panel of that rule against the same rule on
its two halves, and each panel's split against the quartic through its five
samples; ``checkpoint_grid`` is the explicit uniform grid, optionally with a
geometric prefix for the log(1/t) singularity of a vacuum start.
"""

from __future__ import annotations

import numpy as np

__all__ = ["checkpoint_grid", "error_controlled_grid", "simpson_nonuniform",
           "cumulative_simpson_nonuniform"]

GRADE_RATIO = 1.02
GRADE_CROSSOVER_DIV = 16.0
GRADE_TMIN_REL = 1e-12
_PAIR_WIDTH_RATIO = 3.0


def _sorted_distinct(x) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's sort and neighbour
    comparison, without the numpy.ma import np.unique brings."""
    x = np.sort(x, axis=None)
    return x[np.append(True, x[1:] != x[:-1])]


def checkpoint_grid(T: float, checkpoints: int, graded_start: bool = True) -> np.ndarray:
    """Uniform grid of `checkpoints` intervals on [0, T], optionally with a
    geometric prefix refining [0, T/16] down to T*1e-12."""
    if T <= 0 or checkpoints < 1:
        raise ValueError("need T > 0 and at least one checkpoint interval")
    base = np.linspace(0.0, T, checkpoints + 1)
    if not graded_start:
        return base
    t_cross = T / GRADE_CROSSOVER_DIV
    t = T * GRADE_TMIN_REL
    pre = [0.0]
    while t < t_cross:
        pre.append(t)
        t *= GRADE_RATIO
    return _sorted_distinct(np.concatenate([np.asarray(pre), base]))


def _piece_weights(x, a, b):
    """Weights of the samples at the nodes x[0], ..., x[m-1] in the integral
    over [a, b] of the polynomial interpolating them, for m <= 6: the
    three-point Gauss-Legendre rule, exact to degree 5, on each Lagrange basis
    polynomial.  The nodes may be arrays (m, ...) of panels.

    Evaluated in coordinates local to a: differences of absolute times would
    cancel catastrophically for tiny intervals far from the origin.
    """
    y = np.asarray(x, dtype=float) - a
    B = b - a
    others = _OTHERS[len(y)]  # (m, m - 1): the roots of each basis polynomial
    d = np.multiply.outer(_GAUSS_AT, B)[:, None] - y  # (3, m, ...): Gauss points less nodes
    num = np.multiply.reduce(d[:, others], axis=2)
    den = np.multiply.reduce(y[:, None] - y[others], axis=1)
    return ((num[0] + num[2]) * (5.0 / 18.0) + num[1] * (8.0 / 18.0)) * B / den


_GAUSS_AT = 0.5 + np.array([-0.5, 0.0, 0.5]) * np.sqrt(0.6)  # on [0, 1], weights 5, 8, 5 / 18
_OTHERS = {m: np.array([[k for k in range(m) if k != i] for i in range(m)]) for m in range(2, 7)}


def _poly_piece(x, f, a, b):
    """Integral over [a, b] of the polynomial interpolating the samples f at
    the nodes x."""
    return _weighted(f, _piece_weights(x, a, b))


def _weighted(f, w):
    """f[0] w[0] + f[1] w[1] + ..., summed in that order; f may be an iterator."""
    f = iter(f)
    out = next(f) * w[0]
    for fi, wi in zip(f, w[1:]):
        out += fi * wi
    return out


def _fourth_nodes(w, fin, j):
    """For the panels opened by intervals j (intervals j and j + 1 of widths
    w), the node whose sample the cubic split adds: j + 3, or else j - 1, where
    its sample is finite and its interval at most _PAIR_WIDTH_RATIO times the
    panel's wider one; -1 where neither is."""
    wide = _PAIR_WIDTH_RATIO * np.maximum(w[j], w[j + 1])
    after = np.append(fin, False)[j + 3] & (np.append(w, np.inf)[j + 2] <= wide)
    before = (j >= 1) & fin[j - 1] & (w[j - 1] <= wide)
    return np.where(after, j + 3, np.where(before, j - 1, -1))


class _Plan:
    """The rule on the grid ts for samples finite where ``fin`` holds: which
    samples each interval's piece weighs and with what weights.  It depends on
    nothing else, so one plan serves every series of that finiteness pattern.

    An isolated non-finite sample at the first or last checkpoint gets the
    rectangle on its interval; an interval with a non-finite end is infinite.
    The rest follows the greedy left-to-right scan: an interval opens a Simpson
    panel with the next one when both are finite and of comparable width,
    otherwise it is a lone interval.  An interval is reached as a panel
    opener exactly when it lies an even number of steps into its run of
    possible openers, so the plan is a few index arrays.

    A panel's two pieces sum to its Simpson total.  The first takes the
    integral of the cubic through the panel's three nodes and a fourth
    (`_fourth_nodes`), and the second the rest of the total, so that the
    cumulative integral is of the panel's order at its middle node too; a
    panel without a fourth node keeps its quadratic's pieces.  A lone interval
    takes the quadratic through the better-conditioned neighbour triple, or
    else the trapezoid.
    """

    def __init__(self, ts, fin):
        K = ts.size - 1
        w = np.diff(ts)
        first, last, self.singular = 0, K, False
        rect = []  # (interval, node) of each rectangle
        if not fin[0] and fin[1]:
            rect.append((0, 1))
            first, self.singular = 1, True
        if not fin[K] and K >= 2 and fin[K - 1]:
            rect.append((K - 1, K - 1))
            last, self.singular = K - 1, True
        k = np.arange(first, last)
        bad = ~(fin[k] & fin[k + 1])
        opener = np.zeros(k.size, dtype=bool)
        j = k[:-1]
        opener[:-1] = (~bad[:-1] & fin[j + 2]
                       & (np.maximum(w[j], w[j + 1]) <= _PAIR_WIDTH_RATIO * np.minimum(w[j], w[j + 1])))
        pos = np.arange(k.size)
        starts = np.ones(k.size, dtype=bool)
        starts[1:] = ~opener[:-1]
        run_start = np.maximum.accumulate(np.where(starts, pos, 0))
        opens = opener & ((pos - run_start) % 2 == 0)
        closes = np.zeros(k.size, dtype=bool)
        closes[1:] = opens[:-1]
        lone = ~(opens | closes | bad)

        self.infinite = k[bad]
        panel, alone = k[opens], k[lone]
        fin_next, w_next = np.append(fin, False), np.append(w, 0.0)  # alone + 2 may pass the end
        left = (alone >= 1) & fin[alone - 1] & (w[alone - 1] <= _PAIR_WIDTH_RATIO * w[alone])
        right = ~left & fin_next[alone + 2] & (w_next[alone + 1] <= _PAIR_WIDTH_RATIO * w[alone])
        trap = ~(left | right)
        # quadratic pieces: both of each panel's, then lone intervals' from the left and right
        target = np.concatenate([panel, panel + 1, alone[left], alone[right]])
        three = np.concatenate([panel, panel, alone[left] - 1, alone[right]]) + np.arange(3)[:, None]
        rect, at = np.array(rect, dtype=np.intp).reshape(-1, 2).T
        self.pieces = [(rect, at[None], w[rect][None]),
                       (target, three, _piece_weights(ts[three], ts[target], ts[target + 1]))]
        nb = _fourth_nodes(w, fin, panel)
        panel = panel[nb >= 0]
        four = np.vstack([panel + np.arange(3)[:, None], nb[nb >= 0]])
        self.cubic = (panel, four, _piece_weights(ts[four], ts[panel], ts[panel + 1]))
        self.trapezoids = alone[trap], w[alone[trap]]

    def apply(self, bs):
        """The pieces (K, m) of the columns of bs (K + 1, m), each finite where
        the plan's pattern is."""
        pieces = np.zeros((bs.shape[0] - 1, bs.shape[1]))
        pieces[self.infinite] = np.inf
        for target, nodes, weights in self.pieces:
            pieces[target] = _weighted((bs[i] for i in nodes), weights[..., None])
        j, nodes, weights = self.cubic
        total = pieces[j] + pieces[j + 1]
        pieces[j] = _weighted((bs[i] for i in nodes), weights[..., None])
        pieces[j + 1] = total - pieces[j]
        j, width = self.trapezoids
        pieces[j] = 0.5 * (bs[j] + bs[j + 1]) * width[:, None]
        return pieces


def _interval_pieces(ts, bs):
    """Per-interval integral contributions of the samples bs, (K + 1,) or
    (K + 1, m) for m series, with the singular-endpoint flag of each series.

    One `_Plan` is built per finiteness pattern of the columns and applied to
    all columns of that pattern at once; each column's pieces are those of
    the same series alone, bit for bit."""
    ts = np.asarray(ts, dtype=float)
    bs = np.asarray(bs, dtype=float)
    block = bs[:, None] if bs.ndim == 1 else bs
    pieces = np.zeros((max(ts.size - 1, 0), block.shape[1]))
    singular = np.zeros(block.shape[1], dtype=bool)
    if ts.size >= 2:
        fin = np.isfinite(block)
        todo = np.ones(block.shape[1], dtype=bool)
        while todo.any():
            pattern = fin[:, np.argmax(todo)]
            cols = todo & np.all(fin == pattern[:, None], axis=0)
            plan = _Plan(ts, pattern)
            pieces[:, cols], singular[cols] = plan.apply(block[:, cols]), plan.singular
            todo &= ~cols
    if bs.ndim == 1:
        return pieces[:, 0], bool(singular[0])
    return pieces, singular


def cumulative_simpson_nonuniform(ts, bs):
    """Cumulative integral at every checkpoint plus a singular-endpoint flag.

    Returns ``(I, endpoint_singular)`` with I[0] = 0 and
    I[k] = integral over [ts[0], ts[k]].  For samples bs of shape (K + 1, m),
    m series, I is (K + 1, m) and the flag an array of m.  Interval additivity
    is exact by construction.
    """
    pieces, flag = _interval_pieces(ts, bs)
    out = np.zeros((pieces.shape[0] + 1,) + pieces.shape[1:])
    np.cumsum(pieces, axis=0, out=out[1:])
    return out, flag


def simpson_nonuniform(ts, bs):
    """Composite Simpson integral of samples bs over the grid ts: the last
    entry of the cumulative integral."""
    return float(cumulative_simpson_nonuniform(ts, bs)[0][-1])


# ---------------------------------------------------------------------------
# error-controlled grid

_SEED_RATIO = 8.0         # largest t-ratio of a seed panel
_LOG_SPLIT_RATIO = 4.0    # a panel [a, b] with b >= 4a > 0 is bisected in log t
_MAX_PANELS = 1 << 12
_CHILD_SHARE = 0.125      # assumed error of two halves against their panel, when choosing how many to bisect


def _split(a, b):
    """Where a panel [a, b] is bisected: at sqrt(ab) when b >= 4a > 0, so that
    panels toward a log(1/t) singularity at 0 shrink geometrically, at the
    midpoint otherwise.  Either way the halves differ by at most the factor 3
    below which the quadrature pairs two intervals into one panel."""
    geometric = (a > 0) & (b >= _LOG_SPLIT_RATIO * a)
    return np.where(geometric, np.sqrt(a * b), 0.5 * (a + b))


def _panel_errors(x, xn, has, fs, gs):
    """Estimated errors of the rule on panels (x0, x2, x4), each summed over
    the components.  Of the panel: 16/15 of its Simpson value against Simpson
    on the halves (x0, x1, x2) and (x2, x3, x4), Richardson's estimate of the
    Simpson error (on a uniform panel, the panel against Boole's rule).  Of the
    panel's first interval, which ends the cumulative integral at the
    checkpoint x2: its piece against the integral of the quartic through the
    five samples.  As in `_interval_pieces`, the piece is the cubic's through
    x0, x2, x4 and the fourth node xn where the panel has one (``has``) and
    the sample there is finite, and the quadratic's otherwise.

    ``x`` is (P, 5), ``xn`` and ``has`` (P,), each f in ``fs`` (P, 5, d) and
    each g in ``gs`` (P, d), its samples at xn (any node distinct from x0, x2
    and x4 where there is no fourth).  Returns two (P, len(fs)) arrays.  Both
    are linear in the samples, so their weights are formed first."""
    X = x.T[_SIMPSON.T]  # three nodes, then the interval
    per_node = np.zeros((4, 5, x.shape[0]))
    per_node[np.arange(4)[:, None], _SIMPSON[:, :3]] = np.swapaxes(
        _piece_weights(X[:3], X[3], X[4]), 0, 1)
    quartic = _piece_weights(x.T, x[:, 0], x[:, 2])
    cubic = _piece_weights(np.vstack([x.T[::2], xn]), x[:, 0], x[:, 2])
    weights = np.stack([16.0 / 15.0 * (per_node[0] - per_node[1] - per_node[2]),
                        per_node[3] - quartic, -quartic]).transpose(2, 0, 1)  # (P, 3, 5)
    weights[:, 2, ::2] += cubic[:3].T
    E, H = [], []
    with np.errstate(invalid="ignore"):  # a non-finite sample makes its estimates NaN
        for f, g in zip(fs, gs):
            r = weights @ f
            cubic_ok = has[:, None] & np.isfinite(g)
            first = np.where(cubic_ok, r[:, 2] + cubic[3][:, None] * g, r[:, 1])
            E.append(np.abs(r[:, 0]).sum(axis=1))
            H.append(np.abs(first).sum(axis=1))
    return np.stack(E, axis=1), np.stack(H, axis=1)


# Simpson on the panel and on its halves, and the panel's quadratic on its first interval
_SIMPSON = np.array([[0, 2, 4, 0, 4], [0, 1, 2, 0, 2], [2, 3, 4, 2, 4], [0, 2, 4, 0, 2]])


class _Nodes:
    """Every time sampled so far with its samples, one row table per series.

    The tables grow by doubling from 4096 rows (rows never written take no
    memory): appending each round by concatenation would copy the whole
    table every round and hold it twice at the peak of `evolve`."""

    BLOCK = 128  # times per call of the sampler: its temporaries stay O(BLOCK d)

    def __init__(self, sample):
        self.sample, self.size, self.t = sample, 0, np.empty(0)
        self.rows = [np.empty((0,) + v.shape[1:]) for v in sample(self.t)]

    def add(self, ts) -> np.ndarray:
        """Sample the times ``ts``, append them to the table and return their rows."""
        first, end = self.size, self.size + len(ts)
        if end > self.t.size:
            self.t, *self.rows = (_grown(a, max(2 * end, 4096), first) for a in [self.t, *self.rows])
        self.t[first:end] = ts
        for k in range(first, end, self.BLOCK):
            for r, v in zip(self.rows, self.sample(self.t[k:min(k + self.BLOCK, end)])):
                r[k:k + v.shape[0]] = v
        self.size = end
        return np.arange(first, end)


def _grown(a, rows, keep):
    """``a`` with room for ``rows`` rows, its first ``keep`` rows kept."""
    out = np.empty((rows,) + a.shape[1:])
    out[:keep] = a[:keep]
    return out


def error_controlled_grid(sample, T: float, budgets, first_step: float):
    """A checkpoint grid on [0, T] on which the quadrature of this module
    integrates every series that ``sample`` returns within its error budget.

    ``sample(ts)`` returns, for the times ``ts``, a list of (ts.size, d)
    arrays, one per series; ``budgets`` holds one absolute budget per series
    for the error of its cumulative integral at any checkpoint, summed over
    its d components.

    The grid is a chain of Simpson panels (x0, x2, x4), each of two comparable
    intervals, so the quadrature pairs exactly these.  With the quarter points
    x1 and x3 sampled, Simpson on the two halves estimates the error of each
    panel, and the quartic through the five samples that of its first
    interval, at whose end x2 the cumulative integral also stops (the cubic
    split, through the x2 of a neighbouring panel: `_panel_errors`); a series'
    estimate is the sum over the panels plus the largest first-interval error.
    A bisection moves the fourth node of the panels next to the halves, so
    their estimates are taken anew too.  Seed panels run from ``first_step`` to
    T in t-ratios of at most 8.  Each round bisects, for every series over its
    budget, the panels whose first-interval error exceeds half the budget and
    the fewest largest panel errors that hold half their sum, or enough of it
    to bring the sum under half the budget: panels wherever the error is,
    under one budget for the whole grid.

    A series whose sample at t = 0 is not finite (the log(1/t) dissipation of
    a vacuum start) is integrated by the rectangle rule on [0, h],
    h = T*1e-12, where the graded grid starts too.  The grid then starts 0, h
    and the panel (h, 4.5h, 8h), whose first interval is wide enough that a
    finite series takes [0, h] alone too; that interval and panel are
    estimated but not bisected.  A non-finite estimate does not count toward its series' budget
    (bisection cannot mend it) and makes the series' estimate infinite.

    Returns the times and the estimate of every series.
    """
    B = np.asarray(budgets, dtype=float)
    nodes = _Nodes(sample)
    nodes.add([0.0])
    singular = not all(np.all(np.isfinite(r[0])) for r in nodes.rows)
    if singular:
        h = T * GRADE_TMIN_REL
        start, head = 8.0 * h, (h, 4.5 * h, 8.0 * h)
    else:
        start = min(first_step, T)
        head = (0.0, 0.5 * start, start)
    count = int(np.ceil(np.log(T / start) / np.log(_SEED_RATIO) - 1e-9)) if start < T else 0
    bounds = start * (T / start) ** (np.arange(count + 1) / max(count, 1))
    bounds[-1] = T
    x0, x4 = np.append(head[0], bounds[:-1]), np.append(head[2], bounds[1:])
    x2 = np.append(head[1], _split(bounds[:-1], bounds[1:]))
    X = np.column_stack([x0, _split(x0, x2), x2, _split(x2, x4), x4])
    fresh = _sorted_distinct(X[:, 1:])  # x0 of the first panel is 0 or h; every x4 is an x0 or T
    rows = nodes.add(np.append(h, fresh) if singular else fresh)
    at = dict(zip(nodes.t[:nodes.size].tolist(), range(nodes.size)))
    idx = np.array([[at[t] for t in panel] for panel in X.tolist()], dtype=np.intp)

    def grid():  # the node rows of the checkpoint grid the panels make
        keep = np.append(idx[:, [0, 2]].ravel(), idx[-1, 4])
        return np.append(0, keep) if singular else keep

    def errors(pos):  # 64 panels at a time: the gathered samples stay O(384 d)
        g = grid()  # the fourth node of each panel's cubic split; x1 stands in where there is none
        fourth = _fourth_nodes(np.diff(nodes.t[g]), np.ones(g.size, dtype=bool),
                               2 * pos + singular)
        has = fourth >= 0
        nb, parts = np.where(has, g[fourth], idx[pos, 1]), []
        for b in np.split(np.arange(len(pos)), np.arange(64, len(pos), 64)):
            ix, n = idx[pos[b]], nb[b]
            parts.append(_panel_errors(nodes.t[ix], nodes.t[n], has[b], [r[ix] for r in nodes.rows],
                                       [r[n] for r in nodes.rows]))
        return np.concatenate([e for e, _ in parts]), np.concatenate([m for _, m in parts])

    E, H = errors(np.arange(len(idx)))
    fixed = np.zeros(len(idx), dtype=bool)
    lead = np.zeros(B.size)  # the error on [0, h] before the first panel
    if singular:  # [0, h]: the rectangle, or the trapezoid, against the slope to the next node
        fixed[0] = True
        t, k1 = nodes.t, idx[0, 1]
        for c, f in enumerate(nodes.rows):
            if np.all(np.isfinite(f[0])):
                lone = _poly_piece((0.0, h, t[k1]), (f[0], f[rows[0]], f[k1]), 0.0, h)
                lead[c] = np.abs(0.5 * h * (f[0] + f[rows[0]]) - lone).sum()
            else:  # f ~ a log(1/t) + b on [0, h] leaves the error a h
                with np.errstate(invalid="ignore"):  # inf at h too: the estimate is NaN
                    lead[c] = h * np.abs(f[rows[0]] - f[k1]).sum() / np.log(t[k1] / h)
    while len(idx) < _MAX_PANELS:
        E_ok, H_ok, lead_ok = (np.where(np.isfinite(a), a, 0.0) for a in (E, H, lead))
        total, worst = E_ok.sum(axis=0) + lead_ok, H_ok.max(axis=0)
        over = np.flatnonzero(total + worst > B)
        if over.size == 0:
            break
        X = nodes.t[idx]
        free = ~fixed & (X[:, 4] - X[:, 0] > 1e-9 * X[:, 4])
        pick = np.zeros(len(idx), dtype=bool)
        for c in over:
            pick |= H_ok[:, c] > 0.5 * B[c]
            if total[c] > 0.5 * B[c]:
                e = np.where(free, E_ok[:, c], 0.0)
                order = np.argsort(-e, kind="stable")
                held = np.cumsum(e[order])
                enough = min(np.searchsorted(held, 0.5 * total[c]),
                             np.searchsorted(held * (1.0 - _CHILD_SHARE), total[c] - 0.5 * B[c]))
                pick[order[:enough + 1]] = True
        pick &= free
        pick[np.flatnonzero(pick)[_MAX_PANELS - len(idx):]] = False
        if not pick.any():
            break
        p = idx[pick]
        new = nodes.add(_split(nodes.t[p[:, :-1]], nodes.t[p[:, 1:]]).ravel()).reshape(-1, 4)
        left = np.column_stack([p[:, 0], new[:, 0], p[:, 1], new[:, 1], p[:, 2]])
        right = np.column_stack([p[:, 2], new[:, 2], p[:, 3], new[:, 3], p[:, 4]])
        reps = 1 + pick
        first = (np.cumsum(reps) - reps)[pick]
        idx, E, H, fixed = (np.repeat(a, reps, axis=0) for a in (idx, E, H, fixed))
        idx[first], idx[first + 1] = left, right
        # the halves, and the panels next to them, whose fourth node may have moved
        near = (first[:, None] + np.arange(-1, 3)).ravel()
        near = _sorted_distinct(near[(near >= 0) & (near < len(idx))])
        E[near], H[near] = errors(near)
    estimates = E.sum(axis=0) + lead + H.max(axis=0)
    estimates[~np.isfinite(estimates)] = np.inf
    return nodes.t[grid()], estimates

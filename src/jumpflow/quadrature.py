"""Checkpoint grids and eighth-order quadrature on nonuniform grids.

Each checkpoint interval's piece of a cumulative integral is the integral of
the septic through the eight checkpoints nearest it within its run of finite
samples: the interval's two ends, three more before it and three after, the
stencil shifted inward at the ends of the run; a run of fewer than eight
checkpoints uses all of them.  An isolated non-finite sample at the first or
last checkpoint is integrated by a one-sided rectangle on its interval (the
integrable-singularity convention); any other interval with a non-finite end
is infinite.  The weights depend only on the times and on which samples are
finite, and are formed in coordinates local to each interval and scaled by
its width, so they stay in floating-point range whatever the times.

``error_controlled_grid`` chooses a grid for given series under a global
error budget: each series comes with a primitive, so every interval's piece
is measured against the primitive's difference over the interval, its
realized error, and the intervals with the largest errors are bisected; every
sampled time is a checkpoint.  ``checkpoint_grid`` is the explicit uniform
grid, optionally with a geometric prefix for the log(1/t) singularity of a
vacuum start.
"""

from __future__ import annotations

import numpy as np

__all__ = ["checkpoint_grid", "error_controlled_grid", "simpson_nonuniform",
           "cumulative_simpson_nonuniform"]

GRADE_RATIO = 1.02
GRADE_CROSSOVER_DIV = 16.0
GRADE_TMIN_REL = 1e-12
STENCIL = 8  # checkpoints per piece: the septic's
_WIDTH_RATIO = 8.0  # largest ratio of neighbouring widths inside a stencil's run


def _sorted_distinct(x) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's sort and neighbour
    comparison, without the numpy.ma import np.unique brings."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


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


def _stencils(ts, fin):
    """First node and node count of each interval's stencil on the grid ts,
    for samples finite where ``fin`` holds; count 0 for an interval without
    two finite ends.

    Interval j's stencil is the STENCIL nodes j - 3, ..., j + 4, shifted
    inward to lie in the interval's run, or the whole run when it is shorter.
    A run is a stretch of finite samples, cut also at a node whose two
    intervals differ in width by more than _WIDTH_RATIO: across such a jump
    the polynomial through the narrow intervals' nodes swings far over the
    wide one, and its weights multiply roundoff by powers of the ratio.  A cut
    node ends one run and starts the next.
    """
    K = ts.size - 1
    w = np.diff(ts)
    cut = np.zeros(K + 1, dtype=bool)
    cut[1:-1] = np.maximum(w[:-1], w[1:]) > _WIDTH_RATIO * np.minimum(w[:-1], w[1:])
    pos = np.arange(K + 1)
    first = np.maximum.accumulate(np.where(fin & (cut | ~np.append(False, fin[:-1])), pos, 0))
    last = np.minimum.accumulate(np.where(fin & (cut | ~np.append(fin[1:], False)), pos, K)[::-1])
    first, last = first[:-1], last[::-1][1:]  # of the run that holds interval j
    size = np.where(fin[:-1] & fin[1:], np.minimum(STENCIL, last - first + 1), 0)
    return np.clip(pos[:-1] - (STENCIL - 1) // 2, first, last + 1 - size), size


def _scaled(x, a, b):
    """The nodes x in coordinates local to a and scaled by b - a.  Products of
    node differences are then of the size of the stencil's width ratios at
    any times; in absolute times a septic's products leave the floating-point
    range at extreme T, and in times not local to the interval they cancel
    for tiny intervals far from the origin."""
    return (np.asarray(x, dtype=float) - a) / (b - a)


def _piece_weights(x, a, b):
    """Weights of the samples at the nodes x[0], ..., x[m-1] in the integral
    over [a, b] of the polynomial interpolating them, for 2 <= m <= 8:
    four-point Gauss-Legendre, exact to degree 7, on each Lagrange basis
    polynomial.  The nodes may be arrays (m, ...) of intervals."""
    y = _scaled(x, a, b)
    others = _OTHERS[len(y)]  # (m, m - 1): the roots of each basis polynomial
    num = np.multiply.reduce(_GAUSS_AT.reshape((4,) + (1,) * (y.ndim + 1)) - y[others], axis=2)
    den = np.multiply.reduce(y[:, None] - y[others], axis=1)
    return _weighted(num, _GAUSS_W) * (b - a) / den


_ROOTS = np.sqrt(3.0 / 7.0 + np.array([2.0, -2.0, -2.0, 2.0]) / 7.0 * np.sqrt(1.2))
_GAUSS_AT = 0.5 + 0.5 * np.array([-1.0, -1.0, 1.0, 1.0]) * _ROOTS  # on [0, 1], ascending
_GAUSS_W = (18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * np.sqrt(30.0)) / 72.0
_OTHERS = {m: np.array([[k for k in range(m) if k != i] for i in range(m)]) for m in range(2, 9)}


def _weighted(f, w):
    """f[0] w[0] + f[1] w[1] + ..., summed in that order; f may be an iterator."""
    f = iter(f)
    out = next(f) * w[0]
    for fi, wi in zip(f, w[1:]):
        out += fi * wi
    return out


class _Plan:
    """The rule on the grid ts for samples finite where ``fin`` holds: which
    samples each interval's piece weighs and with what weights.  It depends on
    nothing else, so one plan serves every series of that finiteness pattern.

    An isolated non-finite sample at the first or last checkpoint gets the
    rectangle on its interval, the sample at the other end times the width;
    any other interval with a non-finite end is infinite.  Every interval with
    two finite ends takes the integral of the polynomial through its stencil
    (`_stencils`) in its run of finite samples, the septic but in a run of
    fewer than eight.  The pieces are kept by stencil size, each group a few
    index and weight arrays.
    """

    def __init__(self, ts, fin):
        K = ts.size - 1
        rect = []  # (interval, node) of each rectangle
        if not fin[0] and fin[1]:
            rect.append((0, 1))
        if not fin[K] and K >= 2 and fin[K - 1]:
            rect.append((K - 1, K - 1))
        self.singular = bool(rect)
        rect, at = np.array(rect, dtype=np.intp).reshape(-1, 2).T
        start, size = _stencils(ts, fin)
        infinite = size == 0
        infinite[rect] = False
        self.infinite = np.flatnonzero(infinite)
        self.pieces = [(rect, at[None], np.diff(ts)[rect][None])]
        for m in _sorted_distinct(size[size > 0]).tolist():
            target = np.flatnonzero(size == m)
            nodes = start[target] + np.arange(m)[:, None]
            self.pieces.append((target, nodes, _piece_weights(ts[nodes], ts[target],
                                                              ts[target + 1])))

    def apply(self, bs, out):
        """Write the pieces (K, m) of the columns of bs (K + 1, m), each finite
        where the plan's pattern is, into ``out``."""
        out[self.infinite] = np.inf
        for target, nodes, weights in self.pieces:
            out[target] = _weighted((bs[i] for i in nodes), weights[..., None])


def _interval_pieces(ts, bs):
    """Per-interval integral contributions of the samples bs, (K + 1,) or
    (K + 1, m) for m series, with the singular-endpoint flag of each series.

    One `_Plan` is built per finiteness pattern of the columns and applied to
    all columns of that pattern at once (to the block itself, with no copy,
    when that is every column); each column's pieces are those of the same
    series alone, bit for bit."""
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
            if cols.all():
                plan.apply(block, pieces)
            else:
                part = np.empty((pieces.shape[0], np.count_nonzero(cols)))
                plan.apply(block[:, cols], part)
                pieces[:, cols] = part
            singular[cols] = plan.singular
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
    """Integral of samples bs over the grid ts by the rule of this module: the
    last entry of the cumulative integral."""
    return float(cumulative_simpson_nonuniform(ts, bs)[0][-1])


# ---------------------------------------------------------------------------
# error-controlled grid

_SEED_RATIO = 8.0         # largest t-ratio of a seed pair of intervals
_LOG_SPLIT_RATIO = 4.0    # an interval [a, b] with b >= 4a > 0 is bisected in log t
_MAX_INTERVALS = 1 << 13
_HOLD = 0.75              # a round bisects the largest errors that hold this share of their sum,
_AIM = 0.9                # or enough to bring the sum under this share of the budget,
_CHILD_SHARE = 1.0 / 32.0  # assuming two halves keep this share of their interval's error
_ERROR_BLOCK = 32         # intervals per error: the gathered samples stay O(256 d)


def _split(a, b):
    """Where an interval [a, b] is bisected: at sqrt(ab) when b >= 4a > 0, so
    that intervals toward a log(1/t) singularity at 0 shrink geometrically, at
    the midpoint otherwise."""
    geometric = (a > 0) & (b >= _LOG_SPLIT_RATIO * a)
    return np.where(geometric, np.sqrt(a) * np.sqrt(b), 0.5 * (a + b))


class _Nodes:
    """Every checkpoint so far, in the order sampled, with its samples: per
    series, a row table of the series and one of its primitive.

    The tables grow by doubling from 256 rows, which hold a typical grid
    (K+1 about 120): appending each round by concatenation would copy the
    whole table every round and hold it twice at the peak of `evolve`."""

    BLOCK = 128  # times per call of the sampler: its temporaries stay O(BLOCK d)

    def __init__(self, sample):
        self.sample, self.size, self.t = sample, 0, np.empty(0)
        self.rows = [tuple(np.empty((0,) + v.shape[1:]) for v in pair)
                     for pair in sample(self.t)]

    def add(self, ts) -> np.ndarray:
        """Sample the times ``ts``, append them to the table and return their rows."""
        first, end = self.size, self.size + len(ts)
        if end > self.t.size:
            size = max(2 * end, 256)
            self.t = _grown(self.t, size, first)
            self.rows = [tuple(_grown(a, size, first) for a in pair) for pair in self.rows]
        self.t[first:end] = ts
        for k in range(first, end, self.BLOCK):
            for pair, got in zip(self.rows, self.sample(self.t[k:min(k + self.BLOCK, end)])):
                for r, v in zip(pair, got):
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

    ``sample(ts)`` returns, for the times ``ts``, one pair (f, F) of
    (ts.size, d) arrays per series: the series f and a primitive F of -f (for
    a dissipation, the entropy it dissipates); ``budgets`` holds one absolute
    budget per series for the error of its cumulative integral at any
    checkpoint, summed over its d components.

    Every sampled time is a checkpoint, and each interval's error is the one
    its piece realizes: the sum over the components of
    |F(t_{j+1}) - F(t_j) + piece_j(f)|.  A series' error is the sum over the
    intervals, which bounds the error of its cumulative integral at every
    checkpoint.  An error that cancels inside an interval is no defect: the
    quadrature is read only at checkpoints.  The errors carry F's rounding,
    which bisection cannot lower and the sum over intervals accumulates, so
    F must keep its digits where its differences are small (an entropy near
    its minimum, for one).  An interval's error is formed when it is created
    and again only when its stencil changes, as a bisection near it moves one
    of its nodes or cuts its run.  Seed intervals run in pairs from
    ``first_step`` to T, each pair spanning a t-ratio of at most 8.  Each
    round bisects, for every series over its budget, the fewest largest
    interval errors that hold three quarters of their sum, or enough of them
    to bring the sum under 9/10 of the budget if each pair of halves kept
    1/32 of its interval's error: intervals wherever the error is, under one
    budget for the whole grid.  A bisection samples the interval at `_split`
    and makes that time a checkpoint.

    A series whose sample at t = 0 is not finite (the log(1/t) dissipation of
    a vacuum start) is integrated by the rectangle rule on [0, h],
    h = 1e-12 min(T, first_step), and its stencils start at h.  The grid then
    starts 0, h, 4.5h, 8h; [0, h] is not bisected, and its error, for such a
    series F(h) - F(0) + h f(h), counts like any other.  A non-finite error
    does not count toward its series' budget (bisection cannot mend it) and
    makes the series' error infinite.

    Returns the times and the error of every series.
    """
    B = np.asarray(budgets, dtype=float)
    nodes = _Nodes(sample)
    nodes.add([0.0])
    late = np.array([not np.all(np.isfinite(f[0])) for f, _ in nodes.rows])
    singular = bool(late.any())
    if singular:
        h = GRADE_TMIN_REL * min(T, first_step)
        start, head = 8.0 * h, (h, 4.5 * h, 8.0 * h)
    else:
        start = min(first_step, T)
        head = (0.0, 0.5 * start, start)
    count = int(np.ceil(np.log(T / start) / np.log(_SEED_RATIO) - 1e-9)) if start < T else 0
    bounds = start * (T / start) ** (np.arange(count + 1) / max(count, 1))
    bounds[-1] = T
    pairs = np.column_stack([np.append(head[0], bounds[:-1]),
                             np.append(head[1], _split(bounds[:-1], bounds[1:]))])
    knots = np.append(pairs.ravel(), T)
    if singular:
        knots = np.append(0.0, knots)
    cp = np.append(0, nodes.add(knots[1:]))
    # the stencils' runs: from 0 for the series finite there, from h for the others
    variants = [(first, np.flatnonzero(late == bool(first))) for first in (0, 1)
                if np.any(late == bool(first))]

    def layout():  # per variant, the (K, STENCIL) checkpoints of each stencil, -1 past its size
        out = []
        for first, _ in variants:
            fin = np.ones(cp.size, dtype=bool)
            fin[0] = not first
            s, m = _stencils(nodes.t[cp], fin)
            at = s[:, None] + np.arange(STENCIL)
            out.append(np.where(np.arange(STENCIL) < m[:, None], at, -1))
        return out

    def keys(pos):  # the node rows each interval's error reads: its stencils hold its ends
        return np.column_stack([np.where(p >= 0, cp[p], -1) for p in pos])

    def errors(J, pos):  # the realized errors (J.size, series) of the intervals J
        out = np.empty((J.size, B.size))
        a, b = cp[J], cp[J + 1]
        for v, ((first, series), p) in enumerate(zip(variants, pos)):
            p = p[J]  # the first variant's stencils serve every series where the second's agree
            rows = np.flatnonzero(np.any(p != pos[0][J], axis=1)) if v else np.arange(J.size)
            series = series if v else range(B.size)
            size = np.count_nonzero(p[rows] >= 0, axis=1)
            for m in _sorted_distinct(size[size > 0]).tolist():
                group = rows[size == m]
                for g in np.array_split(group, -(-group.size // _ERROR_BLOCK)):
                    at = cp[p[g, :m]].T  # (m, P) node rows
                    w = _piece_weights(nodes.t[at], nodes.t[a[g]], nodes.t[b[g]])
                    with np.errstate(invalid="ignore"):  # a non-finite sample: NaN
                        for c in series:
                            f, F = nodes.rows[c]
                            e = F[b[g]] - F[a[g]]
                            e += _weighted(f[at], w[..., None])
                            out[g, c] = np.abs(e).sum(axis=1)
            if first and J.size and J[0] == 0:  # the rectangle on [0, h]
                for c in series:
                    f, F = nodes.rows[c]
                    out[0, c] = np.abs(F[b[0]] - F[a[0]] + f[b[0]] * h).sum()
        return out

    pos = layout()
    key = keys(pos)
    E = errors(np.arange(cp.size - 1), pos)
    fixed = np.zeros(cp.size - 1, dtype=bool)
    fixed[0] = singular
    while cp.size - 1 < _MAX_INTERVALS:
        E_ok = np.where(np.isfinite(E), E, 0.0)
        total = E_ok.sum(axis=0)
        over = np.flatnonzero(total > B)
        if over.size == 0:
            break
        t = nodes.t[cp]
        free = ~fixed & (np.diff(t) > 1e-9 * t[1:])
        pick = np.zeros(cp.size - 1, dtype=bool)
        for c in over:
            e = np.where(free, E_ok[:, c], 0.0)
            order = np.argsort(-e, kind="stable")
            held = np.cumsum(e[order])
            enough = min(np.searchsorted(held, _HOLD * total[c]),
                         np.searchsorted(held * (1.0 - _CHILD_SHARE), total[c] - _AIM * B[c]))
            chosen = order[:enough + 1]
            pick[chosen[e[chosen] > 0.0]] = True  # an interval without error gains nothing
        pick[np.flatnonzero(pick)[_MAX_INTERVALS - (cp.size - 1):]] = False
        if not pick.any():
            break
        j = np.flatnonzero(pick)
        cp = np.insert(cp, j + 1, nodes.add(_split(t[j], t[j + 1])))
        E, fixed, key = (np.repeat(x, 1 + pick, axis=0) for x in (E, fixed, key))
        pos = layout()
        new_key = keys(pos)
        moved = np.flatnonzero(np.any(new_key != key, axis=1))
        E[moved], key = errors(moved, pos), new_key
    realized = E.sum(axis=0)
    realized[~np.isfinite(realized)] = np.inf
    return nodes.t[cp], realized

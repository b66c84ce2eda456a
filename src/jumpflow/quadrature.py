"""Checkpoint grids and composite Simpson quadrature on nonuniform grids.

The dissipation integrand can blow up like log(1/t) when the initial density
touches zero, so the default checkpoint grid prepends a geometric refinement
of the first uniform interval.  The quadrature pairs adjacent intervals into
Simpson panels but never pairs intervals of very different widths, and an
isolated non-finite sample at the first or last checkpoint is handled by a
one-sided rectangle on its interval (the integrable-singularity convention).
"""

from __future__ import annotations

import numpy as np

__all__ = ["checkpoint_grid", "simpson_nonuniform", "cumulative_simpson_nonuniform"]

GRADE_RATIO = 1.02
GRADE_CROSSOVER_DIV = 16.0
GRADE_TMIN_REL = 1e-12
_PAIR_WIDTH_RATIO = 3.0


def checkpoint_grid(T: float, checkpoints: int, graded_start: bool = True,
                    ratio: float = GRADE_RATIO) -> np.ndarray:
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
        t *= ratio
    return np.unique(np.concatenate([np.asarray(pre), base]))


def _quadratic_piece(x0, x1, x2, f0, f1, f2, a, b):
    """Integral over [a, b] of the quadratic interpolating the three nodes.

    Evaluated in coordinates local to the panel; the cubic antiderivative at
    absolute times would cancel catastrophically for tiny intervals far from
    the origin.
    """
    c = a
    y0, y1, y2, ya, yb = x0 - c, x1 - c, x2 - c, 0.0, b - c

    def lag(r1, r2, scale):
        F = lambda x: x**3 / 3.0 - (r1 + r2) * x**2 / 2.0 + r1 * r2 * x
        return (F(yb) - F(ya)) / scale

    return (f0 * lag(y1, y2, (y0 - y1) * (y0 - y2))
            + f1 * lag(y0, y2, (y1 - y0) * (y1 - y2))
            + f2 * lag(y0, y1, (y2 - y0) * (y2 - y1)))


def _interval_pieces(ts, bs):
    """Per-interval integral contributions; inf at an interior sample poisons
    its two intervals, an isolated non-finite endpoint gets the rectangle rule.

    The plan is the greedy left-to-right scan: an interval opens a Simpson
    panel with the next one when both are finite and of comparable width,
    otherwise it is a lone interval.  An interval is reached as a panel
    opener exactly when it lies an even number of steps into its run of
    possible openers, so the plan is a few index arrays and every piece of
    one kind is evaluated in one array operation.
    """
    ts = np.asarray(ts, dtype=float)
    bs = np.asarray(bs, dtype=float)
    K = ts.size - 1
    if K < 1:
        return np.zeros(0), False
    fin = np.isfinite(bs)
    w = np.diff(ts)
    pieces = np.zeros(K)
    first, last, endpoint_singular = 0, K, False
    if not fin[0] and fin[1]:
        pieces[0] = bs[1] * (ts[1] - ts[0])
        first, endpoint_singular = 1, True
    if not fin[K] and K >= 2 and fin[K - 1]:
        pieces[K - 1] = bs[K - 1] * (ts[K] - ts[K - 1])
        last, endpoint_singular = K - 1, True
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

    pieces[k[bad]] = np.inf
    j = k[opens]
    nodes = (ts[j], ts[j + 1], ts[j + 2], bs[j], bs[j + 1], bs[j + 2])
    pieces[j] = _quadratic_piece(*nodes, ts[j], ts[j + 1])
    pieces[j + 1] = _quadratic_piece(*nodes, ts[j + 1], ts[j + 2])
    # lone interval: quadratic through the better-conditioned neighbor triple
    j = k[lone]
    fin_next, w_next = np.append(fin, False), np.append(w, 0.0)  # j + 2 may pass the end
    left = (j >= 1) & fin[j - 1] & (w[j - 1] <= _PAIR_WIDTH_RATIO * w[j])
    right = ~left & fin_next[j + 2] & (w_next[j + 1] <= _PAIR_WIDTH_RATIO * w[j])
    trap = ~(left | right)
    for sel, i in ((left, j[left] - 1), (right, j[right])):
        pieces[j[sel]] = _quadratic_piece(ts[i], ts[i + 1], ts[i + 2], bs[i], bs[i + 1], bs[i + 2],
                                          ts[j[sel]], ts[j[sel] + 1])
    j = j[trap]
    pieces[j] = 0.5 * (bs[j] + bs[j + 1]) * (ts[j + 1] - ts[j])
    return pieces, endpoint_singular


def simpson_nonuniform(ts, bs):
    """Composite Simpson integral of samples bs over the grid ts."""
    pieces, _ = _interval_pieces(ts, bs)
    return float(pieces.sum())


def cumulative_simpson_nonuniform(ts, bs):
    """Cumulative integral at every checkpoint plus a singular-endpoint flag.

    Returns ``(I, endpoint_singular)`` with I[0] = 0 and
    I[k] = integral over [ts[0], ts[k]].  Interval additivity is exact by
    construction.
    """
    pieces, flag = _interval_pieces(ts, bs)
    out = np.concatenate([[0.0], np.cumsum(pieces)])
    return out, flag

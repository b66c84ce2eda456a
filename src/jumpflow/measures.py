"""Discrete measures on a finite atom universe.

Atoms are indexed 0..n-1 and every measure lives on a shared universe, so
sigma-finiteness is automatic.  Signed measures are kept as Jordan pairs of
mutually singular nonnegative parts; the disjoint-support invariant is
re-established eagerly after every operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PosMeasure",
    "SignedMeasurePair",
    "jordan_from_setfunction",
    "add",
    "scale_by_function",
    "restrict",
    "lebesgue_decompose",
]


def _as_weights(values, name="weights"):
    w = np.asarray(values, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    return w


@dataclass(frozen=True)
class PosMeasure:
    """Nonnegative measure given by one weight per atom of the universe."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_weights(self.weights)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    def mass(self, atoms=None) -> float:
        if atoms is None:
            return float(self.weights.sum())
        idx = np.asarray(list(atoms), dtype=int)
        return float(self.weights[idx].sum()) if idx.size else 0.0

    @staticmethod
    def zero(n: int) -> "PosMeasure":
        return PosMeasure(np.zeros(n))


@dataclass(frozen=True)
class SignedMeasurePair:
    """Jordan pair (pos, neg) of mutually singular nonnegative measures."""

    pos: PosMeasure
    neg: PosMeasure

    def __post_init__(self):
        if self.pos.n != self.neg.n:
            raise ValueError("pos and neg must share the atom universe")
        overlap = np.minimum(self.pos.weights, self.neg.weights)
        if np.any(overlap > 0):
            # resolve ties by subtracting the common part
            object.__setattr__(self, "pos", PosMeasure(self.pos.weights - overlap))
            object.__setattr__(self, "neg", PosMeasure(self.neg.weights - overlap))

    @property
    def n(self) -> int:
        return self.pos.n

    @property
    def values(self) -> np.ndarray:
        """Per-atom signed values pos - neg."""
        return self.pos.weights - self.neg.weights

    def evaluate(self, atoms=None) -> float:
        """Evaluate the induced set function on an atom set."""
        return self.pos.mass(atoms) - self.neg.mass(atoms)

    def tv(self, atoms=None) -> float:
        return self.pos.mass(atoms) + self.neg.mass(atoms)

    @staticmethod
    def zero(n: int) -> "SignedMeasurePair":
        return SignedMeasurePair(PosMeasure.zero(n), PosMeasure.zero(n))


def jordan_from_setfunction(values) -> SignedMeasurePair:
    """Unique Jordan pair reproducing the given per-atom values.

    Positive entries go to the positive part, absolute values of negative
    entries to the negative part, so the supports are disjoint and the
    round-trip ``pair.values == values`` is exact.
    """
    v = _as_weights(values, "values")
    return SignedMeasurePair(PosMeasure(np.maximum(v, 0.0)), PosMeasure(np.maximum(-v, 0.0)))


def add(a: SignedMeasurePair, b: SignedMeasurePair) -> SignedMeasurePair:
    """Vector-space sum; the result is re-normalized to disjoint supports."""
    if a.n != b.n:
        raise ValueError("operands must share the atom universe")
    return jordan_from_setfunction(a.values + b.values)


def scale_by_function(f, nu: SignedMeasurePair) -> SignedMeasurePair:
    """Multiply a signed measure by a function, with sign bookkeeping.

    Follows the pair formula (f+ nu+ + f- nu-, f- nu+ + f+ nu-), which keeps
    both components nonnegative before normalization.  f only needs to be
    finite where |nu| charges mass; elsewhere it is ignored.
    """
    fv = np.asarray(f, dtype=float)
    if fv.shape != (nu.n,):
        raise ValueError("f must be defined on the atom universe")
    charged = (nu.pos.weights + nu.neg.weights) > 0
    if not np.all(np.isfinite(fv[charged])):
        raise ValueError("f must be finite on the support of |nu|")
    fv = np.where(charged, fv, 0.0)
    fp, fm = np.maximum(fv, 0.0), np.maximum(-fv, 0.0)
    pos = fp * nu.pos.weights + fm * nu.neg.weights
    neg = fm * nu.pos.weights + fp * nu.neg.weights
    return SignedMeasurePair(PosMeasure(pos), PosMeasure(neg))


def restrict(mu: SignedMeasurePair, atoms) -> SignedMeasurePair:
    """Restriction mu|_B: masses outside the atom set are dropped."""
    keep = np.zeros(mu.n, dtype=bool)
    idx = np.asarray(list(atoms), dtype=int)
    if idx.size:
        keep[idx] = True
    return SignedMeasurePair(
        PosMeasure(np.where(keep, mu.pos.weights, 0.0)),
        PosMeasure(np.where(keep, mu.neg.weights, 0.0)),
    )


def lebesgue_decompose(mu: SignedMeasurePair, gamma: PosMeasure):
    """Split mu = density * gamma + singular, with the singular part carried
    exactly by the atoms where gamma vanishes.

    Returns ``(density, singular)``.  The total-variation additivity
    ``|mu|(Y) = sum |density| dgamma + |singular|(Y)`` holds by construction.
    """
    if gamma.n != mu.n:
        raise ValueError("measures must share the atom universe")
    g = gamma.weights
    ac = g > 0
    density = np.zeros(mu.n)
    density[ac] = mu.values[ac] / g[ac]
    singular = SignedMeasurePair(
        PosMeasure(np.where(ac, 0.0, mu.pos.weights)),
        PosMeasure(np.where(ac, 0.0, mu.neg.weights)),
    )
    return density, singular

"""Finite joint probability distributions over 1 to 3 variables.

The dense table representation is deliberate: every alphabet in this package
is tiny, so a table is a flat tuple of Python floats in row-major order, and
plain loops over it cost less than numpy's per-call overhead and import.
Variable order is positional and significant.  Tables are validated on
construction (sizes by :func:`_shape`, before any table is built; entries
real-valued, finite, nonnegative, normalized within 1e-9, one per cell) and
then renormalized so downstream arithmetic sees a sum of exactly 1; the
tuple is immutable, making values safe to share between threads.

Sums follow two fixed rules, shared by every path that computes a
quantity: a total that a table is divided by is correctly rounded
(``math.fsum``), and every other sum (a marginal cell, the p log p terms of
an entropy) adds its terms left to right in a plain loop from 0.0.  Both
are exact IEEE-754 specifications, so results are the same on every Python
version; the builtin ``sum()`` is never used on floats, because Python 3.12
made it compensated.

Serialization format (row-major, last variable fastest)::

    {"alphabet_sizes": [2, 2, 2], "probs": [p000, p001, p010, ...]}
"""
from __future__ import annotations

import math
from itertools import product as _cells
from typing import Iterable, Sequence

from .errors import (
    EmptyKeepSetError,
    IndexOutOfRangeError,
    NegativeProbabilityError,
    NotNormalizedError,
    ShapeMismatchError,
    TooManyVariablesError,
    ValidationError,
    WeightsNotNormalizedError,
)
from .value import _Frozen, _as_real, _as_sequence, _as_size

NORMALIZATION_ATOL = 1e-9
MAX_VARS = 3
# Building a table peaks at ~92 bytes a cell (a list of floats, then the normalized
# tuple): `markov --spec` on a 161-outcome chain, 4.17e6 cells, peaked at 402 MB RSS.
MAX_CELLS = 1 << 22

_NUMBER_TYPES = frozenset((float, int))


def _variable(d: "JointDistribution", i) -> int:
    """Variable index ``i`` of ``d`` as an int, by the ``_as_size`` rule; IndexOutOfRangeError unless in range."""
    i = _as_size(i, "variable indices")
    if i < 0 or i >= d.num_vars:
        raise IndexOutOfRangeError(f"variable {i} out of range for {d.num_vars} variables")
    return i


def _total(values) -> float:
    """The correctly rounded sum of finite ``values`` (``math.fsum``), inf where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _entries(table) -> list:
    """The entries of a flat or nested table (an ndarray too), row-major.

    Every nesting level must hold only sequences of one length, or only
    scalars; the entries themselves are not checked here.
    """
    if isinstance(table, (list, tuple)) and _NUMBER_TYPES.issuperset(map(type, table)):
        return list(table)  # already flat: plain ints and floats, one step
    rows = [table.tolist() if hasattr(table, "tolist") else table]
    while not _NUMBER_TYPES.issuperset(map(type, rows)) and any(isinstance(r, (list, tuple)) for r in rows):
        if not all(isinstance(r, (list, tuple)) for r in rows) or len({len(r) for r in rows}) > 1:
            raise ShapeMismatchError("ragged table: the rows of a nested table must all have one length")
        rows = [x for r in rows for x in r]
    return rows


def _reals(entries: list, what: str, error=ValidationError) -> list[float]:
    """``entries`` as floats, each by the ``_as_real`` rule; a non-real entry raises ``error``."""
    if _NUMBER_TYPES.issuperset(map(type, entries)):
        try:
            return list(map(float, entries))
        except OverflowError:
            pass  # an int past the float range: _as_real raises ``error`` for it
    return [_as_real(x, what, error) for x in entries]


def _shape(alphabet_sizes: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sizes and cell count of a table, checked before it is built: 1 to MAX_VARS sizes >= 1, at most MAX_CELLS cells."""
    sizes = tuple(_as_size(s) for s in _as_sequence(alphabet_sizes, "alphabet sizes", ShapeMismatchError))
    if len(sizes) == 0:
        raise ShapeMismatchError("need at least one variable")
    if len(sizes) > MAX_VARS:
        raise TooManyVariablesError(f"at most {MAX_VARS} variables supported, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ShapeMismatchError(f"alphabet sizes must be positive, got {sizes}")
    cells = math.prod(sizes)
    if cells > MAX_CELLS:
        raise ValidationError(f"tables are capped at {MAX_CELLS} cells, got {cells} for sizes {sizes}")
    return sizes, cells


def _checked(alphabet_sizes: Sequence[int], probs) -> tuple[tuple[int, ...], list[float], float]:
    """Validated sizes, entries and entry total of a raw table; raises on the first violation."""
    sizes, cells = _shape(alphabet_sizes)
    flat = _reals(_entries(probs), "probabilities")
    if not all(map(math.isfinite, flat)):
        raise ValidationError("probabilities must be finite")
    worst = min(flat, default=0.0)
    if worst < 0.0:
        raise NegativeProbabilityError(f"negative probability entry {worst}")
    total = _total(flat)
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        raise NotNormalizedError(f"probabilities sum to {total}, expected 1 within {NORMALIZATION_ATOL}")
    if len(flat) != cells:
        raise ShapeMismatchError(f"table has {len(flat)} entries, expected {cells} for sizes {sizes}")
    return sizes, flat, total


def validate_table(alphabet_sizes: Sequence[int], probs) -> None:
    """Check the raw table invariants, raising on the first violation.

    Invariants are checked in order: all entries real and finite, all
    nonnegative, entries sum to 1 within ``NORMALIZATION_ATOL``, table
    length equals the product of the alphabet sizes.
    """
    _checked(alphabet_sizes, probs)


class JointDistribution(_Frozen):
    """A validated, normalized probability table over 1 to 3 finite variables.

    ``flat`` is the row-major table, a tuple of floats.  ``probs`` is the
    same table as a read-only numpy array shaped ``alphabet_sizes``, built
    (importing numpy) on first access.  Use :func:`marginalize`,
    :func:`product` and :func:`mix` to derive new distributions; instances
    are immutable and compare by identity.
    """

    __slots__ = ("alphabet_sizes", "flat", "_array")
    # by identity, not by value: the entropy-vector memo is keyed by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, alphabet_sizes: Sequence[int], probs) -> None:
        # the raw fields, validated and replaced by __post_init__ (perfbench/spans.py times that hook)
        object.__setattr__(self, "alphabet_sizes", alphabet_sizes)
        object.__setattr__(self, "flat", probs)
        object.__setattr__(self, "_array", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        sizes, flat, total = _checked(self.alphabet_sizes, self.flat)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "flat", tuple([p / total for p in flat]))

    @property
    def num_vars(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def probs(self):
        """The table as a read-only ndarray of shape ``alphabet_sizes``."""
        if self._array is None:
            import numpy as np

            table = np.array(self.flat, dtype=float).reshape(self.alphabet_sizes)
            table.setflags(write=False)
            object.__setattr__(self, "_array", table)
        return self._array

    @classmethod
    def from_flat(cls, alphabet_sizes: Sequence[int], flat_probs) -> "JointDistribution":
        """Build from a row-major flat table (last variable fastest)."""
        return cls(alphabet_sizes, flat_probs)

    @classmethod
    def uniform(cls, alphabet_sizes: Sequence[int]) -> "JointDistribution":
        sizes, n = _shape(alphabet_sizes)
        return cls(sizes, [1.0 / n] * n)

    @classmethod
    def point_mass(cls, alphabet_sizes: Sequence[int], outcome: Sequence[int]) -> "JointDistribution":
        """All mass on a single outcome tuple."""
        sizes, _ = _shape(alphabet_sizes)
        outcome = tuple(_as_size(i, "outcomes") for i in _as_sequence(outcome, "outcomes", IndexOutOfRangeError))
        if len(outcome) != len(sizes) or not all(0 <= i < s for i, s in zip(outcome, sizes)):
            raise IndexOutOfRangeError(f"outcome {outcome} out of range for sizes {sizes}")
        return cls(sizes, [float(cell == outcome) for cell in _cells(*map(range, sizes))])

    @classmethod
    def from_dict(cls, payload: dict) -> "JointDistribution":
        return cls.from_flat(payload["alphabet_sizes"], payload["probs"])

    def to_dict(self) -> dict:
        return {"alphabet_sizes": list(self.alphabet_sizes), "probs": list(self.flat)}

    def allclose(self, other: "JointDistribution", atol: float = 1e-12) -> bool:
        return self.alphabet_sizes == other.alphabet_sizes and all(
            abs(p - q) <= atol for p, q in zip(self.flat, other.flat)
        )

    def __repr__(self) -> str:
        return f"JointDistribution(sizes={self.alphabet_sizes})"


def validate(d: JointDistribution) -> None:
    """Re-check an existing distribution's invariants (raises on violation).

    Constructed instances always pass; this exists as an explicit audit
    hook for values that crossed a serialization boundary.
    """
    validate_table(d.alphabet_sizes, d.flat)


def _marginal_sums(d: JointDistribution, kept: tuple[int, ...]) -> list[float]:
    """The unnormalized marginal on the sorted variables ``kept``: each cell adds its entries in table order."""
    sizes = d.alphabet_sizes
    sums = [0.0] * math.prod(sizes[i] for i in kept)
    for p, cell in zip(d.flat, _cells(*map(range, sizes))):
        index = 0
        for i in kept:
            index = index * sizes[i] + cell[i]
        sums[index] += p
    return sums


def marginalize(d: JointDistribution, keep: Iterable[int]) -> JointDistribution:
    """Sum out all variables not in ``keep``.

    The kept variables stay in their original relative order.
    """
    keep_set = {_variable(d, i) for i in _as_sequence(keep, "kept variables")}
    if not keep_set:
        raise EmptyKeepSetError("must keep at least one variable")
    kept = tuple(sorted(keep_set))
    table = d.flat if len(kept) == d.num_vars else _marginal_sums(d, kept)
    return JointDistribution(tuple(d.alphabet_sizes[i] for i in kept), table)


def product(d1: JointDistribution, d2: JointDistribution) -> JointDistribution:
    """Outer product: independent concatenation of the two variable sets."""
    sizes, _ = _shape(d1.alphabet_sizes + d2.alphabet_sizes)
    table = [p * q for p in d1.flat for q in d2.flat]
    return JointDistribution(sizes, table)


def mix(components: Sequence[JointDistribution], weights: Sequence[float]) -> JointDistribution:
    """Weighted mixture of same-shape distributions; nested weights are read row-major."""
    components, w = _as_sequence(components, "components"), _entries(weights)
    if len(components) == 0 or len(components) != len(w):
        raise ValidationError("need matching, nonempty components and weights")
    shape = components[0].alphabet_sizes
    for c in components[1:]:
        if c.alphabet_sizes != shape:
            raise ShapeMismatchError(f"component shapes differ: {shape} vs {c.alphabet_sizes}")
    w = _reals(w, "weights")
    if not all(map(math.isfinite, w)) or min(w) < 0.0 or abs(_total(w) - 1.0) > NORMALIZATION_ATOL:
        raise WeightsNotNormalizedError(f"weights must be nonnegative and sum to 1, got {w}")
    table = [0.0] * len(components[0].flat)
    for wi, c in zip(w, components):
        table = [t + wi * p for t, p in zip(table, c.flat)]
    return JointDistribution(shape, table)

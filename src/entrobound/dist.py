"""Finite joint probability distributions over 1 to 3 variables.

The dense table representation is deliberate: every alphabet in this package
is tiny, so the table is a small numpy array indexed by outcome tuples.
Variable order is positional and significant.  Tables are validated on
construction (nonnegative, normalized within 1e-9, shape consistent) and then
renormalized so downstream arithmetic sees a sum of exactly 1; the stored
array is marked read-only, making values safe to share between threads.

Serialization format (row-major, last variable fastest)::

    {"alphabet_sizes": [2, 2, 2], "probs": [p000, p001, p010, ...]}
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

NORMALIZATION_ATOL = 1e-9
MAX_VARS = 3


def _as_size(value) -> int:
    """``value`` as an int: an int, a numpy integer or an integral finite float.

    ``int()`` alone would truncate 2.9 to 2, read True as 1 and "2" as 2.
    """
    if type(value) is int or isinstance(value, np.integer):  # not bool, a subclass of int
        return int(value)
    if isinstance(value, (float, np.floating)):
        try:
            size = int(value)
        except (OverflowError, ValueError) as exc:  # infinity, NaN
            raise ValidationError(f"sizes must be finite: {exc}") from exc
        if size == value:
            return size
    raise ValidationError(f"sizes must be integers, got {value!r}")


def validate_table(alphabet_sizes: Sequence[int], probs) -> None:
    """Check the raw table invariants, raising on the first violation.

    Invariants are checked in order: all entries nonnegative, entries sum
    to 1 within ``NORMALIZATION_ATOL``, table length equals the product of
    the alphabet sizes.
    """
    sizes = tuple(_as_size(s) for s in alphabet_sizes)
    if len(sizes) == 0:
        raise ShapeMismatchError("need at least one variable")
    if len(sizes) > MAX_VARS:
        raise TooManyVariablesError(f"at most {MAX_VARS} variables supported, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ShapeMismatchError(f"alphabet sizes must be positive, got {sizes}")
    flat = np.asarray(probs, dtype=float).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValidationError("probabilities must be finite")
    if np.any(flat < 0.0):
        worst = float(flat.min())
        raise NegativeProbabilityError(f"negative probability entry {worst}")
    total = float(flat.sum())
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        raise NotNormalizedError(f"probabilities sum to {total}, expected 1 within {NORMALIZATION_ATOL}")
    if flat.size != math.prod(sizes):
        raise ShapeMismatchError(
            f"table has {flat.size} entries, expected {math.prod(sizes)} for sizes {sizes}"
        )


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A validated, normalized probability table over 1 to 3 finite variables.

    ``probs`` is stored shaped (``probs.shape == alphabet_sizes``) and
    read-only.  Use :func:`marginalize`, :func:`product` and :func:`mix`
    to derive new distributions; instances are immutable.
    """

    alphabet_sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        sizes = tuple(_as_size(s) for s in self.alphabet_sizes)
        validate_table(sizes, self.probs)
        table = np.asarray(self.probs, dtype=float).reshape(sizes)
        table = table / table.sum()
        table.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "probs", table)

    @property
    def num_vars(self) -> int:
        return len(self.alphabet_sizes)

    @classmethod
    def from_flat(cls, alphabet_sizes: Sequence[int], flat_probs) -> "JointDistribution":
        """Build from a row-major flat table (last variable fastest)."""
        return cls(tuple(alphabet_sizes), np.asarray(flat_probs, dtype=float))

    @classmethod
    def uniform(cls, alphabet_sizes: Sequence[int]) -> "JointDistribution":
        sizes = tuple(_as_size(s) for s in alphabet_sizes)
        n = math.prod(sizes)
        return cls(sizes, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, alphabet_sizes: Sequence[int], outcome: Sequence[int]) -> "JointDistribution":
        """All mass on a single outcome tuple."""
        sizes = tuple(_as_size(s) for s in alphabet_sizes)
        table = np.zeros(sizes)
        table[tuple(int(i) for i in outcome)] = 1.0
        return cls(sizes, table)

    @classmethod
    def from_dict(cls, payload: dict) -> "JointDistribution":
        return cls.from_flat(payload["alphabet_sizes"], payload["probs"])

    def to_dict(self) -> dict:
        return {
            "alphabet_sizes": list(self.alphabet_sizes),
            "probs": [float(p) for p in self.probs.ravel()],
        }

    def allclose(self, other: "JointDistribution", atol: float = 1e-12) -> bool:
        return self.alphabet_sizes == other.alphabet_sizes and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=atol)
        )

    def __repr__(self) -> str:
        return f"JointDistribution(sizes={self.alphabet_sizes})"


def validate(d: JointDistribution) -> None:
    """Re-check an existing distribution's invariants (raises on violation).

    Constructed instances always pass; this exists as an explicit audit
    hook for values that crossed a serialization boundary.
    """
    validate_table(d.alphabet_sizes, d.probs)


def marginalize(d: JointDistribution, keep: Iterable[int]) -> JointDistribution:
    """Sum out all variables not in ``keep``.

    The kept variables stay in their original relative order.
    """
    keep_set = {int(i) for i in keep}
    if not keep_set:
        raise EmptyKeepSetError("must keep at least one variable")
    for i in keep_set:
        if i < 0 or i >= d.num_vars:
            raise IndexOutOfRangeError(f"variable {i} out of range for {d.num_vars} variables")
    drop = tuple(i for i in range(d.num_vars) if i not in keep_set)
    table = d.probs.sum(axis=drop) if drop else d.probs
    sizes = tuple(d.alphabet_sizes[i] for i in sorted(keep_set))
    return JointDistribution(sizes, table)


def product(d1: JointDistribution, d2: JointDistribution) -> JointDistribution:
    """Outer product: independent concatenation of the two variable sets."""
    total = d1.num_vars + d2.num_vars
    if total > MAX_VARS:
        raise TooManyVariablesError(f"product would have {total} variables (max {MAX_VARS})")
    table = np.multiply.outer(d1.probs, d2.probs)
    return JointDistribution(d1.alphabet_sizes + d2.alphabet_sizes, table)


def mix(components: Sequence[JointDistribution], weights: Sequence[float]) -> JointDistribution:
    """Weighted mixture of same-shape distributions."""
    if len(components) == 0 or len(components) != len(weights):
        raise ValidationError("need matching, nonempty components and weights")
    shape = components[0].alphabet_sizes
    for c in components[1:]:
        if c.alphabet_sizes != shape:
            raise ShapeMismatchError(f"component shapes differ: {shape} vs {c.alphabet_sizes}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > NORMALIZATION_ATOL:
        raise WeightsNotNormalizedError(f"weights must be nonnegative and sum to 1, got {w.tolist()}")
    table = np.zeros(shape)
    for wi, c in zip(w, components):
        table = table + wi * c.probs
    return JointDistribution(shape, table)

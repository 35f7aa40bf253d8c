"""Tripartite distributions with certified Markov structure A -> B -> C.

Markovianity is treated purely as the factorization property
p(a,b,c) = p(a) t1(a,b) t2(b,c), equivalently I(A;C|B) = 0.  Building the
joint from a :class:`MarkovChainSpec` guarantees the property by
construction; :func:`is_markov` provides the independent after-the-fact
check.  No temporal ordering is modeled.

Spec serialization::

    {"initial": [...], "t1": [[...], ...], "t2": [[...], ...]}
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointDistribution
from .entropy import EntropyValue, _clamp, _vector
from .errors import (
    IndexOutOfRangeError,
    InvalidPermutationError,
    InvalidSpecError,
    RepeatedIndexError,
)

CMI_ATOL = 1e-9

ROW_SUM_ATOL = 1e-9

# given Z -> the vector keys of H(X,Z), H(Y,Z) and H(Z); + commutes, so the order of X and Y is moot
_CMI_KEYS = (("H(A,B)", "H(A,C)", "H(A)"), ("H(A,B)", "H(B,C)", "H(B)"), ("H(A,C)", "H(B,C)", "H(C)"))


def _check_stochastic(matrix, rows: int, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InvalidSpecError(f"{name} must be a matrix, got ndim={m.ndim}")
    if m.shape[0] != rows:
        raise InvalidSpecError(f"{name} must have {rows} rows, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise InvalidSpecError(f"{name} contains non-finite entries")
    if np.any(m < 0.0):
        raise InvalidSpecError(f"{name} contains negative entries")
    row_sums = m.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_ATOL):
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise InvalidSpecError(f"{name} rows must sum to 1 within {ROW_SUM_ATOL} (worst deviation {worst})")
    m = m / row_sums[:, None]
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Initial distribution plus two row-stochastic transition matrices."""

    initial: JointDistribution
    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self) -> None:
        if self.initial.num_vars != 1:
            raise InvalidSpecError(f"initial must be single-variable, got {self.initial.num_vars}")
        t1 = _check_stochastic(self.t1, self.initial.alphabet_sizes[0], "t1")
        t2 = _check_stochastic(self.t2, t1.shape[1], "t2")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)

    @classmethod
    def from_dict(cls, payload: dict) -> "MarkovChainSpec":
        initial = np.asarray(payload["initial"], dtype=float)
        return cls(
            initial=JointDistribution.from_flat((initial.size,), initial),
            t1=payload["t1"],
            t2=payload["t2"],
        )

    def to_dict(self) -> dict:
        return {
            "initial": [float(p) for p in self.initial.probs],
            "t1": [[float(x) for x in row] for row in self.t1],
            "t2": [[float(x) for x in row] for row in self.t2],
        }


def build_tripartite(spec: MarkovChainSpec) -> JointDistribution:
    """p(a,b,c) = initial(a) * t1(a,b) * t2(b,c)."""
    table = np.einsum("a,ab,bc->abc", spec.initial.probs, spec.t1, spec.t2)
    sizes = (spec.initial.alphabet_sizes[0], spec.t1.shape[1], spec.t2.shape[1])
    return JointDistribution(sizes, table)


def conditional_mutual_information(d: JointDistribution, x: int, y: int, given: int) -> EntropyValue:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z), in bits."""
    x, y, given = int(x), int(y), int(given)
    for i in (x, y, given):
        if i < 0 or i >= d.num_vars:
            raise IndexOutOfRangeError(f"variable {i} out of range for {d.num_vars} variables")
    if len({x, y, given}) != 3:
        raise RepeatedIndexError(f"indices must be distinct, got ({x}, {y}, {given})")
    h = _vector(d)
    xz, yz, z = _CMI_KEYS[given]
    cmi = h[xz] + h[yz] - h[z] - h["H(A,B,C)"]
    return EntropyValue(_clamp(cmi, "conditional mutual information"), 2.0)


def is_markov(d: JointDistribution, order: tuple[int, int, int] = (0, 1, 2)) -> bool:
    """True iff the chain order[0] -> order[1] -> order[2] is Markov.

    Tested as I(first; last | middle) <= 1e-9; symmetric under reversal of
    the order, as Markov chains are.
    """
    if tuple(sorted(order)) != (0, 1, 2):
        raise InvalidPermutationError(f"order must be a permutation of (0, 1, 2), got {order}")
    first, middle, last = order
    return conditional_mutual_information(d, first, last, middle).value <= CMI_ATOL

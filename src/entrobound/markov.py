"""Tripartite distributions with certified Markov structure A -> B -> C.

Markovianity is treated purely as the factorization property
p(a,b,c) = p(a) t1(a,b) t2(b,c), equivalently I(A;C|B) = 0.  Building the
joint from a :class:`MarkovChainSpec` guarantees the property by
construction; :func:`is_markov` provides the independent after-the-fact
check, reading I(first; last | middle) from the memoized entropy vector
with no per-call marginal or :class:`EntropyValue`.  No temporal ordering
is modeled.  Like :mod:`entrobound.dist`,
this module is stdlib-only: a spec's matrices are tuples of row tuples.

Spec serialization::

    {"initial": [...], "t1": [[...], ...], "t2": [[...], ...]}
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .dist import JointDistribution, _entries, _reals, _shape, _total, _variable
from .entropy import EntropyValue, _clamp, _vector
from .errors import (
    InvalidPermutationError,
    InvalidSpecError,
    RepeatedIndexError,
)
from .value import _as_payload, _as_sequence

CMI_ATOL = 1e-9

ROW_SUM_ATOL = 1e-9

# given Z -> the vector keys of H(X,Z), H(Y,Z) and H(Z); + commutes, so the order of X and Y is moot
_CMI_KEYS = (("H(A,B)", "H(A,C)", "H(A)"), ("H(A,B)", "H(B,C)", "H(B)"), ("H(A,C)", "H(B,C)", "H(C)"))
# chain order (first, middle, last) -> the _CMI_KEYS of I(first; last | middle)
_ORDER_KEYS = {order: _CMI_KEYS[order[1]] for order in permutations(range(3))}


def _check_stochastic(matrix, rows: int, name: str) -> tuple[tuple[float, ...], ...]:
    m = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    if not isinstance(m, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in m):
        raise InvalidSpecError(f"{name} must be a matrix, a list of rows")
    if len(m) != rows:
        raise InvalidSpecError(f"{name} must have {rows} rows, got {len(m)}")
    if len({len(r) for r in m}) > 1:
        raise InvalidSpecError(f"{name} is ragged: its rows must all have one length")
    m = [_reals(r, f"{name} entries", InvalidSpecError) for r in m]
    if not all(math.isfinite(x) for r in m for x in r):
        raise InvalidSpecError(f"{name} contains non-finite entries")
    if any(x < 0.0 for r in m for x in r):
        raise InvalidSpecError(f"{name} contains negative entries")
    row_sums = [_total(r) for r in m]
    worst = max(abs(s - 1.0) for s in row_sums)
    if worst > ROW_SUM_ATOL:
        raise InvalidSpecError(f"{name} rows must sum to 1 within {ROW_SUM_ATOL} (worst deviation {worst})")
    return tuple(tuple([x / s for x in r]) for r, s in zip(m, row_sums))


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Initial distribution plus two row-stochastic transition matrices."""

    initial: JointDistribution
    t1: tuple[tuple[float, ...], ...]
    t2: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.initial.num_vars != 1:
            raise InvalidSpecError(f"initial must be single-variable, got {self.initial.num_vars}")
        t1 = _check_stochastic(self.t1, self.initial.alphabet_sizes[0], "t1")
        t2 = _check_stochastic(self.t2, len(t1[0]), "t2")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)

    @classmethod
    def from_dict(cls, payload: dict) -> "MarkovChainSpec":
        initial, t1, t2 = _as_payload(payload, ("initial", "t1", "t2"), "Markov spec", InvalidSpecError)
        initial = _entries(initial)
        return cls(initial=JointDistribution.from_flat((len(initial),), initial), t1=t1, t2=t2)

    def to_dict(self) -> dict:
        return {
            "initial": list(self.initial.flat),
            "t1": [list(row) for row in self.t1],
            "t2": [list(row) for row in self.t2],
        }


def build_tripartite(spec: MarkovChainSpec) -> JointDistribution:
    """p(a,b,c) = initial(a) * t1(a,b) * t2(b,c)."""
    t2 = spec.t2
    sizes, _ = _shape((len(spec.t1), len(t2), len(t2[0])))  # the cap, before the table is built
    table = [pa * x * y for pa, row in zip(spec.initial.flat, spec.t1) for x, t2_row in zip(row, t2) for y in t2_row]
    return JointDistribution(sizes, table)


def _cmi(h, keys: tuple[str, str, str]) -> float:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z) in bits from the entropy vector ``h``, Z's _CMI_KEYS ``keys``."""
    xz, yz, z = keys
    return _clamp(h[xz] + h[yz] - h[z] - h["H(A,B,C)"], "conditional mutual information")


def conditional_mutual_information(d: JointDistribution, x: int, y: int, given: int) -> EntropyValue:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z), in bits."""
    x, y, given = _variable(d, x), _variable(d, y), _variable(d, given)
    if len({x, y, given}) != 3:
        raise RepeatedIndexError(f"indices must be distinct, got ({x}, {y}, {given})")
    return EntropyValue(_cmi(_vector(d), _CMI_KEYS[given]), 2.0)


def is_markov(d: JointDistribution, order: tuple[int, int, int] = (0, 1, 2)) -> bool:
    """True iff the chain order[0] -> order[1] -> order[2] is Markov.

    Tested as I(first; last | middle) <= 1e-9, read from the entropy vector
    as :func:`conditional_mutual_information` reads it; symmetric under
    reversal of the order, as Markov chains are.
    """
    order = _as_sequence(order, "orders", InvalidPermutationError)
    try:
        keys = _ORDER_KEYS.get(order)
    except TypeError:  # an unhashable entry, such as a list, is no variable index
        keys = None
    if keys is None:
        raise InvalidPermutationError(f"order must be a permutation of (0, 1, 2), got {order}")
    first, middle, last = order
    if type(first) is not int or type(middle) is not int or type(last) is not int or d.num_vars != 3:
        for i in (first, last, middle):  # the integer rule and the range, in conditional_mutual_information's order
            _variable(d, i)
    return _cmi(_vector(d), keys) <= CMI_ATOL

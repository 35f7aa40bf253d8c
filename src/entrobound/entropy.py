"""Classical entropy functionals over joint distributions.

All quantities default to bits (base 2); the Boltzmann form defaults to the
natural log, matching its usual statistical-mechanics convention, and
:func:`convert_base` moves between bases losslessly; both live, with
:class:`EntropyValue`, in the numpy-free :mod:`entrobound.value`.  The
0*log(0) = 0 convention is implemented by skipping zero-probability terms
exactly, never by epsilon-shifting, so inequality margins stay uncorrupted.
Results within 1e-9 below zero are clamped to 0; anything more negative
raises :class:`~entrobound.errors.InternalError` because it indicates a bug
rather than physics.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .dist import JointDistribution, marginalize, mix
from .errors import (
    IndexOutOfRangeError,
    InternalError,
    MixtureMismatchError,
    SameVariableError,
    ShapeMismatchError,
    WrongArityError,
)
from .value import EntropyValue, _check_base, boltzmann_entropy, convert_base  # noqa: F401 - re-exported

CLAMP_ATOL = 1e-9
MIXTURE_ATOL = 1e-9


def _clamp(value: float, what: str) -> float:
    """Zero out rounding-level negatives (and -0.0); refuse real negatives."""
    if value > 0.0:
        return value
    if value >= -CLAMP_ATOL:
        return 0.0
    raise InternalError(f"{what} = {value}, negative beyond tolerance {CLAMP_ATOL}")


def _plogp_bits(flat: np.ndarray) -> float:
    """-sum p log2 p with zero terms skipped."""
    p = flat[flat > 0.0]
    return float(-(p * np.log2(p)).sum())


def shannon_entropy(d: JointDistribution, base: float = 2.0) -> EntropyValue:
    """Shannon entropy of the whole table.

    A multivariable distribution is treated as one flattened variable, so
    this single functional also computes joint entropies.
    """
    base = _check_base(base)
    bits = _plogp_bits(d.probs.ravel())
    return EntropyValue(_clamp(bits / math.log2(base), "entropy"), base)


def relative_entropy(d: JointDistribution, ref: JointDistribution, base: float = 2.0) -> EntropyValue:
    """Relative entropy (KL divergence) of ``d`` from ``ref``.

    Returns an infinite EntropyValue when the support of ``d`` escapes the
    support of ``ref`` (the p*log(p/0) = +inf convention); callers must
    branch on ``is_infinite`` explicitly.
    """
    base = _check_base(base)
    if d.alphabet_sizes != ref.alphabet_sizes:
        raise ShapeMismatchError(f"shapes differ: {d.alphabet_sizes} vs {ref.alphabet_sizes}")
    p = d.probs.ravel()
    q = ref.probs.ravel()
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return EntropyValue(math.inf, base)
    ps = p[support]
    qs = q[support]
    bits = float((ps * np.log2(ps / qs)).sum())
    return EntropyValue(_clamp(bits / math.log2(base), "relative entropy"), base)


def _pair_indices(d: JointDistribution, i: int, j: int) -> tuple[int, int]:
    for k in (i, j):
        if k < 0 or k >= d.num_vars:
            raise IndexOutOfRangeError(f"variable {k} out of range for {d.num_vars} variables")
    if i == j:
        raise SameVariableError(f"need two distinct variables, got {i} twice")
    return i, j


def mutual_entropy(d: JointDistribution, var_x: int, var_y: int) -> EntropyValue:
    """Mutual information H(X:Y) = H(X) + H(Y) - H(X,Y), in bits.

    On a tripartite distribution the remaining variable is marginalized out
    first.  The result is symmetric in its two arguments by construction.
    """
    var_x, var_y = _pair_indices(d, int(var_x), int(var_y))
    pair = marginalize(d, {var_x, var_y})
    hx = _plogp_bits(pair.probs.sum(axis=1))
    hy = _plogp_bits(pair.probs.sum(axis=0))
    hxy = _plogp_bits(pair.probs.ravel())
    return EntropyValue(_clamp(hx + hy - hxy, "mutual entropy"), 2.0)


# The vector's keys in order; the first six subsets are reached by summing away these axes.
_LABELS = ("H(A)", "H(B)", "H(C)", "H(A,B)", "H(A,C)", "H(B,C)", "H(A,B,C)", "H(A:B)", "H(A:C)", "H(B:C)")
_DROPS = ((1, 2), (0, 2), (0, 1), (2,), (1,), (0,))


def entropy_vector(d: JointDistribution) -> dict[str, float]:
    """Every unconditional entropy of a tripartite distribution, in bits.

    Keys are report labels: the subset entropies ``"H(A)"`` ... ``"H(A,B,C)"``
    and the pair mutual informations ``"H(A:B)"``, ``"H(A:C)"``, ``"H(B:C)"``.
    Every classical check is a linear form in these entries.  Each value is
    bit-identical to its one-quantity path: a marginal is renormalized as
    :func:`~entrobound.dist.marginalize` does, ``H(A,B,C)`` is
    :func:`shannon_entropy` of the table itself, and each pair MI comes from
    its own pair table's marginals, as in :func:`mutual_entropy`.

    The vector of the most recent table is memoized, so the checks of one
    battery share one computation; each call returns a fresh dict.
    """
    return dict(_vector(d))


# One slot: keyed by identity (JointDistribution is eq=False), and the strong
# reference it holds to that one table keeps its id from being reused.  The
# package's own checks read the memo itself, so it is handed out read-only.
@lru_cache(maxsize=1)
def _vector(d: JointDistribution) -> MappingProxyType:
    if d.num_vars != 3:
        raise WrongArityError(f"need a tripartite distribution, got {d.num_vars} variables")
    # Every sum stays its own np.add.reduce, as on the one-quantity path: the
    # marginals, their totals, the pair sub-marginals and each entropy's terms.
    # Only the elementwise p log p work runs once, over all 13 arrays.
    arrays = []
    for drop in _DROPS:
        m = np.add.reduce(d.probs, axis=drop)
        arrays.append(m / np.add.reduce(m, axis=None))
    arrays += [d.probs] + [np.add.reduce(m, axis=axis) for m in arrays[3:] for axis in (1, 0)]
    flat = np.concatenate(arrays, axis=None)
    positive = flat > 0.0
    p = flat[positive]
    plogp = p * np.log2(p)
    counts = np.cumsum(positive).tolist()
    ends = [counts[stop - 1] for stop in accumulate(a.size for a in arrays)]
    bits = [-float(np.add.reduce(plogp[i:j])) for i, j in zip([0] + ends, ends)]
    h = {label: _clamp(b, "entropy") for label, b in zip(_LABELS[:7], bits)}
    for k, label in enumerate(_LABELS[7:]):
        h[label] = _clamp(bits[7 + 2 * k] + bits[8 + 2 * k] - bits[3 + k], "mutual entropy")
    return MappingProxyType(h)


def conditional_entropy(d: JointDistribution, target: int, given: int) -> EntropyValue:
    """H(target | given) = H(target, given) - H(given), in bits.

    Diagnostic only: classically nonnegative, and none of the inequality
    checks depend on it.
    """
    target, given = _pair_indices(d, int(target), int(given))
    pair = marginalize(d, {target, given})
    given_axis = 0 if given < target else 1
    h_pair = _plogp_bits(pair.probs.ravel())
    h_given = _plogp_bits(pair.probs.sum(axis=1 - given_axis))
    return EntropyValue(_clamp(h_pair - h_given, "conditional entropy"), 2.0)


def mixing_entropy(
    components: Sequence[JointDistribution],
    weights: Sequence[float],
    after: JointDistribution,
) -> EntropyValue:
    """Entropy gained by mixing: H(after) - sum_i w_i H(component_i), in bits.

    ``after`` must actually be the weighted mixture of the components
    (checked entrywise within 1e-9); the result is then guaranteed
    nonnegative by concavity, and is zero when the components are identical.
    """
    mixture = mix(components, weights)  # validates weights and shapes
    if after.alphabet_sizes != mixture.alphabet_sizes:
        raise ShapeMismatchError(f"shapes differ: {after.alphabet_sizes} vs {mixture.alphabet_sizes}")
    deviation = float(np.max(np.abs(after.probs - mixture.probs)))
    if deviation > MIXTURE_ATOL:
        raise MixtureMismatchError(
            f"claimed mixture deviates from the weighted mixture by {deviation}"
        )
    h_after = _plogp_bits(after.probs.ravel())
    h_parts = sum(w * _plogp_bits(c.probs.ravel()) for w, c in zip(weights, components))
    return EntropyValue(_clamp(h_after - h_parts, "mixing entropy"), 2.0)

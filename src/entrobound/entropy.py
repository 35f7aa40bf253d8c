"""Classical entropy functionals over joint distributions.

All quantities default to bits (base 2); the Boltzmann form defaults to the
natural log, matching its usual statistical-mechanics convention, and
:func:`convert_base` moves between bases losslessly; both live, with
:class:`EntropyValue`, in :mod:`entrobound.value`.  Like
:mod:`entrobound.dist`, this module is stdlib-only and follows its two
summation rules, so a result does not depend on the Python version.  The
0*log(0) = 0 convention is implemented by skipping zero-probability terms
exactly, never by epsilon-shifting, so inequality margins stay
uncorrupted.  Results within 1e-9 below zero are clamped to 0; anything
more negative raises :class:`~entrobound.errors.InternalError` because it
indicates a bug rather than physics.
"""
from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from .dist import JointDistribution, _total, _variable, marginalize, mix
from .errors import (
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


def _plogp_bits(flat, total: float = 1.0) -> float:
    """-sum p log2 p over p = x / total for x in ``flat``, zero terms skipped, added left to right.

    x / 1.0 is x exactly; a marginal's fsum total renormalizes it as the
    constructor does, without building the renormalized list.
    """
    bits = 0.0
    for x in flat:
        p = x / total
        if p > 0.0:
            bits += p * math.log2(p)
    return -bits


def _pair_bits(sums, rows: int, cols: int) -> tuple[float, float]:
    """H(X,Y) and H(X) + H(Y) of a row-major pair table, as :func:`mutual_entropy` computes them.

    ``sums`` is renormalized as the constructor does, and the row and column
    sums of the result are added in table order, as ``_row_col_sums`` adds them.
    """
    total = _total(sums)
    row_sums, col_sums = [0.0] * rows, [0.0] * cols
    bits = 0.0
    k = 0
    for i in range(rows):
        row = 0.0
        for j in range(cols):
            p = sums[k] / total
            k += 1
            row += p
            col_sums[j] += p
            if p > 0.0:
                bits += p * math.log2(p)
        row_sums[i] = row
    return -bits, _plogp_bits(row_sums) + _plogp_bits(col_sums)


def _row_col_sums(pair, rows: int, cols: int) -> tuple[list[float], list[float]]:
    """Row and column sums of a row-major ``rows`` x ``cols`` table, each added in table order."""
    row_sums, col_sums = [0.0] * rows, [0.0] * cols
    k = 0
    for i in range(rows):
        for j in range(cols):
            p = pair[k]
            k += 1
            row_sums[i] += p
            col_sums[j] += p
    return row_sums, col_sums


def shannon_entropy(d: JointDistribution, base: float = 2.0) -> EntropyValue:
    """Shannon entropy of the whole table.

    A multivariable distribution is treated as one flattened variable, so
    this single functional also computes joint entropies.
    """
    base = _check_base(base)
    bits = _plogp_bits(d.flat)
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
    bits = 0.0
    for p, q in zip(d.flat, ref.flat):
        if p > 0.0:
            if q == 0.0:
                return EntropyValue(math.inf, base)
            bits += p * math.log2(p / q)
    return EntropyValue(_clamp(bits / math.log2(base), "relative entropy"), base)


def _pair_indices(d: JointDistribution, i, j) -> tuple[int, int]:
    i, j = _variable(d, i), _variable(d, j)
    if i == j:
        raise SameVariableError(f"need two distinct variables, got {i} twice")
    return i, j


def mutual_entropy(d: JointDistribution, var_x: int, var_y: int) -> EntropyValue:
    """Mutual information H(X:Y) = H(X) + H(Y) - H(X,Y), in bits.

    On a tripartite distribution the remaining variable is marginalized out
    first.  The result is symmetric in its two arguments by construction.
    """
    var_x, var_y = _pair_indices(d, var_x, var_y)
    pair = marginalize(d, {var_x, var_y})
    rows, cols = _row_col_sums(pair.flat, *pair.alphabet_sizes)
    return EntropyValue(_clamp(_plogp_bits(rows) + _plogp_bits(cols) - _plogp_bits(pair.flat), "mutual entropy"), 2.0)


# The vector's keys in order.
_LABELS = ("H(A)", "H(B)", "H(C)", "H(A,B)", "H(A,C)", "H(B,C)", "H(A,B,C)", "H(A:B)", "H(A:C)", "H(B:C)")


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


# One slot: keyed by identity (JointDistribution compares by identity), and the
# strong reference it holds to that one table keeps its id from being reused.
# The package's own checks read the memo itself, so it is handed out read-only.
@lru_cache(maxsize=1)
def _vector(d: JointDistribution) -> MappingProxyType:
    if d.num_vars != 3:
        raise WrongArityError(f"need a tripartite distribution, got {d.num_vars} variables")
    na, nb, nc = d.alphabet_sizes
    flat = d.flat
    # One pass: each marginal cell adds its entries in table order, as
    # _marginal_sums does; each marginal's entropy then renormalizes it as
    # the constructor does.
    a_sums, b_sums, c_sums = [0.0] * na, [0.0] * nb, [0.0] * nc
    ab_sums, ac_sums, bc_sums = [0.0] * (na * nb), [0.0] * (na * nc), [0.0] * (nb * nc)
    k = 0
    for a in range(na):
        ac = a * nc
        for b in range(nb):
            ab, bc = a * nb + b, b * nc
            for c in range(nc):
                p = flat[k]
                k += 1
                a_sums[a] += p
                b_sums[b] += p
                c_sums[c] += p
                ab_sums[ab] += p
                ac_sums[ac + c] += p
                bc_sums[bc + c] += p
    bits = [_plogp_bits(m, _total(m)) for m in (a_sums, b_sums, c_sums)]
    mis = []
    for sums, rows, cols in ((ab_sums, na, nb), (ac_sums, na, nc), (bc_sums, nb, nc)):
        pair_bits, marginal_bits = _pair_bits(sums, rows, cols)
        bits.append(pair_bits)
        mis.append(marginal_bits - pair_bits)
    bits.append(_plogp_bits(flat))
    # the clamp rule, called only for an entry that is not positive
    h = {label: b if b > 0.0 else _clamp(b, "entropy") for label, b in zip(_LABELS, bits)}
    for label, mi in zip(_LABELS[7:], mis):
        h[label] = mi if mi > 0.0 else _clamp(mi, "mutual entropy")
    return MappingProxyType(h)


def conditional_entropy(d: JointDistribution, target: int, given: int) -> EntropyValue:
    """H(target | given) = H(target, given) - H(given), in bits.

    Diagnostic only: classically nonnegative, and none of the inequality
    checks depend on it.
    """
    target, given = _pair_indices(d, target, given)
    pair = marginalize(d, {target, given})
    given_axis = 0 if given < target else 1
    h_pair = _plogp_bits(pair.flat)
    h_given = _plogp_bits(_row_col_sums(pair.flat, *pair.alphabet_sizes)[given_axis])
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
    deviation = max(abs(a - m) for a, m in zip(after.flat, mixture.flat))
    if deviation > MIXTURE_ATOL:
        raise MixtureMismatchError(
            f"claimed mixture deviates from the weighted mixture by {deviation}"
        )
    h_after = _plogp_bits(after.flat)
    h_parts = 0.0
    for w, c in zip(weights, components):
        h_parts += float(w) * _plogp_bits(c.flat)
    return EntropyValue(_clamp(h_after - h_parts, "mixing entropy"), 2.0)

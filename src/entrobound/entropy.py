"""Classical entropy functionals over joint distributions.

All quantities default to bits (base 2); the Boltzmann form defaults to the
natural log, matching its usual statistical-mechanics convention, and
:func:`convert_base` moves between bases losslessly; both live, with
:class:`EntropyValue`, in :mod:`entrobound.value`.  Like
:mod:`entrobound.dist`, this module is stdlib-only and follows its two
summation rules, so a result does not depend on the Python version.  One
reduction of a pair table, ``_pair_bits``, gives H(X,Y), H(X) and H(Y) to
:func:`mutual_entropy`, :func:`conditional_entropy` and the pair entries of
:func:`entropy_vector` alike; a ``(2, 2, 2)`` table's vector takes it
unrolled, ``_pair2``, which returns the same floats.  The 0*log(0) = 0
convention is implemented by skipping zero-probability terms exactly, never
by epsilon-shifting, so inequality margins stay uncorrupted.  Results
within 1e-9 below zero are clamped to 0; anything more negative raises
:class:`~entrobound.errors.InternalError` because it indicates a bug rather
than physics.
"""
from __future__ import annotations

import math
from functools import lru_cache
from math import log2
from types import MappingProxyType
from typing import Sequence

from .dist import JointDistribution, _entries, _marginal_sums, _reals, _total, _variable, mix
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
            bits += p * log2(p)
    return -bits


def _pair_bits(sums, rows: int, cols: int) -> tuple[float, float, float]:
    """H(X,Y), H(X) and H(Y) of a row-major ``rows`` x ``cols`` pair table, in bits.

    The one reduction of a pair table: ``sums`` is renormalized as the
    constructor does, and the row and column sums of the result are added in
    table order.
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
                bits += p * log2(p)
        row_sums[i] = row
    return -bits, _plogp_bits(row_sums), _plogp_bits(col_sums)


def shannon_entropy(d: JointDistribution, base: float = 2.0) -> EntropyValue:
    """Shannon entropy of the whole table.

    A multivariable distribution is treated as one flattened variable, so
    this single functional also computes joint entropies.
    """
    base = _check_base(base)
    bits = _plogp_bits(d.flat)
    return EntropyValue(_clamp(bits / log2(base), "entropy"), base)


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
            bits += p * log2(p / q)
    return EntropyValue(_clamp(bits / log2(base), "relative entropy"), base)


def _pair(d: JointDistribution, i, j) -> tuple[float, float, float]:
    """H(X,Y), H(X) and H(Y) in bits for variables ``i`` and ``j`` of ``d``, in argument order."""
    i, j = _variable(d, i), _variable(d, j)
    if i == j:
        raise SameVariableError(f"need two distinct variables, got {i} twice")
    kept = (i, j) if i < j else (j, i)
    sums = d.flat if d.num_vars == 2 else _marginal_sums(d, kept)
    h_pair, h_rows, h_cols = _pair_bits(sums, *(d.alphabet_sizes[k] for k in kept))
    return (h_pair, h_rows, h_cols) if i < j else (h_pair, h_cols, h_rows)


def mutual_entropy(d: JointDistribution, var_x: int, var_y: int) -> EntropyValue:
    """Mutual information H(X:Y) = H(X) + H(Y) - H(X,Y), in bits.

    On a tripartite distribution the remaining variable is marginalized out
    first.  The result is symmetric in its two arguments by construction.
    """
    h_pair, h_x, h_y = _pair(d, var_x, var_y)
    return EntropyValue(_clamp(h_x + h_y - h_pair, "mutual entropy"), 2.0)


# The vector's keys in order, and what the clamp rule calls each entry.
_LABELS = ("H(A)", "H(B)", "H(C)", "H(A,B)", "H(A,C)", "H(B,C)", "H(A,B,C)", "H(A:B)", "H(A:C)", "H(B:C)")
_CLAMPED = ("entropy",) * 7 + ("mutual entropy",) * 3


def entropy_vector(d: JointDistribution) -> dict[str, float]:
    """Every unconditional entropy of a tripartite distribution, in bits.

    Keys are report labels: the subset entropies ``"H(A)"`` ... ``"H(A,B,C)"``
    and the pair mutual informations ``"H(A:B)"``, ``"H(A:C)"``, ``"H(B:C)"``.
    Every classical check is a linear form in these entries.  Each value is
    bit-identical to its one-quantity path: a marginal is renormalized as
    :func:`~entrobound.dist.marginalize` does, ``H(A,B,C)`` is
    :func:`shannon_entropy` of the table itself, and each pair table goes
    through ``_pair_bits``, the same code :func:`mutual_entropy` calls (a
    ``(2, 2, 2)`` table through its unrolled form, with the same floats).

    The vector of the most recent table is memoized, so the checks of one
    battery share one computation; each call returns a fresh dict.
    """
    return dict(_vector(d))


def _loop_values(flat, na: int, nb: int, nc: int) -> list[float]:
    """The vector's seven entropies and three pair MIs of a table, in ``_LABELS`` order, before the clamp rule."""
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
        h_pair, h_x, h_y = _pair_bits(sums, rows, cols)
        bits.append(h_pair)
        mis.append(h_x + h_y - h_pair)
    bits.append(_plogp_bits(flat))
    return bits + mis


def _plogp2(p: float, q: float) -> float:
    """``_plogp_bits((p, q))`` unrolled."""
    bits = 0.0
    if p > 0.0:
        bits += p * log2(p)
    if q > 0.0:
        bits += q * log2(q)
    return -bits


def _pair2(s0: float, s1: float, s2: float, s3: float) -> tuple[float, float, float]:
    """``_pair_bits((s0, s1, s2, s3), 2, 2)`` unrolled."""
    total = math.fsum((s0, s1, s2, s3))
    p0, p1, p2, p3 = s0 / total, s1 / total, s2 / total, s3 / total
    bits = 0.0
    if p0 > 0.0:
        bits += p0 * log2(p0)
    if p1 > 0.0:
        bits += p1 * log2(p1)
    if p2 > 0.0:
        bits += p2 * log2(p2)
    if p3 > 0.0:
        bits += p3 * log2(p3)
    return -bits, _plogp2(p0 + p1, p2 + p3), _plogp2(p0 + p2, p1 + p3)


def _binary_values(flat) -> list[float]:
    """``_loop_values(flat, 2, 2, 2)`` unrolled: the same sums in the same order, so the same floats.

    A one-variable marginal's fsum total is the IEEE sum of its two cells.
    """
    f0, f1, f2, f3, f4, f5, f6, f7 = flat
    ab0, ab1, ab2, ab3 = f0 + f1, f2 + f3, f4 + f5, f6 + f7
    ac0, ac1 = f0 + f2, f1 + f3
    a0, a1 = (ab0 + f2) + f3, (ab2 + f6) + f7
    b0, b1 = (ab0 + f4) + f5, (ab1 + f6) + f7
    c0, c1 = (ac0 + f4) + f6, (ac1 + f5) + f7
    ta, tb, tc = a0 + a1, b0 + b1, c0 + c1
    h_ab, h_a, h_b = _pair2(ab0, ab1, ab2, ab3)
    h_ac, h_a2, h_c = _pair2(ac0, ac1, f4 + f6, f5 + f7)
    h_bc, h_b2, h_c2 = _pair2(f0 + f4, f1 + f5, f2 + f6, f3 + f7)
    return [_plogp2(a0 / ta, a1 / ta), _plogp2(b0 / tb, b1 / tb), _plogp2(c0 / tc, c1 / tc),
            h_ab, h_ac, h_bc, _plogp_bits(flat), h_a + h_b - h_ab, h_a2 + h_c - h_ac, h_b2 + h_c2 - h_bc]


# One slot: keyed by identity (JointDistribution compares by identity), and the
# strong reference it holds to that one table keeps its id from being reused.
# The package's own checks read the memo itself, so it is handed out read-only.
@lru_cache(maxsize=1)
def _vector(d: JointDistribution) -> MappingProxyType:
    if d.num_vars != 3:
        raise WrongArityError(f"need a tripartite distribution, got {d.num_vars} variables")
    sizes = d.alphabet_sizes
    values = _binary_values(d.flat) if sizes == (2, 2, 2) else _loop_values(d.flat, *sizes)
    if not all(map((0.0).__lt__, values)):  # the clamp rule, called only when an entry is not positive
        values = map(_clamp, values, _CLAMPED)
    return MappingProxyType(dict(zip(_LABELS, values)))


def conditional_entropy(d: JointDistribution, target: int, given: int) -> EntropyValue:
    """H(target | given) = H(target, given) - H(given), in bits.

    Diagnostic only: classically nonnegative, and none of the inequality
    checks depend on it.
    """
    h_pair, _, h_given = _pair(d, target, given)
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
    for w, c in zip(_reals(_entries(weights), "weights"), components):  # the floats mix read
        h_parts += w * _plogp_bits(c.flat)
    return EntropyValue(_clamp(h_after - h_parts, "mixing entropy"), 2.0)

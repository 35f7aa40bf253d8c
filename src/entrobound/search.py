"""Numerical search for Cerf-Adami violations over measurement settings.

The search space is three angles in the x-z plane on [0, pi); for the
singlet family that planar restriction is lossless.  The LHS depends only on
the three pairwise mutual informations, so the grid evaluator computes the
ordered resolution^2 pair-MI table in one kernel call and finds the max of
the resolution^3 LHS cube by branch and bound over its (second angle, third
angle) columns.  A shift bound, tight for tables that depend only on the
difference or only on the sum of the angles, fills one table of bounds on
the columns (j, k), and the maximum of the column it rates highest is the
lower bound.  Where that table leaves too many columns to sweep,
~sqrt(resolution) exact pivot columns tighten it in place, by the triangle
inequality through the pivots on either side of j and of k.  Only
columns that could hold the max are swept over the first angle.  That
reduction is exact, so the max and winner are bit-identical to a full
evaluation of the cube, and memory stays O(resolution^2).  The trace holds
one entry per grid cell in lexicographic order, each computed when it is
read, then one per refine probe.
Refinement is a derivative-free coordinate search (the LHS has
absolute-value kinks).

Everything here is deterministic: identical inputs give identical results,
including trace order.  Winners do not depend on last-bit rounding: the grid
winner is the lexicographically first cell whose LHS is within WINNER_ATOL
(1e-12) of the grid maximum, and refinement accepts a probe only when it
beats the current value by more than WINNER_ATOL.  Cells that tie
mathematically differ by ~1e-15 in float, so another kernel, numpy version
or SIMD path picks the same settings.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityViolatedError, ResolutionTooLargeError, ResolutionTooSmallError, ValidationError
from .inequalities import SATISFIED_ATOL
from .quantum import _BLOCK_CELLS, DensityMatrix, MeasurementSettings, _correlations, _table, _three_pairs, werner_state
from .value import GRID_MAX_RESOLUTION, GRID_MIN_RESOLUTION  # noqa: F401 - re-exported
from .value import _as_real, _as_size, _canonical_angle, _check_resolution, _check_tol

WERNER_MIN_RESOLUTION = 32
WERNER_MONOTONE_ATOL = 1e-6
# Grid and refinement winners ignore LHS differences up to this size.
WINNER_ATOL = 1e-12


class Trace(Sequence):
    """Read-only sequence of ``((theta_A, theta_B, theta_C), lhs)`` evaluations: grid cells, then refine probes.

    The grid's ``len(angles)^3`` cells come first, in lexicographic order, each
    computed on access from the pair-MI table ``mi``: cell (i, j, k) is
    |mi[i, j] - mi[i, k]| + mi[j, k], in the same float arithmetic as the
    winner search, so the grid maximum is the largest of these values, bit for
    bit.  The tuple ``probes`` follows.  Supports ``len``, int, negative and
    slice indexing (a slice is a tuple), iteration and ``hash``, and compares
    equal to a tuple or another trace holding the same entries.
    """

    __slots__ = ("angles", "mi", "probes")

    def __init__(self, angles: tuple[float, ...] = (), mi: np.ndarray | None = None, probes: tuple = ()) -> None:
        self.angles = angles
        self.mi = mi
        self.probes = probes

    def __len__(self) -> int:
        return len(self.angles) ** 3 + len(self.probes)

    def __getitem__(self, index):
        position = range(len(self))[index]  # int/negative/slice semantics and errors of a tuple
        if isinstance(position, range):
            return tuple(self[i] for i in position)
        n, a, mi = len(self.angles), self.angles, self.mi
        if position >= n ** 3:
            return self.probes[position - n ** 3]
        i, rest = divmod(position, n * n)
        j, k = divmod(rest, n)
        return (a[i], a[j], a[k]), float(abs(mi[i, j] - mi[i, k]) + mi[j, k])

    def __iter__(self):
        a, mi = self.angles, self.mi
        for i, ai in enumerate(a):
            block = (_gaps(mi[i:i + 1], np.arange(len(a))[:, None])[0] + mi).tolist()
            for aj, row in zip(a, block):
                for ak, lhs in zip(a, row):
                    yield (ai, aj, ak), lhs
        yield from self.probes

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Trace, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Trace(<{len(self)} entries>)"


@dataclass(frozen=True)
class SearchResult:
    """Best settings found, the LHS there (``margin`` is ``best_lhs - 1``), and the full evaluation trace."""

    best_settings: MeasurementSettings
    best_lhs: float
    trace: Trace
    grid_resolution: int
    refined: bool

    @property
    def margin(self) -> float:
        return self.best_lhs - 1.0

    @property
    def violation_found(self) -> bool:
        return self.best_lhs > 1.0 + SATISFIED_ATOL

    def to_dict(self) -> dict:
        return {
            "best_settings": self.best_settings.to_dict(),
            "best_lhs": self.best_lhs,
            "margin": self.margin,
            "grid_resolution": self.grid_resolution,
            "refined": self.refined,
            "violation_found": self.violation_found,
        }


def _lhs_at(c: np.ndarray, angles: tuple[float, float, float]) -> float:
    """``cerf_adami_quantum(rho, MeasurementSettings(angles)).lhs`` from ``c = _correlations(rho)``, bit for bit.

    No settings or report are built, and ``angles`` are not reduced: they must already be canonical, as
    settings angles and refine probes are (``value._canonical_angle``).
    """
    ab, ac, bc = _three_pairs(c, angles)[0].tolist()
    return abs(ab - ac) + bc


def _gaps(block: np.ndarray, j, k=None) -> np.ndarray:
    """|block[:, j] - block[:, k]| for column indices j and k broadcast together, gathered with ``take(axis=1)``.

    k=None means every column, read as a view of the block: a j of shape (m, 1) gives the (rows, m, n) gaps.
    """
    gap = block.take(j, axis=1) - (block[:, None] if k is None else block.take(k, axis=1))
    return np.abs(gap, out=gap)


def _spreads(mi: np.ndarray, j: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """max_i ``_gaps(mi, j, k)``, bit for bit, from rows of i in blocks of _BLOCK_CELLS cells, at least one row."""
    cells = np.size(j) * mi.shape[1] if k is None else np.broadcast(j, k).size
    out, rows = None, max(1, _BLOCK_CELLS // max(1, cells))
    for i0 in range(0, len(mi), rows):
        gap = _gaps(mi[i0:i0 + rows], j, k).max(axis=0)
        out = gap if out is None else np.maximum(out, gap, out=out)
    return out


def _circulant(v: np.ndarray, hankel: bool = False) -> np.ndarray:
    """The read-only view c[a, b] = v[(b - a) % len(v)], or with ``hankel`` h[a, b] = v[(a + b) % len(v)]."""
    n, size = len(v), v.itemsize
    offset, strides = (0, (size, size)) if hankel else (n * size, (-size, size))
    return np.ndarray((n, n), v.dtype, np.concatenate((v, v)).data.toreadonly(), offset, strides)


def _first_cell(mi: np.ndarray, columns: np.ndarray, threshold: float) -> tuple[int, int, int]:
    """Lexicographically first cell (i, j, k) with lhs >= threshold, (j, k) among ``columns``.

    Row slabs of the ``columns`` mask are scanned upward in i, below the best i
    found so far, in growing blocks: the first holds about n cells (at least
    one row of i), and each next one twice as many, up to _BLOCK_CELLS.  So a
    winner at small i costs a few rows, however many columns tie.
    """
    n = len(mi)
    first = (n, 0, 0)
    slab_rows = max(1, _BLOCK_CELLS // n)
    for j0 in range(0, n, slab_rows):
        j, k = np.divmod(np.flatnonzero(columns[j0:j0 + slab_rows]) + j0 * n, n)  # ~5x faster than a 2-D nonzero
        if not len(j):
            continue
        m, i0, cap = mi[j, k], 0, max(1, _BLOCK_CELLS // len(j))
        rows = min(max(1, n // len(j)), cap)
        while i0 < first[0]:
            lhs = _gaps(mi[i0:min(i0 + rows, first[0])], j, k)
            np.add(lhs, m, out=lhs)
            hits = lhs >= threshold
            if hits.any():
                r, c = divmod(int(hits.argmax()), len(j))
                first = (i0 + r, int(j[c]), int(k[c]))
                break
            i0, rows = i0 + rows, min(2 * rows, cap)
    return first


# Both column bounds hold for the real differences.  The floats differ from
# them by three roundings, each within a relative 2^-53 and exact below
# 2^-1022: a difference inside S, one inside a pivot spread, D or eps, and the
# sum of two of those.  So S[j, k] <= (1 + 2^-53) / (1 - 2^-53)^2 * bound, and
# the rounded product bound * _SLACK still covers that factor.
_SLACK = 1.0 + 2.0 ** -50


def _shift_bound(mi: np.ndarray) -> np.ndarray:
    """g with S[j, k] <= g[(k - j) % n] for every column spread, before the rounding slack.

    g = D + 2 eps, for f = mi[0] and D[d] = max_u |f[u] - f[u + d]|, and eps
    the distance of the table from the circulant f[(b - a) % n] or, if its last
    row is nearer that of the Hankel table f[(a + b) % n], from the latter:
    either way |mi[i, j] - mi[i, k]| is within 2 eps of some
    |f[u] - f[u + k - j]|.  g[d] = g[n - d].  Tight for the singlet, Werner
    states and phi+, whose MI depends only on the difference of the angles,
    and for phi- and psi+, whose MI depends only on their sum.
    """
    f = mi[0]
    circulant, hankel = _circulant(f), _circulant(f, hankel=True)
    hankel_nearer = np.abs(mi[-1] - hankel[-1]).max() < np.abs(mi[-1] - circulant[-1]).max()
    scratch = mi - (hankel if hankel_nearer else circulant)  # in place from here on
    eps = float(np.abs(scratch, out=scratch).max())
    half = scratch[:len(mi) // 2 + 1]  # D[d] = max_u |f[u - d] - f[u]| for d up to n / 2
    shift = np.abs(np.subtract(circulant[:len(half)], f, out=half), out=half).max(axis=1)
    shift = np.concatenate((shift, shift[len(mi) - len(half):0:-1]))  # D[n - d] = D[d], as fl(a - b) = -fl(b - a)
    return shift + 2.0 * eps


def _upper_bounds(mi: np.ndarray, spread: np.ndarray, pivots: np.ndarray, shift: np.ndarray, top: np.ndarray) -> None:
    """Tighten ``top``, the shift bounds on the column maxima fl(S[j, k] + mi[j, k]) of the lhs cube, in place.

    Row t of spread is S[pivots[t]], pivots sorted, and shift is
    ``_shift_bound(mi)``.  S[j, k] is bounded by the least of shift[(k - j) % n]
    and the triangle inequality S[j, r] + S[r, k] for r each of the two pivots
    around j and around k, cyclically.  top is rewritten from shift with that
    least, finished as the shift bound is, so no entry rises; no other n^2
    array is allocated.
    """
    n, bound = len(mi), _circulant(shift)  # top, the table and two slabs are the peak
    after, slab = np.searchsorted(pivots, np.arange(n), side="right"), max(1, _BLOCK_CELLS // n)
    for r in (after - 1, after % len(pivots)):  # the pivots around each column j: previous and next, cyclically
        d = spread[r, np.arange(n), None]  # S[j, r(j)]
        for j0 in range(0, n, slab):
            through = spread[r[j0:j0 + slab]]
            through += d[j0:j0 + slab]
            np.minimum(bound[j0:j0 + slab], through, out=top[j0:j0 + slab])
        bound = top
    for j0 in range(0, n, slab):  # the pivots around k give the transpose, as S is symmetric
        block = np.minimum(top[j0:j0 + slab, j0:], top[j0:, j0:j0 + slab].T)  # its first slab columns are symmetric
        top[j0:j0 + slab, j0:], top[j0 + slab:, j0:j0 + slab] = block, block[:, slab:].T
    top *= _SLACK
    top += mi  # rounding of + is monotone


def _cube_argmax(mi: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max of lhs[i, j, k] = |mi[i, j] - mi[i, k]| + mi[j, k] and the winning cell.

    The winner is the lexicographically first cell within WINNER_ATOL of the
    max.  Rounding of ``+`` is monotone, so column (j, k) peaks at
    fl(S[j, k] + mi[j, k]) with S[j, k] = max_i |mi[i, j] - mi[i, k]|, and
    fl(b - a) = -fl(a - b) makes S symmetric.  Branch and bound on one table
    of column bounds, top: the shift bound (``_shift_bound``) fills it, and
    the exact maximum of the column it rates highest is the lower bound LB.
    Sweeping a pair of columns (j, k), (k, j) costs n cells and a pivot
    column n^2, so if at most 2 p n columns are bounded above LB, for
    p = isqrt(n), only those pairs are swept, each once, from the rows of
    the one-sided mask: the mask is never transposed for the sweep.  The
    columns whose own bound is above LB are between half and all of that
    count, so it is taken only when they number between half the limit
    and the limit.  Otherwise S is made exact for p evenly spaced pivot
    columns, ``_upper_bounds`` tightens top in place through them, LB rises
    to the largest maximum known, and the pairs bounded above it are swept.
    The winner lies in a column whose exact maximum, or unswept bound,
    reaches the threshold; only those are scanned.  Memory is
    O(resolution^2).
    """
    n, p = len(mi), math.isqrt(len(mi))
    pivots, limit = np.arange(p) * n // p, 2 * p * n
    shift = _shift_bound(mi)
    top = _circulant(shift * _SLACK) + mi
    j, k = divmod(int(top.argmax()), n)
    lb = float(_gaps(mi, j, k).max() + mi[j, k])
    alive = top > lb
    survivors = np.count_nonzero(alive)  # the symmetric mask holds between 1 and 2 times as many columns
    if 2 * survivors > limit and (survivors > limit or np.count_nonzero(alive | alive.T) > limit):
        spread = _spreads(mi, pivots[:, None])
        _upper_bounds(mi, spread, pivots, shift, top)
        top[pivots] = exact = spread + mi[pivots]
        top[:, pivots] = exact_t = spread.T + mi[:, pivots]
        lb = max(lb, float(exact.max()), float(exact_t.max()))
        np.greater(top, lb, out=alive)
    best, rows = lb, max(1, _BLOCK_CELLS // n)
    for j0 in range(0, n, rows):
        j, k = np.divmod(np.flatnonzero(alive[j0:j0 + rows]) + j0 * n, n)
        keep = ~(np.less(k, j) & alive[k, j])  # a pair alive both ways is swept from the row of its smaller index
        j, k = j[keep], k[keep]
        s = _spreads(mi, j, k)
        top[j, k] = forward = s + mi[j, k]
        top[k, j] = backward = s + mi[k, j]
        best = max(best, float(forward.max(initial=lb)), float(backward.max(initial=lb)))
    # top now holds each column's exact maximum where it was computed and an
    # upper bound no larger than LB elsewhere; LB is some column's maximum, so
    # the cube's max is the largest of LB and the swept maxima
    threshold = best - WINNER_ATOL
    columns = top >= threshold
    del top  # the winner search needs only the mask
    return best, _first_cell(mi, columns, threshold)


def grid_search(rho: DensityMatrix, resolution: int) -> SearchResult:
    """Evaluate the LHS on the full 3-angle grid over [0, pi)^3.

    Grid angles are i * pi/resolution, for resolutions from
    GRID_MIN_RESOLUTION to GRID_MAX_RESOLUTION (``value._check_resolution``).
    Deterministic; ``best_lhs`` is the largest float LHS, and the winner is the
    first cell in lexicographic (theta_A, theta_B, theta_C) order within
    WINNER_ATOL of it.  The angles are one array, finite by construction, so
    the table is ``pair_mi_table(rho, angles, angles)`` without its angle
    check: the same block loop (``quantum._table``), bit for bit.
    """
    resolution = _check_resolution(resolution)
    x = np.arange(resolution) * (math.pi / resolution)  # i * step, bit for bit
    angles = tuple(x.tolist())

    mi = _table(rho, x, x)
    mi.setflags(write=False)
    best, (bi, bj, bk) = _cube_argmax(mi)
    return SearchResult(
        best_settings=MeasurementSettings((angles[bi], angles[bj], angles[bk])),
        best_lhs=best,
        trace=Trace(angles, mi),
        grid_resolution=resolution,
        refined=False,
    )


def refine(
    rho: DensityMatrix,
    start: MeasurementSettings,
    tol: float = 1e-6,
    resolution: int = 32,
) -> SearchResult:
    """Derivative-free local ascent from ``start``.

    Coordinate search with shrinking step: the initial step is
    pi/resolution (the spacing of the grid the start came from), each
    coordinate is probed in both directions, a probe is accepted when it
    beats the current value by more than WINNER_ATOL, and the step halves
    when a full sweep finds none.  Terminates when the step drops below
    ``tol``, so it always converges, and never returns less than the start
    value.
    """
    tol = _check_tol(tol)
    resolution = _as_size(resolution, "resolutions")
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")

    step = math.pi / _as_real(resolution, "resolutions", ResolutionTooLargeError)
    c = _correlations(rho)
    current = start.angles
    current_lhs = _lhs_at(c, current)
    trace = [(current, current_lhs)]

    while step >= tol:
        improved = True
        while improved:
            improved = False
            for axis in range(3):
                for direction in (step, -step):
                    candidate = (*current[:axis], _canonical_angle(current[axis] + direction), *current[axis + 1:])
                    lhs = _lhs_at(c, candidate)
                    trace.append((candidate, lhs))
                    if lhs > current_lhs + WINNER_ATOL:
                        current, current_lhs = candidate, lhs
                        improved = True
        step /= 2.0

    return SearchResult(
        best_settings=MeasurementSettings(current),
        best_lhs=current_lhs,
        trace=Trace(probes=tuple(trace)),
        grid_resolution=resolution,
        refined=True,
    )


def grid_refine(rho: DensityMatrix, resolution: int, tol: float = 1e-6) -> SearchResult:
    """Grid search followed by refinement from the grid optimum."""
    tol = _check_tol(tol)  # before the grid, which would otherwise run for nothing
    coarse = grid_search(rho, resolution)
    fine = refine(rho, coarse.best_settings, tol=tol, resolution=resolution)
    winner = fine if fine.best_lhs >= coarse.best_lhs else coarse  # refine is monotone; this is defensive
    return SearchResult(
        best_settings=winner.best_settings,
        best_lhs=winner.best_lhs,
        trace=Trace(coarse.trace.angles, coarse.trace.mi, fine.trace.probes),
        grid_resolution=coarse.grid_resolution,
        refined=True,
    )


def werner_threshold(resolution: int = 32, tol: float = 1e-3) -> float:
    """Largest Werner parameter p whose maximal LHS stays within the bound.

    Bisects p in [0, 1] with grid_refine as the evaluator, until the
    bracket is no wider than ``tol`` or no float lies between its ends.
    Monotonicity of the maximal LHS in p is assumed and checked on the
    sampled points; a decrease beyond 1e-6 raises MonotonicityViolatedError.
    """
    resolution = _as_size(resolution, "resolutions")
    if resolution < WERNER_MIN_RESOLUTION:
        raise ResolutionTooSmallError(f"resolution must be >= {WERNER_MIN_RESOLUTION}, got {resolution}")
    tol = _check_tol(tol)

    samples: list[tuple[float, float]] = []

    def max_lhs(p: float) -> float:
        value = grid_refine(werner_state(p), resolution).best_lhs
        samples.append((p, value))
        return value

    def check_monotone() -> None:
        ordered = sorted(samples)
        for (p0, v0), (p1, v1) in zip(ordered, ordered[1:]):
            if v1 < v0 - WERNER_MONOTONE_ATOL:
                raise MonotonicityViolatedError(
                    f"max LHS decreased from {v0} at p={p0} to {v1} at p={p1}"
                )

    if max_lhs(1.0) <= 1.0 + SATISFIED_ATOL:
        return 1.0  # no violation anywhere on the dial
    max_lhs(0.0)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break  # lo and hi are adjacent floats: the midpoint no longer splits the bracket
        if max_lhs(mid) > 1.0 + SATISFIED_ATOL:
            hi = mid
        else:
            lo = mid
    check_monotone()
    return lo

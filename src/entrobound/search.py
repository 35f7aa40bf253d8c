"""Numerical search for Cerf-Adami violations over measurement settings.

The search space is three angles in the x-z plane on [0, pi); for the
singlet family that planar restriction is lossless.  The grid evaluator
exploits the fact that the LHS depends only on the three pairwise mutual
informations: it computes the ordered resolution^2 pair-MI table in one
kernel call and reduces the resolution^3 LHS cube from it over the first
angle, one column of the second angle at a time and only over third angles
at or above it (the LHS is symmetric in the last two), to one
resolution^2 table of column maxima.  That reduction is exact, so the max
and winner are bit-identical to a full evaluation of the cube, and memory
stays O(resolution^2).  The trace still holds one entry per grid cell in
lexicographic order, exactly as if every cell had been evaluated
independently, but each entry is computed when it is read.  Local
refinement is a derivative-free coordinate search (the LHS has
absolute-value kinks, so no gradients).

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
from .quantum import DensityMatrix, MeasurementSettings, cerf_adami_quantum, pair_mi_table, werner_state

GRID_MIN_RESOLUTION = 8
# The pair-MI table and the column maxima are resolution^2 float64 each and
# the cube is reduced in bounded blocks, so this cap bounds memory (~17 MiB
# at 1024) and time (~resolution^3).
GRID_MAX_RESOLUTION = 1024
WERNER_MIN_RESOLUTION = 32
WERNER_MONOTONE_ATOL = 1e-6
# Cells per reduction block (512 KB of float64: rows of i over one column's
# k >= j), also the bound on the candidates and cells of one winner-search
# block.  At resolution 1024 the table and the column maxima take 16 MiB.
# Up to resolution 256 one block holds every row of i.
_CUBE_CHUNK_CELLS = 1 << 16
# Grid and refinement winners ignore LHS differences up to this size.
WINNER_ATOL = 1e-12


class _GridCells:
    """The resolution^3 cells of one grid, computed on access from the pair-MI table.

    Cell (i, j, k) is |MI(i, j) - MI(i, k)| + MI(j, k), in the same float
    arithmetic as the winner search; the grid maximum is the largest of
    these values, bit for bit.
    """

    __slots__ = ("angles", "mi")

    def __init__(self, angles: tuple[float, ...], mi: np.ndarray) -> None:
        self.angles = angles
        self.mi = mi

    def __len__(self) -> int:
        return len(self.angles) ** 3

    def __getitem__(self, index: int):
        n, a, mi = len(self.angles), self.angles, self.mi
        i, rest = divmod(index, n * n)
        j, k = divmod(rest, n)
        return (a[i], a[j], a[k]), float(abs(mi[i, j] - mi[i, k]) + mi[j, k])

    def __iter__(self):
        a, mi = self.angles, self.mi
        for i, ai in enumerate(a):
            block = (np.abs(mi[i, :, None] - mi[i, None, :]) + mi).tolist()
            for aj, row in zip(a, block):
                for ak, lhs in zip(a, row):
                    yield (ai, aj, ak), lhs


class Trace(Sequence):
    """Read-only sequence of ``((theta_A, theta_B, theta_C), lhs)`` evaluations.

    Grid parts are computed entry by entry on access; ``+`` concatenates
    without materialising anything.  Supports ``len``, int, negative and
    slice indexing (a slice is a tuple), iteration and ``hash``, and
    compares equal to a tuple or another trace holding the same entries.
    """

    __slots__ = ("_parts",)

    def __init__(self, *parts) -> None:
        self._parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __getitem__(self, index):
        position = range(len(self))[index]  # int/negative/slice semantics and errors of a tuple
        if isinstance(position, range):
            return tuple(self[i] for i in position)
        for part in self._parts:
            if position < len(part):
                return part[position]
            position -= len(part)

    def __iter__(self):
        for part in self._parts:
            yield from part

    def __add__(self, other):
        if isinstance(other, Trace):
            return Trace(*self._parts, *other._parts)
        if isinstance(other, tuple):
            return Trace(*self._parts, other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return Trace(other, *self._parts)
        return NotImplemented

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
    """Best settings found, the LHS there, and the full evaluation trace."""

    best_settings: MeasurementSettings
    best_lhs: float
    margin: float
    trace: Trace
    grid_resolution: int
    refined: bool

    @property
    def violation_found(self) -> bool:
        return self.best_lhs > 1.0 + SATISFIED_ATOL

    def to_dict(self, include_trace: bool = False) -> dict:
        payload = {
            "best_settings": self.best_settings.to_dict(),
            "best_lhs": self.best_lhs,
            "margin": self.margin,
            "grid_resolution": self.grid_resolution,
            "refined": self.refined,
            "violation_found": self.violation_found,
        }
        if include_trace:
            payload["trace"] = [[list(angles), lhs] for angles, lhs in self.trace]
        return payload


def _check_tol(tol: float) -> float:
    """``tol`` as a float; ValidationError unless it is positive and finite.

    A NaN tolerance would stop refinement after one probe or skip the
    Werner bisection, and an infinite one would stop before any sweep.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    return tol


def _lhs_at(rho: DensityMatrix, angles: tuple[float, float, float]) -> float:
    return cerf_adami_quantum(rho, MeasurementSettings(angles)).lhs


def _column_maxima(mi: np.ndarray) -> np.ndarray:
    """The lhs cube reduced over i: out[j, k] = max_i lhs[i, j, k], bit for bit.

    Column j is swept over k >= j only: fl(b - a) = -fl(a - b), so the spread
    max_i |mi[i, j] - mi[i, k]| is symmetric in j and k and is mirrored into
    out[k, j].  Each pass subtracts one scalar per row of i from a contiguous
    slice, in blocks of at most _CUBE_CHUNK_CELLS cells.  Rounding of ``+`` is
    monotone, so adding mi last gives the maxima of the cells.
    """
    n = len(mi)
    rows = max(1, _CUBE_CHUNK_CELLS // n)
    top = np.zeros((n, n))  # below every |difference|, and |x| is never -0.0
    for j in range(n):
        row = top[j, j:]
        for i0 in range(0, n, rows):
            diff = mi[i0:i0 + rows, j:] - mi[i0:i0 + rows, j, None]
            np.abs(diff, out=diff)
            np.maximum(row, diff.max(axis=0), out=row)
        top[j:, j] = row
    top += mi
    return top


def _first_cell(mi: np.ndarray, columns: np.ndarray, threshold: float) -> tuple[int, int, int]:
    """Lexicographically first cell (i, j, k) with lhs >= threshold, (j, k) among ``columns``.

    ``columns`` masks the (j, k) columns that can reach the threshold.  They
    are taken in row-major slabs and each slab is scanned upward in i, only
    below the best i found so far, so no pass holds more than
    _CUBE_CHUNK_CELLS candidates or cells.
    """
    n = len(mi)
    first = (n, 0, 0)
    slab_rows = max(1, _CUBE_CHUNK_CELLS // n)
    for j0 in range(0, n, slab_rows):
        j, k = np.nonzero(columns[j0:j0 + slab_rows])
        if not len(j):
            continue
        j += j0
        m = mi[j, k]
        rows = max(1, _CUBE_CHUNK_CELLS // len(j))
        for i0 in range(0, first[0], rows):
            block = mi[i0:min(i0 + rows, first[0])]
            lhs = block[:, j]
            np.subtract(lhs, block[:, k], out=lhs)
            np.abs(lhs, out=lhs)
            np.add(lhs, m, out=lhs)
            hits = lhs >= threshold
            if hits.any():
                r, c = divmod(int(hits.argmax()), len(j))
                first = (i0 + r, int(j[c]), int(k[c]))
                break
    return first


def _cube_argmax(mi: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max of lhs[i, j, k] = |mi[i, j] - mi[i, k]| + mi[j, k] and the winning cell.

    The winner is the lexicographically first cell within WINNER_ATOL of the
    max.  The cube is reduced over i first (``_column_maxima``), exactly:
    rounding of ``+`` is monotone, so max_i fl(d_i + c) = fl(max_i d_i + c),
    and fl(b - a) = -fl(a - b) makes the spread max_i |d_i| of column (j, k)
    that of column (k, j), so only k >= j takes resolution^3 work.  The
    winner can only lie in a column whose maximum reaches the threshold;
    those columns alone are scanned for it, in bounded blocks.  Memory is
    O(resolution^2).
    """
    top = _column_maxima(mi)
    best = float(top.max())
    threshold = best - WINNER_ATOL
    columns = top >= threshold
    del top  # the winner search needs only the mask; this keeps the res-1024 peak at ~17 MiB
    return best, _first_cell(mi, columns, threshold)


def grid_search(rho: DensityMatrix, resolution: int) -> SearchResult:
    """Evaluate the LHS on the full 3-angle grid over [0, pi)^3.

    Grid angles are i * pi/resolution, for resolutions from
    GRID_MIN_RESOLUTION to GRID_MAX_RESOLUTION.  Deterministic; ``best_lhs``
    is the largest float LHS, and the winner is the first cell in
    lexicographic (theta_A, theta_B, theta_C) order within WINNER_ATOL of it.
    """
    resolution = int(resolution)
    if resolution < GRID_MIN_RESOLUTION:
        raise ResolutionTooSmallError(f"resolution must be >= {GRID_MIN_RESOLUTION}, got {resolution}")
    if resolution > GRID_MAX_RESOLUTION:
        raise ResolutionTooLargeError(f"resolution must be <= {GRID_MAX_RESOLUTION}, got {resolution}")
    step = math.pi / resolution
    angles = tuple(i * step for i in range(resolution))

    mi = pair_mi_table(rho, angles, angles)
    mi.setflags(write=False)
    best, (bi, bj, bk) = _cube_argmax(mi)
    return SearchResult(
        best_settings=MeasurementSettings((angles[bi], angles[bj], angles[bk])),
        best_lhs=best,
        margin=best - 1.0,
        trace=Trace(_GridCells(angles, mi)),
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
    resolution = int(resolution)
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")

    step = math.pi / resolution
    current = list(start.angles)
    current_lhs = _lhs_at(rho, tuple(current))
    trace = [(tuple(current), current_lhs)]

    while step >= tol:
        improved = True
        while improved:
            improved = False
            for axis in range(3):
                for direction in (step, -step):
                    candidate = list(current)
                    candidate[axis] = (candidate[axis] + direction) % math.pi
                    lhs = _lhs_at(rho, tuple(candidate))
                    trace.append((tuple(candidate), lhs))
                    if lhs > current_lhs + WINNER_ATOL:
                        current, current_lhs = candidate, lhs
                        improved = True
        step /= 2.0

    return SearchResult(
        best_settings=MeasurementSettings(tuple(current)),
        best_lhs=current_lhs,
        margin=current_lhs - 1.0,
        trace=Trace(tuple(trace)),
        grid_resolution=resolution,
        refined=True,
    )


def grid_refine(rho: DensityMatrix, resolution: int, tol: float = 1e-6) -> SearchResult:
    """Grid search followed by refinement from the grid optimum."""
    tol = _check_tol(tol)  # before the grid, which would otherwise run for nothing
    coarse = grid_search(rho, resolution)
    fine = refine(rho, coarse.best_settings, tol=tol, resolution=resolution)
    best = max(coarse.best_lhs, fine.best_lhs)  # refine is monotone; max is defensive
    winner = fine if fine.best_lhs >= coarse.best_lhs else coarse
    return SearchResult(
        best_settings=winner.best_settings,
        best_lhs=best,
        margin=best - 1.0,
        trace=coarse.trace + fine.trace,
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
    resolution = int(resolution)
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

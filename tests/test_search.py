import dataclasses
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from entrobound import (
    DensityMatrix,
    InequalityReport,
    MeasurementSettings,
    bell_state,
    cerf_adami_quantum,
    grid_refine,
    grid_search,
    maximally_mixed,
    product_state,
    refine,
    singlet,
    werner_state,
    werner_threshold,
)
from entrobound.errors import (MonotonicityViolatedError, ResolutionTooLargeError, ResolutionTooSmallError,
                               ValidationError)
from entrobound import quantum as quantum_module
from entrobound import search as search_module
from entrobound.quantum import pair_mi_table
from entrobound.search import GRID_MAX_RESOLUTION

from conftest import (
    brute_entropy_bits,
    random_mixed_state,
    reference_cube_argmax,
    reference_upper_bounds,
    singlet_mi,
    spin_projector,
    werner_mi,
)

# Regression constants, frozen from the first run of this implementation and
# cross-checked against the closed-form singlet statistics (see the oracle
# assertions below).  Deterministic code must reproduce them within 1e-9.
SINGLET_GRID32_LHS = 1.1342227793909867
SINGLET_REFINED_LHS = 1.1342543799752633
WERNER_THRESHOLD_RES32_TOL1E3 = 0.9560546875

DATA = Path(__file__).parent / "data"


def closed_form_grid_max(resolution: int) -> float:
    """Independent oracle: the grid maximum from the closed-form singlet MI."""
    step = math.pi / resolution
    angles = [i * step for i in range(resolution)]
    mi = np.array([[singlet_mi(a, b) for b in angles] for a in angles])
    cube = np.abs(mi[:, :, None] - mi[:, None, :]) + mi[None, :, :]
    return float(cube.max())


def test_grid_search_rejects_small_resolution():
    with pytest.raises(ResolutionTooSmallError):
        grid_search(singlet(), 7)


def test_grid_search_is_deterministic():
    a = grid_search(singlet(), 8)
    b = grid_search(singlet(), 8)
    assert a.best_lhs == b.best_lhs
    assert a.best_settings.angles == b.best_settings.angles
    assert a.trace == b.trace


def test_grid_search_trace_is_lexicographic_and_complete():
    res = 8
    result = grid_search(singlet(), res)
    assert len(result.trace) == res ** 3
    step = math.pi / res
    expected_first = ((0.0, 0.0, 0.0),)
    assert result.trace[0][0] == expected_first[0]
    assert result.trace[1][0] == (0.0, 0.0, step)
    assert result.best_lhs == max(lhs for _, lhs in result.trace)


def test_grid_cells_match_single_evaluations():
    from entrobound import cerf_adami_quantum

    rho = werner_state(0.9)
    result = grid_search(rho, 8)
    rng = np.random.default_rng(81)
    for idx in rng.choice(len(result.trace), size=20, replace=False):
        angles, lhs = result.trace[idx]
        direct = cerf_adami_quantum(rho, MeasurementSettings(angles)).lhs
        assert lhs == pytest.approx(direct, abs=1e-12)


def test_grid_search_singlet_regression():
    result = grid_search(singlet(), 32)
    assert result.best_lhs == pytest.approx(SINGLET_GRID32_LHS, abs=1e-9)
    assert result.best_lhs > 1.0
    assert result.violation_found
    # independent closed-form oracle agrees
    assert result.best_lhs == pytest.approx(closed_form_grid_max(32), abs=1e-9)


def test_grid_search_product_state_no_violation():
    rho = product_state(np.diag([0.8, 0.2]).astype(complex), np.eye(2, dtype=complex) / 2)
    result = grid_search(rho, 16)
    assert result.best_lhs <= 1.0 + 1e-9
    assert not result.violation_found


def test_grid_search_weak_werner_no_violation():
    result = grid_search(werner_state(0.1), 32)
    assert result.best_lhs <= 1.0 + 1e-9


def test_grid_refinement_monotone_in_resolution():
    coarse = grid_search(singlet(), 16)
    fine = grid_search(singlet(), 32)
    assert fine.best_lhs >= coarse.best_lhs


def test_refine_beats_grid_start():
    coarse = grid_search(singlet(), 32)
    result = refine(singlet(), coarse.best_settings, tol=1e-6, resolution=32)
    assert result.refined
    assert result.best_lhs >= coarse.best_lhs - 1e-12
    # a probe must win by more than WINNER_ATOL, so the best is within it of the trace max
    best_seen = max(lhs for _, lhs in result.trace)
    assert best_seen - 1e-12 <= result.best_lhs <= best_seen


def test_refine_product_state_stays_bounded():
    rho = maximally_mixed()
    result = refine(rho, MeasurementSettings((0.3, 0.6, 0.9)), tol=1e-4, resolution=16)
    assert result.best_lhs <= 1.0 + 1e-9


def test_refine_rejects_bad_tol():
    with pytest.raises(ValidationError):
        refine(singlet(), MeasurementSettings((0.0, 0.0, 0.0)), tol=0.0)


def test_refine_from_optimum_is_stable():
    first = grid_refine(singlet(), 16, tol=1e-6)
    again = refine(singlet(), first.best_settings, tol=1e-6, resolution=16)
    assert again.best_lhs >= first.best_lhs - 1e-12
    assert again.best_lhs == pytest.approx(first.best_lhs, abs=1e-9)


def test_refine_rotation_invariance():
    # starts related by a global rotation land on the same optimum value
    rng = np.random.default_rng(80)
    delta = math.pi / 8
    values = []
    for _ in range(10):
        theta = float(rng.uniform(0, math.pi))
        start = MeasurementSettings((theta, theta + delta, theta + 2 * delta))
        values.append(refine(singlet(), start, tol=1e-6, resolution=32).best_lhs)
    assert max(values) - min(values) <= 1e-6


def test_grid_refine_singlet_regression():
    result = grid_refine(singlet(), 32, tol=1e-6)
    assert result.refined
    assert result.best_lhs > 1.0 + 1e-6
    assert result.best_lhs == pytest.approx(SINGLET_REFINED_LHS, abs=1e-9)
    assert result.margin == result.best_lhs - 1.0


def test_search_result_serialization():
    result = grid_search(singlet(), 8)
    payload = result.to_dict()
    assert "trace" not in payload
    assert payload["grid_resolution"] == 8


def test_replaced_search_result_recomputes_margin():
    result = dataclasses.replace(grid_search(singlet(), 8), best_lhs=0.5)
    assert result.margin == -0.5 and result.to_dict()["margin"] == -0.5
    assert not result.violation_found
    assert [f.name for f in dataclasses.fields(result)] == [
        "best_settings", "best_lhs", "trace", "grid_resolution", "refined"]


def test_werner_endpoints():
    assert grid_refine(werner_state(1.0), 32).best_lhs > 1.0 + 1e-6
    assert grid_refine(werner_state(0.0), 32).best_lhs <= 1.0 + 1e-9


def test_werner_separable_region_bounded():
    for p in (0.0, 0.2, 1.0 / 3.0):
        result = grid_search(werner_state(p), 16)
        assert result.best_lhs <= 1.0 + 1e-9


def test_werner_threshold_regression():
    got = werner_threshold(32, 1e-3)
    assert got == pytest.approx(WERNER_THRESHOLD_RES32_TOL1E3, abs=1e-12)
    # the threshold is a boundary: just below satisfies, just above violates
    assert grid_refine(werner_state(got), 32).best_lhs <= 1.0 + 1e-9
    assert grid_refine(werner_state(min(1.0, got + 2e-3)), 32).best_lhs > 1.0 + 1e-9


class _ThresholdStandIn:
    """Cheap stand-in for ``grid_refine`` in the bisection: max LHS 1 + (p - p_star), calls counted."""

    def __init__(self, monkeypatch, p_star: float) -> None:
        self.p_star = p_star
        self.calls = 0
        monkeypatch.setattr(search_module, "werner_state", lambda p: p)  # hand p itself over
        monkeypatch.setattr(search_module, "grid_refine", self)

    def __call__(self, p, resolution):
        self.calls += 1
        return SimpleNamespace(best_lhs=self.max_lhs(p))

    def max_lhs(self, p: float) -> float:
        return 1.0 + (p - self.p_star)


def _unbounded_bisection(max_lhs, tol: float, max_steps: int):
    """The bisection without its stop at adjacent floats: (threshold, steps), or None if it would not end."""
    lo, hi, steps = 0.0, 1.0, 0
    while hi - lo > tol:
        if steps == max_steps:
            return None
        steps += 1
        mid = (lo + hi) / 2.0
        if max_lhs(mid) > 1.0 + 1e-9:
            hi = mid
        else:
            lo = mid
    return lo, steps


@pytest.mark.parametrize("p_star", [0.9561, 0.5 + 2e-9, 1.0 / 3.0])
def test_werner_threshold_stops_when_the_midpoint_cannot_split(monkeypatch, p_star):
    stand_in = _ThresholdStandIn(monkeypatch, p_star)
    got = werner_threshold(32, 1e-300)
    assert stand_in.calls < 70  # about 53 halvings reach adjacent floats
    # the bracket closed onto adjacent floats around the stand-in's threshold
    assert stand_in.max_lhs(got) <= 1.0 + 1e-9 < stand_in.max_lhs(math.nextafter(got, 2.0))


@pytest.mark.parametrize("tol", [0.25, 1e-3, 1e-6, 1e-12, 1e-15, 1e-16, 1e-17, 1e-18])
@pytest.mark.parametrize("p_star", [0.9561, 0.7, 1.0 / 3.0])
def test_werner_threshold_steps_unchanged_where_the_old_loop_ended(monkeypatch, tol, p_star):
    stand_in = _ThresholdStandIn(monkeypatch, p_star)
    reference = _unbounded_bisection(stand_in.max_lhs, tol, 200)
    got = werner_threshold(32, tol)
    if reference is not None:
        threshold, steps = reference
        assert got == threshold
        assert stand_in.calls == 2 + steps  # p = 1 and p = 0, then one call per halving


def test_werner_threshold_is_one_when_no_parameter_violates(monkeypatch):
    stand_in = _ThresholdStandIn(monkeypatch, 1.5)  # max LHS 0.5 at p = 1
    assert werner_threshold(32, 1e-3) == 1.0
    assert stand_in.calls == 1


def test_werner_threshold_refuses_a_max_lhs_that_decreases_in_p(monkeypatch):
    stand_in = _ThresholdStandIn(monkeypatch, 0.5)
    stand_in.max_lhs = lambda p: 1.5 if p == 1.0 else 1.0 - p  # violates at p = 1 only, falling from p = 0
    with pytest.raises(MonotonicityViolatedError, match="max LHS decreased from 1.0 at p=0.0"):
        werner_threshold(32, 1e-3)


def test_werner_threshold_rejects_small_resolution():
    with pytest.raises(ResolutionTooSmallError):
        werner_threshold(16, 1e-3)


def test_observed_violations_coincide_with_negative_conditional_entropy():
    # Observation, not a theorem: every violation found here comes with
    # S(B|A) < 0 for the measured state.  Recorded as an empirical
    # association over this state family only.
    from entrobound import conditional_quantum_entropy

    observed = []
    for rho in (singlet(), werner_state(0.99), werner_state(0.97)):
        result = grid_search(rho, 16)
        if result.violation_found:
            s_cond = conditional_quantum_entropy(rho, 1, 0).value
            observed.append((result.best_lhs, s_cond))
            assert s_cond < 0.0
    assert observed, "expected at least one violating state in the family"


def _independent_grid_cube(rho_matrix: np.ndarray, resolution: int) -> np.ndarray:
    """LHS cube from tr[rho (P_i x P_j)] and plain-loop entropies, ordered pairs throughout."""
    step = math.pi / resolution
    mi = np.empty((resolution, resolution))
    for i in range(resolution):
        for j in range(resolution):
            table = np.array([
                [np.trace(rho_matrix @ np.kron(spin_projector(i * step, sa), spin_projector(j * step, sb))).real
                 for sb in (1.0, -1.0)]
                for sa in (1.0, -1.0)
            ])
            mi[i, j] = (brute_entropy_bits(table.sum(axis=1)) + brute_entropy_bits(table.sum(axis=0))
                        - brute_entropy_bits(table))
    return np.abs(mi[:, :, None] - mi[:, None, :]) + mi[None, :, :]


@pytest.mark.parametrize("resolution", [8, 16])
def test_grid_search_on_state_that_is_not_swap_symmetric(resolution):
    # Regression: the pair-MI table was filled as if MI(i, j) == MI(j, i).
    m = random_mixed_state(np.random.default_rng(2024))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.max(np.abs(m - swap @ m @ swap)) > 0.05
    cube = _independent_grid_cube(m, resolution)
    result = grid_search(DensityMatrix(2, 2, m), resolution)
    got = np.array([lhs for _, lhs in result.trace]).reshape(cube.shape)
    assert np.max(np.abs(got - cube)) <= 1e-12
    assert result.best_lhs == pytest.approx(float(cube.max()), abs=1e-12)
    step = math.pi / resolution
    cell = tuple(round(a / step) for a in result.best_settings.angles)
    assert cube[cell] == pytest.approx(result.best_lhs, abs=1e-12)


def test_grid_search_rejects_resolution_above_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionTooLargeError):
            grid_search(singlet(), GRID_MAX_RESOLUTION + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert issubclass(ResolutionTooLargeError, ValidationError)


def test_grid_memory_stays_quadratic_in_resolution():
    # a res^3 cube at res 256 would take 128 MB; the column sweep needs ~2 MB
    tracemalloc.start()
    try:
        result = grid_search(werner_state(0.9), 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(result.trace) == 256 ** 3


@pytest.mark.parametrize("state", ["singlet", "phi-", "maximally mixed", "mixed"])
def test_grid_memory_at_the_resolution_cap(state):
    # the table and the column bounds are 8 MiB each at 1024; a transposed
    # copy of the table would take another 8 MiB.  The mixed state takes the
    # pivot path, which tightens the bounds in place
    rho = {"singlet": singlet, "phi-": lambda: bell_state("phi-"), "maximally mixed": maximally_mixed,
           "mixed": lambda: DensityMatrix.from_dict(json.loads((DATA / "mixed_state.json").read_text()))}[state]()
    tracemalloc.start()
    try:
        result = grid_search(rho, GRID_MAX_RESOLUTION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    if state == "singlet":
        assert SINGLET_OPTIMUM_LHS - 1e-5 < result.best_lhs <= SINGLET_OPTIMUM_LHS


def test_grid_winner_search_stays_small_when_every_cell_ties():
    # every (j, k) column of the maximally mixed state reaches the max, so
    # the winner search has all res^2 candidates; it takes them in bounded
    # blocks (~3 MB at res 256, where one res x res^2 candidate array is 128 MB)
    tracemalloc.start()
    try:
        result = grid_search(maximally_mixed(), 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert result.best_lhs == 0.0 and result.best_settings.angles == (0.0, 0.0, 0.0)


def test_grid_trace_sequence_semantics():
    res = 8
    result = grid_search(werner_state(0.9), res)
    trace = result.trace
    entries = tuple(trace)
    assert len(entries) == len(trace) == res ** 3
    assert trace[-1] == entries[-1] and trace[-res ** 3] == entries[0]
    assert trace[np.int64(77)] == entries[77]
    assert trace[5:40:3] == entries[5:40:3] and trace[::-1] == entries[::-1]
    with pytest.raises(IndexError):
        trace[res ** 3]
    with pytest.raises(TypeError):
        trace[1.0]
    assert trace == entries and entries == trace and trace != entries[:-1]
    assert trace == grid_search(werner_state(0.9), res).trace
    assert hash(trace) == hash(entries)
    assert hash(result) == hash(grid_search(werner_state(0.9), res))
    assert [trace[i] for i in range(len(trace))] == list(entries)


def test_grid_refine_trace_concatenates_lazily():
    rho = werner_state(0.97)
    coarse = grid_search(rho, 8)
    fine = refine(rho, coarse.best_settings, tol=1e-3, resolution=8)
    combined = grid_refine(rho, 8, tol=1e-3)
    assert combined.trace == tuple(coarse.trace) + tuple(fine.trace)
    assert len(combined.trace) == 8 ** 3 + len(fine.trace)
    assert combined.trace[8 ** 3] == fine.trace[0] and combined.trace[-1] == fine.trace[-1]


def test_grid_search_exact_ties_keep_the_first_cell_across_chunks():
    # every cell of the maximally mixed state is exactly 0, so every (j, k)
    # column ties; at res 128 the winner search takes them in several blocks,
    # and the first cell must still win
    from entrobound.search import _BLOCK_CELLS

    assert 128 ** 3 > _BLOCK_CELLS
    result = grid_search(maximally_mixed(), 128)
    assert result.best_lhs == 0.0
    assert result.best_settings.angles == (0.0, 0.0, 0.0)


# --- winners that ignore last-bit rounding ------------------------------------------

@st.composite
def _tied_tables(draw):
    """A small pair-MI table of a few planted levels, each entry jittered by at most 1e-13."""
    n = draw(st.integers(min_value=1, max_value=12))
    levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n * n, max_size=n * n))
    jitter = draw(st.lists(st.floats(min_value=-1e-13, max_value=1e-13), min_size=n * n, max_size=n * n))
    # cells per reduction block: from one cell (one row of i) to more than the whole cube
    block_cells = draw(st.integers(min_value=1, max_value=(n + 1) * n * n))
    return np.add(levels, jitter).reshape(n, n), block_cells


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_tied_tables())
def test_cube_argmax_is_the_first_cell_within_atol_of_the_max(case):
    mi, block_cells = case
    n = len(mi)
    cells = [((i, j, k), abs(mi[i, j] - mi[i, k]) + mi[j, k])
             for i in range(n) for j in range(n) for k in range(n)]
    best = max(lhs for _, lhs in cells)
    first = next(cell for cell, lhs in cells if lhs >= best - 1e-12)
    with pytest.MonkeyPatch.context() as mp:  # small blocks: ties straddle blocks of i and of (j, k) candidates
        mp.setattr(search_module, "_BLOCK_CELLS", block_cells)
        assert search_module._cube_argmax(mi) == (best, first)


def test_cube_argmax_of_signed_zero_tables_matches_the_cells_bit_for_bit():
    # |x| never returns -0.0, so no cell is -0.0; every sign pattern of a 3 x 3
    # table of zeros must give the max 0.0, not -0.0, and the first cell
    for signs in range(2 ** 9):
        mi = np.array([-0.0 if signs >> b & 1 else 0.0 for b in range(9)]).reshape(3, 3)
        best, first = search_module._cube_argmax(mi)
        assert repr(best) == "0.0" and first == (0, 0, 0), mi


def _reduction_states():
    swap = np.eye(4)[[0, 2, 1, 3]]
    states = [("singlet", singlet()), ("phi+", bell_state("phi+")), ("werner 0.97", werner_state(0.97)),
              ("maximally mixed", maximally_mixed())]
    for seed in (11, 12):
        m = random_mixed_state(np.random.default_rng(seed))
        states.append((f"seed {seed}", DensityMatrix(2, 2, m)))
        states.append((f"seed {seed}, swap-symmetrised", DensityMatrix(2, 2, (m + swap @ m @ swap) / 2.0)))
    return states


@pytest.mark.parametrize("block_cells", [None, 4096])
@pytest.mark.parametrize("resolution", [8, 31, 96, 101, 150, 257])
def test_grid_reduction_is_bit_identical_to_the_four_pass_cube(monkeypatch, resolution, block_cells):
    # the pivot spreads take block_cells // (isqrt(res) * res) rows of i a block:
    # 4096-cell blocks split i from res 31 on, the default 1 << 17 from res 150 on
    if block_cells is not None:
        monkeypatch.setattr(search_module, "_BLOCK_CELLS", block_cells)
    step = math.pi / resolution
    angles = tuple(i * step for i in range(resolution))  # grid_search's angles, bit for bit
    for name, rho in _reduction_states():
        best, (i, j, k) = reference_cube_argmax(pair_mi_table(rho, angles, angles))
        result = grid_search(rho, resolution)
        assert repr(result.best_lhs) == repr(best), name
        assert result.best_settings.angles == (angles[i], angles[j], angles[k]), name


@pytest.mark.parametrize("block_cells", [None, 4096, 20])
@pytest.mark.parametrize("resolution", [8, 31, 96])
def test_column_maxima_are_the_cube_maxima_byte_for_byte(monkeypatch, resolution, block_cells):
    # every column maximum the branch and bound computes, of the pivot columns
    # and of the swept ones; 20-cell blocks split each sweep into a few rows of i
    if block_cells is not None:
        monkeypatch.setattr(search_module, "_BLOCK_CELLS", block_cells)
    spreads, computed = search_module._spreads, []

    def recorded(mi, j, k=None):  # k=None: every column
        s = spreads(mi, j, k)
        computed.append((*np.broadcast_arrays(j, np.arange(len(mi))[None, :] if k is None else k), s))
        return s

    monkeypatch.setattr(search_module, "_spreads", recorded)
    step = math.pi / resolution
    angles = tuple(i * step for i in range(resolution))
    swept = 0
    for name, rho in _reduction_states():
        mi = pair_mi_table(rho, angles, angles)
        top = (np.abs(mi[:, :, None] - mi[:, None, :]) + mi).max(axis=0)
        computed.clear()
        search_module._cube_argmax(mi)
        assert [s.shape for _, _, s in computed if s.ndim > 1] in ([], [(math.isqrt(resolution), resolution)]), name
        for j, k, s in computed:
            assert (s + mi[j, k]).tobytes() == top[j, k].tobytes(), name
            assert (s + mi[k, j]).tobytes() == top[k, j].tobytes(), name
        swept += sum(s.size for _, _, s in computed[1:])
    assert swept > 0


@st.composite
def _bound_tables(draw):
    """A square table and a non-empty set of pivot columns.

    Tables are i.i.d. entries spread over five decades, circulant and Hankel
    tables with noise of exactly 0 or +-delta (so eps = delta and the shift
    bound is tight) near the rounding of the entries, tables of one value, and
    tables of signed zeros.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "circulant", "hankel", "ties", "signed zeros"]))
    if kind == "random":
        mi = rng.random((n, n)) * 10.0 ** rng.integers(-3, 3, (n, n))
    elif kind in ("circulant", "hankel"):
        f = rng.random(n)
        noise = rng.choice([-1.0, 0.0, 1.0], (n, n)) * draw(st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-13, 1e-9]))
        sign = 1 if kind == "hankel" else -1
        mi = f[(np.arange(n)[None, :] + sign * np.arange(n)[:, None]) % n] + noise
    elif kind == "ties":
        mi = np.full((n, n), draw(st.sampled_from([0.0, 0.25, 1.0, rng.random()])))
    else:
        mi = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
    pivots = np.flatnonzero(rng.random(n) < 0.5)
    return mi, pivots if len(pivots) else np.array([int(rng.integers(n))])


@settings(max_examples=300, deadline=None, derandomize=True)
@example(case=(np.array([[0.07872579379890905, 0.688896824749785, 0.0009263145604956078],
                         [0.004898036887229915, 0.7024378150343941, 86.77546688910041],
                         [0.10719702303854828, 0.04698551588747218, 8.799425840450004e-05]]),
               np.array([1])))  # without the rounding slack the pivot bound falls an ulp short here
@given(case=_bound_tables())
def test_column_upper_bounds_are_at_least_the_cube_maxima(case):
    # the pivot bound and the shift bound enter as their minimum, which is at
    # least the column maximum everywhere exactly when each of them is
    mi, pivots = case
    spreads = np.abs(mi[:, :, None] - mi[:, None, :])
    bounds = np.empty_like(mi)
    search_module._upper_bounds(mi, spreads.max(axis=0)[pivots], pivots, search_module._shift_bound(mi), bounds)
    assert (bounds >= (spreads + mi).max(axis=0)).all()


@pytest.mark.parametrize("resolution", [31, 96, 257])
def test_two_pivots_per_column_sweep_no_more_pairs_than_every_pivot(monkeypatch, resolution):
    # the bound through the pivots around each column is never below the
    # bound at the best pivot, so sweeping no more pairs means as many
    spreads, swept = search_module._spreads, [0]

    def counted(mi, j, k=None):
        s = spreads(mi, j, k)
        swept[0] += s.size if s.ndim == 1 else 0  # the pivot columns are 2-D
        return s

    def sweep(mi):
        swept[0] = 0
        search_module._cube_argmax(mi)
        return swept[0]

    monkeypatch.setattr(search_module, "_spreads", counted)
    step = math.pi / resolution
    angles = tuple(i * step for i in range(resolution))
    total = 0
    for name, rho in _reduction_states():
        mi = pair_mi_table(rho, angles, angles)
        two_pivots = sweep(mi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_upper_bounds",
                       lambda mi, spread, pivots, shift, top: np.copyto(top, reference_upper_bounds(mi, spread)))
            every_pivot = sweep(mi)
        assert two_pivots <= every_pivot, name
        total += every_pivot
    assert total > 0


def test_pivot_columns_are_computed_only_where_the_shift_bound_cannot_prune(monkeypatch):
    # the singlet, Werner and phi+ tables are circulant and phi-'s and psi+'s
    # Hankel, each to rounding, so the shift bound prunes them with no pivot
    # column; the mixed state's table is neither, so it takes all isqrt(n)
    # pivot columns at once
    spreads, pivot_calls = search_module._spreads, []

    def counted(mi, j, k=None):  # k=None: every column
        if j.ndim > 1:
            pivot_calls.append(np.broadcast(j, np.arange(len(mi))[None, :] if k is None else k).shape)
        return spreads(mi, j, k)

    monkeypatch.setattr(search_module, "_spreads", counted)
    mixed = DensityMatrix.from_dict(json.loads((DATA / "mixed_state.json").read_text()))
    n = GRID_MAX_RESOLUTION
    for name, rho, expected in [("singlet", singlet(), []), ("werner 0.9", werner_state(0.9), []),
                                ("phi-", bell_state("phi-"), []), ("psi+", bell_state("psi+"), []),
                                ("phi+", bell_state("phi+"), []), ("mixed", mixed, [(math.isqrt(n), n)])]:
        pivot_calls.clear()
        grid_search(rho, n)
        assert pivot_calls == expected, name


def test_a_table_whose_one_sided_count_is_in_the_band_computes_no_pivot_column(monkeypatch):
    # a near-Werner table, 0.99 W(0.9) + 0.01 rho at res 96: its one-sided survivor count lies between half the
    # limit 2 isqrt(n) n and the limit, so only its symmetric count, also within the limit, keeps it off the pivot
    # path, which was the slower side on such tables
    n = 96
    limit, angles = 2 * math.isqrt(n) * n, tuple(i * math.pi / n for i in range(n))
    rho = DensityMatrix(2, 2, 0.99 * werner_state(0.9).matrix + 0.01 * random_mixed_state(np.random.default_rng(1)))
    mi = pair_mi_table(rho, angles, angles)
    top = search_module._circulant(search_module._shift_bound(mi) * search_module._SLACK) + mi
    j, k = divmod(int(top.argmax()), n)
    alive = top > float(np.abs(mi[:, j] - mi[:, k]).max() + mi[j, k])
    assert limit < 2 * np.count_nonzero(alive) <= 2 * limit and np.count_nonzero(alive | alive.T) <= limit
    spreads, pivot_calls = search_module._spreads, []

    def counted(mi, j, k=None):  # k=None: every column, the pivot pass
        if k is None:
            pivot_calls.append(j.shape)
        return spreads(mi, j, k)

    monkeypatch.setattr(search_module, "_spreads", counted)
    assert repr(search_module._cube_argmax(mi)) == repr(reference_cube_argmax(mi))
    assert pivot_calls == []


def _table_states():
    """Tables with exact zero probabilities (singlet, phi+), a uniform one (Werner 0) and seeded mixed states."""
    rng = np.random.default_rng(2028)
    return [singlet(), bell_state("phi+"), werner_state(0.0), *(DensityMatrix(2, 2, random_mixed_state(rng))
                                                                for _ in range(3))]


@pytest.mark.parametrize("resolution", [8, 96])
def test_grid_table_is_the_pair_mi_table_byte_for_byte(resolution):
    # the grid builds its angles as one array and skips their check; the table is the public one, bit for bit
    step = math.pi / resolution
    angles = tuple(i * step for i in range(resolution))
    for rho in _table_states():
        trace = grid_search(rho, resolution).trace
        assert trace.angles == angles
        assert trace.mi.tobytes() == pair_mi_table(rho, angles, angles).tobytes()
        assert trace.mi.tobytes() == pair_mi_table(rho, angles, list(angles)).tobytes()  # each axis checked apart


def test_grid_table_spans_row_blocks(monkeypatch):
    # 40 rows of 40 pairs in blocks of 3 rows: 14 kernel calls, the same bytes as one block
    step = math.pi / 40
    angles = tuple(i * step for i in range(40))
    whole = [pair_mi_table(rho, angles, angles).tobytes() for rho in _table_states()]
    monkeypatch.setattr(quantum_module, "_BLOCK_CELLS", 8 * 40 * 3)
    calls, kernel = [], quantum_module._pair_mi
    monkeypatch.setattr(quantum_module, "_pair_mi", lambda c, x, y, out: calls.append(len(x)) or kernel(c, x, y, out))
    for rho, table in zip(_table_states(), whole):
        calls.clear()
        assert grid_search(rho, 40).trace.mi.tobytes() == table
        assert calls == [3] * 13 + [1]


def test_grid_winner_is_the_textbook_singlet_triple():
    result = grid_search(singlet(), 32)
    assert result.best_settings.angles == (0.0, 4 * math.pi / 32, 8 * math.pi / 32)


def test_refine_does_not_walk_a_flat_ridge_on_rounding_noise(monkeypatch):
    rng = np.random.default_rng(82)
    monkeypatch.setattr(search_module, "_lhs_at", lambda rho, angles: 1.1 + rng.uniform(-1e-15, 1e-15))
    start = MeasurementSettings((0.3, 0.6, 0.9))
    result = refine(singlet(), start, tol=1e-3, resolution=8)
    assert result.best_settings == start
    assert result.best_lhs == result.trace[0][1]


def test_refine_probes_build_no_report_and_match_the_report_bit_for_bit(monkeypatch):
    rho = DensityMatrix(2, 2, random_mixed_state(np.random.default_rng(0)))
    # the second angle's first downward probe lands a hair below 0, which mod pi rounds to pi and is read as 0.0
    start = MeasurementSettings((1.0, math.nextafter(math.pi / 8, 0.0), 2.0))
    built = {"reports": 0, "settings": 0, "correlations": 0}

    def count(key, original):
        def counted(*args, **kwargs):
            built[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(InequalityReport, "__init__", count("reports", InequalityReport.__init__))
    monkeypatch.setattr(MeasurementSettings, "__post_init__", count("settings", MeasurementSettings.__post_init__))
    monkeypatch.setattr(search_module, "_correlations", count("correlations", search_module._correlations))
    result = refine(rho, start, tol=1e-3, resolution=8)
    assert built == {"reports": 0, "settings": 1, "correlations": 1}  # the settings are the result's
    monkeypatch.undo()
    assert len(result.trace) > 50 and result.trace[4][0] == (1.0, 0.0, 2.0)  # that probe: never pi
    for angles, lhs in result.trace:
        assert lhs == cerf_adami_quantum(rho, MeasurementSettings(angles)).lhs


def test_every_grid_and_refine_trace_angle_is_canonical():
    rng = np.random.default_rng(97)
    states = [singlet(), werner_state(0.9)] + [DensityMatrix(2, 2, random_mixed_state(rng)) for _ in range(4)]
    start = MeasurementSettings((1.0, math.nextafter(math.pi / 8, 0.0), 2.0))  # a probe a hair below 0
    for rho in states:
        for result in (grid_refine(rho, 8, tol=1e-3), refine(rho, start, tol=1e-3, resolution=8)):
            assert all(0.0 <= a < math.pi for angles, _ in result.trace for a in angles)
            assert all(0.0 <= a < math.pi for a in result.best_settings.angles)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_search_rejects_a_bad_tolerance_before_evaluating(monkeypatch, tol):
    calls = []
    monkeypatch.setattr(search_module, "_lhs_at", lambda *args: calls.append(args))
    monkeypatch.setattr(search_module, "grid_refine", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        refine(singlet(), MeasurementSettings((0.0, 0.0, 0.0)), tol=tol)
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        werner_threshold(32, tol)
    monkeypatch.setattr(search_module, "grid_search", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        grid_refine(singlet(), 512, tol=tol)  # the module's own function; only its callees are patched
    assert calls == []


@pytest.mark.parametrize("resolution", [0, -8])
def test_refine_rejects_a_resolution_below_one(resolution):
    with pytest.raises(ValidationError, match=f"resolution must be >= 1, got {resolution}"):
        refine(singlet(), MeasurementSettings((0.0, 0.0, 0.0)), resolution=resolution)


def test_refine_rejects_a_resolution_past_the_float_range():
    # the first step is pi / resolution; a resolution that converts to a float keeps it, however small
    start = MeasurementSettings((0.0, 0.5, 1.0))
    with pytest.raises(ResolutionTooLargeError, match="resolutions must lie within the float range"):
        refine(singlet(), start, 1e-3, 10**400)
    assert refine(singlet(), start, 1e-3, 10**308).best_settings == start


# --- closed-form optima -------------------------------------------------------------

SINGLET_OPTIMUM_LHS = 1.1342543799756328
WERNER_THRESHOLD = 0.95612863528


def _closed_form_max_lhs(mi) -> float:
    """max over theta of the LHS at (0, theta, 2 theta), for an MI that depends on angle differences only."""
    found = minimize_scalar(lambda t: mi(0.0, 2.0 * t) - 2.0 * mi(0.0, t), bounds=(0.05, 0.75),
                            method="bounded", options={"xatol": 1e-12})
    return -float(found.fun)


def test_closed_form_singlet_optimum_and_werner_threshold():
    assert _closed_form_max_lhs(singlet_mi) == pytest.approx(SINGLET_OPTIMUM_LHS, abs=1e-10)
    threshold = brentq(lambda p: _closed_form_max_lhs(lambda a, b: werner_mi(p, a, b)) - 1.0, 0.5, 1.0,
                       xtol=1e-14)
    assert threshold == pytest.approx(WERNER_THRESHOLD, abs=1e-10)


def test_refined_singlet_search_reaches_the_closed_form_optimum():
    assert grid_refine(singlet(), 32).best_lhs == pytest.approx(SINGLET_OPTIMUM_LHS, abs=1e-9)


def test_werner_threshold_reaches_the_closed_form_threshold():
    assert werner_threshold(32, 1e-6) == pytest.approx(WERNER_THRESHOLD, abs=1e-6)


def test_resolutions_take_integers_only():
    # int() used to truncate: grid_search(singlet(), 8.9) ran at resolution 8
    start = MeasurementSettings((0.0, 0.0, 0.0))
    for bad in (8.9, True, "8", float("nan")):
        for call in (lambda: grid_search(singlet(), bad), lambda: grid_refine(singlet(), bad),
                     lambda: refine(singlet(), start, resolution=bad), lambda: werner_threshold(bad)):
            with pytest.raises(ValidationError, match="resolutions must be"):
                call()
    assert grid_search(singlet(), 8.0) == grid_search(singlet(), np.int64(8)) == grid_search(singlet(), 8)
    assert refine(singlet(), start, 1e-3, 8.0) == refine(singlet(), start, 1e-3, 8)

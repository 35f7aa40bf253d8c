import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    JointDistribution,
    MarkovChainSpec,
    build_tripartite,
    conditional_mutual_information,
    is_markov,
    marginalize,
    mutual_entropy,
)
from entrobound.errors import (
    IndexOutOfRangeError,
    InvalidPermutationError,
    InvalidSpecError,
    RepeatedIndexError,
    ShapeMismatchError,
    ValidationError,
)

from entrobound.dist import MAX_CELLS
from entrobound.markov import CMI_ATOL

from conftest import noisy_copy_spec, random_markov_spec, triangle_counterexample, tripartite_tables


def test_spec_rejects_non_stochastic_rows():
    initial = JointDistribution.from_flat((2,), [0.5, 0.5])
    with pytest.raises(InvalidSpecError):
        MarkovChainSpec(initial, t1=[[0.9, 0.2], [0.1, 0.9]], t2=[[1, 0], [0, 1]])


def test_spec_rejects_negative_entries():
    initial = JointDistribution.from_flat((2,), [0.5, 0.5])
    with pytest.raises(InvalidSpecError):
        MarkovChainSpec(initial, t1=[[1.1, -0.1], [0, 1]], t2=[[1, 0], [0, 1]])


def test_spec_rejects_row_count_mismatch():
    initial = JointDistribution.from_flat((3,), [0.2, 0.3, 0.5])
    with pytest.raises(InvalidSpecError):
        MarkovChainSpec(initial, t1=[[1, 0], [0, 1]], t2=[[1, 0], [0, 1]])


def test_spec_rejects_multivariable_initial():
    with pytest.raises(InvalidSpecError):
        MarkovChainSpec(JointDistribution.uniform((2, 2)), t1=np.eye(4), t2=np.eye(4))


def test_deterministic_copy_chain():
    spec = MarkovChainSpec(
        JointDistribution.from_flat((3,), [1 / 3] * 3), t1=np.eye(3), t2=np.eye(3)
    )
    d = build_tripartite(spec)
    for a in range(3):
        assert d.probs[a, a, a] == pytest.approx(1 / 3, abs=1e-15)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_b_constant_makes_a_c_independent():
    spec = MarkovChainSpec(
        JointDistribution.from_flat((2,), [0.3, 0.7]),
        t1=[[1.0, 0.0], [1.0, 0.0]],  # everything maps to b = 0
        t2=[[0.6, 0.4], [0.5, 0.5]],
    )
    d = build_tripartite(spec)
    assert mutual_entropy(d, 0, 2).value == pytest.approx(0.0, abs=1e-12)


def test_noisy_copy_chain_matches_hand_product():
    spec = noisy_copy_spec(0.1)
    d = build_tripartite(spec)
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert d.probs[a, b, c] == pytest.approx(0.5 * t[a, b] * t[b, c], abs=1e-15)


def test_cmi_zero_on_markov_output():
    rng = np.random.default_rng(60)
    for _ in range(20):
        d = build_tripartite(random_markov_spec(rng, 2, 3, 2))
        assert conditional_mutual_information(d, 0, 2, 1).value <= 1e-12


def test_cmi_shared_copy():
    # A = C uniform bit, B independent uniform
    flat = np.zeros(8)
    for b in range(2):
        flat[0 * 4 + b * 2 + 0] = 0.25
        flat[1 * 4 + b * 2 + 1] = 0.25
    d = JointDistribution.from_flat((2, 2, 2), flat)
    assert conditional_mutual_information(d, 0, 2, 1).value == pytest.approx(1.0, abs=1e-12)


def test_cmi_independent_triple():
    d = JointDistribution.uniform((2, 2, 2))
    assert conditional_mutual_information(d, 0, 2, 1).value == pytest.approx(0.0, abs=1e-12)


def test_cmi_errors():
    d = JointDistribution.uniform((2, 2, 2))
    with pytest.raises(RepeatedIndexError):
        conditional_mutual_information(d, 0, 0, 1)
    with pytest.raises(IndexOutOfRangeError):
        conditional_mutual_information(d, 0, 1, 3)
    pair = JointDistribution.uniform((2, 2))
    with pytest.raises(IndexOutOfRangeError):
        conditional_mutual_information(pair, 0, 1, 2)


def test_cmi_takes_integer_indices_only():
    d = triangle_counterexample()
    for x, y, given in ((0, 2.2, 1), ("0", 2, 1), (0, 2, True)):
        with pytest.raises(ValidationError, match="variable indices must be integers"):
            conditional_mutual_information(d, x, y, given)
    assert conditional_mutual_information(d, 0.0, np.int64(2), 1.0) == conditional_mutual_information(d, 0, 2, 1)


def test_is_markov_both_directions():
    d = build_tripartite(noisy_copy_spec())
    assert is_markov(d, (0, 1, 2))
    assert is_markov(d, (2, 1, 0))


def test_is_markov_rejects_shared_copy():
    # A = C uniform bit with B independent: conditioning on B screens off nothing
    flat = np.zeros(8)
    for b in range(2):
        flat[0 * 4 + b * 2 + 0] = 0.25
        flat[1 * 4 + b * 2 + 1] = 0.25
    d = JointDistribution.from_flat((2, 2, 2), flat)
    assert not is_markov(d, (0, 1, 2))


def test_is_markov_counterexample_distribution():
    # A = C with B constant IS Markov in the (0, 1, 2) chain order? No:
    # I(A;C|B) = 1 since B carries nothing and A determines C.
    d = triangle_counterexample()
    assert not is_markov(d, (0, 1, 2))
    # but conditioning on A (or C) screens the others off
    assert is_markov(d, (1, 0, 2))


def test_is_markov_invalid_permutation():
    d = JointDistribution.uniform((2, 2, 2))
    with pytest.raises(InvalidPermutationError):
        is_markov(d, (0, 1, 1))


@pytest.mark.parametrize("order, sizes, error", [
    ((True, 0, 2), (2, 2, 2), ValidationError),  # a bool is not an index, though True == 1
    ((0, 1, 1), (2, 2, 2), InvalidPermutationError),
    ((0, 1, 2), (2, 2), IndexOutOfRangeError),  # variable 2 of a bivariate table
    ((2, 1, 0), (2,), IndexOutOfRangeError),
    ((0, 1, 2.0), (2, 2), IndexOutOfRangeError),
    ((0.5, 1, 2), (2, 2, 2), InvalidPermutationError),
    ("012", (2, 2, 2), InvalidPermutationError),
    (("a", 1, 2), (2, 2, 2), InvalidPermutationError),
    ((0, 1, 2, 0), (2, 2, 2), InvalidPermutationError),
])
def test_is_markov_error_classes(order, sizes, error):
    with pytest.raises(error):
        is_markov(JointDistribution.uniform(sizes), order)


def test_is_markov_takes_any_sequence_of_integral_indices():
    d = triangle_counterexample()
    for order in ((0.0, 1, 2), [0, 1, 2], (np.int64(0), 1.0, np.int32(2))):
        assert is_markov(d, order) is is_markov(d, (0, 1, 2)) is False
    assert is_markov(d, [1, 0, 2.0]) is is_markov(d, (1, 0, 2)) is True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_is_markov_is_the_cmi_test_for_every_order(d):
    for order in itertools.permutations(range(3)):
        first, middle, last = order
        expected = conditional_mutual_information(d, first, last, middle).value <= CMI_ATOL
        assert is_markov(d, order) is expected


def test_reversal_symmetry_sweep():
    rng = np.random.default_rng(61)
    for _ in range(100):
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=3))
        d = build_tripartite(random_markov_spec(rng, *sizes))
        assert is_markov(d, (0, 1, 2))
        assert is_markov(d, (2, 1, 0))


def test_markov_marginal_consistency():
    # the A marginal of the built joint is the initial distribution
    rng = np.random.default_rng(62)
    spec = random_markov_spec(rng, 3, 2, 4)
    d = build_tripartite(spec)
    a_marginal = marginalize(d, {0})
    assert np.max(np.abs(a_marginal.probs - spec.initial.probs)) <= 1e-12


def test_spec_json_round_trip():
    spec = noisy_copy_spec(0.25)
    again = MarkovChainSpec.from_dict(spec.to_dict())
    assert np.allclose(again.t1, spec.t1, atol=1e-15)
    assert np.allclose(again.t2, spec.t2, atol=1e-15)
    assert again.initial.allclose(spec.initial, atol=1e-15)


_IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("payload, error, message", [
    ({"initial": [True, False], "t1": _IDENTITY, "t2": _IDENTITY}, ValidationError, "must be real numbers"),
    ({"initial": ["0.5", "0.5"], "t1": _IDENTITY, "t2": _IDENTITY}, ValidationError, "must be real numbers"),
    ({"initial": [0.5, 0.5], "t1": [["0.5", "0.5"], [0, 1]], "t2": _IDENTITY}, InvalidSpecError,
     "t1 entries must be real numbers"),
    ({"initial": [0.5, 0.5], "t1": _IDENTITY, "t2": [[True, False], [0, 1]]}, InvalidSpecError,
     "t2 entries must be real numbers"),
    ({"initial": [0.5, 0.5], "t1": [[1.0], [0.5, 0.5]], "t2": _IDENTITY}, InvalidSpecError, "t1 is ragged"),
    ({"initial": [0.5, 0.5], "t1": [1.0, 0.0], "t2": _IDENTITY}, InvalidSpecError, "t1 must be a matrix"),
    ({"initial": [[0.5, 0.5], [0.5]], "t1": _IDENTITY, "t2": _IDENTITY}, ShapeMismatchError, "ragged table"),
], ids=["bool-initial", "str-initial", "str-t1", "bool-t2", "ragged-t1", "vector-t1", "ragged-initial"])
def test_spec_entries_must_be_real_numbers_in_a_rectangular_matrix(payload, error, message):
    with pytest.raises(error, match=message):
        MarkovChainSpec.from_dict(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_entries_must_be_finite(bad):
    with pytest.raises(InvalidSpecError, match="t2 contains non-finite entries"):
        MarkovChainSpec(JointDistribution.from_flat((2,), [0.5, 0.5]), t1=_IDENTITY, t2=[[1.0, 0.0], [bad, 1.0]])


def test_a_chain_above_the_table_cap_is_refused_before_the_table_is_built():
    # 256 outcomes a side: 2^24 cells from 2 x 2^16 spec entries, ~1.6 GB while built
    n = 256
    row = [1.0 / n] * n  # exact in binary
    spec = MarkovChainSpec(JointDistribution.from_flat((n,), row), t1=[row] * n, t2=[row] * n)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"capped at {MAX_CELLS} cells, got {n ** 3}"):
            build_tripartite(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_spec_matrices_are_row_tuples_of_floats():
    spec = MarkovChainSpec(JointDistribution.from_flat((2,), [0.5, 0.5]), t1=np.eye(2), t2=[[0, 1], [1, 0]])
    assert spec.t1 == ((1.0, 0.0), (0.0, 1.0)) and spec.t2 == ((0.0, 1.0), (1.0, 0.0))
    assert all(type(x) is float for row in spec.t1 + spec.t2 for x in row)


_weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))


def _draw_distribution(draw, n: int) -> np.ndarray:
    w = np.array(draw(st.lists(_weight, min_size=n, max_size=n)))
    if not w.any():
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum()


@st.composite
def chain_arrays(draw):
    """Initial distribution and transition rows of a chain up to (4, 4, 4), with exact zeros."""
    na, nb, nc = (draw(st.integers(1, 4)) for _ in range(3))
    return (_draw_distribution(draw, na),
            np.array([_draw_distribution(draw, nb) for _ in range(na)]),
            np.array([_draw_distribution(draw, nc) for _ in range(nb)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays=chain_arrays())
def test_build_tripartite_matches_einsum(arrays):
    initial, t1, t2 = arrays
    spec = MarkovChainSpec(JointDistribution.from_flat(initial.shape, initial), t1=t1, t2=t2)
    got = build_tripartite(spec).probs
    want = np.einsum("a,ab,bc->abc", initial, t1, t2)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15

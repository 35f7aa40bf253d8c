import numpy as np
import pytest

from entrobound import JointDistribution, marginalize, mix, product, validate, validate_table
from entrobound.dist import MAX_CELLS, _shape
from entrobound.errors import (
    EmptyKeepSetError,
    IndexOutOfRangeError,
    NegativeProbabilityError,
    NotNormalizedError,
    ShapeMismatchError,
    TooManyVariablesError,
    ValidationError,
    WeightsNotNormalizedError,
)

from conftest import random_tripartite


def test_validate_uniform_ok():
    validate_table((2, 2), [0.25, 0.25, 0.25, 0.25])
    validate(JointDistribution.uniform((2, 2)))


def test_validate_not_normalized():
    with pytest.raises(NotNormalizedError):
        validate_table((2, 2), [0.25, 0.25, 0.25, 0.15])


def test_validate_negative_entry():
    with pytest.raises(NegativeProbabilityError):
        validate_table((2, 2), [0.5, 0.6, -0.1, 0.0])


def test_validate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        validate_table((2, 2), [0.5, 0.5])


def test_validate_negative_reported_before_shape():
    # first violated invariant wins: nonnegativity, then normalization, then shape
    with pytest.raises(NegativeProbabilityError):
        validate_table((2, 2), [1.5, -0.5])


def test_more_than_three_vars_rejected():
    with pytest.raises(TooManyVariablesError):
        JointDistribution.from_flat((2, 2, 2, 2), np.full(16, 1 / 16))


def test_renormalized_on_load():
    d = JointDistribution.from_flat((2,), [0.5 + 4e-10, 0.5])
    assert d.probs.sum() == 1.0


def test_probs_are_read_only():
    d = JointDistribution.uniform((2, 2))
    with pytest.raises(ValueError):
        d.probs[0, 0] = 0.3


def test_marginalize_correlated_bits():
    d = JointDistribution.from_flat((2, 2), [0.5, 0.0, 0.0, 0.5])
    m = marginalize(d, {0})
    assert m.alphabet_sizes == (2,)
    np.testing.assert_allclose(m.probs, [0.5, 0.5], atol=1e-15)


def test_marginalize_product_factorizes():
    d1 = JointDistribution.from_flat((2,), [0.3, 0.7])
    d2 = JointDistribution.from_flat((2,), [0.6, 0.4])
    m = marginalize(product(d1, d2), {1})
    np.testing.assert_allclose(m.probs, [0.6, 0.4], atol=1e-15)


def test_marginalize_tripartite_uniform():
    d = JointDistribution.uniform((2, 2, 2))
    m = marginalize(d, {0, 2})
    assert m.alphabet_sizes == (2, 2)
    np.testing.assert_allclose(m.probs, np.full((2, 2), 0.25), atol=1e-15)


def test_marginalize_errors():
    d = JointDistribution.uniform((2, 2))
    with pytest.raises(EmptyKeepSetError):
        marginalize(d, set())
    with pytest.raises(IndexOutOfRangeError):
        marginalize(d, {2})


def test_marginalize_takes_integer_indices_only():
    # int() would keep variable 0 for 0.5, and read "01" as the indices 0 and 1
    d = JointDistribution.uniform((2, 3))
    for keep in ([0.5, 1], "01", [True, 1], [np.float64(1.9)]):
        with pytest.raises(ValidationError, match="variable indices must be integers"):
            marginalize(d, keep)
    assert marginalize(d, [1.0]).alphabet_sizes == marginalize(d, [np.int64(1)]).alphabet_sizes == (3,)


def test_point_mass_takes_integer_outcomes_only():
    for outcome in ((1.9, 0), (True, 0), ("1", 0)):
        with pytest.raises(ValidationError, match="outcomes must be integers"):
            JointDistribution.point_mass((2, 2), outcome)
    assert JointDistribution.point_mass((2, 2), (1.0, np.int64(0))).flat == (0.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("outcome", [(0, 2), (-1, 0), (0,), (0, 0, 0)], ids=["past-size", "negative", "short", "long"])
def test_point_mass_refuses_an_outcome_out_of_range(outcome):
    with pytest.raises(IndexOutOfRangeError, match="out of range for sizes"):
        JointDistribution.point_mass((2, 2), outcome)


def test_product_uniform():
    half = JointDistribution.from_flat((2,), [0.5, 0.5])
    np.testing.assert_allclose(product(half, half).probs, np.full((2, 2), 0.25), atol=1e-15)


def test_product_identity_element():
    one = JointDistribution.from_flat((1,), [1.0])
    d = JointDistribution.from_flat((2,), [0.3, 0.7])
    p = product(one, d)
    assert p.alphabet_sizes == (1, 2)
    np.testing.assert_allclose(p.probs.ravel(), [0.3, 0.7], atol=1e-15)


def test_product_direct_multiplication():
    d1 = JointDistribution.from_flat((2,), [0.3, 0.7])
    d2 = JointDistribution.from_flat((2,), [0.6, 0.4])
    np.testing.assert_allclose(
        product(d1, d2).probs.ravel(), [0.18, 0.12, 0.42, 0.28], atol=1e-15
    )


def test_product_exceeding_three_vars():
    pair = JointDistribution.uniform((2, 2))
    with pytest.raises(TooManyVariablesError):
        product(pair, pair)


def test_marginalize_composition_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_tripartite(rng, sizes=(2, 3, 2))
        twice = marginalize(marginalize(d, {0, 1}), {0})
        once = marginalize(d, {0})
        assert twice.allclose(once, atol=1e-12)


def test_product_then_marginalize_recovers_factor():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d1 = JointDistribution.from_flat((3,), rng.dirichlet(np.ones(3)))
        d2 = JointDistribution.from_flat((2, 2), rng.dirichlet(np.ones(4)))
        back = marginalize(product(d1, d2), {0})
        assert np.max(np.abs(back.probs - d1.probs)) <= 1e-12


def test_marginals_always_valid():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = random_tripartite(rng, sparse=True)
        for keep in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}):
            validate(marginalize(d, keep))


def test_json_round_trip():
    d = JointDistribution.from_flat((2, 2, 2), np.arange(1, 9) / 36.0)
    again = JointDistribution.from_dict(d.to_dict())
    assert again.allclose(d, atol=1e-15)
    assert d.to_dict()["alphabet_sizes"] == [2, 2, 2]


def test_non_finite_entries_rejected():
    from entrobound.errors import ValidationError

    with pytest.raises(ValidationError):
        JointDistribution.from_flat((2,), [np.nan, 1.0])
    with pytest.raises(ValidationError):
        JointDistribution.from_flat((2,), [np.inf, 0.0])


def test_size_one_alphabets():
    d = JointDistribution.from_flat((1, 2), [0.4, 0.6])
    m = marginalize(d, {1})
    np.testing.assert_allclose(m.probs, [0.4, 0.6], atol=1e-15)
    assert marginalize(d, {0}).probs[0] == 1.0


@pytest.mark.parametrize("probs", [
    [True, False],
    ["0.5", "0.5"],
    [" 0.5 ", 0.5],
    [0.5, None],
    [0.5, 0.5j],
], ids=["bool", "str", "padded-str", "none", "complex"])
def test_a_probability_must_be_a_real_number(probs):
    from entrobound.errors import ValidationError

    with pytest.raises(ValidationError, match="probabilities must be real numbers"):
        JointDistribution.from_flat((2,), probs)
    with pytest.raises(ValidationError, match="probabilities must be real numbers"):
        validate_table((2,), probs)


@pytest.mark.parametrize("probs", [
    [[0.5, 0.25], [0.25]],
    [[0.5, 0.25], 0.25],
    [0.5, [0.25, 0.25]],
], ids=["short-row", "row-then-scalar", "scalar-then-row"])
def test_a_ragged_table_is_refused_in_the_packages_terms(probs):
    with pytest.raises(ShapeMismatchError, match="ragged table"):
        JointDistribution.from_flat((3,), probs)


def test_numpy_scalars_nested_rows_and_integers_are_accepted():
    sizes = (np.int64(2), np.float64(2.0))
    d = JointDistribution(sizes, [[np.float64(0.25), np.float32(0.25)], (0.25, 0.25)])
    assert d.alphabet_sizes == (2, 2) and all(type(s) is int for s in d.alphabet_sizes)
    assert d.flat == (0.25, 0.25, 0.25, 0.25) and all(type(p) is float for p in d.flat)
    assert JointDistribution.from_flat((2,), [1, 0]).flat == (1.0, 0.0)
    assert JointDistribution.from_flat((2, 2), np.full((2, 2), 0.25)).flat == d.flat


def test_fields_are_immutable_and_the_array_is_built_on_demand():
    d = JointDistribution.from_flat((2, 2, 2), np.arange(1, 9) / 36.0)
    with pytest.raises(AttributeError):
        d.flat = (1.0,) + (0.0,) * 7
    with pytest.raises(AttributeError):
        del d.alphabet_sizes
    # the classical checks read the flat tuple; only .probs builds the ndarray
    from entrobound import entropy_vector, marginalize, shannon_entropy

    entropy_vector(d)
    shannon_entropy(marginalize(d, {0, 2}))
    assert d._array is None
    assert d.probs is d.probs
    assert d.probs.shape == (2, 2, 2) and d.probs.ravel().tolist() == list(d.flat)


@pytest.mark.parametrize("build", [
    lambda sizes: JointDistribution(sizes, [1.0]),
    JointDistribution.uniform,
    lambda sizes: JointDistribution.point_mass(sizes, (0,) * len(sizes)),
], ids=["constructor", "uniform", "point_mass"])
@pytest.mark.parametrize("sizes, message", [
    ((), "need at least one variable"),
    ((0,), "alphabet sizes must be positive"),
    ((2, 0, 2), "alphabet sizes must be positive"),
    ((2, 2, 2, 2), "at most 3 variables"),
    ((2 ** 8,) * 3, f"capped at {MAX_CELLS} cells"),
    ((10 ** 7,) * 3, f"capped at {MAX_CELLS} cells"),
])
def test_every_table_is_shape_checked_before_it_is_built(build, sizes, message):
    # uniform((0,)) divided by zero, and uniform((10**7,) * 3) overflowed, before the shape rule was shared
    with pytest.raises((ShapeMismatchError, TooManyVariablesError, ValidationError), match=message):
        build(sizes)


def test_the_cell_cap_is_inclusive():
    assert _shape((MAX_CELLS,)) == ((MAX_CELLS,), MAX_CELLS)
    assert _shape((2048, 2048)) == ((2048, 2048), MAX_CELLS)
    with pytest.raises(ValidationError, match=f"got {MAX_CELLS + 1} for sizes"):
        _shape((MAX_CELLS + 1,))
    with pytest.raises(ValidationError, match="capped at"):
        product(JointDistribution.uniform((2048,)), JointDistribution.uniform((2049,)))


def test_entries_whose_sum_overflows_are_not_normalized():
    with pytest.raises(NotNormalizedError, match="probabilities sum to inf"):
        JointDistribution.from_flat((2,), [1e308, 1e308])

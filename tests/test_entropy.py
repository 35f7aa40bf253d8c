import math

import numpy as np
import pytest

from entrobound import (
    JointDistribution,
    boltzmann_entropy,
    conditional_entropy,
    convert_base,
    mixing_entropy,
    mix,
    mutual_entropy,
    product,
    relative_entropy,
    shannon_entropy,
    singlet,
    von_neumann_entropy,
    EntropyValue,
)
from entrobound.errors import (
    InvalidBaseError,
    MixtureMismatchError,
    SameVariableError,
    ShapeMismatchError,
    ValidationError,
    WeightsNotNormalizedError,
    ZeroMultiplicityError,
)

from conftest import brute_entropy_bits, h2, random_tripartite


def bits(x):
    return JointDistribution.from_flat((len(x),), x)


def test_shannon_uniform_bit():
    assert shannon_entropy(bits([0.5, 0.5])).value == pytest.approx(1.0, abs=1e-15)


def test_shannon_deterministic():
    assert shannon_entropy(bits([1.0, 0.0])).value == 0.0


def test_shannon_quarter_three_quarters():
    got = shannon_entropy(bits([0.25, 0.75])).value
    assert got == pytest.approx(0.8112781244591328, abs=1e-12)


def test_shannon_other_base():
    e = shannon_entropy(bits([0.5, 0.5]), base=math.e)
    assert e.value == pytest.approx(math.log(2), abs=1e-12)
    assert e.base == math.e


def test_shannon_invalid_base():
    with pytest.raises(InvalidBaseError):
        shannon_entropy(bits([0.5, 0.5]), base=1.0)


@pytest.mark.parametrize("base", [math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda base: shannon_entropy(bits([0.5, 0.5]), base),
    lambda base: relative_entropy(bits([0.5, 0.5]), bits([0.5, 0.5]), base),
    lambda base: convert_base(EntropyValue(1.0), base),
    lambda base: boltzmann_entropy(6, base),
    lambda base: von_neumann_entropy(singlet(), base),
], ids=["shannon", "relative", "convert", "boltzmann", "von_neumann"])
def test_non_finite_base_is_rejected(call, base):
    with pytest.raises(InvalidBaseError, match="must be finite and > 1"):
        call(base)


def test_relative_identical_is_zero():
    d = bits([0.3, 0.7])
    assert relative_entropy(d, d).value == 0.0


def test_relative_correlated_vs_uniform():
    corr = JointDistribution.from_flat((2, 2), [0.5, 0, 0, 0.5])
    got = relative_entropy(corr, JointDistribution.uniform((2, 2)))
    assert got.value == pytest.approx(1.0, abs=1e-12)


def test_relative_support_escape_is_infinite():
    result = relative_entropy(bits([0.5, 0.5]), bits([1.0, 0.0]))
    assert result.is_infinite
    assert result.to_dict() == {"value": "inf", "base": 2.0}


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64(math.inf), np.float64(-math.inf)])
def test_infinite_value_keeps_its_sign_in_to_dict(value):
    want = "inf" if value > 0 else "-inf"
    assert EntropyValue(value, 2.0).to_dict() == {"value": want, "base": 2.0}


def test_relative_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        relative_entropy(bits([0.5, 0.5]), JointDistribution.uniform((2, 2)))


def test_mutual_independent_is_zero():
    d = product(bits([0.3, 0.7]), bits([0.6, 0.4]))
    assert mutual_entropy(d, 0, 1).value == 0.0


def test_mutual_correlated_bits():
    d = JointDistribution.from_flat((2, 2), [0.5, 0, 0, 0.5])
    assert mutual_entropy(d, 0, 1).value == pytest.approx(1.0, abs=1e-12)


def test_mutual_binary_symmetric_channel():
    flip = 0.1
    table = np.array([[0.5 * (1 - flip), 0.5 * flip], [0.5 * flip, 0.5 * (1 - flip)]])
    d = JointDistribution((2, 2), table)
    assert mutual_entropy(d, 0, 1).value == pytest.approx(1.0 - h2(flip), abs=1e-12)
    assert 1.0 - h2(flip) == pytest.approx(0.5310044064107188, abs=1e-12)


def test_mutual_marginalizes_third_variable():
    rng = np.random.default_rng(3)
    d = random_tripartite(rng)
    pair = JointDistribution((2, 2), d.probs.sum(axis=2))
    assert mutual_entropy(d, 0, 1).value == pytest.approx(mutual_entropy(pair, 0, 1).value, abs=1e-12)


def test_mutual_entropy_takes_integer_indices_only():
    d = random_tripartite(np.random.default_rng(8))
    for x, y in ((0, 1.9), ("0", "2"), (True, 2), (0, float("nan"))):
        with pytest.raises(ValidationError, match="variable indices"):
            mutual_entropy(d, x, y)
    assert mutual_entropy(d, 0.0, np.int64(2)) == mutual_entropy(d, 0, 2)


def test_conditional_entropy_takes_integer_indices_only():
    d = random_tripartite(np.random.default_rng(9))
    for target, given in ((2.7, 0), ("2", 0), (2, False)):
        with pytest.raises(ValidationError, match="variable indices must be integers"):
            conditional_entropy(d, target, given)
    assert conditional_entropy(d, 2.0, np.int32(0)) == conditional_entropy(d, 2, 0)


def test_mutual_errors():
    d = JointDistribution.uniform((2, 2))
    with pytest.raises(SameVariableError):
        mutual_entropy(d, 1, 1)
    from entrobound.errors import IndexOutOfRangeError

    with pytest.raises(IndexOutOfRangeError):
        mutual_entropy(d, 0, 2)


def test_conditional_determined():
    d = JointDistribution.from_flat((2, 2), [0.5, 0, 0, 0.5])
    assert conditional_entropy(d, 1, 0).value == 0.0


def test_conditional_independent():
    d = JointDistribution.uniform((2, 2))
    assert conditional_entropy(d, 1, 0).value == pytest.approx(1.0, abs=1e-12)


def test_conditional_tripartite_uniform():
    d = JointDistribution.uniform((2, 2, 2))
    for target, given in ((0, 1), (1, 2), (2, 0)):
        assert conditional_entropy(d, target, given).value == pytest.approx(1.0, abs=1e-12)


def test_boltzmann_unique_microstate():
    assert boltzmann_entropy(1).value == 0.0


def test_boltzmann_dice_multiplicity():
    e = boltzmann_entropy(6)
    assert e.base == math.e
    assert e.value == pytest.approx(math.log(6), abs=1e-15)


def test_boltzmann_additivity():
    combined = boltzmann_entropy(30).value
    assert combined == pytest.approx(boltzmann_entropy(6).value + boltzmann_entropy(5).value, abs=1e-12)


def test_boltzmann_zero_multiplicity():
    with pytest.raises(ZeroMultiplicityError):
        boltzmann_entropy(0)


def test_boltzmann_enormous_multiplicity():
    # thermodynamic-scale counts stay exact through Python integers
    e = boltzmann_entropy(10 ** 120)
    assert e.value == pytest.approx(120 * math.log(10), rel=1e-12)


def test_convert_base_bit_to_nat():
    nats = convert_base(EntropyValue(1.0, 2.0), math.e)
    assert nats.value == pytest.approx(math.log(2), abs=1e-15)
    assert nats.base == math.e


def test_convert_base_zero():
    assert convert_base(EntropyValue(0.0, 10.0), 2.0).value == 0.0


def test_convert_base_nat_to_bit():
    got = convert_base(EntropyValue(math.log(6), math.e), 2.0)
    assert got.value == pytest.approx(math.log2(6), abs=1e-12)


def test_convert_base_round_trip_lossless():
    e = EntropyValue(0.8112781244591328, 2.0)
    back = convert_base(convert_base(e, 7.5), 2.0)
    assert back.value == pytest.approx(e.value, abs=1e-15)


def test_convert_base_infinite():
    assert convert_base(EntropyValue(math.inf, 2.0), math.e).is_infinite


def test_convert_base_invalid():
    with pytest.raises(InvalidBaseError):
        convert_base(EntropyValue(1.0, 2.0), 0.5)


def test_mixing_identical_components():
    d = bits([0.3, 0.7])
    assert mixing_entropy([d, d], [0.5, 0.5], d).value == 0.0


def test_mixing_point_masses():
    p0 = bits([1.0, 0.0])
    p1 = bits([0.0, 1.0])
    after = bits([0.5, 0.5])
    assert mixing_entropy([p0, p1], [0.5, 0.5], after).value == pytest.approx(1.0, abs=1e-12)


def test_mixing_biased_pair():
    a = bits([0.9, 0.1])
    b = bits([0.1, 0.9])
    after = mix([a, b], [0.5, 0.5])
    got = mixing_entropy([a, b], [0.5, 0.5], after).value
    assert got == pytest.approx(1.0 - h2(0.1), abs=1e-12)


def test_mixing_entropy_refuses_an_after_of_another_shape():
    d = bits([0.5, 0.5])
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        mixing_entropy([d, d], [0.5, 0.5], JointDistribution.uniform((4,)))


def test_mixing_reads_the_weights_mix_reads():
    a = bits([0.9, 0.1])
    b = bits([0.1, 0.9])
    nested = [[0.25], [0.75]]
    after = mix([a, b], nested)
    assert repr(mixing_entropy([a, b], nested, after)) == repr(mixing_entropy([a, b], [0.25, 0.75], after))


@pytest.mark.parametrize("count, weights", [(2, [[0.5, 0.5], [0.0, 0.0]]), (1, [[0.5, 0.5]])],
                         ids=["extra-row", "one-row-for-one-component"])
def test_mix_counts_the_flattened_weights(count, weights):
    # nested weights used to be counted by rows, so the extra entries were dropped or mixed in short
    components = [bits([0.9, 0.1]), bits([0.1, 0.9])][:count]
    with pytest.raises(ValidationError, match="need matching, nonempty components and weights"):
        mix(components, weights)
    with pytest.raises(ValidationError, match="need matching, nonempty components and weights"):
        mixing_entropy(components, weights, components[0])


def test_mixing_rejects_bad_weights():
    d = bits([0.5, 0.5])
    with pytest.raises(WeightsNotNormalizedError):
        mixing_entropy([d, d], [0.7, 0.7], d)
    with pytest.raises(WeightsNotNormalizedError):
        mixing_entropy([d, d], [1.5, -0.5], d)


def test_mixing_rejects_wrong_after():
    a = bits([0.9, 0.1])
    b = bits([0.1, 0.9])
    with pytest.raises(MixtureMismatchError):
        mixing_entropy([a, b], [0.5, 0.5], bits([0.9, 0.1]))


def test_mixing_shape_mismatch():
    a = bits([0.5, 0.5])
    b = JointDistribution.uniform((2, 2))
    with pytest.raises(ShapeMismatchError):
        mixing_entropy([a, b], [0.5, 0.5], a)


# --- property sweeps ----------------------------------------------------------

def test_relative_entropy_nonnegative_sweep():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        d = bits(rng.dirichlet(np.ones(n)))
        ref = bits(rng.dirichlet(np.ones(n)))
        value = relative_entropy(d, ref).value
        assert value >= 0.0


def test_subadditivity_sweep():
    rng = np.random.default_rng(43)
    for _ in range(300):
        sizes = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        n = sizes[0] * sizes[1]
        d = JointDistribution.from_flat(sizes, rng.dirichlet(np.ones(n)))
        h_joint = shannon_entropy(d).value
        h_a = shannon_entropy(JointDistribution((sizes[0],), d.probs.sum(axis=1))).value
        h_b = shannon_entropy(JointDistribution((sizes[1],), d.probs.sum(axis=0))).value
        assert h_joint <= h_a + h_b + 1e-9


def test_additivity_for_products_sweep():
    rng = np.random.default_rng(44)
    for _ in range(300):
        d1 = bits(rng.dirichlet(np.ones(3)))
        d2 = bits(rng.dirichlet(np.ones(4)))
        joint = shannon_entropy(product(d1, d2)).value
        assert joint == pytest.approx(shannon_entropy(d1).value + shannon_entropy(d2).value, abs=1e-9)


def test_mutual_symmetry_exact():
    rng = np.random.default_rng(45)
    for _ in range(200):
        d = random_tripartite(rng, sizes=(2, 3, 2))
        assert mutual_entropy(d, 0, 1).value == mutual_entropy(d, 1, 0).value
        assert mutual_entropy(d, 1, 2).value == mutual_entropy(d, 2, 1).value


def test_mutual_equals_relative_to_product_of_marginals():
    rng = np.random.default_rng(46)
    from entrobound import marginalize

    for _ in range(200):
        d = JointDistribution.from_flat((2, 3), rng.dirichlet(np.ones(6)))
        mi = mutual_entropy(d, 0, 1).value
        ref = product(marginalize(d, {0}), marginalize(d, {1}))
        kl = relative_entropy(d, ref).value
        assert mi == pytest.approx(kl, abs=1e-9)


def test_entropy_bounds_sweep():
    rng = np.random.default_rng(47)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        d = bits(rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0)))
        h = shannon_entropy(d).value
        assert 0.0 <= h <= math.log2(n) + 1e-12
        assert h == pytest.approx(brute_entropy_bits(d.probs), abs=1e-12)

import math
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from entrobound import (
    MacrostateSpec,
    boltzmann_entropy,
    coin_reversal_monte_carlo,
    coin_reversal_probability,
    coin_reversal_unordered_probability,
    combine_multiplicities,
    dice_multiplicity,
    mixing_demo,
)
from entrobound.errors import (
    MixingOverflowError,
    TooManyCoinsError,
    TooManyDiceError,
    TotalOutOfRangeError,
    ValidationError,
    ZeroMultiplicityError,
)
from entrobound.statmech import MAX_COIN_FLIPS, MAX_COINS, MAX_DICE, MAX_MULTIPLICITY_BITS


def test_two_dice_seven():
    assert dice_multiplicity(2, 7).multiplicity == 6


def test_two_dice_eight():
    assert dice_multiplicity(2, 8).multiplicity == 5


def test_impossible_total_counts_zero():
    assert dice_multiplicity(2, 13).multiplicity == 0
    assert dice_multiplicity(2, 1).multiplicity == 0


def test_dice_brute_force_cross_check():
    # independent oracles: enumerate tuples with itertools, and the inclusion-exclusion closed form
    # sum_k (-1)^k C(n, k) C(t - 6k - 1, n - 1) over the k dice forced above 6
    for total in range(1, 20):
        expected = sum(1 for roll in iproduct(range(1, 7), repeat=3) if sum(roll) == total)
        assert dice_multiplicity(3, total).multiplicity == expected
    for n in range(1, MAX_DICE + 1):
        for total in range(1, 6 * n + 2):
            expected = sum((-1) ** k * math.comb(n, k) * math.comb(total - 6 * k - 1, n - 1)
                           for k in range(n + 1) if total - 6 * k - 1 >= 0)
            assert dice_multiplicity(n, total).multiplicity == expected, (n, total)


def test_dice_errors():
    with pytest.raises(TotalOutOfRangeError):
        dice_multiplicity(2, 0)
    with pytest.raises(TotalOutOfRangeError):
        dice_multiplicity(2, -4)
    with pytest.raises(TooManyDiceError):
        dice_multiplicity(9, 30)
    with pytest.raises(ValidationError):
        dice_multiplicity(0, 0)


def test_boltzmann_entropy_of_impossible_macrostate_refused():
    with pytest.raises(ZeroMultiplicityError):
        boltzmann_entropy(dice_multiplicity(2, 13).multiplicity)


def test_combine_pair_of_pairs():
    seven = dice_multiplicity(2, 7)
    eight = dice_multiplicity(2, 8)
    combined = combine_multiplicities(seven, eight)
    assert combined.multiplicity == 30
    total = boltzmann_entropy(combined.multiplicity).value
    parts = boltzmann_entropy(6).value + boltzmann_entropy(5).value
    assert abs(total - parts) <= 1e-12


def test_a_macrostate_refuses_a_negative_multiplicity():
    with pytest.raises(ValidationError, match="multiplicity must be >= 0"):
        MacrostateSpec("impossible", -1)


def test_combine_identity():
    one = MacrostateSpec("unique", 1)
    k = MacrostateSpec("k-fold", 17)
    assert combine_multiplicities(one, k).multiplicity == 17


def test_combine_direct_product():
    assert combine_multiplicities(MacrostateSpec("a", 6), MacrostateSpec("b", 6)).multiplicity == 36


def test_combine_refuses_a_product_past_the_cap_without_printing_it():
    big = 10 ** 2200 - 1
    assert (big * big).bit_length() > MAX_MULTIPLICITY_BITS
    with pytest.raises(ValidationError, match=f"capped at {MAX_MULTIPLICITY_BITS} bits") as caught:
        combine_multiplicities(MacrostateSpec("a", big), MacrostateSpec("b", big))
    assert len(str(caught.value)) < 100
    at_cap = MacrostateSpec("a", 1 << (MAX_MULTIPLICITY_BITS - 1))
    assert combine_multiplicities(at_cap, MacrostateSpec("b", 1)).multiplicity == 1 << (MAX_MULTIPLICITY_BITS - 1)
    str(1 << MAX_MULTIPLICITY_BITS)  # every allowed product is below this, and it still prints


def test_combine_additivity_sweep():
    import numpy as np

    rng = np.random.default_rng(90)
    for _ in range(100):
        a = int(rng.integers(1, 10_000))
        b = int(rng.integers(1, 10_000))
        combined = combine_multiplicities(MacrostateSpec("a", a), MacrostateSpec("b", b))
        lhs = boltzmann_entropy(combined.multiplicity).value
        rhs = boltzmann_entropy(a).value + boltzmann_entropy(b).value
        assert abs(lhs - rhs) <= 1e-12


def test_coin_single_flip():
    assert coin_reversal_probability(1) == 0.5


def test_coin_five_flips():
    assert coin_reversal_probability(5) == 0.03125


def test_coin_ten_flips():
    assert coin_reversal_probability(10) == 0.0009765625


def test_coin_probability_exact_powers():
    for n in range(1, 51):
        assert coin_reversal_probability(n) == 2.0 ** (-n)


def test_coin_probability_is_the_float_power_then_zero():
    for n in range(1, 3000):
        assert coin_reversal_probability(n) == 2.0 ** (-n)
    assert coin_reversal_probability(1075) == 0.0
    assert coin_reversal_probability(int("9" * 310)) == 0.0  # 2.0 ** -n raises OverflowError here


def test_coin_rejects_zero_length():
    with pytest.raises(ValidationError):
        coin_reversal_probability(0)
    with pytest.raises(ValidationError, match="sequence length must be >= 1, got 0"):
        coin_reversal_unordered_probability(0, 0)
    with pytest.raises(ValidationError, match="sequence length must be >= 1, got 0"):
        coin_reversal_monte_carlo(0, 10, seed=0)


def test_coin_unordered_conjecture_mode():
    # matching only the 3-heads/2-tails composition of a length-5 target
    assert coin_reversal_unordered_probability(5, 3) == 0.3125
    assert coin_reversal_unordered_probability(5, 2) == 0.3125
    assert coin_reversal_unordered_probability(5, 0) == 0.03125
    with pytest.raises(ValidationError):
        coin_reversal_unordered_probability(5, 6)


def test_monte_carlo_is_seed_deterministic():
    a = coin_reversal_monte_carlo(5, 10_000, seed=7)
    b = coin_reversal_monte_carlo(5, 10_000, seed=7)
    assert a == b


def test_monte_carlo_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        coin_reversal_monte_carlo(5, 10, seed=-1)


def test_monte_carlo_converges_to_analytic():
    trials = 1_000_000
    p = 0.03125
    sigma = math.sqrt(p * (1 - p) / trials)
    estimate = coin_reversal_monte_carlo(5, trials, seed=2024)
    assert abs(estimate - p) <= 3 * sigma


def test_monte_carlo_single_flip():
    trials = 100_000
    sigma = math.sqrt(0.25 / trials)
    estimate = coin_reversal_monte_carlo(1, trials, seed=11)
    assert abs(estimate - 0.5) <= 3 * sigma


def test_monte_carlo_long_sequence_rarely_matches():
    # p = 2^-20, 10^4 trials: expected matches under 0.01
    assert coin_reversal_monte_carlo(20, 10_000, seed=3) == 0.0


def test_mixing_same_species_is_zero():
    assert mixing_demo(4, 9, same_species=True).value == 0.0


def test_mixing_reads_numpy_bools_as_flags():
    for flag in (True, False):
        assert repr(mixing_demo(4, 9, same_species=np.bool_(flag))) == repr(mixing_demo(4, 9, same_species=flag))


def test_mixing_two_particles():
    assert mixing_demo(1, 1, same_species=False).value == pytest.approx(1.0, abs=1e-15)


def test_mixing_ten_and_ten():
    got = mixing_demo(10, 10, same_species=False).value
    assert got == pytest.approx(math.log2(184756), abs=1e-12)


def test_mixing_nonnegative_and_monotone():
    previous = -1.0
    for n_a in range(1, 20):
        value = mixing_demo(n_a, 7, same_species=False).value
        assert value >= 0.0
        assert value >= previous
        previous = value


def test_mixing_overflow_refused():
    with pytest.raises(MixingOverflowError):
        mixing_demo(31, 30, same_species=False)


def test_mixing_rejects_empty_system():
    with pytest.raises(ValidationError):
        mixing_demo(0, 5, same_species=False)


def test_unordered_probability_is_the_old_float_below_1024_coins():
    # exact int division; below 1024 coins 2.0 ** n is finite and gives the same float
    for n in range(1, 1024):
        for k in {0, 1, n // 3, n // 2, n - 1, n}:
            assert coin_reversal_unordered_probability(n, k) == math.comb(n, k) / 2.0 ** n


def test_unordered_probability_beyond_the_float_range_of_2_to_the_n():
    assert coin_reversal_unordered_probability(2000, 3) == 0.0  # ~1e-593 underflows, no OverflowError
    exact = Fraction(math.comb(MAX_COINS, MAX_COINS // 2), 2 ** MAX_COINS)
    assert coin_reversal_unordered_probability(MAX_COINS, MAX_COINS // 2) == float(exact)


def test_coin_caps_raise_before_any_work():
    with pytest.raises(TooManyCoinsError):
        coin_reversal_unordered_probability(MAX_COINS + 1, 3)
    with pytest.raises(TooManyCoinsError):
        coin_reversal_monte_carlo(10 ** 9, 1, seed=0)  # would be one 1 GB row
    with pytest.raises(TooManyCoinsError):
        coin_reversal_monte_carlo(1000, MAX_COIN_FLIPS // 1000 + 1, seed=0)
    assert issubclass(TooManyCoinsError, ValidationError)


def test_monte_carlo_accepts_the_longest_sequence():
    assert coin_reversal_monte_carlo(MAX_COINS, 10, seed=0) == 0.0


def test_ordered_reversal_probability_is_uncapped():
    assert coin_reversal_probability(10 ** 9) == 0.0


@pytest.mark.parametrize("call, what", [
    (lambda: dice_multiplicity(2.9, 7), "dice counts"),
    (lambda: dice_multiplicity(2, 7.5), "totals"),
    (lambda: dice_multiplicity(True, 1), "dice counts"),
    (lambda: coin_reversal_probability(2.5), "sequence lengths"),
    (lambda: coin_reversal_unordered_probability("4", 1), "sequence lengths"),
    (lambda: coin_reversal_unordered_probability(4, 1.5), "target heads"),
    (lambda: coin_reversal_monte_carlo(3, 10.5, 1), "trials"),
    (lambda: coin_reversal_monte_carlo(3, 10, True), "seeds"),
    (lambda: mixing_demo(2.5, 3, False), "particle counts"),
    (lambda: mixing_demo(2, float("inf"), False), "particle counts"),
    (lambda: MacrostateSpec("x", 6.5), "multiplicities"),
    (lambda: boltzmann_entropy(2.5), "multiplicities"),
    (lambda: boltzmann_entropy("6"), "multiplicities"),
])
def test_counts_take_integers_only(call, what):
    # int() used to truncate: 2.9 dice totalling 7.5 counted 2 dice totalling 7, and S(2.5) was ln 2
    with pytest.raises(ValidationError, match=f"{what} must be"):
        call()


def test_integral_floats_and_numpy_integers_are_counts():
    assert dice_multiplicity(2.0, np.int64(7)) == dice_multiplicity(2, 7)
    assert coin_reversal_unordered_probability(np.int32(4), 2.0) == coin_reversal_unordered_probability(4, 2)
    assert coin_reversal_monte_carlo(3.0, np.int64(50), 5.0) == coin_reversal_monte_carlo(3, 50, 5)
    assert mixing_demo(np.int64(2), 3.0, False) == mixing_demo(2, 3, False)
    assert MacrostateSpec("x", np.int64(6)) == MacrostateSpec("x", 6)
    assert type(MacrostateSpec("x", 6.0).multiplicity) is int
    assert boltzmann_entropy(6.0) == boltzmann_entropy(np.int64(6)) == boltzmann_entropy(6)

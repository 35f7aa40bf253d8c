"""Multiplicity counting, coin-flip reversal odds, and lattice mixing.

Multiplicities are counted exactly with Python integers (capped where the
count stops being sane), mixing is modeled combinatorially as lattice
arrangements, and the Monte Carlo estimator owns a private seeded generator
so nothing here touches global RNG state.  Only that estimator needs numpy,
and it imports numpy itself, so the exact counts run without it.
"""
from __future__ import annotations

import math

from .errors import (
    MixingOverflowError,
    TooManyCoinsError,
    TooManyDiceError,
    TotalOutOfRangeError,
    ValidationError,
)
from .value import EntropyValue, _as_size, _Frozen

MAX_DICE = 8
MAX_MIXING_PARTICLES = 60
# C(n, k) and one Monte Carlo row both grow with n, and a Monte Carlo run
# draws n * trials flips; these caps bound the time and memory of both.
MAX_COINS = 10_000
MAX_COIN_FLIPS = 100_000_000
# About 3900 decimal digits: the interpreter prints no int of over 4300.
MAX_MULTIPLICITY_BITS = 13_000


class MacrostateSpec(_Frozen):
    """A labeled macrostate with its microstate count.

    Multiplicity 0 marks an impossible macrostate (e.g. a dice total no
    roll produces); taking its Boltzmann entropy is refused downstream.
    """

    __slots__ = ("description", "multiplicity")

    def __init__(self, description: str, multiplicity: int) -> None:
        multiplicity = _as_size(multiplicity, "multiplicities")
        if multiplicity < 0:
            raise ValidationError(f"multiplicity must be >= 0, got {multiplicity}")
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "multiplicity", multiplicity)


def dice_multiplicity(num_dice: int, total: int) -> MacrostateSpec:
    """Count ordered dice outcomes summing to ``total``, exactly.

    Unreachable positive totals count 0; totals below 1 are rejected since
    no roll of any number of dice can produce them.
    """
    num_dice = _as_size(num_dice, "dice counts")
    total = _as_size(total, "totals")
    if num_dice < 1:
        raise ValidationError(f"need at least one die, got {num_dice}")
    if num_dice > MAX_DICE:
        raise TooManyDiceError(f"enumeration capped at {MAX_DICE} dice, got {num_dice}")
    if total < 1:
        raise TotalOutOfRangeError(f"no dice roll totals {total}")
    ways = [1]  # ways[s]: ordered rolls of the dice so far that sum to s
    for _ in range(num_dice):
        rolled = [0] * (len(ways) + 6)
        for face in range(1, 7):
            for s, w in enumerate(ways):
                rolled[s + face] += w
        ways = rolled
    count = ways[total] if total < len(ways) else 0
    return MacrostateSpec(f"{num_dice} dice totaling {total}", count)


def combine_multiplicities(a: MacrostateSpec, b: MacrostateSpec) -> MacrostateSpec:
    """Joint macrostate of two labeled systems: multiplicities multiply, up to MAX_MULTIPLICITY_BITS bits."""
    product = a.multiplicity * b.multiplicity
    if product.bit_length() > MAX_MULTIPLICITY_BITS:  # not the product itself: it may be past printing
        raise ValidationError(f"combined multiplicity capped at {MAX_MULTIPLICITY_BITS} bits, "
                              f"got {product.bit_length()}")
    return MacrostateSpec(f"({a.description}) and ({b.description})", product)


def coin_reversal_probability(sequence_length: int) -> float:
    """Probability of reproducing one specific fair-coin sequence: 2^-n.

    The same value covers both re-running n sequential flips and flipping n
    coins at once, since either way one ordered pattern of n binary
    outcomes must be matched.  It is 0.0 past n = 1074; ``ldexp`` gives that for any n, where
    ``2.0 ** -n`` raises OverflowError past n = 1.8e308.
    """
    n = _as_size(sequence_length, "sequence lengths")
    if n < 1:
        raise ValidationError(f"sequence length must be >= 1, got {n}")
    return math.ldexp(1.0, -n)


def _check_coins(n: int) -> None:
    if n > MAX_COINS:
        raise TooManyCoinsError(f"coin sequences capped at {MAX_COINS}, got {n}")


def coin_reversal_unordered_probability(sequence_length: int, target_heads: int) -> float:
    """Probability of matching only the heads/tails counts of the target.

    A conjectural alternative reading of the simultaneous-flip case (match
    the composition, not the ordered pattern): C(n, k) / 2^n.  The ordered
    reading of :func:`coin_reversal_probability` is the default everywhere.
    """
    n = _as_size(sequence_length, "sequence lengths")
    k = _as_size(target_heads, "target heads")
    if n < 1:
        raise ValidationError(f"sequence length must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValidationError(f"target heads must be in [0, {n}], got {k}")
    _check_coins(n)
    return math.comb(n, k) / 2 ** n


def coin_reversal_monte_carlo(sequence_length: int, trials: int, seed: int) -> float:
    """Empirical fraction of fresh random sequences matching a fixed target.

    Deterministic for a fixed seed; the generator is private to the call.
    """
    n = _as_size(sequence_length, "sequence lengths")
    trials = _as_size(trials, "trials")
    seed = _as_size(seed, "seeds")
    if n < 1:
        raise ValidationError(f"sequence length must be >= 1, got {n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    _check_coins(n)
    if n * trials > MAX_COIN_FLIPS:
        raise TooManyCoinsError(
            f"Monte Carlo capped at {MAX_COIN_FLIPS} flips (length x trials), got {n} x {trials}"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    matches = 0
    remaining = trials
    chunk = max(1, min(trials, 10_000_000 // n))
    while remaining > 0:
        batch = min(chunk, remaining)
        draws = rng.integers(0, 2, size=(batch, n), dtype=np.int8)
        matches += int((draws.sum(axis=1) == 0).sum())  # target: all zeros, wlog
        remaining -= batch
    return matches / trials


def mixing_demo(n_a: int, n_b: int, same_species: bool) -> EntropyValue:
    """Lattice entropy of mixing in bits: log2 C(n_a + n_b, n_a).

    Distinguishable species gain log2 of the number of arrangements;
    identical species gain nothing.  Counts are kept small enough that the
    binomial is exact.
    """
    n_a, n_b = _as_size(n_a, "particle counts"), _as_size(n_b, "particle counts")
    if n_a < 1 or n_b < 1:
        raise ValidationError(f"particle counts must be >= 1, got ({n_a}, {n_b})")
    if n_a + n_b > MAX_MIXING_PARTICLES:
        raise MixingOverflowError(
            f"refusing n_a + n_b = {n_a + n_b} > {MAX_MIXING_PARTICLES}; binomial would lose exactness"
        )
    if same_species:
        return EntropyValue(0.0, 2.0)
    return EntropyValue(math.log2(math.comb(n_a + n_b, n_a)), 2.0)

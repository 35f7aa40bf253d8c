"""An entropy with its logarithm base, and the base arithmetic on it.

Stdlib only: the Boltzmann entropy of an exact integer multiplicity needs
nothing more than :func:`math.log`, so the statistical-mechanics commands
run without importing numpy.  :mod:`entrobound.entropy` re-exports every
name here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidBaseError, ZeroMultiplicityError


@dataclass(frozen=True)
class EntropyValue:
    """An entropy with its logarithm base recorded explicitly."""

    value: float
    base: float = 2.0

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def to_dict(self) -> dict:
        value = float(self.value)  # str(value) keeps the sign of an infinity
        return {"value": str(value) if self.is_infinite else value, "base": float(self.base)}

    def __repr__(self) -> str:
        return f"EntropyValue({self.value!r}, base={self.base!r})"


def _check_base(base: float) -> float:
    base = float(base)
    if not (math.isfinite(base) and base > 1.0):
        raise InvalidBaseError(f"logarithm base must be finite and > 1, got {base}")
    return base


def boltzmann_entropy(multiplicity: int, base: float = math.e) -> EntropyValue:
    """log(multiplicity), natural base by default (the unitless S/k form)."""
    base = _check_base(base)
    m = int(multiplicity)
    if m < 1:
        raise ZeroMultiplicityError(f"multiplicity must be >= 1, got {m}")
    return EntropyValue(math.log(m) / math.log(base), base)


def convert_base(e: EntropyValue, new_base: float) -> EntropyValue:
    """Rescale an entropy to a new logarithm base."""
    new_base = _check_base(new_base)
    if new_base == e.base or e.is_infinite:
        return EntropyValue(e.value, new_base)
    return EntropyValue(e.value * (math.log(e.base) / math.log(new_base)), new_base)

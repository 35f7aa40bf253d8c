"""An entropy with its logarithm base, and the base arithmetic on it.

Stdlib only: the Boltzmann entropy of an exact integer multiplicity needs
nothing more than :func:`math.log`, so the statistical-mechanics commands
run without importing numpy.  :mod:`entrobound.entropy` re-exports
:class:`EntropyValue` and the functions here.  :class:`_Frozen` is the
immutable base that this module's, :mod:`entrobound.dist`'s and
:mod:`entrobound.statmech`'s value classes share.  :func:`_as_size`,
:func:`_as_real` and :func:`_as_complex` are the rules every module applies
to its integer, real and complex arguments, and :func:`_check_base` and
:func:`_check_tol` the one check of a logarithm base and of a tolerance,
which the command line calls too.
"""
from __future__ import annotations

import math

from .errors import InvalidBaseError, ValidationError, ZeroMultiplicityError


class _Frozen:
    """Base of the package's immutable value classes: a frozen dataclass over ``__slots__``.

    Fields are set once, in ``__init__``, through ``object.__setattr__``.
    Instances are equal when their classes and fields are, hash and print
    by their fields, and copy and pickle bit for bit.  A plain class, not a
    frozen dataclass: importing :mod:`dataclasses` costs a numpy-free
    command-line run several milliseconds.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return _restore, (type(self), tuple(zip(self.__slots__, self._fields())))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")


def _restore(cls, fields):
    """An instance of the :class:`_Frozen` subclass ``cls`` with these ``(name, value)`` fields."""
    obj = object.__new__(cls)
    for name, value in fields:
        object.__setattr__(obj, name, value)
    return obj


class EntropyValue(_Frozen):
    """An entropy with its logarithm base recorded explicitly."""

    __slots__ = ("value", "base")

    def __init__(self, value: float, base: float = 2.0) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "base", base)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def to_dict(self) -> dict:
        value = float(self.value)  # str(value) keeps the sign of an infinity
        return {"value": str(value) if self.is_infinite else value, "base": float(self.base)}

    def __repr__(self) -> str:
        return f"EntropyValue({self.value!r}, base={self.base!r})"


def _as_size(value, what: str = "sizes") -> int:
    """``value`` as an int: an integer (numpy's too) or an integral finite float.

    The one rule for every integer argument, named by ``what``: sizes,
    variable indices, pivots, outcomes, subsystems, resolutions and counts.
    ``int()`` alone would truncate 2.9 to 2, read True as 1 and "2" as 2.
    """
    if type(value) is int:
        return value
    from numbers import Integral, Real  # past the plain-int return, so the statmech commands never import it

    if isinstance(value, bool):
        raise ValidationError(f"{what} must be integers, got {value!r}")
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        try:
            size = int(value)
        except (OverflowError, ValueError) as exc:  # infinity, NaN
            raise ValidationError(f"{what} must be finite: {exc}") from exc
        if size == value:
            return size
    raise ValidationError(f"{what} must be integers, got {value!r}")


def _as_real(value, what: str, error=ValidationError) -> float:
    """``value`` as a float: a real number (numpy's too), not a bool or a string, which ``float()`` would read.

    An integer past the float range raises ``error`` too, where ``float()`` raises OverflowError.
    """
    if type(value) is float:
        return value
    from numbers import Real  # past the plain-float return, as in _as_size
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{what} must be real numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # not repr(value): an int past 4300 digits has none
        raise error(f"{what} must lie within the float range (magnitude below 1.8e308)") from exc


def _as_complex(value, what: str) -> complex:
    """``value`` as a float or complex: a number (numpy's too), not a bool or a string, within the float range."""
    if type(value) in (float, complex):
        return value
    from numbers import Complex  # past the plain-float return, as in _as_size
    if isinstance(value, bool) or not isinstance(value, Complex):
        raise ValidationError(f"{what} must be numbers, got {value!r}")
    try:
        return complex(value)
    except OverflowError as exc:  # not repr(value), as in _as_real
        raise ValidationError(f"{what} must lie within the float range (magnitude below 1.8e308)") from exc


def _check_base(base: float) -> float:
    base = _as_real(base, "logarithm bases", InvalidBaseError)
    if not (math.isfinite(base) and base > 1.0):
        raise InvalidBaseError(f"logarithm base must be finite and > 1, got {base}")
    return base


def _check_tol(tol: float) -> float:
    """``tol`` as a float; ValidationError unless it is positive and finite.

    A NaN tolerance would stop refinement after one probe or skip the
    Werner bisection, and an infinite one would stop before any sweep.
    """
    tol = _as_real(tol, "tolerances")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    return tol


def boltzmann_entropy(multiplicity: int, base: float = math.e) -> EntropyValue:
    """log(multiplicity), natural base by default (the unitless S/k form)."""
    base = _check_base(base)
    m = _as_size(multiplicity, "multiplicities")
    if m < 1:
        raise ZeroMultiplicityError(f"multiplicity must be >= 1, got {m}")
    return EntropyValue(math.log(m) / math.log(base), base)


def convert_base(e: EntropyValue, new_base: float) -> EntropyValue:
    """Rescale an entropy to a new logarithm base."""
    new_base = _check_base(new_base)
    if new_base == e.base or e.is_infinite:
        return EntropyValue(e.value, new_base)
    return EntropyValue(e.value * (math.log(e.base) / math.log(new_base)), new_base)

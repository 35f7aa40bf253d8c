"""An entropy with its logarithm base, and the base arithmetic on it.

Stdlib only: the Boltzmann entropy of an exact integer multiplicity needs
nothing more than :func:`math.log`, so the statistical-mechanics commands
run without importing numpy.  :mod:`entrobound.entropy` re-exports
:class:`EntropyValue` and the functions here.  :class:`_Frozen` is the
immutable base that this module's, :mod:`entrobound.dist`'s and
:mod:`entrobound.statmech`'s value classes share.  :func:`_as_size`,
:func:`_as_real`, :func:`_as_complex`, :func:`_as_flag` and
:func:`_as_sequence` are the rules every module applies to its integer,
real, complex, true-or-false and sequence arguments.
:func:`_check_base`, :func:`_check_tol`,
:func:`_finite_angles` and :func:`_check_resolution` are the one check of a
logarithm base, a tolerance, a list of angles and a grid resolution, which
the command line calls too, before it loads numpy.
"""
from __future__ import annotations

import math
import sys

from .errors import (InvalidBaseError, ResolutionTooLargeError, ResolutionTooSmallError, ValidationError,
                     ZeroMultiplicityError)

GRID_MIN_RESOLUTION = 8
# The pair-MI table and the column bounds are resolution^2 float64 each; the
# rest is built in slabs or blocks of quantum._BLOCK_CELLS (1 MiB), so this cap
# bounds memory (~20 MiB at 1024 under tracemalloc) and time (~resolution^3
# when no column can be pruned, as for a table of i.i.d. noise).
GRID_MAX_RESOLUTION = 1024


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


def _as_flag(value, what: str) -> bool:
    """``value`` as a bool: True or False, numpy's too.

    ``bool()`` alone would read 1, "no" and [0] as flags, and raise a bare ValueError on an array of two or more
    entries.
    """
    if type(value) is bool:
        return value
    numpy = sys.modules.get("numpy")  # a numpy bool exists only once numpy is imported
    if numpy is not None and isinstance(value, numpy.bool_):
        return bool(value)
    # not repr(value): past 4300 digits an int has none
    raise ValidationError(f"{what} must be True or False, got a {type(value).__name__}")


def _as_sequence(value, what: str, error=ValidationError) -> tuple:
    """The entries of ``value`` as a tuple: any iterable, an ndarray of one or more dimensions too.

    ``tuple()`` alone would raise a bare TypeError for a number, None or a 0-d array.
    """
    if type(value) is tuple:
        return value
    try:
        entries = iter(value)
    except TypeError:
        raise error(f"{what} must be a sequence, got a {type(value).__name__}") from None
    return tuple(entries)


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


def _canonical_angle(angle: float) -> float:
    """``angle`` mod pi, the period of a projector pair up to relabeling; a hair below 0 gives pi, read as 0.0."""
    reduced = angle % math.pi
    return 0.0 if reduced == math.pi else reduced


def _finite_angles(angles) -> tuple[float, ...]:
    """``angles`` as floats by the ``_as_real`` rule; ValidationError unless all are finite.

    The message shows up to three angles whole, as a setting's; of a longer list only the first non-finite one.
    """
    raw = tuple([_as_real(a, "angles") for a in _as_sequence(angles, "angles")])
    if not all(map(math.isfinite, raw)):
        if len(raw) > 3:
            i = next(i for i, a in enumerate(raw) if not math.isfinite(a))
            raise ValidationError(f"angles must be finite, got angle {i} of {len(raw)}: {raw[i]}")
        raise ValidationError(f"angles must be finite, got {raw}")
    return raw


def _check_resolution(resolution) -> int:
    """``resolution`` as an int by the ``_as_size`` rule; an error unless it lies in the grid's range.

    ResolutionTooSmallError below GRID_MIN_RESOLUTION, ResolutionTooLargeError above GRID_MAX_RESOLUTION.
    """
    resolution = _as_size(resolution, "resolutions")
    if resolution < GRID_MIN_RESOLUTION:
        raise ResolutionTooSmallError(f"resolution must be >= {GRID_MIN_RESOLUTION}, got {resolution}")
    if resolution > GRID_MAX_RESOLUTION:
        raise ResolutionTooLargeError(f"resolution must be <= {GRID_MAX_RESOLUTION}, got {resolution}")
    return resolution


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

"""Mutual-information and joint-entropy inequality checks.

Each check evaluates one inequality on a tripartite distribution (or, for
the Cerf-Adami bound, on three supplied mutual informations) and returns an
immutable :class:`InequalityReport` in ``lhs <= rhs`` form.  The classical
checks read every term from one :func:`~entrobound.entropy.entropy_vector`
of unconditional entropies: each side of the triangle, 2H(B), narrowed and
data-processing checks is a linear form in it, written out as a plain
expression over the vector, and the classical Cerf-Adami check takes three
of its entries.  The report's own ``__init__`` fills the instance dict
directly instead of setting each frozen field through ``object.__setattr__``,
because a battery builds eleven reports from the same ten numbers.  Checks
never reject inputs for failing a structural assumption: the plain
mutual-information triangle, for instance, is only guaranteed on Markov
distributions, and demonstrating its failure off-Markov is part of what the
reports are for.  Satisfaction tolerance is fixed at 1e-9 absolute.

Variables of a tripartite distribution are labeled A, B, C by position.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .dist import JointDistribution
from .entropy import EntropyValue, _vector, convert_base
from .errors import NegativeMutualInformationError, ValidationError, WrongArityError
from .value import _as_size

SATISFIED_ATOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation, in ``lhs <= rhs`` form.

    ``satisfied`` (``lhs <= rhs + 1e-9``) and ``margin`` (``rhs - lhs``)
    are computed from the two sides, never stored; ``terms`` holds the named
    sub-quantities that entered the comparison; ``meta`` carries structural
    context (certification flags, warnings, sources).
    """

    name: str
    lhs: float
    rhs: float
    terms: dict[str, float]
    meta: dict = field(default_factory=dict)

    def __init__(self, name: str, lhs: float, rhs: float, terms: dict[str, float], meta: dict | None = None) -> None:
        # the instance dict, in field order, is all the generated frozen __init__ leaves behind
        fields = self.__dict__
        fields["name"] = name
        fields["lhs"] = lhs
        fields["rhs"] = rhs
        fields["terms"] = terms
        fields["meta"] = {} if meta is None else meta

    @property
    def satisfied(self) -> bool:
        return bool(self.lhs <= self.rhs + SATISFIED_ATOL)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "terms": dict(self.terms),
            "satisfied": self.satisfied,
            "margin": self.margin,
            "meta": dict(self.meta),
        }


_MI_TERMS = ("H(A:B)", "H(B:C)", "H(A:C)")


def _mi_sum(h) -> float:
    return h["H(A:B)"] + h["H(B:C)"] - h["H(A:C)"]


# name -> (lhs, rhs, term labels, meta).  Each side is a plain expression over the
# entropy vector h, added left to right as written: sum() compensates rounding
# from Python 3.12 on.
_CHECKS = {
    "triangle": (lambda h: h["H(A:C)"], lambda h: h["H(A:B)"] + h["H(B:C)"], _MI_TERMS,
                 {"requires_markov": True}),
    "joint_triangle": (lambda h: h["H(A,C)"], lambda h: h["H(A,B)"] + h["H(B,C)"],
                       ("H(A,B)", "H(B,C)", "H(A,C)"), {}),
    "two_hb_bound": (_mi_sum, lambda h: 2.0 * h["H(B)"], _MI_TERMS + ("H(B)",), {}),
    "narrowed_bound": (_mi_sum, lambda h: h["H(B)"], _MI_TERMS + ("H(B)",), {}),
    "dpi_forward_source": (lambda h: h["H(A:B)"], lambda h: h["H(A)"], ("H(A:B)", "H(A)"), {}),
    "dpi_forward_chain": (lambda h: h["H(A:C)"], lambda h: h["H(A:B)"], ("H(A:C)", "H(A:B)"),
                          {"requires_markov": True}),
    "dpi_reverse_source": (lambda h: h["H(B:C)"], lambda h: h["H(C)"], ("H(C:B)", "H(C)"), {}),
    "dpi_reverse_chain": (lambda h: h["H(A:C)"], lambda h: h["H(B:C)"], ("H(C:A)", "H(C:B)"),
                          {"requires_markov": True}),
}

# Term labels resolved to (label, vector key) once: a reversed pair such as H(C:B) reads H(B:C).
_KEY = {"H(B:A)": "H(A:B)", "H(C:A)": "H(A:C)", "H(C:B)": "H(B:C)"}
_CHECKS = {name: (lhs, rhs, tuple((t, _KEY.get(t, t)) for t in labels), meta)
           for name, (lhs, rhs, labels, meta) in _CHECKS.items()}
# pivot -> (letters x, y, z, the terms of |H(x:y) - H(x:z)| + H(y:z))
_PIVOTS = tuple(
    (x, y, z, tuple((t, _KEY.get(t, t)) for t in (f"H({x}:{y})", f"H({x}:{z})", f"H({y}:{z})")))
    for x, y, z in ("ABC", "BAC", "CAB"))


def _check(name: str, h, meta: dict | None = None) -> InequalityReport:
    lhs, rhs, terms, check_meta = _CHECKS[name]
    return InequalityReport(name, lhs(h), rhs(h), {t: h[key] for t, key in terms}, {**(meta or {}), **check_meta})


def _cerf_adami(terms: dict[str, float], rhs: float, source: str, **meta) -> InequalityReport:
    """The Cerf-Adami report |H(x:y) - H(x:z)| + H(y:z) <= rhs of ``terms``, in that order and in bits."""
    ixy, ixz, iyz = terms.values()
    return InequalityReport("cerf_adami", abs(ixy - ixz) + iyz, rhs, terms,
                            {"source": source, "normalized": rhs == 1.0, **meta})


def _pivot(pivot) -> tuple:
    """The ``_PIVOTS`` entry of pivot 0, 1 or 2."""
    index = pivot if type(pivot) is int else _as_size(pivot, "pivots")
    if index not in (0, 1, 2):
        raise WrongArityError(f"pivot must be 0, 1 or 2, got {pivot}")
    return _PIVOTS[index]


def triangle_check(d: JointDistribution) -> InequalityReport:
    """H(A:C) <= H(A:B) + H(B:C).

    Guaranteed only when the distribution has the Markov property
    A -> B -> C; evaluated and reported regardless.
    """
    return _check("triangle", _vector(d))


def joint_triangle_check(d: JointDistribution) -> InequalityReport:
    """H(A,C) <= H(A,B) + H(B,C); holds for every distribution."""
    return _check("joint_triangle", _vector(d))


def two_hb_bound_check(d: JointDistribution) -> InequalityReport:
    """H(A:B) + H(B:C) - H(A:C) <= 2 H(B); holds for every distribution."""
    return _check("two_hb_bound", _vector(d))


def narrowed_bound_check(d: JointDistribution) -> InequalityReport:
    """H(A:B) + H(B:C) - H(A:C) <= H(B).

    The tightened form of the 2H(B) bound; classically satisfied for all
    distributions (it is equivalent to strong subadditivity).
    """
    return _check("narrowed_bound", _vector(d))


def cerf_adami_check(
    hab: EntropyValue,
    hac: EntropyValue,
    hbc: EntropyValue,
    bound: float = 1.0,
    source: str = "unspecified",
) -> InequalityReport:
    """|H(A:B) - H(A:C)| + H(B:C) <= bound.

    The three mutual informations may come from one tripartite distribution
    (classical test) or from three separate pairwise experiments (quantum
    test); ``source`` records which.  The default bound of 1 assumes uniform
    binary marginals.  Inputs are converted to bits if needed; a NaN or
    infinite input or bound raises :class:`~entrobound.errors.ValidationError`.
    """
    bound = float(bound)
    if not math.isfinite(bound):
        raise ValidationError(f"bound must be finite, got {bound}")
    terms = {}
    for label, e in (("H(A:B)", hab), ("H(A:C)", hac), ("H(B:C)", hbc)):
        v = float(convert_base(e, 2.0).value)
        if not math.isfinite(v):
            raise ValidationError(f"{label} = {v} is not finite")
        if v < -SATISFIED_ATOL:
            raise NegativeMutualInformationError(f"{label} = {v} is negative")
        terms[label] = max(v, 0.0)
    return _cerf_adami(terms, bound, source)


def cerf_adami_classical(d: JointDistribution, pivot: int = 0, bound: float | None = None) -> InequalityReport:
    """Cerf-Adami check with all three mutual informations taken from one
    tripartite distribution.

    ``pivot`` selects which variable plays the repeated role x in
    |H(x:y) - H(x:z)| + H(y:z); the three pivots give the three letter
    permutations of the bound.  ``bound=None`` uses the uniform-marginal
    normalization of 1; pass :func:`marginal_bound` for non-uniform inputs.
    The report equals what :func:`cerf_adami_check` makes of the same three
    entries: they are in bits and already clamped to >= 0.
    """
    x, _, _, ((xy, kxy), (xz, kxz), (yz, kyz)) = _pivot(pivot)
    if bound is None:
        rhs = 1.0
    else:
        rhs = float(bound)
        if not math.isfinite(rhs):
            raise ValidationError(f"bound must be finite, got {rhs}")
    h = _vector(d)
    return _cerf_adami({xy: h[kxy], xz: h[kxz], yz: h[kyz]}, rhs, "tripartite", pivot=x)


def marginal_bound(d: JointDistribution, pivot: int | None = None) -> float:
    """max(H(A), H(B), H(C)): the honest bound for non-uniform marginals.

    For pivot x the tight bound: H(y) when H(x:y) >= H(x:z), else H(z).
    """
    h = _vector(d)
    if pivot is None:
        return max(h["H(A)"], h["H(B)"], h["H(C)"])
    _, y, z, ((_, xy), (_, xz), _) = _pivot(pivot)
    return h[f"H({y})"] if h[xy] >= h[xz] else h[f"H({z})"]


def dpi_check(d: JointDistribution, markov_certified: bool) -> list[InequalityReport]:
    """Data-processing inequality reports for both chain directions.

    Four reports: the source entropy bounds H(A:B) <= H(A) and
    H(C:B) <= H(C) (unconditional), and the decay links H(A:C) <= H(A:B)
    and H(C:A) <= H(C:B), which require the Markov property.
    ``markov_certified`` is recorded on every report, not enforced.
    """
    h = _vector(d)
    meta = {"markov_certified": bool(markov_certified)}
    return [_check(name, h, meta) for name in
            ("dpi_forward_source", "dpi_forward_chain", "dpi_reverse_source", "dpi_reverse_chain")]


def reports_to_csv(reports: list[InequalityReport]) -> str:
    """One CSV row per report; terms flattened to key=value pairs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "satisfied", "margin", "terms"])
    for r in reports:
        terms = ";".join(f"{k}={format(v, '.12g')}" for k, v in r.terms.items())
        writer.writerow(
            [r.name, format(r.lhs, ".12g"), format(r.rhs, ".12g"),
             str(r.satisfied).lower(), format(r.margin, ".12g"), terms]
        )
    return buf.getvalue()

"""Mutual-information and joint-entropy inequality checks.

Each check evaluates one inequality on a tripartite distribution (or, for
the Cerf-Adami bound, on three supplied mutual informations) and returns an
immutable :class:`InequalityReport` in ``lhs <= rhs`` form.  The classical
checks read every term from one :func:`~entrobound.entropy.entropy_vector`
of unconditional entropies: each side of the triangle, 2H(B), narrowed and
data-processing checks is a linear form in it, and the classical Cerf-Adami
check takes three of its entries.  Checks never reject inputs for failing
a structural assumption: the plain
mutual-information triangle, for instance, is only guaranteed on Markov
distributions, and demonstrating its failure off-Markov is part of what the
reports are for.  Satisfaction tolerance is fixed at 1e-9 absolute.

Variables of a tripartite distribution are labeled A, B, C by position.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

from .dist import JointDistribution
from .entropy import EntropyValue, convert_base, entropy_vector
from .errors import NegativeMutualInformationError, WrongArityError

SATISFIED_ATOL = 1e-9

_LETTERS = "ABC"


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation, in ``lhs <= rhs`` form.

    ``margin`` is ``rhs - lhs`` exactly; ``terms`` holds the named
    sub-quantities that entered the comparison; ``meta`` carries structural
    context (certification flags, warnings, sources).
    """

    name: str
    lhs: float
    rhs: float
    terms: dict[str, float]
    satisfied: bool
    margin: float
    meta: dict = field(default_factory=dict)

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


def _report(name: str, lhs: float, rhs: float, terms: dict[str, float], meta: dict | None = None) -> InequalityReport:
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        terms={k: float(v) for k, v in terms.items()},
        satisfied=bool(lhs <= rhs + SATISFIED_ATOL),
        margin=float(rhs) - float(lhs),
        meta=dict(meta or {}),
    )


# A row is a linear form over the entropy vector: ((coefficient, label), ...).
_MI_SUM = ((1.0, "H(A:B)"), (1.0, "H(B:C)"), (-1.0, "H(A:C)"))
_MI_TERMS = ("H(A:B)", "H(B:C)", "H(A:C)")

# name -> (lhs row, rhs row, term labels, meta)
_CHECKS = {
    "triangle": (((1.0, "H(A:C)"),), ((1.0, "H(A:B)"), (1.0, "H(B:C)")), _MI_TERMS,
                 {"requires_markov": True}),
    "joint_triangle": (((1.0, "H(A,C)"),), ((1.0, "H(A,B)"), (1.0, "H(B,C)")),
                       ("H(A,B)", "H(B,C)", "H(A,C)"), {}),
    "two_hb_bound": (_MI_SUM, ((2.0, "H(B)"),), _MI_TERMS + ("H(B)",), {}),
    "narrowed_bound": (_MI_SUM, ((1.0, "H(B)"),), _MI_TERMS + ("H(B)",), {}),
    "dpi_forward_source": (((1.0, "H(A:B)"),), ((1.0, "H(A)"),), ("H(A:B)", "H(A)"), {}),
    "dpi_forward_chain": (((1.0, "H(A:C)"),), ((1.0, "H(A:B)"),), ("H(A:C)", "H(A:B)"),
                          {"requires_markov": True}),
    "dpi_reverse_source": (((1.0, "H(C:B)"),), ((1.0, "H(C)"),), ("H(C:B)", "H(C)"), {}),
    "dpi_reverse_chain": (((1.0, "H(C:A)"),), ((1.0, "H(C:B)"),), ("H(C:A)", "H(C:B)"),
                          {"requires_markov": True}),
}


def _entry(h: dict[str, float], label: str) -> float:
    """The vector entry for ``label``; a reversed pair such as H(C:B) reads H(B:C)."""
    return h[label] if label in h else h[f"H({label[4]}:{label[2]})"]


def _form(h: dict[str, float], row) -> float:
    # left to right like a written-out a + b - c; sum() compensates rounding from Python 3.12 on
    (coefficient, label), *rest = row
    value = coefficient * _entry(h, label)
    for coefficient, label in rest:
        value += coefficient * _entry(h, label)
    return value


def _check(name: str, h: dict[str, float], meta: dict | None = None) -> InequalityReport:
    lhs, rhs, labels, check_meta = _CHECKS[name]
    terms = {label: _entry(h, label) for label in labels}
    return _report(name, _form(h, lhs), _form(h, rhs), terms, {**(meta or {}), **check_meta})


def triangle_check(d: JointDistribution) -> InequalityReport:
    """H(A:C) <= H(A:B) + H(B:C).

    Guaranteed only when the distribution has the Markov property
    A -> B -> C; evaluated and reported regardless.
    """
    return _check("triangle", entropy_vector(d))


def joint_triangle_check(d: JointDistribution) -> InequalityReport:
    """H(A,C) <= H(A,B) + H(B,C); holds for every distribution."""
    return _check("joint_triangle", entropy_vector(d))


def two_hb_bound_check(d: JointDistribution) -> InequalityReport:
    """H(A:B) + H(B:C) - H(A:C) <= 2 H(B); holds for every distribution."""
    return _check("two_hb_bound", entropy_vector(d))


def narrowed_bound_check(d: JointDistribution) -> InequalityReport:
    """H(A:B) + H(B:C) - H(A:C) <= H(B).

    The tightened form of the 2H(B) bound; classically satisfied for all
    distributions (it is equivalent to strong subadditivity).
    """
    return _check("narrowed_bound", entropy_vector(d))


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
    binary marginals.  Inputs are converted to bits if needed.
    """
    values = []
    for label, e in (("H(A:B)", hab), ("H(A:C)", hac), ("H(B:C)", hbc)):
        v = convert_base(e, 2.0).value
        if v < -SATISFIED_ATOL:
            raise NegativeMutualInformationError(f"{label} = {v} is negative")
        values.append(max(v, 0.0))
    iab, iac, ibc = values
    return _report(
        "cerf_adami",
        lhs=abs(iab - iac) + ibc,
        rhs=float(bound),
        terms={"H(A:B)": iab, "H(A:C)": iac, "H(B:C)": ibc},
        meta={"source": source, "normalized": float(bound) == 1.0},
    )


def cerf_adami_classical(d: JointDistribution, pivot: int = 0, bound: float | None = None) -> InequalityReport:
    """Cerf-Adami check with all three mutual informations taken from one
    tripartite distribution.

    ``pivot`` selects which variable plays the repeated role x in
    |H(x:y) - H(x:z)| + H(y:z); the three pivots give the three letter
    permutations of the bound.  ``bound=None`` uses the uniform-marginal
    normalization of 1; pass :func:`marginal_bound` for non-uniform inputs.
    """
    if pivot not in (0, 1, 2):
        raise WrongArityError(f"pivot must be 0, 1 or 2, got {pivot}")
    h = entropy_vector(d)
    y, z = [i for i in range(3) if i != pivot]
    x_l, y_l, z_l = _LETTERS[pivot], _LETTERS[y], _LETTERS[z]
    labels = (f"H({x_l}:{y_l})", f"H({x_l}:{z_l})", f"H({y_l}:{z_l})")
    terms = {label: _entry(h, label) for label in labels}
    used = 1.0 if bound is None else float(bound)
    report = cerf_adami_check(*(EntropyValue(v) for v in terms.values()), bound=used, source="tripartite")
    return replace(report, terms=terms, meta={**report.meta, "pivot": x_l})


def marginal_bound(d: JointDistribution) -> float:
    """max(H(A), H(B), H(C)): the honest bound for non-uniform marginals."""
    h = entropy_vector(d)
    return max(h["H(A)"], h["H(B)"], h["H(C)"])


def dpi_check(d: JointDistribution, markov_certified: bool) -> list[InequalityReport]:
    """Data-processing inequality reports for both chain directions.

    Four reports: the source entropy bounds H(A:B) <= H(A) and
    H(C:B) <= H(C) (unconditional), and the decay links H(A:C) <= H(A:B)
    and H(C:A) <= H(C:B), which require the Markov property.
    ``markov_certified`` is recorded on every report, not enforced.
    """
    h = entropy_vector(d)
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

"""Shannon-cone certificates for every classical check.

Each check's slack, rhs - lhs, is a linear form in the seven subset
entropies of (A, B, C).  Here every slack is written as an integer
combination of the nine elemental Shannon inequalities for three variables
(Yeung, IEEE Trans. IT 43, 1997): H(X|rest) >= 0 and I(X;Y|K) >= 0.  A check
whose certificate has only nonnegative coefficients holds for every joint
table, with no conditional entropy and no Markov chain needed.  The
Markov-only checks need exactly the term -I(A;C|B), which vanishes on a
chain A -> B -> C.

The tables below are checked against the sides in ``inequalities._CHECKS``
by exact integer algebra: each side is evaluated on an entropy vector
whose entries are linear forms, so editing a side breaks its proof.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from entrobound import JointDistribution, cerf_adami_classical, marginal_bound
from entrobound.cli import _classical_battery
from entrobound.entropy import _LABELS
from entrobound.inequalities import _CHECKS

from conftest import brute_entropy_bits, h2, tripartite_tables

VARS = "ABC"


def entropy(*names: str) -> Counter:
    """H of a set of variables, as {frozenset: 1}; the empty set is 0."""
    return Counter({frozenset(names): 1}) if names else Counter()


def combine(*pairs) -> Counter:
    """sum of coefficient * form, with zero coefficients dropped."""
    total = Counter()
    for coefficient, form in pairs:
        for subset, c in form.items():
            total[subset] += coefficient * c
    return Counter({k: v for k, v in total.items() if v})


def cond_entropy(x: str, rest: str) -> Counter:
    return combine((1, entropy(x, *rest)), (-1, entropy(*rest)))


def cond_mi(x: str, y: str, given: str = "") -> Counter:
    return combine((1, entropy(x, *given)), (1, entropy(y, *given)),
                   (-1, entropy(*given)), (-1, entropy(x, y, *given)))


ELEMENTAL = {
    "H(A|BC)": cond_entropy("A", "BC"),
    "H(B|AC)": cond_entropy("B", "AC"),
    "H(C|AB)": cond_entropy("C", "AB"),
    "I(A;B)": cond_mi("A", "B"),
    "I(A;C)": cond_mi("A", "C"),
    "I(B;C)": cond_mi("B", "C"),
    "I(A;B|C)": cond_mi("A", "B", "C"),
    "I(A;C|B)": cond_mi("A", "C", "B"),
    "I(B;C|A)": cond_mi("B", "C", "A"),
}
MARKOV_TERM = "I(A;C|B)"

# check name -> {elemental term: integer coefficient}; slack = rhs - lhs
CERTIFICATES = {
    "triangle": {"I(A;B)": 1, "I(B;C|A)": 1, "I(A;C|B)": -1},
    "joint_triangle": {"H(B|AC)": 2, "I(A;B)": 1, "I(A;C|B)": 1, "I(B;C|A)": 1},
    "two_hb_bound": {"H(B|AC)": 2, "I(A;B)": 1, "I(A;C|B)": 1, "I(B;C|A)": 1},
    "narrowed_bound": {"H(B|AC)": 1, "I(A;C|B)": 1},
    "dpi_forward_source": {"H(A|BC)": 1, "I(A;C|B)": 1},
    "dpi_forward_chain": {"I(A;B|C)": 1, "I(A;C|B)": -1},
    "dpi_reverse_source": {"H(C|AB)": 1, "I(A;C|B)": 1},
    "dpi_reverse_chain": {"I(B;C|A)": 1, "I(A;C|B)": -1},
}

# The classical Cerf-Adami check for pivot A, one row per sign of
# H(A:B) - H(A:C): lhs row over the pivot's three terms, and the bound it
# meets, H(B) or H(C).  Other pivots are the same rows with letters permuted.
CERF_ADAMI_BRANCHES = (
    (((1, "H(A:B)"), (-1, "H(A:C)"), (1, "H(B:C)")), "H(B)", {"H(B|AC)": 1, "I(A;C|B)": 1}),
    (((-1, "H(A:B)"), (1, "H(A:C)"), (1, "H(B:C)")), "H(C)", {"H(C|AB)": 1, "I(A;B|C)": 1}),
)


def label_form(label: str) -> Counter:
    """A vector label as a form: H(A,C) is one subset, H(A:C) is H(A) + H(C) - H(A,C)."""
    inner = label[2:-1]
    if ":" in inner:
        x, y = inner.split(":")
        return combine((1, entropy(x)), (1, entropy(y)), (-1, entropy(x, y)))
    return entropy(*inner.split(","))


def row_form(row) -> Counter:
    """A row of (coefficient, label) pairs; every coefficient must be an exact integer."""
    assert all(float(c).is_integer() for c, _ in row)
    return combine(*((int(c), label_form(label)) for c, label in row))


class Form(Counter):
    """A linear form with the arithmetic of a check's side: +, - and exact integer coefficients."""

    def __add__(self, other):
        return Form(combine((1, self), (1, other)))

    def __sub__(self, other):
        return Form(combine((1, self), (-1, other)))

    def __neg__(self):
        return Form(combine((-1, self)))

    def __rmul__(self, coefficient):
        assert float(coefficient).is_integer()
        return Form(combine((int(coefficient), self)))

    __mul__ = __rmul__


# The entropy vector with each entry's form: a side evaluated on it gives its row.
SYMBOLIC_VECTOR = {label: Form(label_form(label)) for label in _LABELS}


def certificate_form(certificate: dict) -> Counter:
    return combine(*((c, ELEMENTAL[term]) for term, c in certificate.items()))


def slack_form(lhs_row, rhs_row) -> Counter:
    return combine((1, row_form(rhs_row)), (-1, row_form(lhs_row)))


def permute(text: str, letters: str) -> str:
    """Rename A, B, C to ``letters`` in a label or an elemental term."""
    return text.translate(str.maketrans(VARS, letters))


def pivot_letters(pivot: int) -> str:
    """The renaming that makes ``pivot`` play A: A -> x, B -> y, C -> z."""
    return VARS[pivot] + "".join(v for v in VARS if v != VARS[pivot])


def canonical_term(term: str) -> str:
    """I(C;A|B) -> I(A;C|B) and H(B|CA) -> H(B|AC): the spelling of ELEMENTAL."""
    head, _, given = term[2:-1].partition("|")
    if term[0] == "I":
        head = ";".join(sorted(head.split(";")))
    given = "".join(sorted(given))
    return f"{term[0]}({head}{'|' if given else ''}{given})"


def branch(pivot: int, k: int):
    """Branch ``k`` of the Cerf-Adami check for ``pivot``: lhs row, bound label, certificate."""
    letters = pivot_letters(pivot)
    lhs, bound, certificate = CERF_ADAMI_BRANCHES[k]
    return (tuple((c, permute(label, letters)) for c, label in lhs), permute(bound, letters),
            {canonical_term(permute(t, letters)): c for t, c in certificate.items()})


def test_certificates_cover_exactly_the_checks():
    assert set(CERTIFICATES) == set(_CHECKS)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_proves_the_row(name):
    lhs, rhs, _, _ = _CHECKS[name]
    slack = combine((1, rhs(SYMBOLIC_VECTOR)), (-1, lhs(SYMBOLIC_VECTOR)))
    assert slack == certificate_form(CERTIFICATES[name])


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_requires_markov_is_exactly_the_negative_markov_term(name):
    certificate = CERTIFICATES[name]
    needs_markov = certificate.get(MARKOV_TERM, 0) < 0
    assert _CHECKS[name][3].get("requires_markov", False) is needs_markov
    # every other coefficient is positive: the rest holds on the whole Shannon cone
    assert all(c > 0 for term, c in certificate.items() if term != MARKOV_TERM)


@pytest.mark.parametrize("pivot", [0, 1, 2])
def test_cerf_adami_branches_are_unconditional(pivot):
    for k in (0, 1):
        lhs, bound, certificate = branch(pivot, k)
        assert slack_form(lhs, ((1, bound),)) == certificate_form(certificate)
        assert all(c > 0 for c in certificate.values())
    # the branch rows read the pivot's report terms, in order
    report = cerf_adami_classical(JointDistribution.uniform((2, 2, 2)), pivot)
    assert list(report.terms) == [label for _, label in branch(pivot, 0)[0]]
    assert "requires_markov" not in report.meta


def brute_entropies(d) -> dict[frozenset, float]:
    """H of every nonempty subset of (A, B, C), by brute force from the joint table."""
    h = {}
    for mask in range(1, 8):
        keep = [i for i in range(3) if mask >> i & 1]
        drop = tuple(i for i in range(3) if i not in keep)
        table = d.probs.sum(axis=drop) if drop else d.probs
        h[frozenset(VARS[i] for i in keep)] = brute_entropy_bits(table)
    return h


def certified_slack(certificate: dict, h: dict) -> float:
    """The certificate's elemental terms, each evaluated from brute-force entropies."""
    return sum(c * sum(k * h[s] for s, k in ELEMENTAL[term].items()) for term, c in certificate.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_margins_equal_their_certificates(d):
    h = brute_entropies(d)
    reports = [r for r in _classical_battery(d, True) if r.name != "cerf_adami"]
    assert sorted(r.name for r in reports) == sorted(CERTIFICATES)
    for r in reports:
        assert abs(r.margin - certified_slack(CERTIFICATES[r.name], h)) <= 1e-12
    for pivot in (0, 1, 2):
        ixy, ixz, _ = cerf_adami_classical(d, pivot).terms.values()
        _, bound, certificate = branch(pivot, 0 if ixy >= ixz else 1)
        assert abs(marginal_bound(d, pivot) - h[frozenset(bound[2])]) <= 1e-12
        r = cerf_adami_classical(d, pivot, bound=marginal_bound(d, pivot))
        assert abs(r.margin - certified_slack(certificate, h)) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_tight_cerf_adami_bound_holds_on_every_table(d):
    for pivot in (0, 1, 2):
        assert cerf_adami_classical(d, pivot).lhs <= marginal_bound(d, pivot) + 1e-12
        assert marginal_bound(d, pivot) <= marginal_bound(d)


def roles_table(pivot: int, probs_xyz) -> JointDistribution:
    """A table given over the roles (x, y, z) of ``pivot``, laid out over (A, B, C)."""
    letters = pivot_letters(pivot)
    return JointDistribution.from_flat((2, 2, 2), np.transpose(probs_xyz, [letters.index(v) for v in VARS]).ravel())


@pytest.mark.parametrize("pivot", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1])
def test_tight_cerf_adami_bound_is_attained(pivot, k):
    # Both certificate terms of branch k vanish, so the LHS meets its bound:
    # branch 0, y = z a biased bit and x an independent fair one;
    # branch 1, x = z a biased bit and y an independent fair one.
    # The loose bound, max H = 1, stays above.
    t = np.zeros((2, 2, 2))
    for fair in (0, 1):
        for bit, weight in ((0, 0.2), (1, 0.8)):
            t[(fair, bit, bit) if k == 0 else (bit, fair, bit)] = weight / 2
    d = roles_table(pivot, t)
    ixy, ixz, _ = cerf_adami_classical(d, pivot).terms.values()
    assert (ixy >= ixz) is (k == 0)
    lhs = cerf_adami_classical(d, pivot).lhs
    assert abs(lhs - marginal_bound(d, pivot)) <= 1e-12
    assert abs(lhs - h2(0.2)) <= 1e-12
    assert marginal_bound(d) == pytest.approx(1.0, abs=1e-12)

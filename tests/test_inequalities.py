import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from entrobound import (
    EntropyValue,
    JointDistribution,
    MeasurementSettings,
    build_tripartite,
    cerf_adami_check,
    cerf_adami_classical,
    cerf_adami_quantum,
    dpi_check,
    entropy_vector,
    joint_triangle_check,
    marginal_bound,
    narrowed_bound_check,
    reports_to_csv,
    singlet,
    triangle_check,
    two_hb_bound_check,
    werner_state,
)
from entrobound.cli import _classical_battery
from entrobound.entropy import _LABELS
from entrobound.errors import NegativeMutualInformationError, ValidationError, WrongArityError
from entrobound.inequalities import _CHECKS, InequalityReport

from conftest import (
    h2,
    noisy_copy_spec,
    random_markov_spec,
    random_tripartite,
    report_fields,
    triangle_counterexample,
    tripartite_tables,
    xor_tripartite,
)


def independent_bits():
    return JointDistribution.uniform((2, 2, 2))


def ghz_like():
    """A = B = C uniform bit."""
    flat = np.zeros(8)
    flat[0] = flat[7] = 0.5
    return JointDistribution.from_flat((2, 2, 2), flat)


def _every_report():
    rng = np.random.default_rng(7)
    tables = [independent_bits(), ghz_like(), triangle_counterexample(), xor_tripartite(),
              build_tripartite(noisy_copy_spec()), random_tripartite(rng), random_tripartite(rng, (2, 3, 2), True)]
    reports = [r for d in tables for r in _classical_battery(d, True)]
    for rho, angles in ((singlet(), (0.0, math.pi / 8, math.pi / 4)), (werner_state(0.5), (0.1, 0.7, 2.0))):
        reports.append(cerf_adami_quantum(rho, MeasurementSettings(angles)))
    return reports


def test_report_fields_are_consistent():
    r = narrowed_bound_check(independent_bits())
    assert set(r.terms) == {"H(A:B)", "H(B:C)", "H(A:C)", "H(B)"}
    assert [f.name for f in dataclasses.fields(r)] == ["name", "lhs", "rhs", "terms", "meta"]
    reports = _every_report()
    assert {r.satisfied for r in reports} == {True, False}
    for r in reports:
        assert r.satisfied is (r.lhs <= r.rhs + 1e-9)
        assert r.margin == r.rhs - r.lhs
        assert r.to_dict()["satisfied"] is r.satisfied and r.to_dict()["margin"] == r.margin


def test_replaced_report_recomputes_satisfied_and_margin():
    for r in _every_report():
        moved = dataclasses.replace(r, lhs=r.rhs + 1.0)
        assert moved.satisfied is False
        assert moved.margin == r.rhs - (r.rhs + 1.0)


def test_private_report_constructor_builds_what_the_dataclass_builds():
    names = ("name", "lhs", "rhs", "terms", "meta")
    args = ("triangle", 0.25, -0.0, {"H(A:B)": 0.5, "H(B:C)": 0.0, "H(A:C)": 0.25}, {"requires_markov": True})
    built, made = InequalityReport(*args), InequalityReport(**dict(zip(names, args)))
    assert type(built) is InequalityReport
    assert built == made and repr(built) == repr(made) and report_fields(built) == report_fields(made)
    assert list(vars(built).items()) == list(vars(made).items()) == list(zip(names, args))
    bare, other = InequalityReport("x", 0.0, 1.0, {}), InequalityReport("x", 0.0, 1.0, {})
    assert bare.meta == {} and bare.meta is not other.meta  # the field's default_factory
    assert json.dumps(built.to_dict()) == json.dumps(made.to_dict())
    for twin in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(twin) is InequalityReport and report_fields(twin) == report_fields(made)
    assert dataclasses.replace(built, lhs=1.0) == dataclasses.replace(made, lhs=1.0)
    assert dataclasses.replace(built, lhs=1.0).satisfied is False
    for field in dataclasses.fields(built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, field.name)
    assert report_fields(built) == report_fields(made)


def test_sides_add_in_the_written_order():
    # left to right, as a written-out sum adds: 1 + 1e-16 rounds to 1 before 1 is taken away
    h = dict.fromkeys(_LABELS, 0.0) | {"H(A:B)": 1.0, "H(B:C)": 1e-16, "H(A:C)": 1.0}
    assert _CHECKS["two_hb_bound"][0](h) == _CHECKS["narrowed_bound"][0](h) == 0.0
    h = dict.fromkeys(_LABELS, 0.0) | {"H(A:B)": 1.0, "H(B:C)": -1.0, "H(A:C)": 1e-16}
    assert _CHECKS["two_hb_bound"][0](h) == -1e-16


def test_every_battery_report_equals_its_dataclass_construction():
    for r in _every_report() + [cerf_adami_check(EntropyValue(0.5), EntropyValue(0.25), EntropyValue(0.125))]:
        fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
        assert r == InequalityReport(**fields)
        assert json.dumps(r.to_dict()) == json.dumps(InequalityReport(**fields).to_dict())


def test_triangle_on_markov_chain():
    d = build_tripartite(noisy_copy_spec())
    r = triangle_check(d)
    assert r.satisfied
    assert r.meta["requires_markov"] is True


def test_triangle_counterexample_fails():
    r = triangle_check(triangle_counterexample())
    assert not r.satisfied
    assert r.lhs == pytest.approx(1.0, abs=1e-12)  # H(A:C)
    assert r.rhs == pytest.approx(0.0, abs=1e-12)  # H(A:B) + H(B:C)


def test_triangle_independent_bits_equality():
    r = triangle_check(independent_bits())
    assert r.satisfied
    assert r.margin == pytest.approx(0.0, abs=1e-12)


def test_joint_triangle_independent():
    r = joint_triangle_check(independent_bits())
    assert r.satisfied
    assert r.lhs == pytest.approx(2.0, abs=1e-12)
    assert r.rhs == pytest.approx(4.0, abs=1e-12)


def test_joint_triangle_equality_when_b_constant():
    # no information in B: H(A,B) + H(B,C) = H(A) + H(C), which meets
    # H(A,C) exactly when A and C are independent
    flat = np.zeros(8)
    flat[0] = flat[1] = flat[4] = flat[5] = 0.25  # b = 0 always, A and C uniform
    d = JointDistribution.from_flat((2, 2, 2), flat)
    r = joint_triangle_check(d)
    assert r.satisfied
    assert abs(r.margin) <= 1e-9


def test_joint_triangle_random_sweep():
    rng = np.random.default_rng(50)
    for i in range(1000):
        d = random_tripartite(rng, sparse=(i % 3 == 0))
        assert joint_triangle_check(d).satisfied


def test_two_hb_independent():
    r = two_hb_bound_check(independent_bits())
    assert r.satisfied
    assert r.lhs == pytest.approx(0.0, abs=1e-12)
    assert r.rhs == pytest.approx(2.0, abs=1e-12)


def test_two_hb_fully_correlated():
    r = two_hb_bound_check(ghz_like())
    assert r.satisfied
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(2.0, abs=1e-12)


def test_two_hb_random_sweep():
    rng = np.random.default_rng(51)
    for i in range(1000):
        d = random_tripartite(rng, sparse=(i % 4 == 0))
        assert two_hb_bound_check(d).satisfied


def test_narrowed_fully_correlated_equality():
    r = narrowed_bound_check(ghz_like())
    assert r.satisfied
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)


def test_narrowed_independent():
    r = narrowed_bound_check(independent_bits())
    assert r.satisfied
    assert r.lhs == pytest.approx(0.0, abs=1e-12)


def test_narrowed_xor_case():
    r = narrowed_bound_check(xor_tripartite())
    assert r.satisfied
    assert r.lhs == pytest.approx(0.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)


def test_cerf_adami_perfectly_correlated_triple():
    one = EntropyValue(1.0, 2.0)
    r = cerf_adami_check(one, one, one)
    assert r.satisfied
    assert r.lhs == pytest.approx(1.0, abs=1e-15)
    assert r.margin == pytest.approx(0.0, abs=1e-15)


def test_cerf_adami_independent_triple():
    zero = EntropyValue(0.0, 2.0)
    r = cerf_adami_check(zero, zero, zero)
    assert r.satisfied
    assert r.margin == pytest.approx(1.0, abs=1e-15)


def test_cerf_adami_cancellation_property():
    rng = np.random.default_rng(52)
    for _ in range(100):
        x = float(rng.uniform(0, 1))
        y = float(rng.uniform(0, 1))
        r = cerf_adami_check(EntropyValue(x, 2.0), EntropyValue(x, 2.0), EntropyValue(y, 2.0))
        assert r.lhs == y


def test_cerf_adami_converts_bases():
    nats = EntropyValue(math.log(2), math.e)  # 1 bit
    r = cerf_adami_check(nats, nats, nats)
    assert r.lhs == pytest.approx(1.0, abs=1e-12)


def test_cerf_adami_rejects_negative_mi():
    with pytest.raises(NegativeMutualInformationError):
        cerf_adami_check(EntropyValue(-0.1, 2.0), EntropyValue(0.0, 2.0), EntropyValue(0.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cerf_adami_rejects_non_finite_inputs(bad):
    zero = EntropyValue(0.0, 2.0)
    with pytest.raises(ValidationError, match="bound"):
        cerf_adami_check(zero, zero, zero, bound=bad)
    for k in range(3):
        values = [zero, zero, zero]
        values[k] = EntropyValue(bad, 2.0)
        with pytest.raises(ValidationError, match="finite"):
            cerf_adami_check(*values)
    for pivot in (0, 1, 2):
        with pytest.raises(ValidationError, match="bound"):
            cerf_adami_classical(triangle_counterexample(), pivot=pivot, bound=bad)


def test_cerf_adami_classical_pivots():
    d = random_tripartite(np.random.default_rng(53))
    for pivot, letters in ((0, "H(A:B)"), (1, "H(B:A)"), (2, "H(C:A)")):
        r = cerf_adami_classical(d, pivot=pivot)
        assert letters in r.terms
        assert r.satisfied
        assert r.meta["normalized"] is True
        assert r.meta["source"] == "tripartite"


def test_cerf_adami_classical_custom_bound():
    d = triangle_counterexample()
    bound = marginal_bound(d)
    r = cerf_adami_classical(d, bound=bound)
    assert r.rhs == bound
    assert r.meta["normalized"] == (bound == 1.0)
    for bad in (-1, 3):
        with pytest.raises(WrongArityError):
            marginal_bound(d, bad)
    with pytest.raises(ValidationError):  # not an integer at all
        marginal_bound(d, "A")


_PIVOT_TERMS = (["H(A:B)", "H(A:C)", "H(B:C)"], ["H(B:A)", "H(B:C)", "H(A:C)"], ["H(C:A)", "H(C:B)", "H(A:B)"])


def test_cerf_adami_report_layout_of_every_source():
    # one report layout: name, the terms in |x:y - x:z| + y:z order, source and normalized first in meta
    zero = EntropyValue(0.0, 2.0)
    for bound in (1.0, 2.0):
        r = cerf_adami_check(zero, zero, zero, bound=bound)
        assert (r.name, list(r.terms), list(r.meta)) == ("cerf_adami", _PIVOT_TERMS[0], ["source", "normalized"])
        assert r.meta["normalized"] is (bound == 1.0)
    d = random_tripartite(np.random.default_rng(56))
    for pivot, labels in enumerate(_PIVOT_TERMS):
        for bound in (None, 1.0, 0.5):
            r = cerf_adami_classical(d, pivot, bound)
            assert (r.name, list(r.terms), list(r.meta)) == ("cerf_adami", labels, ["source", "normalized", "pivot"])
            assert (r.meta["source"], r.meta["pivot"]) == ("tripartite", "ABC"[pivot])
            assert r.meta["normalized"] is (bound != 0.5)
    for angles in ((0.0, 0.3927, 0.7854), (0.0, 0.0, 0.0)):
        r = cerf_adami_quantum(werner_state(0.9), MeasurementSettings(angles))
        assert (r.name, list(r.terms)) == ("cerf_adami", _PIVOT_TERMS[0])
        assert list(r.meta) == ["source", "normalized", "angles", "marginals_uniform", "warnings"]
        assert (r.meta["source"], r.meta["normalized"], r.rhs) == ("pairwise", True, 1.0)


def test_cerf_adami_classical_takes_integer_pivots_only():
    # int() would read True as pivot 1; an integral float or a numpy integer is that pivot
    d = random_tripartite(np.random.default_rng(57))
    for pivot in range(3):
        for same in (float(pivot), np.int64(pivot)):
            assert report_fields(cerf_adami_classical(d, same)) == report_fields(cerf_adami_classical(d, pivot))
    for bad in (True, "1", 1.5, float("inf")):
        with pytest.raises(ValidationError, match="pivots must be"):
            cerf_adami_classical(d, bad)


def test_marginal_bound_takes_integer_pivots_only():
    d = random_tripartite(np.random.default_rng(58))
    for pivot in range(3):
        for same in (float(pivot), np.int64(pivot)):
            assert marginal_bound(d, same) == marginal_bound(d, pivot)
    for bad in (True, "1", 1.5, float("inf")):
        with pytest.raises(ValidationError, match="pivots must be"):
            marginal_bound(d, bad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_marginal_bound_is_the_tight_branch_of_the_report(d):
    h = entropy_vector(d)
    for pivot, (x, y, z) in enumerate(("ABC", "BAC", "CAB")):
        ixy, ixz, _ = cerf_adami_classical(d, pivot).terms.values()
        assert marginal_bound(d, pivot) == (h[f"H({y})"] if ixy >= ixz else h[f"H({z})"])


def test_dpi_noisy_copy_chain():
    d = build_tripartite(noisy_copy_spec(0.1))
    reports = dpi_check(d, markov_certified=True)
    assert len(reports) == 4
    by_name = {r.name: r for r in reports}
    assert all(r.satisfied for r in reports)
    chain = by_name["dpi_forward_chain"]
    assert chain.terms["H(A:B)"] == pytest.approx(1.0 - h2(0.1), abs=1e-12)
    # two 10% flips compose to an 18% flip
    assert chain.terms["H(A:C)"] == pytest.approx(1.0 - h2(0.18), abs=1e-12)
    assert all(r.meta["markov_certified"] for r in reports)
    assert chain.meta["requires_markov"] is True


def test_dpi_deterministic_chain_equalities():
    d = ghz_like()
    for r in dpi_check(d, markov_certified=True):
        assert r.satisfied
        assert abs(r.margin) <= 1e-12


def test_dpi_b_constant():
    reports = dpi_check(triangle_counterexample(), markov_certified=False)
    by_name = {r.name: r for r in reports}
    assert by_name["dpi_forward_source"].lhs == pytest.approx(0.0, abs=1e-12)  # H(A:B)
    assert not by_name["dpi_forward_chain"].satisfied  # H(A:C)=1 > H(A:B)=0 off-Markov


def test_wrong_arity():
    pair = JointDistribution.uniform((2, 2))
    for check in (triangle_check, joint_triangle_check, two_hb_bound_check, narrowed_bound_check):
        with pytest.raises(WrongArityError):
            check(pair)
    with pytest.raises(WrongArityError):
        dpi_check(pair, markov_certified=False)


def test_classical_bound_letter_permutations_sweep():
    rng = np.random.default_rng(54)
    for i in range(500):
        d = random_tripartite(rng, sparse=(i % 3 == 0))
        for pivot in (0, 1, 2):
            assert cerf_adami_classical(d, pivot=pivot).satisfied


def test_markov_triangle_and_dpi_sweep():
    rng = np.random.default_rng(55)
    for _ in range(200):
        sizes = rng.integers(2, 5, size=3)
        d = build_tripartite(random_markov_spec(rng, *map(int, sizes)))
        assert triangle_check(d).satisfied
        assert all(r.satisfied for r in dpi_check(d, markov_certified=True))


def test_reports_to_csv():
    reports = [narrowed_bound_check(independent_bits()), triangle_check(independent_bits())]
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,satisfied,margin,terms"
    assert len(lines) == 3
    assert lines[1].startswith("narrowed_bound,")

"""The entropy vector behind every classical check.

``entropy_vector`` must equal the one-quantity functions bit for bit, and
every check built on it must equal the per-quantity battery in
``conftest.reference_battery`` in every field, signed zeros and key order
included.  The vector of the latest table is memoized in one slot, so one
battery computes it once; the memo must never hand one table's vector to
another, or let a caller's edit leak into a later call.
"""
import itertools
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from entrobound import (
    JointDistribution,
    cerf_adami_classical,
    conditional_mutual_information,
    dpi_check,
    entropy_vector,
    is_markov,
    joint_triangle_check,
    marginal_bound,
    marginalize,
    mutual_entropy,
    narrowed_bound_check,
    shannon_entropy,
    two_hb_bound_check,
)
from entrobound.cli import _classical_battery, main
from entrobound.entropy import _vector
from entrobound.errors import WrongArityError

from conftest import (
    brute_entropy_bits,
    random_tripartite,
    reference_battery,
    reference_cerf_adami,
    reference_cmi,
    report_fields,
    triangle_counterexample,
    tripartite_tables,
    xor_tripartite,
)

LABELS = ["H(A)", "H(B)", "H(C)", "H(A,B)", "H(A,C)", "H(B,C)", "H(A,B,C)",
          "H(A:B)", "H(A:C)", "H(B:C)"]
SUBSETS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
PAIRS = [(0, 1), (0, 2), (1, 2)]

def reference_vector(d):
    """Every vector entry from its one-quantity function, as (label, repr) pairs."""
    values = [shannon_entropy(marginalize(d, keep)).value for keep in SUBSETS]
    values += [shannon_entropy(d).value] + [mutual_entropy(d, x, y).value for x, y in PAIRS]
    return [(label, repr(v)) for label, v in zip(LABELS, values)]


def bits(h):
    return [(label, repr(v)) for label, v in h.items()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=tripartite_tables(), other=tripartite_tables())
def test_vector_and_checks_are_bit_identical_to_per_quantity_path(d, other):
    h = entropy_vector(d)
    assert list(h) == LABELS
    for keep, label in zip(SUBSETS, LABELS):
        assert h[label] == shannon_entropy(marginalize(d, keep)).value
    # the full table is read as it is, not renormalized a second time
    assert h["H(A,B,C)"] == shannon_entropy(d).value
    for x, y in PAIRS:
        label = f"H({'ABC'[x]}:{'ABC'[y]})"
        assert h[label] == mutual_entropy(d, x, y).value == mutual_entropy(d, y, x).value
    got = [report_fields(r) for r in _classical_battery(d, True)]
    assert got == [report_fields(r) for r in reference_battery(d)]
    for x, y, z in itertools.permutations(range(3)):
        cmi = conditional_mutual_information(d, x, y, z)
        assert repr(cmi.value) == repr(reference_cmi(d, x, y, z))
        assert cmi.base == 2.0
        assert is_markov(d, (x, z, y)) == (reference_cmi(d, x, y, z) <= 1e-9)
    assert marginal_bound(d) == max(shannon_entropy(marginalize(d, {i})).value for i in range(3))

    # the memo: interleaved tables, a caller's edit, two threads
    expected = {id(d): reference_vector(d), id(other): reference_vector(other)}
    for t in (d, other, d):
        assert bits(entropy_vector(t)) == expected[id(t)]
    edited = entropy_vector(d)
    edited["H(A)"] = -1.0
    del edited["H(B:C)"]
    assert bits(entropy_vector(d)) == expected[id(d)]
    start, results = threading.Barrier(2), [None, None]
    orders = ((d, other), (other, d))

    def worker(k):
        start.wait()
        results[k] = [bits(entropy_vector(t)) for _ in range(5) for t in orders[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for order, got in zip(orders, results):
        assert got == [expected[id(t)] for t in order] * 5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_bound_path_and_read_only_memo_are_exact(d):
    bound = max(shannon_entropy(marginalize(d, {i})).value for i in range(3))
    for pivot in (0, 1, 2):
        got = cerf_adami_classical(d, pivot, bound=marginal_bound(d))
        assert report_fields(got) == report_fields(reference_cerf_adami(d, pivot, bound))
    _classical_battery(d, True)
    is_markov(d, (2, 1, 0))
    assert bits(entropy_vector(d)) == reference_vector(d)
    # the checks read the memo itself, so nobody may write to it
    memo = _vector(d)
    with pytest.raises(TypeError):
        memo["H(A)"] = -1.0
    with pytest.raises(TypeError):
        del memo["H(B:C)"]
    assert bits(entropy_vector(d)) == reference_vector(d)


def test_one_battery_computes_one_vector(capsys):
    _vector.cache_clear()
    d = random_tripartite(np.random.default_rng(11))
    _classical_battery(d, True)
    is_markov(d, (0, 1, 2))
    is_markov(d, (2, 1, 0))
    marginal_bound(d)
    assert _vector.cache_info().misses == 1
    _vector.cache_clear()
    dist = str(Path(__file__).parent / "data" / "random.json")
    assert main(["inequality", "--markov-checks", "--dist", dist]) == 0
    assert '"command": "inequality"' in capsys.readouterr().out
    assert _vector.cache_info().misses == 1
    assert _vector.cache_info().currsize == 1


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 4), (1, 3, 2), (4, 4, 4)])
@pytest.mark.parametrize("sparse", [False, True])
def test_vector_matches_brute_force_oracle(sizes, sparse):
    rng = np.random.default_rng(300 + sum(sizes) + sparse)
    for _ in range(10):
        d = random_tripartite(rng, sizes=sizes, sparse=sparse)
        raw = d.probs
        h = entropy_vector(d)
        single = {}
        for keep, label in zip(SUBSETS + [(0, 1, 2)], LABELS):
            drop = tuple(i for i in range(3) if i not in keep)
            single[keep] = brute_entropy_bits(raw.sum(axis=drop) if drop else raw)
            assert abs(h[label] - single[keep]) <= 1e-12
        for x, y in PAIRS:
            mi = single[(x,)] + single[(y,)] - single[(x, y)]
            assert abs(h[f"H({'ABC'[x]}:{'ABC'[y]})"] - mi) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_always_valid_checks_hold_on_arbitrary_tables(d):
    reports = [joint_triangle_check(d), two_hb_bound_check(d), narrowed_bound_check(d)]
    reports += [r for r in dpi_check(d, markov_certified=False) if r.name.endswith("_source")]
    assert [r.name for r in reports] == ["joint_triangle", "two_hb_bound", "narrowed_bound",
                                         "dpi_forward_source", "dpi_reverse_source"]
    assert all(r.satisfied for r in reports)


def test_vector_closed_forms():
    # A = C uniform, B constant
    h = entropy_vector(triangle_counterexample())
    assert (h["H(A:C)"], h["H(A:B)"], h["H(B:C)"], h["H(B)"], h["H(A,B,C)"]) == (1.0, 0.0, 0.0, 0.0, 1.0)
    # B = A xor C: every pair independent, any two determine the third
    h = entropy_vector(xor_tripartite())
    assert (h["H(A:B)"], h["H(A:C)"], h["H(B:C)"]) == (0.0, 0.0, 0.0)
    assert h["H(A,B,C)"] == h["H(A,B)"] == h["H(B,C)"] == 2.0


@pytest.mark.parametrize("sizes", [(2,), (2, 3)])
def test_vector_needs_three_variables(sizes):
    with pytest.raises(WrongArityError):
        entropy_vector(JointDistribution.uniform(sizes))

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
from hypothesis import strategies as st

from entrobound import (
    JointDistribution,
    cerf_adami_classical,
    conditional_entropy,
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
from entrobound.dist import _total
from entrobound.entropy import _binary_values, _loop_values, _pair2, _pair_bits, _plogp2, _plogp_bits, _vector
from entrobound.errors import WrongArityError

from conftest import (
    binary_tables,
    brute_entropy_bits,
    random_tripartite,
    reference_battery,
    reference_cerf_adami,
    reference_cmi,
    report_fields,
    triangle_counterexample,
    tripartite_tables,
    wide_weights,
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


@settings(max_examples=500, deadline=None, derandomize=True)
@given(d=binary_tables())
def test_binary_tables_take_the_unrolled_loop_bit_for_bit(d):
    """A (2, 2, 2) table has its own straight-line path; the general loop and the one-quantity path are its reference."""
    _vector.cache_clear()
    assert list(map(repr, _binary_values(d.flat))) == list(map(repr, _loop_values(d.flat, 2, 2, 2)))
    assert bits(_vector(d)) == reference_vector(d)
    assert [report_fields(r) for r in _classical_battery(d, True)] == [report_fields(r) for r in reference_battery(d)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(sums=st.lists(wide_weights, min_size=4, max_size=4).filter(lambda s: _total(s) > 0.0))
def test_unrolled_helpers_are_the_loops_they_replace(sums):
    assert repr(_pair2(*sums)) == repr(_pair_bits(sums, 2, 2))
    for m in (sums[:2], sums[2:], sums[::3]):
        if _total(m) > 0.0:
            total = m[0] + m[1]  # the fsum of two floats is their IEEE sum
            assert repr(_plogp2(m[0] / total, m[1] / total)) == repr(_plogp_bits(m, _total(m)))


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


# Weights of a fixed (3, 3, 3) table, entries k / 15400.  On it and on ten
# entries of 0.1, a naive, a compensated (builtin sum() from Python 3.12 on)
# and a correctly rounded sum give different last bits, so a sum() or a
# changed summation order on the classical path moves a pinned repr.
_CUBE_WEIGHTS = (865, 395, 777, 912, 431, 42, 266, 989, 524, 498, 415, 941, 803, 850, 311, 992, 489, 367, 598,
                 914, 930, 224, 517, 143, 289, 144, 774)


def test_results_do_not_depend_on_the_python_version():
    ten = JointDistribution.from_flat((10,), [0.1] * 10)
    assert repr(ten.flat) == repr((0.1,) * 10)
    assert repr(shannon_entropy(ten).value) == "3.321928094887362"
    cube = JointDistribution.from_flat((3, 3, 3), [k / 15400 for k in _CUBE_WEIGHTS])
    assert repr(cube.flat) == repr((
        0.05616883116883117, 0.02564935064935065, 0.05045454545454545, 0.05922077922077922, 0.027987012987012987,
        0.0027272727272727275, 0.017272727272727273, 0.06422077922077922, 0.03402597402597403,
        0.03233766233766234, 0.026948051948051947, 0.061103896103896105, 0.052142857142857144,
        0.05519480519480519, 0.020194805194805196, 0.06441558441558441, 0.031753246753246755,
        0.02383116883116883, 0.038831168831168834, 0.05935064935064935, 0.06038961038961039,
        0.014545454545454545, 0.03357142857142857, 0.009285714285714286, 0.018766233766233768,
        0.00935064935064935, 0.05025974025974026))
    assert repr(shannon_entropy(cube).value) == "4.543513566769691"
    assert repr(entropy_vector(cube)) == repr({
        "H(A)": 1.5789922065577873, "H(B)": 1.564042646239735, "H(C)": 1.5831007097974754,
        "H(A,B)": 3.1177812691119535, "H(A,C)": 3.141853504510667, "H(B,C)": 3.088834579846181,
        "H(A,B,C)": 4.543513566769691, "H(A:B)": 0.02525358368556896, "H(A:C)": 0.020239411844595878,
        "H(B:C)": 0.05830877619102903})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=tripartite_tables())
def test_vector_matches_scipy_on_numpy_marginals(d):
    from scipy.stats import entropy

    raw = d.probs
    h = entropy_vector(d)
    single = {}
    for keep, label in zip(SUBSETS + [(0, 1, 2)], LABELS):
        drop = tuple(i for i in range(3) if i not in keep)
        single[keep] = entropy((raw.sum(axis=drop) if drop else raw).ravel(), base=2)
        assert abs(h[label] - single[keep]) <= 1e-12
    for x, y in PAIRS:
        mi = single[(x,)] + single[(y,)] - single[(x, y)]
        assert abs(h[f"H({'ABC'[x]}:{'ABC'[y]})"] - mi) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.one_of(tripartite_tables(), tripartite_tables().map(lambda t: marginalize(t, {0, 2}))))
def test_pair_quantities_match_scipy_in_both_argument_orders(d):
    """The pair reduction hands back its two marginals in argument order."""
    from scipy.stats import entropy

    raw = d.probs

    def h(*keep):
        drop = tuple(i for i in range(d.num_vars) if i not in keep)
        return entropy((raw.sum(axis=drop) if drop else raw).ravel(), base=2)

    for x, y in itertools.permutations(range(d.num_vars), 2):
        assert abs(conditional_entropy(d, x, y).value - (h(x, y) - h(y))) <= 1e-12
        assert repr(mutual_entropy(d, x, y)) == repr(mutual_entropy(d, y, x))

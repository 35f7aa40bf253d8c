import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    DensityMatrix,
    MeasurementSettings,
    bell_state,
    cerf_adami_quantum,
    conditional_quantum_entropy,
    is_entangled_pure,
    maximally_mixed,
    measure_pair,
    mutual_entropy,
    pair_mi_table,
    partial_trace,
    product_state,
    pure_state,
    shannon_entropy,
    singlet,
    von_neumann_entropy,
    werner_state,
    JointDistribution,
    validate,
)
from entrobound.errors import (
    DimensionMismatchError,
    EntroboundError,
    InternalError,
    InvalidDensityMatrixError,
    InvalidSubsystemError,
    NotPositiveSemidefiniteError,
    NotPureError,
    ValidationError,
)
from entrobound import quantum as quantum_module
from entrobound.cli import main
from entrobound.quantum import _correlations, _three_pairs

from conftest import (
    h2,
    nested,
    random_mixed_state,
    random_pure_two_qubit,
    reference_measure_pair,
    reference_cerf_adami_quantum,
    reference_pair_mi,
    report_fields,
    singlet_mi,
    singlet_pair_probs,
    werner_mi,
)


def test_density_matrix_copies_its_input():
    # the caller's array stays writeable, and a view of it cannot change the validated state
    m = np.eye(4, dtype=complex) / 4.0
    view = m[:]
    rho = DensityMatrix(2, 2, m)
    assert m.flags.writeable and not rho.matrix.flags.writeable
    view[0, 0] = 5.0
    assert rho.matrix[0, 0] == 0.25 and np.trace(rho.matrix) == 1.0


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.1
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(2, 2, m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(2, 2, np.eye(4, dtype=complex) / 2.0)


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.25, math.nan), complex(-math.inf, 0.0)])
def test_density_matrix_rejects_non_finite_entry(entry):
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] = entry
    with pytest.raises(InvalidDensityMatrixError, match="non-finite"):
        DensityMatrix(2, 2, m)


@pytest.mark.parametrize("entry", [10 ** 400, True, "1", "a", None])
@pytest.mark.parametrize("build", [
    lambda v: DensityMatrix(1, 1, [[v]]),
    lambda v: pure_state([v, 1.0, 0.0, 0.0]),
    lambda v: product_state([[v, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]]),
], ids=["DensityMatrix", "pure_state", "product_state"])
def test_state_constructors_take_only_numbers_in_the_float_range(build, entry):
    # np.array(..., dtype=complex) alone reads True and "1" as 1 and raises bare errors for 10**400 and "a"
    with pytest.raises(ValidationError, match="must be numbers|float range") as caught:
        build(entry)
    assert len(str(caught.value)) < 100  # the huge value is not printed


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(NotPositiveSemidefiniteError):
        DensityMatrix(2, 2, m)


def test_density_matrix_json_round_trip():
    rho = werner_state(0.7)
    again = DensityMatrix.from_dict(rho.to_dict())
    assert np.max(np.abs(again.matrix - rho.matrix)) <= 1e-15
    assert (again.dim_a, again.dim_b) == (2, 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(70)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    rho_a = np.outer(v, v.conj())
    rho_b = np.eye(2, dtype=complex) / 2.0
    rho = product_state(rho_a, rho_b)
    reduced = partial_trace(rho, keep=0)
    assert np.max(np.abs(reduced.matrix - rho_a)) <= 1e-12


def test_partial_trace_of_bell_state_is_maximally_mixed():
    reduced = partial_trace(bell_state("phi+"), keep=0)
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) <= 1e-12


def test_partial_trace_of_maximally_mixed():
    reduced = partial_trace(maximally_mixed(), keep=1)
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) <= 1e-15


def test_partial_trace_qubit_qutrit():
    rng = np.random.default_rng(71)
    probs_a = rng.dirichlet(np.ones(2))
    probs_b = rng.dirichlet(np.ones(3))
    rho = product_state(np.diag(probs_a).astype(complex), np.diag(probs_b).astype(complex))
    keep_b = partial_trace(rho, keep=1)
    assert np.max(np.abs(keep_b.matrix - np.diag(probs_b))) <= 1e-12


def test_partial_trace_invalid_subsystem():
    with pytest.raises(InvalidSubsystemError):
        partial_trace(singlet(), keep=2)


def test_subsystems_take_integers_only():
    # a bool is not an integer here: True used to trace out a subsystem, and S(1|0) = -1 bit for the singlet
    for bad in (True, False, 0.5, "1", float("nan")):
        with pytest.raises(ValidationError, match="subsystems must be"):
            partial_trace(singlet(), bad)
    for target, given_ in ((True, False), (1, False), (1.5, 0)):
        with pytest.raises(ValidationError, match="subsystems must be"):
            conditional_quantum_entropy(singlet(), target, given_)
    for keep in (2, -1, 2.0, np.int64(3)):
        with pytest.raises(InvalidSubsystemError, match="keep must be 0 or 1"):
            partial_trace(singlet(), keep)
    with pytest.raises(InvalidSubsystemError, match="subsystems must be 0 or 1"):
        conditional_quantum_entropy(singlet(), 2.0, 0)
    with pytest.raises(InvalidSubsystemError, match="must differ"):
        conditional_quantum_entropy(singlet(), 1.0, np.int64(1))
    rho = werner_state(0.7)
    for keep in (0, 1):
        assert np.array_equal(partial_trace(rho, float(keep)).matrix, partial_trace(rho, keep).matrix)
        assert np.array_equal(partial_trace(rho, np.int64(keep)).matrix, partial_trace(rho, keep).matrix)
    assert conditional_quantum_entropy(singlet(), 1.0, np.int32(0)) == conditional_quantum_entropy(singlet(), 1, 0)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(77)
    for _ in range(30):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w = g @ g.conj().T
        rho = DensityMatrix(2, 2, w / np.trace(w).real)
        for keep in (0, 1):
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced.matrix).real - 1.0) <= 1e-12
            assert np.max(np.abs(reduced.matrix - reduced.matrix.conj().T)) <= 1e-12


def test_von_neumann_pure_states_zero():
    rng = np.random.default_rng(72)
    for _ in range(100):
        rho = pure_state(random_pure_two_qubit(rng))
        assert abs(von_neumann_entropy(rho).value) <= 1e-9


def test_von_neumann_maximally_mixed_qubit():
    rho = partial_trace(maximally_mixed(), keep=0)
    assert von_neumann_entropy(rho).value == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_known_spectrum():
    rho = DensityMatrix(2, 1, np.diag([0.25, 0.75]).astype(complex))
    assert von_neumann_entropy(rho).value == pytest.approx(0.8112781244591328, abs=1e-12)


def test_von_neumann_diagonal_matches_shannon():
    rng = np.random.default_rng(73)
    for _ in range(100):
        probs = rng.dirichlet(np.ones(4))
        rho = DensityMatrix(2, 2, np.diag(probs).astype(complex))
        s = von_neumann_entropy(rho).value
        h = shannon_entropy(JointDistribution.from_flat((4,), probs)).value
        assert s == pytest.approx(h, abs=1e-12)


def test_von_neumann_natural_base():
    rho = partial_trace(maximally_mixed(), keep=0)
    assert von_neumann_entropy(rho, base=math.e).value == pytest.approx(math.log(2), abs=1e-12)


def test_conditional_entropy_bell_state():
    assert conditional_quantum_entropy(bell_state("phi+"), 1, 0).value == pytest.approx(-1.0, abs=1e-9)


def test_conditional_entropy_product_of_mixed():
    rho = maximally_mixed()
    assert conditional_quantum_entropy(rho, 1, 0).value == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_classically_correlated():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5  # |00><00|
    m[3, 3] = 0.5  # |11><11|
    rho = DensityMatrix(2, 2, m)
    assert conditional_quantum_entropy(rho, 1, 0).value == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_invalid_subsystems():
    with pytest.raises(InvalidSubsystemError):
        conditional_quantum_entropy(singlet(), 0, 0)
    with pytest.raises(InvalidSubsystemError):
        conditional_quantum_entropy(singlet(), 2, 0)


def test_entangled_bell_state():
    assert is_entangled_pure(bell_state("phi+"))
    assert is_entangled_pure(singlet())


def test_product_pure_state_not_entangled():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = pure_state(np.kron([1.0, 0.0], plus))
    assert not is_entangled_pure(rho)


def test_partially_entangled_state():
    rho = pure_state([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)])
    assert is_entangled_pure(rho)
    s = conditional_quantum_entropy(rho, 1, 0).value
    assert s == pytest.approx(-h2(0.1), abs=1e-9)


def test_entanglement_check_refuses_mixed_states():
    with pytest.raises(NotPureError):
        is_entangled_pure(werner_state(0.5))


def test_entanglement_matches_schmidt_rank():
    rng = np.random.default_rng(74)
    states = [random_pure_two_qubit(rng) for _ in range(100)]
    # add explicit product states so both branches are exercised
    for _ in range(20):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    for v in states:
        rho = pure_state(v)
        # independent oracle: spectrum of the reduced state computed directly
        blocks = np.outer(v, v.conj()).reshape(2, 2, 2, 2)
        reduced = np.einsum("ibjb->ij", blocks)
        schmidt_rank = int((np.linalg.eigvalsh(reduced) > 1e-9).sum())
        assert is_entangled_pure(rho) == (schmidt_rank > 1)


def test_measure_pair_singlet_equal_angles():
    d = measure_pair(singlet(), 0.7, 0.7)
    np.testing.assert_allclose(d.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
    assert mutual_entropy(d, 0, 1).value == pytest.approx(1.0, abs=1e-9)


def test_measure_pair_singlet_orthogonal_angles():
    d = measure_pair(singlet(), 0.3, 0.3 + math.pi / 2)
    np.testing.assert_allclose(d.probs, np.full((2, 2), 0.25), atol=1e-12)
    assert mutual_entropy(d, 0, 1).value == pytest.approx(0.0, abs=1e-9)


def test_measure_pair_matches_closed_form():
    rng = np.random.default_rng(75)
    rho = singlet()
    for _ in range(100):
        a1, a2 = rng.uniform(0, math.pi, size=2)
        d = measure_pair(rho, a1, a2)
        validate(d)
        assert np.max(np.abs(d.probs - singlet_pair_probs(a1, a2))) <= 1e-9


def test_measure_pair_rejects_wrong_dims():
    qubit = partial_trace(singlet(), keep=0)
    with pytest.raises(DimensionMismatchError):
        measure_pair(qubit, 0.0, 0.0)


def test_cerf_adami_quantum_equal_angles():
    r = cerf_adami_quantum(singlet(), MeasurementSettings((0.4, 0.4, 0.4)))
    assert r.satisfied
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.meta["marginals_uniform"] is True
    assert r.meta["source"] == "pairwise"


def test_cerf_adami_quantum_product_state():
    rho = product_state(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
    r = cerf_adami_quantum(rho, MeasurementSettings((0.1, 0.9, 1.7)))
    assert r.satisfied
    assert r.lhs == pytest.approx(0.0, abs=1e-9)


def test_cerf_adami_quantum_violation_at_oracle_angles():
    theta = math.pi / 8
    r = cerf_adami_quantum(singlet(), MeasurementSettings((0.0, theta, 2 * theta)))
    assert not r.satisfied
    # closed-form LHS: 2 * I(theta) - I(2 theta) for this symmetric triple
    expected = 2 * singlet_mi(0.0, theta) - singlet_mi(0.0, 2 * theta)
    assert r.lhs == pytest.approx(expected, abs=1e-9)
    assert r.lhs > 1.0 + 1e-6


def test_cerf_adami_quantum_flags_non_uniform_marginals():
    rho = pure_state([1.0, 0.0, 0.0, 0.0])  # |00>: marginals are point masses
    r = cerf_adami_quantum(rho, MeasurementSettings((0.0, 0.0, 0.0)))
    assert r.meta["marginals_uniform"] is False
    assert r.meta["warnings"] == [
        f"setting {name} marginal in {label} deviates from uniform by 0.5"
        for label, names in (("H(A:B)", "AB"), ("H(A:C)", "AC"), ("H(B:C)", "BC")) for name in names
    ]


def test_cerf_adami_quantum_report_matches_the_cerf_adami_check_path():
    rng = np.random.default_rng(93)
    states = [singlet(), werner_state(0.5), werner_state(0.97), pure_state([1.0, 0.0, 0.0, 0.0])]
    states += [DensityMatrix(2, 2, random_mixed_state(rng)) for _ in range(4)]  # marginals not uniform
    warned = 0
    for rho in states:
        for angles in [(0.0, 0.0, 0.0), (0.0, math.pi / 8, math.pi / 4), *rng.uniform(0.0, math.pi, (20, 3))]:
            settings = MeasurementSettings(tuple(angles))
            report = cerf_adami_quantum(rho, settings)
            reference = reference_cerf_adami_quantum(rho, settings)
            assert report_fields(report) == report_fields(reference)
            a, b, c = settings.angles
            for value, (x, y) in zip(reference.terms.values(), ((a, b), (a, c), (b, c))):
                assert abs(value - reference_pair_mi(rho, x, y)) <= 1e-12
            warned += bool(report.meta["warnings"])
    assert warned > 40


def test_marginal_warnings_and_joints_match_the_projector_reference():
    # an oracle apart from the kernel: each cell is tr[rho (P_i x P_j)], one np.kron per cell
    rng = np.random.default_rng(95)
    states = [singlet(), werner_state(0.7), bell_state("phi+"), pure_state([1.0, 0.0, 0.0, 0.0])]
    states += [DensityMatrix(2, 2, random_mixed_state(rng)) for _ in range(6)]
    states += [pure_state(random_pure_two_qubit(rng)) for _ in range(4)]
    uniform = 0
    for rho in states:
        for angles in [(0.0, math.pi / 8, math.pi / 4), *rng.uniform(0.0, math.pi, (12, 3))]:
            settings = MeasurementSettings(tuple(angles))
            a, b, c = settings.angles
            tables = [reference_measure_pair(rho, x, y).probs for x, y in ((a, b), (a, c), (b, c))]
            joints = _three_pairs(_correlations(rho), settings.angles)[1]
            assert max(np.max(np.abs(joints[:, k] - t.ravel())) for k, t in enumerate(tables)) <= 1e-12
            expected = []
            for (label, names), t in zip((("H(A:B)", "AB"), ("H(A:C)", "AC"), ("H(B:C)", "BC")), tables):
                for name, dev in zip(names, (abs(t[0].sum() - 0.5), abs(t[:, 0].sum() - 0.5))):
                    assert abs(dev - 1e-6) > 1e-12  # no marginal on the threshold
                    if dev > 1e-6:
                        expected.append(f"setting {name} marginal in {label} deviates from uniform by {dev:.3g}")
            report = cerf_adami_quantum(rho, settings)
            assert report.meta["warnings"] == expected
            assert report.meta["marginals_uniform"] is (not expected)
            uniform += not expected
    assert 3 * 13 <= uniform < len(states) * 13


def test_cerf_adami_quantum_terms_are_the_pair_mi_table():
    # one kernel: the three experiments of a report are cells of the table at the same angles
    rng = np.random.default_rng(94)
    states = [singlet(), werner_state(0.8), pure_state([1.0, 0.0, 0.0, 0.0]), bell_state("phi+")]
    states += [DensityMatrix(2, 2, random_mixed_state(rng)) for _ in range(4)]
    for rho in states:
        for angles in [(0.0, 0.0, math.pi / 2), *rng.uniform(0.0, math.pi, (10, 3))]:
            settings = MeasurementSettings(tuple(angles))
            a, b, c = settings.angles
            table = pair_mi_table(rho, [a, b], [b, c])
            terms = cerf_adami_quantum(rho, settings).terms
            for label, cell in (("H(A:B)", table[0, 0]), ("H(A:C)", table[0, 1]), ("H(B:C)", table[1, 1])):
                assert abs(terms[label] - cell) <= 1e-15


@pytest.mark.parametrize("name", ["00", "phi+", "phi-", "psi+", "psi-"])
def test_exact_zero_probabilities_match_the_reference_without_warnings(name):
    # aligned and orthogonal settings: outcome probabilities of exactly 0 (and of 1)
    rho = pure_state([1.0, 0.0, 0.0, 0.0]) if name == "00" else bell_state(name)
    angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = pair_mi_table(rho, angles, angles)
        reports = [cerf_adami_quantum(rho, MeasurementSettings(s)) for s in ((0.0, 0.0, math.pi / 2),
                                                                            (0.0, math.pi / 2, math.pi / 2))]
    expected = np.array([[reference_pair_mi(rho, a, b) for b in angles] for a in angles])
    assert np.max(np.abs(table - expected)) <= 1e-12
    assert not np.signbit(table).any()
    for report in reports:
        a, b, c = report.meta["angles"]
        want = [reference_pair_mi(rho, x, y) for x, y in ((a, b), (a, c), (b, c))]
        assert max(abs(v - w) for v, w in zip(report.terms.values(), want)) <= 1e-12


@pytest.mark.parametrize("name, clamped", [("00", True), ("clamped negative", True), ("singlet", False),
                                           ("phi+", False), ("werner 0", False), ("werner 0.5", False),
                                           ("mixed", False)])
def test_pair_kernel_clamps_before_its_log_only_where_a_probability_is_below_tiny(name, clamped):
    # a table with no probability below the smallest normal float skips the clamp (on this grid the Bell states'
    # least probability rounds to 5.6e-17, not 0); |00> has exact zeros, and a clamped negative entry leaves one
    states = {"00": pure_state([1.0, 0.0, 0.0, 0.0]),
              "clamped negative": DensityMatrix(2, 2, np.diag(_CLAMPED_DIAGONALS[0]).astype(complex)),
              "singlet": singlet(), "phi+": bell_state("phi+"), "werner 0": werner_state(0.0),
              "werner 0.5": werner_state(0.5),
              "mixed": DensityMatrix(2, 2, random_mixed_state(np.random.default_rng(96)))}
    rho, angles = states[name], np.arange(12) * (math.pi / 12)
    table = np.empty((12, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        joints = quantum_module._pair_mi(_correlations(rho), angles[:, None], angles, table)
        assert pair_mi_table(rho, angles, angles).tobytes() == table.tobytes()
    assert bool(joints.min() < np.finfo(float).tiny) is clamped
    expected = np.array([[reference_pair_mi(rho, a, b) for b in angles] for a in angles])
    assert np.max(np.abs(table - expected)) <= 1e-12
    assert not np.signbit(table).any()


def test_product_states_never_violate_sweep():
    rng = np.random.default_rng(76)
    for _ in range(25):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = pure_state(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        settings = MeasurementSettings(tuple(rng.uniform(0, math.pi, size=3)))
        assert cerf_adami_quantum(rho, settings).satisfied


def test_measurement_settings_canonicalization():
    s = MeasurementSettings((-0.1, math.pi + 0.2, 2 * math.pi))
    for angle in s.angles:
        assert 0.0 <= angle < math.pi
    assert s.angles[1] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("angle", [-1e-17, -5e-324, math.nextafter(0.0, -1.0), 2 * math.pi, -math.pi])
def test_measurement_settings_angles_are_canonical(angle):
    # a hair below 0 is exactly pi mod pi in float, which the settings read as 0.0
    s = MeasurementSettings((angle, 0.3, angle))
    assert all(0.0 <= a < math.pi for a in s.angles)
    assert MeasurementSettings(s.angles) == s


def test_measurement_settings_rejects_non_finite():
    with pytest.raises(ValidationError):
        MeasurementSettings((math.nan, 0.0, 0.0))


def test_measurement_settings_need_exactly_three_angles():
    for angles in ((0.0, 1.0), (0.0, 1.0, 2.0, 3.0)):
        with pytest.raises(ValidationError, match=f"need exactly 3 angles, got {len(angles)}"):
            MeasurementSettings(angles)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pair_measurements_reject_non_finite_angles(bad):
    rho = singlet()
    for call in (lambda: pair_mi_table(rho, [bad], [0.0]), lambda: pair_mi_table(rho, [0.0], [0.0, bad]),
                 lambda: measure_pair(rho, bad, 0.0), lambda: measure_pair(rho, 0.0, bad)):
        with pytest.raises(ValidationError, match="angles must be finite"):
            call()


def test_a_long_angle_list_names_only_its_first_non_finite_angle():
    # the whole tuple of 1024 angles made a 20,281-character message
    angles = [i * math.pi / 1024 for i in range(1024)]
    angles[700], angles[900] = math.nan, math.inf
    with pytest.raises(ValidationError) as info:
        pair_mi_table(singlet(), angles, angles[:3])
    assert str(info.value) == "angles must be finite, got angle 700 of 1024: nan"


def test_bell_state_unknown_name():
    with pytest.raises(ValidationError):
        bell_state("sigma+")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: product_state(-1, np.eye(2) / 2), id="product_state-scalar-factor"),
    pytest.param(lambda: bell_state([]), id="bell_state-list-name"),
    pytest.param(lambda: pure_state([1.0, 0.0, 0.0, 0.0], dims="a"), id="pure_state-string-dims"),
    pytest.param(lambda: pure_state([1.0, 0.0, 0.0, 0.0], dims={}), id="pure_state-empty-dict-dims"),
    pytest.param(lambda: maximally_mixed(-1, 2), id="maximally_mixed-negative-size"),
])
def test_state_constructors_raise_package_errors(build):
    with pytest.raises(EntroboundError):
        build()


@pytest.mark.parametrize("depth", [33, 65])
@pytest.mark.parametrize("build", [
    pytest.param(lambda depth: DensityMatrix(1, 1, nested(depth, 1.0)), id="DensityMatrix"),
    pytest.param(lambda depth: pure_state(nested(depth, 1.0), dims=(1, 1)), id="pure_state"),
    pytest.param(lambda depth: product_state(nested(depth, 1.0), [[1.0]]), id="product_state"),
    pytest.param(lambda depth: DensityMatrix.from_dict({"dims": [1, 1], "re": nested(depth, 1.0),
                                                        "im": nested(depth, 0.0)}), id="from_dict"),
])
def test_entries_nested_past_numpy_s_dimensions_raise_validation_error(build, depth):
    # numpy 2's flat iterator raised a bare RuntimeError past 32 dimensions, and from_dict's second parse a bare
    # ValueError past 64; numpy 1 holds at most 32, so only the class is asserted
    with pytest.raises(ValidationError):
        build(depth)


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: pure_state([math.nan, 0.0, 0.0, 0.0]), ValidationError, id="pure_state-nan-amplitude"),
    pytest.param(lambda: pure_state([0.0, math.inf, 0.0, 0.0]), ValidationError, id="pure_state-inf-amplitude"),
    pytest.param(lambda: DensityMatrix.from_dict({"dims": [2, 2, 1], "re": np.eye(4).tolist(),
                                                  "im": np.zeros((4, 4)).tolist()}),
                 InvalidDensityMatrixError, id="from_dict-three-dims"),
])
def test_non_finite_amplitudes_and_three_dims_raise_package_errors(build, error):
    # the norm raised a RuntimeWarning on a non-finite amplitude, and unpacking three dims a bare ValueError
    with pytest.raises(error):
        build()


def test_amplitudes_near_the_float_range_are_rescaled_before_the_norm():
    # the squares overflowed the norm, so the state was refused as "trace deviates from 1 by 1.0"
    assert pure_state([1e308, 1e308, 0.0, 0.0]).matrix.tobytes() == pure_state([1.0, 1.0, 0.0, 0.0]).matrix.tobytes()
    assert pure_state([-1.7e308, 0.0, 0.0, 1.7e308j]).purity() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("amplitudes, diagonal", [
    ([1e-320, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ([3e-170, 4e-170, 0.0, 0.0], [0.36, 0.64, 0.0, 0.0]),
    ([1e-160, 1e-170, 0.0, 0.0], [1.0, 1e-20, 0.0, 0.0]),
], ids=["subnormal", "squares-underflow", "squares-subnormal"])
def test_amplitudes_whose_squares_underflow_are_rescaled_before_the_norm(amplitudes, diagonal):
    # the first two were refused as zero vectors, the third as "trace deviates from 1 by 1.1e-05"
    rho = pure_state(amplitudes)
    assert np.diag(rho.matrix).real == pytest.approx(diagonal, rel=1e-12, abs=1e-15)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: pure_state([0.0] * 4), ValidationError, "amplitude vector must be nonzero",
                 id="pure_state-zero-amplitudes"),
    pytest.param(lambda: DensityMatrix(2, 2, np.eye(2) / 2), InvalidDensityMatrixError, r"matrix shape \(2, 2\)",
                 id="matrix-shape"),
])
def test_a_zero_state_vector_and_a_matrix_of_the_wrong_shape_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_werner_parameter_range():
    with pytest.raises(ValidationError):
        werner_state(1.5)


def test_werner_boundary_parameters():
    # p = 1 is the singlet (rank 1), p = 0 maximally mixed; both valid
    assert werner_state(1.0).purity() == pytest.approx(1.0, abs=1e-12)
    assert werner_state(0.0).purity() == pytest.approx(0.25, abs=1e-12)


def test_density_matrix_from_dict_shape_mismatch():
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix.from_dict({"dims": [2, 2], "re": np.eye(4).tolist(), "im": np.zeros((2, 2)).tolist()})


def test_measure_pair_right_angle_settings():
    # at exactly pi/2 apart the correlation vanishes
    d = measure_pair(singlet(), 0.0, math.pi / 2)
    np.testing.assert_allclose(d.probs, np.full((2, 2), 0.25), atol=1e-12)


# --- pair_mi_table: the batched kernel ----------------------------------------------

_angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
_angles = st.lists(_angle, min_size=1, max_size=5)


@st.composite
def _two_qubit_states(draw):
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return DensityMatrix(2, 2, random_mixed_state(np.random.default_rng(seed)))
    return werner_state(draw(st.floats(min_value=0.0, max_value=1.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=_two_qubit_states(), angles_x=_angles, angles_y=_angles)
def test_pair_mi_table_agrees_with_scalar_reference(rho, angles_x, angles_y):
    table = pair_mi_table(rho, angles_x, angles_y)
    expected = np.array([[reference_pair_mi(rho, a, b) for b in angles_y] for a in angles_x])
    assert table.shape == expected.shape
    assert np.max(np.abs(table - expected)) <= 1e-12


def test_measure_pair_agrees_with_scalar_reference():
    rng = np.random.default_rng(90)
    for _ in range(20):
        rho = DensityMatrix(2, 2, random_mixed_state(rng))
        a1, a2 = rng.uniform(-4.0, 4.0, size=2)
        assert np.max(np.abs(measure_pair(rho, a1, a2).probs - reference_measure_pair(rho, a1, a2).probs)) <= 1e-12


def test_correlations_of_the_singlet_and_werner_family():
    # the singlet has unbiased qubits and T = -I; Werner p scales T by p
    for p in (1.0, 0.97, 0.5, 0.0):
        a_x, a_z, b_x, b_z, *t = _correlations(werner_state(p))
        assert max(abs(a_x), abs(a_z), abs(b_x), abs(b_z)) <= 1e-15
        assert np.max(np.abs(np.reshape(t, (2, 2)) + p * np.eye(2))) <= 1e-15
    assert np.array_equal(_correlations(singlet()), _correlations(werner_state(1.0)))


def test_pair_mi_table_memory_is_the_table_plus_bounded_chunks():
    # the 1024 x 1024 table is 8 MB; the chunked kernel adds well under 4 MB
    angles = np.linspace(0.0, math.pi, 1024, endpoint=False)
    tracemalloc.start()
    try:
        pair_mi_table(werner_state(0.9), angles, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_pair_mi_table_singlet_closed_form():
    angles = np.linspace(0.0, math.pi, 25, endpoint=False)
    table = pair_mi_table(singlet(), angles, angles[::-1])
    for x, a in enumerate(angles):
        for y, b in enumerate(angles[::-1]):
            assert abs(table[x, y] - singlet_mi(a, b)) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 0.97, 1.0])
def test_pair_mi_table_werner_closed_form(p):
    angles = np.linspace(0.0, math.pi, 16, endpoint=False) + 0.05
    table = pair_mi_table(werner_state(p), angles, angles)
    for x, a in enumerate(angles):
        for y, b in enumerate(angles):
            assert abs(table[x, y] - werner_mi(p, a, b)) <= 1e-12


def test_pair_mi_table_spans_chunks(monkeypatch):
    # more rows than fit one block: the blocked rows equal row-by-row calls
    rho = DensityMatrix(2, 2, random_mixed_state(np.random.default_rng(91)))
    angles = np.linspace(0.0, math.pi, 130, endpoint=False)
    table = pair_mi_table(rho, angles, angles)
    for x in (0, 31, 32, 64, 129):
        assert np.array_equal(table[x], pair_mi_table(rho, angles[x:x + 1], angles)[0])
    # every block size, from one pair (8 cells of scratch) to the whole table, gives the same bytes
    angles_x, angles_y = angles[:23], angles[::10]
    table = pair_mi_table(rho, angles_x, angles_y)
    for pairs in range(1, table.size + 1):
        monkeypatch.setattr(quantum_module, "_BLOCK_CELLS", 8 * pairs)
        assert pair_mi_table(rho, angles_x, angles_y).tobytes() == table.tobytes(), pairs


def test_pair_mi_table_raises_on_negative_probability():
    # not a state: bypass validation to feed the kernel <01|rho|01> = -0.5
    bad = object.__new__(DensityMatrix)
    object.__setattr__(bad, "dim_a", 2)
    object.__setattr__(bad, "dim_b", 2)
    object.__setattr__(bad, "matrix", np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(InternalError, match="below -1e-09"):
        pair_mi_table(bad, [0.0], [0.0])


# Valid states (eigenvalue -0.9e-9 >= -1e-9) whose spectra and outcome tables hold a negative entry.
_CLAMPED_DIAGONALS = [
    (1 + 0.9e-9, 0.0, 0.0, -0.9e-9),
    (1.0, 0.0, 0.9e-9, -0.9e-9),
    (1.0, 0.9e-9, 0.0, -0.9e-9),
    (0.5, 0.5 + 0.9e-9, 0.0, -0.9e-9),
]


@pytest.mark.parametrize("diagonal", _CLAMPED_DIAGONALS)
def test_clamped_spectrum_is_renormalised_before_its_entropy(diagonal, tmp_path, capsys):
    # an eigenvalue 1 + 0.9e-9, of the state or of a reduced state, alone gives S = -1.3e-9
    rho = DensityMatrix(2, 2, np.diag(diagonal).astype(complex))
    for s in (von_neumann_entropy(rho), conditional_quantum_entropy(rho, 1, 0),
              conditional_quantum_entropy(rho, 0, 1)):
        assert math.isfinite(s.value) and s.value >= 0.0
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho.to_dict()))
    assert main(["quantum", "--state-file", str(path), "--angles", "0,0.5,1.0"]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("diagonal", _CLAMPED_DIAGONALS)
def test_clamped_outcome_probabilities_keep_the_marginals_of_the_clamped_joint(diagonal):
    # valid states (eigenvalue -0.9e-9 >= -1e-9) with p(-, -) = -0.9e-9 at angle 0: that pair is
    # clamped and renormalised, and its H(X), H(Y) come from the clamped joint, as the reference's do
    rho = DensityMatrix(2, 2, np.diag(diagonal).astype(complex))
    angles = [0.0, math.pi / 3, math.pi / 2]
    table = pair_mi_table(rho, angles, angles)
    expected = np.array([[reference_pair_mi(rho, a, b) for b in angles] for a in angles])
    assert np.max(np.abs(table - expected)) <= 1e-12
    assert table[0, 0] <= 1e-15
    assert table[:1].tobytes() == pair_mi_table(rho, angles[:1], angles).tobytes()
    for settings in ((0.0, 0.0, 0.0), (0.0, math.pi / 3, math.pi / 2)):
        a, b, c = settings
        want = [reference_pair_mi(rho, x, y) for x, y in ((a, b), (a, c), (b, c))]
        got = cerf_adami_quantum(rho, MeasurementSettings(settings)).terms.values()
        assert max(abs(v - w) for v, w in zip(got, want)) <= 1e-12
    probs = measure_pair(rho, 0.0, 0.0).probs
    assert probs.min() >= 0.0 and probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(probs - reference_measure_pair(rho, 0.0, 0.0).probs)) <= 1e-12


def test_pair_mi_table_rejects_wrong_dims():
    with pytest.raises(DimensionMismatchError):
        pair_mi_table(partial_trace(singlet(), keep=0), [0.0], [0.0])

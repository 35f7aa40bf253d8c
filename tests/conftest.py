"""Shared generators and independent oracles for the test suite.

The oracle functions here deliberately avoid the package's computation
paths: entropies are summed with math.log2 in a plain loop, singlet
statistics come from the closed form, and reduced-state spectra are taken
straight from numpy on test-side matrices.  ``reference_measure_pair`` is
a per-pair projector and np.kron evaluation; the closed-form pair kernel
(marginal entropies once per angle, the joint entropy per pair), its joints
and the report's marginal warnings must agree with it within 1e-12.
``reference_cerf_adami_quantum`` takes the three MIs and joints of a setting
from that kernel (``quantum._three_pairs``), builds the report through
``cerf_adami_check`` and extends it with the quantum meta, which the
one-call report replaced; the two must agree field for field.
``reference_battery`` and ``reference_cmi`` are the per-quantity classical
checks (one marginal and one pair MI per term) that the entropy vector
replaced; the vector-based checks must reproduce them bit for bit.
``reference_cube_argmax`` is the four-pass grid reduction (subtract, abs,
add, max over row chunks of the resolution^3 cube) that the
reduce-over-i-first sweep replaced; the grid search must reproduce its
maximum and winner bit for bit.  ``reference_upper_bounds`` is the
triangle bound at the best of all pivots that the two pivots around each
column replaced; the grid search must sweep no more column pairs than it.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from entrobound import (
    EntropyValue,
    InequalityReport,
    JointDistribution,
    MarkovChainSpec,
    cerf_adami_check,
    marginalize,
    mutual_entropy,
    shannon_entropy,
)
from entrobound.errors import InternalError
from entrobound.quantum import _correlations, _three_pairs


def brute_entropy_bits(flat) -> float:
    """Independent -sum p log2 p, plain Python loop."""
    total = 0.0
    for p in np.asarray(flat, dtype=float).ravel():
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def h2(q: float) -> float:
    """Binary entropy in bits."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def singlet_pair_probs(angle_1: float, angle_2: float) -> np.ndarray:
    """Closed-form singlet statistics: p(a,b) = (1 - a*b*cos(delta))/4."""
    delta = angle_1 - angle_2
    table = np.empty((2, 2))
    for i, a in enumerate((1.0, -1.0)):
        for j, b in enumerate((1.0, -1.0)):
            table[i, j] = (1.0 - a * b * math.cos(delta)) / 4.0
    return table


def singlet_mi(angle_1: float, angle_2: float) -> float:
    """Closed-form singlet mutual information: 1 - h((1 + cos(delta))/2)."""
    return 1.0 - h2((1.0 + math.cos(angle_1 - angle_2)) / 2.0)


def werner_mi(p: float, angle_1: float, angle_2: float) -> float:
    """Closed-form Werner mutual information: 1 - h((1 + p cos(delta))/2)."""
    return 1.0 - h2((1.0 + p * math.cos(angle_1 - angle_2)) / 2.0)


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)


def spin_projector(angle: float, sign: float) -> np.ndarray:
    """(I + sign * n(angle).sigma)/2 with n(angle) = (sin angle, 0, cos angle)."""
    direction = math.sin(angle) * _SIGMA_X + math.cos(angle) * _SIGMA_Z
    return (_I2 + sign * direction) / 2.0


def reference_measure_pair(rho, angle_1: float, angle_2: float) -> JointDistribution:
    """Scalar reference: p(i, j) = tr[rho (P_i(angle_1) x P_j(angle_2))], one np.kron per cell."""
    table = np.empty((2, 2))
    for i, sa in enumerate((1.0, -1.0)):
        pa = spin_projector(float(angle_1), sa)
        for j, sb in enumerate((1.0, -1.0)):
            pb = spin_projector(float(angle_2), sb)
            p = float(np.einsum("ij,ji->", rho.matrix, np.kron(pa, pb)).real)
            if p < -1e-9:
                raise InternalError(f"measurement probability {p} below -1e-9")
            table[i, j] = max(p, 0.0)
    return JointDistribution((2, 2), table)


def reference_pair_mi(rho, angle_1: float, angle_2: float) -> float:
    return mutual_entropy(reference_measure_pair(rho, angle_1, angle_2), 0, 1).value


def _ref_report(name, lhs, rhs, terms, meta=None):
    terms = {k: float(v) for k, v in terms.items()}
    return InequalityReport(name, float(lhs), float(rhs), terms, dict(meta or {}))


def reference_cerf_adami_quantum(rho, settings) -> InequalityReport:
    """``cerf_adami_quantum`` through ``cerf_adami_check``, with the quantum meta appended."""
    mi, p = _three_pairs(_correlations(rho), settings.angles)
    warnings = []
    pairs = (("H(A:B)", "A", "B"), ("H(A:C)", "A", "C"), ("H(B:C)", "B", "C"))
    for (label, n1, n2), dev_1, dev_2 in zip(pairs, np.abs(p[0] + p[1] - 0.5), np.abs(p[0] + p[2] - 0.5)):
        for setting_name, deviation in ((n1, dev_1), (n2, dev_2)):
            if deviation > 1e-6:
                warnings.append(
                    f"setting {setting_name} marginal in {label} deviates from uniform by {float(deviation):.3g}"
                )
    r = cerf_adami_check(*(EntropyValue(float(v), 2.0) for v in mi), bound=1.0, source="pairwise")
    meta = {**r.meta, "angles": [float(a) for a in settings.angles], "marginals_uniform": not warnings,
            "warnings": warnings}
    return InequalityReport(r.name, r.lhs, r.rhs, r.terms, meta)


def reference_cmi(d: JointDistribution, x: int, y: int, given: int) -> float:
    """I(X;Y|Z) from one marginal per term; the full table is not re-marginalized."""
    h = lambda keep: shannon_entropy(marginalize(d, keep)).value  # noqa: E731
    cmi = h({x, given}) + h({y, given}) - h({given}) - shannon_entropy(d).value
    return cmi if cmi > 0.0 else 0.0


def reference_cerf_adami(d: JointDistribution, pivot: int, bound: float = 1.0) -> InequalityReport:
    """``cerf_adami_classical`` through ``cerf_adami_check``, one pair MI per term."""
    y, z = [i for i in range(3) if i != pivot]
    x_l, y_l, z_l = "ABC"[pivot], "ABC"[y], "ABC"[z]
    values = tuple(mutual_entropy(d, i, j).value for i, j in ((pivot, y), (pivot, z), (y, z)))
    r = cerf_adami_check(*(EntropyValue(v) for v in values), bound=bound, source="tripartite")
    terms = dict(zip((f"H({x_l}:{y_l})", f"H({x_l}:{z_l})", f"H({y_l}:{z_l})"), values))
    return InequalityReport(r.name, r.lhs, r.rhs, terms, {**r.meta, "pivot": x_l})


def reference_battery(d: JointDistribution) -> list[InequalityReport]:
    """The ``inequality --markov-checks`` battery, one marginal or pair MI per term."""
    mi = lambda i, j: mutual_entropy(d, i, j).value  # noqa: E731
    h = lambda *keep: shannon_entropy(marginalize(d, set(keep))).value  # noqa: E731
    iab, ibc, iac, hb = mi(0, 1), mi(1, 2), mi(0, 2), h(1)
    reports = [reference_cerf_adami(d, pivot) for pivot in (0, 1, 2)]
    mi_terms = {"H(A:B)": iab, "H(B:C)": ibc, "H(A:C)": iac}
    reports += [
        _ref_report("joint_triangle", h(0, 2), h(0, 1) + h(1, 2),
                    {"H(A,B)": h(0, 1), "H(B,C)": h(1, 2), "H(A,C)": h(0, 2)}),
        _ref_report("two_hb_bound", iab + ibc - iac, 2.0 * hb, {**mi_terms, "H(B)": hb}),
        _ref_report("narrowed_bound", iab + ibc - iac, hb, {**mi_terms, "H(B)": hb}),
        _ref_report("triangle", iac, iab + ibc, mi_terms, {"requires_markov": True}),
    ]
    meta = {"markov_certified": reference_cmi(d, 0, 2, 1) <= 1e-9}
    chain = {**meta, "requires_markov": True}
    icb, ica, ha, hc = mi(2, 1), mi(2, 0), h(0), h(2)
    return reports + [
        _ref_report("dpi_forward_source", iab, ha, {"H(A:B)": iab, "H(A)": ha}, meta),
        _ref_report("dpi_forward_chain", iac, iab, {"H(A:C)": iac, "H(A:B)": iab}, chain),
        _ref_report("dpi_reverse_source", icb, hc, {"H(C:B)": icb, "H(C)": hc}, meta),
        _ref_report("dpi_reverse_chain", ica, icb, {"H(C:A)": ica, "H(C:B)": icb}, chain),
    ]


def reference_cube_argmax(mi: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max of |mi[i, j] - mi[i, k]| + mi[j, k] over the cube and its first cell within 1e-12.

    Each 8 MB chunk of rows of i is filled in full (subtract, abs, add) and
    max-reduced; the first chunk that reaches the threshold is filled again
    and its first cell at or above the threshold wins.
    """
    n = len(mi)
    buffer = np.empty((max(1, (1 << 20) // (n * n)), n, n))

    def fill(start: int) -> np.ndarray:
        rows = mi[start:start + len(buffer)]
        block = buffer[:len(rows)]
        np.subtract(rows[:, :, None], rows[:, None, :], out=block)
        np.abs(block, out=block)
        np.add(block, mi, out=block)
        return block

    starts = range(0, n, len(buffer))
    maxima = [float(fill(start).max()) for start in starts]
    best = max(maxima)
    threshold = best - 1e-12
    first = next(c for c, m in enumerate(maxima) if m >= threshold)
    index = starts[first] * n * n + int(np.argmax(fill(starts[first]) >= threshold))
    i, j, k = np.unravel_index(index, (n, n, n))
    return best, (int(i), int(j), int(k))


def reference_upper_bounds(mi: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """``search._upper_bounds`` with the triangle bound min_r S[j, r] + S[r, k] over every pivot row r of spread."""
    n = len(mi)
    f, offset = mi[0], (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    eps = float(np.abs(mi - f[offset]).max())
    shift = np.abs(f[offset] - f).max(axis=1)
    top = np.minimum(np.min(spread[:, :, None] + spread[:, None, :], axis=0), shift[offset] + 2.0 * eps)
    return top * (1.0 + 2.0 ** -50) + mi


def report_fields(r: InequalityReport) -> str:
    """Every field, key order included; repr tells -0.0 from 0.0."""
    return repr((r.name, r.lhs, r.rhs, list(r.terms.items()), r.satisfied, r.margin, list(r.meta.items())))


def random_mixed_state(rng: np.random.Generator) -> np.ndarray:
    """A full-rank two-qubit density matrix G G^dagger / tr from a complex Gaussian G."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_tripartite(rng: np.random.Generator, sizes=(2, 2, 2), sparse: bool = False) -> JointDistribution:
    n = int(np.prod(sizes))
    if sparse:
        support = rng.integers(1, n + 1)
        cells = rng.choice(n, size=support, replace=False)
        flat = np.zeros(n)
        flat[cells] = rng.dirichlet(np.ones(support))
    else:
        flat = rng.dirichlet(np.ones(n))
    return JointDistribution.from_flat(sizes, flat)


def random_markov_spec(rng: np.random.Generator, na: int, nb: int, nc: int) -> MarkovChainSpec:
    return MarkovChainSpec(
        initial=JointDistribution.from_flat((na,), rng.dirichlet(np.ones(na))),
        t1=rng.dirichlet(np.ones(nb), size=na),
        t2=rng.dirichlet(np.ones(nc), size=nb),
    )


def random_pure_two_qubit(rng: np.random.Generator) -> np.ndarray:
    """A random normalized two-qubit amplitude vector."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


# Fixed distributions used across modules -------------------------------------

def correlated_bits() -> JointDistribution:
    return JointDistribution.from_flat((2, 2), [0.5, 0.0, 0.0, 0.5])


def triangle_counterexample() -> JointDistribution:
    """A = C uniform bit, B constant: the non-Markov triangle breaker."""
    flat = np.zeros(8)
    flat[0] = 0.5  # (0, 0, 0)
    flat[5] = 0.5  # (1, 0, 1)
    return JointDistribution.from_flat((2, 2, 2), flat)


def xor_tripartite() -> JointDistribution:
    """B = A XOR C with A, C independent uniform bits."""
    flat = np.zeros(8)
    for idx in (0, 3, 5, 6):  # (a, b, c) with b == a xor c
        flat[idx] = 0.25
    return JointDistribution.from_flat((2, 2, 2), flat)


def noisy_copy_spec(flip: float = 0.1) -> MarkovChainSpec:
    t = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    return MarkovChainSpec(
        initial=JointDistribution.from_flat((2,), [0.5, 0.5]),
        t1=t,
        t2=t,
    )


_weight = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(1e-9, 1.0))


@st.composite
def tripartite_tables(draw):
    """Every axis of size 1-4, with exact zeros, ties and arbitrary weights."""
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(3))
    n = math.prod(sizes)
    w = np.array(draw(st.lists(_weight, min_size=n, max_size=n)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return JointDistribution.from_flat(sizes, w / w.sum())


# A nonnegative weight from exact zeros (either sign) to ~1e-300, at any decade.
wide_weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                         st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-300, 0)))


@st.composite
def binary_tables(draw):
    """(2, 2, 2) tables only: sparse, skewed and tiny entries, point masses and the uniform table."""
    kind = draw(st.sampled_from(["weights", "point mass", "uniform"]))
    if kind == "point mass":
        return JointDistribution.point_mass((2, 2, 2), draw(st.tuples(*[st.integers(0, 1)] * 3)))
    if kind == "uniform":
        return JointDistribution.uniform((2, 2, 2))
    w = np.array(draw(st.lists(wide_weights, min_size=8, max_size=8)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, 7))] = 1.0
    return JointDistribution.from_flat((2, 2, 2), w / w.sum())

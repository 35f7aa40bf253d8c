"""Dense two-qubit density-matrix engine.

Small by design: states live on a composite dimension dim_a * dim_b (4x4 in
every interesting case here), eigenvalues come from LAPACK's Hermitian
solver, and measurements are projective spin measurements along directions
in the x-z plane, n(theta) = (sin theta, 0, cos theta).  That measurement
convention is the minimal standard Bell-test setup and is the one the
violation search optimizes over.

For such measurements a two-qubit state enters only through eight numbers,
its x-z Bloch components and correlations (``_correlations``; Horodecki et
al., Phys. Lett. A 200, 340, 1995).  H(X:Y) = H(X) + H(Y) - H(X,Y) of a pair
is one closed form over them (``_pair_mi``), with H(X) and H(Y) computed
once per angle it is passed and H(X,Y), four logs, once per pair.  A setting
is one call (``_three_pairs``): three angles in, the 2x2 joints and MIs of
(A, B), (A, C) and (B, C) out; its report reads the marginals from the joints.

Quantum entropies default to bits so they compose with the classical side
and the Cerf-Adami bound of 1.

Matrix serialization::

    {"dims": [2, 2], "re": [[...], ...], "im": [[...], ...]}
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import MAX_CELLS, JointDistribution, _entries, _reals
from .entropy import CLAMP_ATOL, EntropyValue, _check_base, _clamp, _plogp_bits
from .errors import (
    DimensionMismatchError,
    InternalError,
    InvalidDensityMatrixError,
    InvalidSubsystemError,
    NotPositiveSemidefiniteError,
    NotPureError,
    ValidationError,
)
from .inequalities import InequalityReport, _cerf_adami
from .value import _as_complex, _as_payload, _as_real, _as_sequence, _as_size, _canonical_angle, _finite_angles

MATRIX_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9
PURITY_ATOL = 1e-9
MARGINAL_UNIFORM_ATOL = 1e-6

_PAULI = {"I": np.eye(2), "x": np.array([[0.0, 1.0], [1.0, 0.0]]), "z": np.array([[1.0, 0.0], [0.0, -1.0]])}
# sigma_k (x) sigma_l for the eight numbers _correlations returns, in its order
_CORRELATORS = np.array(
    [np.kron(_PAULI[k], _PAULI[l]) for k, l in ("xI", "zI", "Ix", "Iz", "xx", "xz", "zx", "zz")]
)
# float64 cells of one block of scratch (1 MiB): the pair kernel's 8 cells per pair, and search's cube blocks.
_BLOCK_CELLS = 1 << 17
# log2 of a probability clamped to this is finite, so 0 log2 0 adds 0 without a mask
_TINY = np.finfo(float).tiny
# dimensions of an array numpy 1 can hold, and numpy 2 can iterate over flat
_MAX_NESTING = 32


def _complex_array(values, what: str) -> np.ndarray:
    """A complex copy of ``values``, each entry by the ``_as_complex`` rule unless they are a float or complex ndarray.

    ``np.array(values, dtype=complex)`` alone would read True and "1" as 1, and raise a bare OverflowError or
    ValueError for 10**400 or "a".  Nested arrays of unequal shapes raise ValidationError too, and so do lists
    nested past ``_MAX_NESTING``, where numpy 2's flat iterator raises a bare RuntimeError.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fc":
        return np.array(values, dtype=complex)
    try:
        entries = np.array(values, dtype=object)
    except ValueError as exc:  # numpy cannot lay the nested arrays out as one
        raise ValidationError(f"{what} must form a rectangular array: {exc}") from exc
    if entries.ndim > _MAX_NESTING:
        raise ValidationError(f"{what} must form a rectangular array of at most {_MAX_NESTING} dimensions")
    return np.array([_as_complex(v, what) for v in entries.flat], dtype=complex).reshape(entries.shape)


def _positive_dims(dim_a, dim_b) -> tuple[int, int]:
    """The two subsystem dimensions by the ``_as_size`` rule; InvalidDensityMatrixError unless both are positive.

    Their product is capped at isqrt(dist.MAX_CELLS) = 2048, so a density matrix holds at most as many entries as
    a table; the check comes before anything is allocated.
    """
    da, db, cap = _as_size(dim_a), _as_size(dim_b), math.isqrt(MAX_CELLS)
    if not (da >= 1 and db >= 1 and da * db <= cap):  # no numbers: past 4300 digits an int has no str
        raise InvalidDensityMatrixError(f"dimensions must be positive with a product of at most {cap}")
    return da, db


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix over dim_a * dim_b.

    Validated on construction (finite entries, Hermitian entrywise within
    1e-9, trace within 1e-9 of 1, eigenvalues >= -1e-9) and stored as a read-only copy.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        da, db = _positive_dims(self.dim_a, self.dim_b)
        n = da * db
        m = _complex_array(self.matrix, "density matrix entries")  # the caller's array stays theirs and writeable
        if m.shape != (n, n):
            raise InvalidDensityMatrixError(f"matrix shape {m.shape} != ({n}, {n}) for dims ({da}, {db})")
        # NaN compares false, so the tolerance checks below would pass it
        if not np.all(np.isfinite(m)):
            raise InvalidDensityMatrixError("density matrix has non-finite entries")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > MATRIX_ATOL:
            raise InvalidDensityMatrixError(f"not Hermitian: max |M - M^dagger| = {herm_dev}")
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if trace_dev > MATRIX_ATOL:
            raise InvalidDensityMatrixError(f"trace deviates from 1 by {trace_dev}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -EIGENVALUE_ATOL:
            raise NotPositiveSemidefiniteError(f"eigenvalue {min_eig} below -{EIGENVALUE_ATOL}")
        m.setflags(write=False)
        object.__setattr__(self, "dim_a", da)
        object.__setattr__(self, "dim_b", db)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def purity(self) -> float:
        """tr(rho^2); 1 for pure states."""
        return float(np.vdot(self.matrix, self.matrix).real)

    @classmethod
    def from_dict(cls, payload: dict) -> "DensityMatrix":
        dims, re, im = _as_payload(payload, ("dims", "re", "im"), "density matrix", InvalidDensityMatrixError)
        dims = _as_sequence(dims, "dims", InvalidDensityMatrixError)
        if len(dims) != 2:
            raise InvalidDensityMatrixError(f"dims must be a pair of sizes, got {len(dims)} of them")
        da, db = dims
        for part in (re, im):  # the rule for numbers of distribution and spec files
            _reals(_entries(part), "density matrix entries")
        re, im = _complex_array(re, "density matrix entries"), _complex_array(im, "density matrix entries")
        if re.shape != im.shape:
            raise InvalidDensityMatrixError(f"re shape {re.shape} != im shape {im.shape}")
        re.imag = im.real  # not re + 1j * im: 1j * inf is nan + inf j, and warns
        return cls(da, db, re)

    def to_dict(self) -> dict:
        return {
            "dims": [self.dim_a, self.dim_b],
            "re": [[float(x) for x in row] for row in self.matrix.real],
            "im": [[float(x) for x in row] for row in self.matrix.imag],
        }

    def __repr__(self) -> str:
        return f"DensityMatrix(dims=({self.dim_a}, {self.dim_b}))"


@dataclass(frozen=True)
class MeasurementSettings:
    """Three measurement angles in the x-z plane, each canonicalized to [0, pi) by ``_canonical_angle``."""

    angles: tuple[float, float, float]

    def __post_init__(self) -> None:
        raw = _finite_angles(self.angles)
        if len(raw) != 3:
            raise ValidationError(f"need exactly 3 angles, got {len(raw)}")
        object.__setattr__(self, "angles", tuple(map(_canonical_angle, raw)))

    def to_dict(self) -> dict:
        return {"angles": [float(a) for a in self.angles]}


# --- state constructors -------------------------------------------------------

# The least norm whose square is a normal float: below it the squares lose bits as subnormals, or vanish.
_NORMAL_NORM = 2.0 ** -511


def pure_state(amplitudes, dims: tuple[int, int] = (2, 2)) -> DensityMatrix:
    """Density matrix |psi><psi| from an amplitude vector (normalized here)."""
    try:
        dim_a, dim_b = dims
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValidationError(f"dims must be a pair of sizes, got {dims!r}") from None
    v = _complex_array(amplitudes, "amplitudes").ravel()
    if not np.isfinite(v).all():
        raise ValidationError("amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not _NORMAL_NORM <= norm < math.inf:  # the squares overflow or underflow: scale by the largest part first
        top = max(np.abs(v.real).max(initial=0.0), np.abs(v.imag).max(initial=0.0))
        if top == 0.0:
            raise ValidationError("amplitude vector must be nonzero")
        v = (v.view(float) / top).view(complex)  # part by part: a complex division by a subnormal overflows
        norm = float(np.linalg.norm(v))
    v = v / norm
    return DensityMatrix(dim_a, dim_b, np.outer(v, v.conj()))


def singlet() -> DensityMatrix:
    """(|01> - |10>)/sqrt(2): the canonical violating state."""
    return pure_state([0.0, 1.0, -1.0, 0.0])


def bell_state(name: str) -> DensityMatrix:
    """One of the four Bell states: phi+, phi-, psi+, psi-."""
    vectors = {
        "phi+": [1.0, 0.0, 0.0, 1.0],
        "phi-": [1.0, 0.0, 0.0, -1.0],
        "psi+": [0.0, 1.0, 1.0, 0.0],
        "psi-": [0.0, 1.0, -1.0, 0.0],
    }
    if not isinstance(name, str) or name not in vectors:  # a list is not hashable
        raise ValidationError(f"unknown Bell state {name!r}; expected one of {sorted(vectors)}")
    return pure_state(vectors[name])


def werner_state(p: float) -> DensityMatrix:
    """p * singlet + (1 - p) * I/4: a tunable classical-to-quantum dial."""
    p = _as_real(p, "Werner parameters")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"Werner parameter must be in [0, 1], got {p}")
    m = p * singlet().matrix + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(2, 2, m)


def product_state(rho_a, rho_b) -> DensityMatrix:
    """Tensor product of two single-subsystem density matrices."""
    a = _complex_array(rho_a, "density matrix entries")
    b = _complex_array(rho_b, "density matrix entries")
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDensityMatrixError(f"each factor must be a square matrix, got shape {m.shape}")
    return DensityMatrix(a.shape[0], b.shape[0], np.kron(a, b))


def maximally_mixed(dim_a: int = 2, dim_b: int = 2) -> DensityMatrix:
    da, db = _positive_dims(dim_a, dim_b)
    n = da * db
    return DensityMatrix(da, db, np.eye(n) / n)


# --- operations -----------------------------------------------------------------

def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state over one subsystem (0 = first factor, 1 = second)."""
    index = _as_size(keep, "subsystems")
    if index not in (0, 1):
        raise InvalidSubsystemError(f"keep must be 0 or 1, got {keep!r}")
    da, db = rho.dim_a, rho.dim_b
    blocks = rho.matrix.reshape(da, db, da, db)
    if index == 0:
        reduced = np.einsum("ibjb->ij", blocks)
    else:
        reduced = np.einsum("aiaj->ij", blocks)
    return DensityMatrix(reduced.shape[0], 1, reduced)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> EntropyValue:
    """-tr(rho log rho): the Shannon entropy of the spectrum."""
    base = _check_base(base)
    eigs = np.linalg.eigvalsh(rho.matrix)
    low = float(eigs.min())
    if low < -EIGENVALUE_ATOL:
        raise NotPositiveSemidefiniteError(f"eigenvalue {low} below -{EIGENVALUE_ATOL}")
    if low < 0.0:  # clamp [-1e-9, 0) to 0 and renormalise, as _pair_mi does outcome tables
        eigs = np.maximum(eigs, 0.0)
        eigs /= eigs.sum()
    bits = _plogp_bits(eigs.tolist())
    return EntropyValue(_clamp(bits / math.log2(base), "von Neumann entropy"), base)


def conditional_quantum_entropy(rho: DensityMatrix, target: int, given: int) -> EntropyValue:
    """S(target | given) = S(joint) - S(given); may be negative.

    Negative values are the quantum signature: for pure composite states
    they witness entanglement.
    """
    pair = _as_size(target, "subsystems"), _as_size(given, "subsystems")
    if not {0, 1}.issuperset(pair):
        raise InvalidSubsystemError(f"subsystems must be 0 or 1, got ({target!r}, {given!r})")
    if pair[0] == pair[1]:
        raise InvalidSubsystemError("target and given must differ")
    s_joint = von_neumann_entropy(rho).value
    s_given = von_neumann_entropy(partial_trace(rho, keep=given)).value
    return EntropyValue(s_joint - s_given, 2.0)


def is_entangled_pure(rho: DensityMatrix) -> bool:
    """Entanglement witness for pure states: S(B|A) < 0.

    The criterion is an iff for pure states only, so mixed inputs
    (tr(rho^2) < 1 - 1e-9) are refused rather than silently misjudged.
    """
    purity = rho.purity()
    if purity < 1.0 - PURITY_ATOL:
        raise NotPureError(f"tr(rho^2) = {purity}; the criterion only applies to pure states")
    return conditional_quantum_entropy(rho, target=1, given=0).value < -EIGENVALUE_ATOL


def _correlations(rho: DensityMatrix) -> np.ndarray:
    """(a_x, a_z, b_x, b_z, T_xx, T_xz, T_zx, T_zz): all an x-z measurement sees of a two-qubit state.

    a and b are the x and z Bloch components of the first and second qubit,
    T the x-z block of the correlation tensor (Horodecki et al., Phys. Lett. A
    200, 340, 1995), each tr[rho sigma_k (x) sigma_l].
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError(f"need a two-qubit state, got dims ({rho.dim_a}, {rho.dim_b})")
    return np.einsum("ab,kba->k", rho.matrix, _CORRELATORS).real


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over axis 0 of probabilities p >= 0, zero terms adding 0."""
    return -(p * np.log2(np.maximum(p, _TINY))).sum(axis=0)


def _outcomes(v: np.ndarray) -> np.ndarray:
    """(1/2 + 2v, 1/2 - 2v) clamped at 0, stacked on a new first axis: one setting's outcomes for v = a/4 or b/4."""
    m = np.multiply.outer((2.0, -2.0), v)
    m += 0.5  # fl(0.5 - 2v) = fl(-2v + 0.5)
    return np.maximum(m, 0.0, out=m)


def _pair_mi(c: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """H(X:Y) = H(X) + H(Y) - H(X,Y) in bits into ``out``, clamped like entropy._clamp, for angles x and y.

    ``c`` is ``_correlations(rho)``; x is measured on qubit 1 and y on qubit 2, and the two arrays broadcast to
    ``out.shape``.  The outcomes of x are (1/2 + a/2, 1/2 - a/2), a(x) = a_x sin x + a_z cos x, and those of y
    likewise with b(y); quartering c first is exact.  H(X) and H(Y) are computed once per angle passed, H(X,Y)
    once per pair.  Returns the joint p(s, t) = ((1 + s a) + t b + s t E)/4, E = n(x)^T T n(y), shaped
    (4, *out.shape) for (s, t) = (+, +), (+, -), (-, +), (-, -); below -1e-9 it raises InternalError.  A pair
    with a negative entry is clamped at 0 and renormalised, and takes H(X) and H(Y) from that joint.  The
    joint's four p log2 p terms are summed left to right in one reduction; p is clamped to _TINY before its log
    only when some entry lies below it, as only exact zeros and denormals do, and the MIs are clamped at 0 only
    when one is not positive.  The scratch is 8 cells per pair: callers bound it by the number of pairs they pass.
    """
    ax, az, bx, bz, txx, txz, tzx, tzz = (c / 4.0).tolist()
    sx, cx, sy, cy = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
    a4, b4 = ax * sx + az * cx, bx * sy + bz * cy
    hx, hy = _entropy_bits(_outcomes(a4)), _entropy_bits(_outcomes(b4))
    tx, tz = txx * sy + txz * cy, tzx * sy + tzz * cy  # (T n(y))_x / 4, (T n(y))_z / 4
    p, logs = np.empty((2, 4, *out.shape))
    e = np.multiply(sx, tx, out=logs[0])
    e += np.multiply(cx, tz, out=logs[1])  # E/4
    up, um = 0.25 + a4, 0.25 - a4  # per angle
    np.add(up, b4, out=p[0])
    np.subtract(up, b4, out=p[1])
    np.add(um, b4, out=p[2])
    np.subtract(um, b4, out=p[3])
    p[::3] += e
    p[1:3] -= e
    low = float(np.minimum.reduce(p, axis=None, initial=np.inf))
    if low < -EIGENVALUE_ATOL:
        raise InternalError(f"measurement probability {low} below -{EIGENVALUE_ATOL}")
    if low < 0.0:
        bad = (p < 0.0).any(axis=0)
        q = np.maximum(p[:, bad], 0.0)
        p[:, bad] = q = q / q.sum(axis=0)
        hx, hy = (np.broadcast_to(h, bad.shape).copy() for h in (hx, hy))
        hx[bad], hy[bad] = _entropy_bits(q[::2] + q[1::2]), _entropy_bits(q[:2] + q[2:])
    np.log2(np.maximum(p, _TINY, out=logs) if low < _TINY else p, out=logs)
    logs *= p  # p log2 p, 0 where p = 0
    np.add.reduce(logs, axis=0, out=out)
    out += np.add(hx, hy, out=logs[0])
    low = float(np.minimum.reduce(out, axis=None, initial=np.inf))
    if not low >= -CLAMP_ATOL:
        raise InternalError(f"mutual entropy = {low}, negative beyond tolerance {CLAMP_ATOL}")
    if low <= 0.0:
        out[out <= 0.0] = 0.0  # -0.0 included
    return p


def _table(rho: DensityMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ``_pair_mi`` table of the finite angle arrays x by y, in row blocks of at most _BLOCK_CELLS of scratch."""
    c = _correlations(rho)
    table = np.empty((len(x), len(y)))
    rows = max(1, _BLOCK_CELLS // (8 * max(1, len(y))))
    for start in range(0, len(x), rows):
        _pair_mi(c, x[start:start + rows, None], y, table[start:start + rows])
    return table


def pair_mi_table(rho: DensityMatrix, angles_x, angles_y) -> np.ndarray:
    """Mutual information in bits of every ordered pair of spin measurements.

    ``table[x, y]`` is H(X:Y) of measuring angles_x[x] on the first qubit and
    angles_y[y] on the second, computed in closed form from the state's eight
    x-z correlations.  Rows are evaluated in blocks of at most 1 MiB of
    kernel scratch (``_table``, which the grid search calls too), so working
    memory stays bounded for any table size.  A non-finite angle raises
    ValidationError; the angles are checked once when ``angles_y`` is
    ``angles_x``.
    """
    x = np.array(_finite_angles(angles_x))
    return _table(rho, x, x if angles_y is angles_x else np.array(_finite_angles(angles_y)))


def measure_pair(rho: DensityMatrix, angle_1: float, angle_2: float) -> JointDistribution:
    """Outcome statistics of a pair of projective spin measurements.

    Returns the 2x2 joint distribution with index 0 mapping to outcome +1
    and index 1 to outcome -1 on each side:
    p(i, j) = tr[rho (P_i(angle_1) x P_j(angle_2))].
    """
    p = _pair_mi(_correlations(rho), *np.array(_finite_angles((angle_1, angle_2)))[:, None], np.empty(1))
    return JointDistribution((2, 2), p.reshape(2, 2))


def _three_pairs(c: np.ndarray, angles) -> tuple[np.ndarray, np.ndarray]:
    """H(A:B), H(A:C), H(B:C) in bits at ``angles``, and the (4, 3) ``_pair_mi`` joints of those experiments."""
    theta_a, theta_b, theta_c = angles
    mi = np.empty(3)
    joints = _pair_mi(c, np.array([theta_a, theta_a, theta_b]), np.array([theta_b, theta_c, theta_c]), mi)
    return mi, joints  # mi finite and >= 0


def cerf_adami_quantum(rho: DensityMatrix, settings: MeasurementSettings) -> InequalityReport:
    """Cerf-Adami check on three pairwise measurement experiments.

    H(A:B), H(A:C), H(B:C) come from three separate (mutually incompatible)
    pairs of settings on the same state; no joint tripartite distribution
    exists, which is exactly where quantum statistics can exceed the bound
    of 1.  The bound assumes uniform single-setting marginals; the report
    flags that precondition and records a warning when a marginal deviates
    from uniform by more than 1e-6.
    """
    mi, p = _three_pairs(_correlations(rho), settings.angles)
    pairs = (("H(A:B)", "A", "B"), ("H(A:C)", "A", "C"), ("H(B:C)", "B", "C"))
    # each setting's marginal is read from its experiment's joint: p(+) = p(+,+) + p(+,-) or p(+,+) + p(-,+)
    warnings = [f"setting {name} marginal in {label} deviates from uniform by {float(deviation):.3g}"
                for (label, n1, n2), dev_1, dev_2 in zip(pairs, abs(p[0] + p[1] - 0.5), abs(p[0] + p[2] - 0.5))
                for name, deviation in ((n1, dev_1), (n2, dev_2)) if deviation > MARGINAL_UNIFORM_ATOL]
    return _cerf_adami({label: v for (label, _, _), v in zip(pairs, mi.tolist())}, 1.0, "pairwise",
                       angles=[float(a) for a in settings.angles], marginals_uniform=not warnings, warnings=warnings)

"""Dense two-qubit density-matrix engine.

Small by design: states live on a composite dimension dim_a * dim_b (4x4 in
every interesting case here), eigenvalues come from LAPACK's Hermitian
solver, and measurements are projective spin measurements along directions
in the x-z plane, n(theta) = (sin theta, 0, cos theta).  That measurement
convention is the minimal standard Bell-test setup and is the one the
violation search optimizes over.

Quantum entropies default to bits so they compose with the classical side
and the Cerf-Adami bound of 1.

Matrix serialization::

    {"dims": [2, 2], "re": [[...], ...], "im": [[...], ...]}
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dist import NORMALIZATION_ATOL, JointDistribution
from .entropy import CLAMP_ATOL, EntropyValue, _check_base, _clamp
from .errors import (
    DimensionMismatchError,
    InternalError,
    InvalidDensityMatrixError,
    InvalidSubsystemError,
    NotNormalizedError,
    NotPositiveSemidefiniteError,
    NotPureError,
    ValidationError,
)
from .inequalities import InequalityReport, cerf_adami_check

MATRIX_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9
PURITY_ATOL = 1e-9
MARGINAL_UNIFORM_ATOL = 1e-6

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)
_OUTCOME_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)  # outcome index 0 is +1
# Pairs per kernel chunk: bounds the stacked Kronecker products to a few MB.
_CHUNK_PAIRS = 4096


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix over dim_a * dim_b.

    Validated on construction (finite entries, Hermitian entrywise within
    1e-9, trace within 1e-9 of 1, eigenvalues >= -1e-9) and stored read-only.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        da, db = int(self.dim_a), int(self.dim_b)
        if da < 1 or db < 1:
            raise InvalidDensityMatrixError(f"dimensions must be positive, got ({da}, {db})")
        n = da * db
        m = np.asarray(self.matrix, dtype=complex)
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
        da, db = (int(x) for x in payload["dims"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        if re.shape != im.shape:
            raise InvalidDensityMatrixError(f"re shape {re.shape} != im shape {im.shape}")
        return cls(da, db, re + 1j * im)

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
    """Three measurement angles in the x-z plane, canonicalized to [0, pi).

    Projector pairs are pi-periodic up to relabeling the two outcomes, so
    angles are reduced modulo pi.
    """

    angles: tuple[float, float, float]

    def __post_init__(self) -> None:
        raw = tuple(float(a) for a in self.angles)
        if len(raw) != 3:
            raise ValidationError(f"need exactly 3 angles, got {len(raw)}")
        if not all(math.isfinite(a) for a in raw):
            raise ValidationError(f"angles must be finite, got {raw}")
        object.__setattr__(self, "angles", tuple(a % math.pi for a in raw))

    def to_dict(self) -> dict:
        return {"angles": [float(a) for a in self.angles]}


# --- state constructors -------------------------------------------------------

def pure_state(amplitudes, dims: tuple[int, int] = (2, 2)) -> DensityMatrix:
    """Density matrix |psi><psi| from an amplitude vector (normalized here)."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValidationError("amplitude vector must be nonzero")
    v = v / norm
    return DensityMatrix(dims[0], dims[1], np.outer(v, v.conj()))


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
    if name not in vectors:
        raise ValidationError(f"unknown Bell state {name!r}; expected one of {sorted(vectors)}")
    return pure_state(vectors[name])


def werner_state(p: float) -> DensityMatrix:
    """p * singlet + (1 - p) * I/4: a tunable classical-to-quantum dial."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"Werner parameter must be in [0, 1], got {p}")
    m = p * singlet().matrix + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(2, 2, m)


def product_state(rho_a, rho_b) -> DensityMatrix:
    """Tensor product of two single-subsystem density matrices."""
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    return DensityMatrix(a.shape[0], b.shape[0], np.kron(a, b))


def maximally_mixed(dim_a: int = 2, dim_b: int = 2) -> DensityMatrix:
    n = int(dim_a) * int(dim_b)
    return DensityMatrix(dim_a, dim_b, np.eye(n) / n)


# --- operations -----------------------------------------------------------------

def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state over one subsystem (0 = first factor, 1 = second)."""
    if keep not in (0, 1):
        raise InvalidSubsystemError(f"keep must be 0 or 1, got {keep!r}")
    da, db = rho.dim_a, rho.dim_b
    blocks = rho.matrix.reshape(da, db, da, db)
    if keep == 0:
        reduced = np.einsum("ibjb->ij", blocks)
    else:
        reduced = np.einsum("aiaj->ij", blocks)
    return DensityMatrix(reduced.shape[0], 1, reduced)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> EntropyValue:
    """-tr(rho log rho): the Shannon entropy of the spectrum."""
    base = _check_base(base)
    eigs = np.linalg.eigvalsh(rho.matrix)
    if float(eigs.min()) < -EIGENVALUE_ATOL:
        raise NotPositiveSemidefiniteError(f"eigenvalue {float(eigs.min())} below -{EIGENVALUE_ATOL}")
    lam = eigs[eigs > 0.0]  # clamp [-1e-9, 0) to 0 by skipping
    bits = float(-(lam * np.log2(lam)).sum())
    return EntropyValue(_clamp(bits / math.log2(base), "von Neumann entropy"), base)


def conditional_quantum_entropy(rho: DensityMatrix, target: int, given: int) -> EntropyValue:
    """S(target | given) = S(joint) - S(given); may be negative.

    Negative values are the quantum signature: for pure composite states
    they witness entanglement.
    """
    if target not in (0, 1) or given not in (0, 1):
        raise InvalidSubsystemError(f"subsystems must be 0 or 1, got ({target!r}, {given!r})")
    if target == given:
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


def _projectors(angles: list[float]) -> np.ndarray:
    """Spin projectors (I +/- n(theta).sigma)/2, shape (len(angles), 2 outcomes, 2, 2).

    math.sin/math.cos and elementwise products keep every entry bit-identical
    to building each projector on its own.
    """
    sin = np.array([math.sin(a) for a in angles]).reshape(-1, 1, 1)
    cos = np.array([math.cos(a) for a in angles]).reshape(-1, 1, 1)
    direction = sin * _SIGMA_X + cos * _SIGMA_Z
    return (_I2 + _OUTCOME_SIGNS * direction[:, None]) / 2.0


def _pair_tables(rho: DensityMatrix, angles_x: list[float], angles_y: list[float]) -> np.ndarray:
    """Outcome tables p[x, y, i, j] = tr[rho (P_i(x) kron P_j(y))], clamped at 0.

    Shape (len(angles_x), len(angles_y), 2, 2).  The Kronecker products are
    laid out as np.kron would build them and contracted in one einsum, so
    every probability matches a per-pair evaluation bit for bit.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError(f"need a two-qubit state, got dims ({rho.dim_a}, {rho.dim_b})")
    px, py = _projectors(angles_x), _projectors(angles_y)
    kron = px[:, None, :, None, :, None, :, None] * py[None, :, None, :, None, :, None, :]
    kron = kron.reshape(len(angles_x), len(angles_y), 2, 2, 4, 4)
    p = np.einsum("ab,...ba->...", rho.matrix, kron).real
    low = p < -EIGENVALUE_ATOL
    if low.any():
        raise InternalError(f"measurement probability {p[low][0]} below -{EIGENVALUE_ATOL}")
    return np.maximum(p, 0.0)


def _normalized(tables: np.ndarray) -> np.ndarray:
    """The validation and renormalisation JointDistribution applies, over a stack of 2x2 tables."""
    if not np.all(np.isfinite(tables)):
        raise ValidationError("probabilities must be finite")
    total = ((tables[..., 0, 0] + tables[..., 0, 1]) + tables[..., 1, 0]) + tables[..., 1, 1]
    off = np.abs(total - 1.0) > NORMALIZATION_ATOL
    if off.any():
        raise NotNormalizedError(
            f"probabilities sum to {total[off][0]}, expected 1 within {NORMALIZATION_ATOL}"
        )
    return tables / total[..., None, None]


def _neg_plogp_bits(*probs: np.ndarray) -> np.ndarray:
    """-sum p log2 p over same-shape arrays, summed left to right, zero terms adding 0."""
    total = 0.0
    for p in probs:
        positive = p > 0.0
        total = total + np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return -total


def _mutual_information(tables: np.ndarray) -> np.ndarray:
    """H(X:Y) in bits of each 2x2 table, as mutual_entropy(JointDistribution(t), 0, 1).

    Tables are renormalised twice, as the JointDistribution constructor and
    then marginalize do, and the result is clamped like entropy._clamp.
    """
    t = _normalized(_normalized(tables))
    p00, p01, p10, p11 = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
    hx = _neg_plogp_bits(p00 + p01, p10 + p11)
    hy = _neg_plogp_bits(p00 + p10, p01 + p11)
    mi = (hx + hy) - _neg_plogp_bits(p00, p01, p10, p11)
    bad = ~(mi >= -CLAMP_ATOL)
    if bad.any():
        raise InternalError(f"mutual entropy = {mi[bad][0]}, negative beyond tolerance {CLAMP_ATOL}")
    return np.where(mi > 0.0, mi, 0.0)


def pair_mi_table(rho: DensityMatrix, angles_x, angles_y) -> np.ndarray:
    """Mutual information in bits of every ordered pair of spin measurements.

    ``table[x, y]`` is H(X:Y) of measuring angles_x[x] on the first qubit and
    angles_y[y] on the second, bit-identical to
    ``mutual_entropy(measure_pair(rho, angles_x[x], angles_y[y]), 0, 1).value``.
    Rows are evaluated in chunks, so working memory stays bounded for any
    table size.
    """
    ax = [float(a) for a in angles_x]
    ay = [float(a) for a in angles_y]
    table = np.empty((len(ax), len(ay)))
    rows = max(1, _CHUNK_PAIRS // max(1, len(ay)))
    for start in range(0, len(ax), rows):
        chunk = _pair_tables(rho, ax[start:start + rows], ay)
        table[start:start + len(chunk)] = _mutual_information(chunk)
    return table


def measure_pair(rho: DensityMatrix, angle_1: float, angle_2: float) -> JointDistribution:
    """Outcome statistics of a pair of projective spin measurements.

    Returns the 2x2 joint distribution with index 0 mapping to outcome +1
    and index 1 to outcome -1 on each side:
    p(i, j) = tr[rho (P_i(angle_1) x P_j(angle_2))].
    """
    return JointDistribution((2, 2), _pair_tables(rho, [float(angle_1)], [float(angle_2)])[0, 0])


def cerf_adami_quantum(rho: DensityMatrix, settings: MeasurementSettings) -> InequalityReport:
    """Cerf-Adami check on three pairwise measurement experiments.

    H(A:B), H(A:C), H(B:C) come from three separate (mutually incompatible)
    pairs of settings on the same state; no joint tripartite distribution
    exists, which is exactly where quantum statistics can exceed the bound
    of 1.  The bound assumes uniform single-setting marginals; the report
    flags that precondition and records a warning when a marginal deviates
    from uniform by more than 1e-6.
    """
    theta_a, theta_b, theta_c = settings.angles
    # One 2x2 evaluation on [A, B] x [B, C]; cell (B, B) is not used.
    tables = _pair_tables(rho, [theta_a, theta_b], [theta_b, theta_c])
    mi = _mutual_information(tables)
    probs = _normalized(tables)  # as measure_pair's JointDistribution holds them
    pairs = {
        "H(A:B)": ("A", "B", 0, 0),
        "H(A:C)": ("A", "C", 0, 1),
        "H(B:C)": ("B", "C", 1, 1),
    }
    warnings: list[str] = []
    for label, (n1, n2, x, y) in pairs.items():
        for setting_name, axis in ((n1, 1), (n2, 0)):
            marginal = probs[x, y].sum(axis=axis)
            deviation = float(np.max(np.abs(marginal - 0.5)))
            if deviation > MARGINAL_UNIFORM_ATOL:
                warnings.append(
                    f"setting {setting_name} marginal in {label} deviates from uniform by {deviation:.3g}"
                )
    report = cerf_adami_check(
        *(EntropyValue(float(mi[x, y]), 2.0) for _, _, x, y in pairs.values()), bound=1.0, source="pairwise"
    )
    meta = dict(report.meta)
    meta["angles"] = [float(a) for a in settings.angles]
    meta["marginals_uniform"] = not warnings
    meta["warnings"] = warnings
    return replace(report, meta=meta)

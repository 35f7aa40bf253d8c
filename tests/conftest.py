"""Shared generators and independent oracles for the test suite.

The oracle functions here deliberately avoid the package's computation
paths: entropies are summed with math.log2 in a plain loop, singlet
statistics come from the closed form, and reduced-state spectra are taken
straight from numpy on test-side matrices.  ``reference_measure_pair`` is
the per-pair projector and np.kron evaluation the batched kernel replaced;
the kernel must reproduce it bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from entrobound import JointDistribution, MarkovChainSpec, mutual_entropy
from entrobound.errors import InternalError


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

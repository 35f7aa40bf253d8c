"""An exact, entropy-free oracle: do three binary pair tables have a joint?

The pair tables (A, B), (A, C) and (B, C) of a joint p(a, b, c) on three
bits fix it up to one parameter, t = p(0, 0, 0): each of the 8 cells is a
constant plus or minus t, so the joints form an interval of t, empty
exactly when no joint reproduces the tables (the marginal problem:
Vorob'ev, Theory Probab. Appl. 7, 147, 1962; Fine, PRL 48, 291, 1982).
The tables must first agree on their shared one-setting marginals.  In the
quantum experiments A and C are each measured on one qubit in both of their
tables, but B is measured on the second qubit in (A, B) and on the first in
(B, C), so the two B marginals can disagree; that gap is reported apart.

The certificate reads only ``.flat`` and shares no code with any entropy,
so it checks the paper's point independently: a Cerf-Adami violation needs
pair statistics that no tripartite distribution produces.
"""
from __future__ import annotations

import math

import numpy as np

from entrobound import DensityMatrix, MeasurementSettings, cerf_adami_quantum, marginalize
from entrobound.quantum import bell_state, singlet, werner_state
from entrobound.search import grid_refine

from conftest import random_mixed_state, random_tripartite, reference_measure_pair

TOL = 1e-12


def no_joint_certificate(ab, ac, bc) -> tuple[float, float, float]:
    """(gap between the two B marginals, lo, hi) of the 2x2 tables (A, B), (A, C), (B, C).

    ``.flat[2 i + j]`` is p(i, j).  A joint with these tables exists only if
    the gap is 0 and lo <= hi, where [lo, hi] bounds t = p(0, 0, 0).
    """
    (ab00, ab01, ab10, ab11), (ac00, _, ac10, _), (bc00, bc01, _, _) = ab.flat, ac.flat, bc.flat
    gap = abs((ab00 + ab10) - (bc00 + bc01))
    # p(a, b, c) = k + s t for (k, s), cell by cell, with the A and C marginals taken as shared
    cells = ((0.0, 1.0), (ab00, -1.0), (ac00, -1.0), (ab01 - ac00, 1.0),
             (bc00, -1.0), (ab10 - bc00, 1.0), (ac10 - bc00, 1.0), (ab11 - ac10 + bc00, -1.0))
    lo = max(-k for k, s in cells if s > 0.0)
    hi = min(k for k, s in cells if s < 0.0)
    return gap, lo, hi


def _no_joint(gap: float, lo: float, hi: float) -> float:
    """How far the tables are from having a joint; > TOL certifies that none exists."""
    return max(gap, lo - hi)


def test_tables_of_a_joint_have_a_joint_containing_it():
    rng = np.random.default_rng(2008)
    for sparse in (False, True):
        for _ in range(200):
            d = random_tripartite(rng, sparse=sparse)
            gap, lo, hi = no_joint_certificate(*(marginalize(d, keep) for keep in ({0, 1}, {0, 2}, {1, 2})))
            assert gap <= TOL
            assert lo - TOL <= d.flat[0] <= hi + TOL


def test_every_sampled_violation_has_no_joint():
    rng = np.random.default_rng(1982)
    states = [singlet(), bell_state("phi+"), werner_state(0.9)]
    states += [DensityMatrix(2, 2, random_mixed_state(rng)) for _ in range(7)]
    certified, smallest = 0, math.inf
    for rho in states:
        for angles in rng.uniform(0.0, math.pi, size=(600, 3)).tolist():
            if cerf_adami_quantum(rho, MeasurementSettings(angles)).lhs <= 1.0 + 1e-9:
                continue
            a, b, c = angles
            tables = (reference_measure_pair(rho, a, b), reference_measure_pair(rho, a, c),
                      reference_measure_pair(rho, b, c))
            distance = _no_joint(*no_joint_certificate(*tables))
            assert distance > TOL, (angles, distance)
            certified, smallest = certified + 1, min(smallest, distance)
    assert certified >= 200  # the singlet and phi+ violate on over a third of the settings
    assert smallest > 1e-6  # far from the rounding noise of the tables


def test_the_entropic_witness_misses_werner_half():
    # the refined winner has no joint, yet its LHS stays far below the bound of 1
    rho = werner_state(0.5)
    result = grid_refine(rho, 32)
    assert abs(result.best_lhs - 0.234) < 5e-4 and not result.violation_found
    a, b, c = result.best_settings.angles
    gap, lo, hi = no_joint_certificate(reference_measure_pair(rho, a, b), reference_measure_pair(rho, a, c),
                                       reference_measure_pair(rho, b, c))
    assert gap <= TOL and lo - hi > TOL

"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Each workload is a closed loop driven by one client in one process.  It has
three phases:

* ``setup`` builds the inputs from the seed and validates them through the
  package (this is what ``setup_s`` times, in fresh processes);
* ``prepare`` computes the expected values with the independent oracle
  (untimed);
* ``run_op(i)`` is one timed op and ``check(i, result)`` returns a failure
  description, or ``None`` when the output is correct.

The package is always reached through its module attributes at call time
(``self.eb.search.grid_search``), so the traced pass sees every call.
"""
from __future__ import annotations

import math
import resource

import numpy as np

import oracle

GRID_RESOLUTION = 96
AUDIT_SIZE = 2000
NONBINARY_SIZES = ((3, 2, 4), (4, 4, 4), (2, 3, 2), (3, 3, 3))


def random_mixed_state(rng: np.random.Generator) -> np.ndarray:
    """A full-rank two-qubit state G G^dagger / tr from a complex Gaussian G."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


_SWAP = np.eye(4)[[0, 2, 1, 3]]


def swap_symmetric(rho: np.ndarray) -> np.ndarray:
    """(rho + SWAP rho SWAP) / 2: the same state averaged over exchanging the qubits."""
    return (rho + _SWAP @ rho @ _SWAP) / 2.0


def sparse_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """A probability vector with a random support of 1..n cells; exact zeros elsewhere."""
    support = int(rng.integers(1, n + 1))
    flat = np.zeros(n)
    flat[rng.choice(n, size=support, replace=False)] = rng.dirichlet(np.ones(support))
    return flat


def stochastic_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Row-stochastic matrix; about a third of the rows have exact zeros."""
    return np.array([
        sparse_dirichlet(rng, cols) if rng.random() < 1 / 3 else rng.dirichlet(np.ones(cols))
        for _ in range(rows)
    ])


class Workload:
    name = ""
    whole_passes = False  # stop only at the end of a pass over all ops
    pass_is_op = False  # time a whole pass as one op

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def setup(self, eb, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def op_count(self) -> int:
        """Ops in one pass; the traced pass runs exactly one pass."""
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that ran the timed ops: here, this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_probes(self) -> list[dict]:
        """Known defects, each run once outside the timed loop; see the README."""
        return []


class Grid(Workload):
    """grid_search without refinement on the singlet and one seeded mixed state.

    The mixed state is made symmetric under exchanging the qubits, because
    grid_search fills its pair-MI table as if MI(i, j) == MI(j, i).  For a
    general state that is wrong; ``run_probes`` shows it on the unsymmetrized
    state and the report carries the outcome.
    """

    name = "grid"
    PROBE_RESOLUTION = 16

    def setup(self, eb, seed):
        self.eb = eb
        self.resolution = 32 if self.smoke else GRID_RESOLUTION
        rng = np.random.default_rng(seed)
        self.raw_state = random_mixed_state(rng)
        self.states = [
            ("singlet", eb.quantum.singlet()),
            ("random", eb.quantum.DensityMatrix(2, 2, swap_symmetric(self.raw_state))),
        ]

    def prepare(self):
        if not oracle.close(oracle.optimum(), oracle.SINGLET_OPTIMUM, 1e-12):
            raise RuntimeError("oracle does not reproduce the closed-form singlet optimum")
        self.expected = []
        for _, rho in self.states:
            mi = oracle.grid_mi_table(np.array(rho.matrix), self.resolution)
            self.expected.append((oracle.grid_max(mi), float(mi[0, 0])))

    def op_count(self):
        return len(self.states)

    def run_op(self, i):
        return self.eb.search.grid_search(self.states[i][1], self.resolution)

    def check(self, i, result):
        label, rho = self.states[i]
        res = self.resolution
        best = result.best_lhs
        grid_max, first = self.expected[i]
        angles = result.best_settings.angles
        step = math.pi / res
        if result.grid_resolution != res or result.refined:
            return f"{label}: wrong resolution/refined flag"
        if len(result.trace) != res ** 3 or not oracle.close(result.trace[0][1], first):
            return f"{label}: trace has {len(result.trace)} entries, first {result.trace[0]}"
        if not oracle.close(best, grid_max):
            return f"{label}: best LHS {best!r} != oracle grid maximum {grid_max!r}"
        if not oracle.close(result.margin, best - 1.0) or result.violation_found != (best > 1.0 + oracle.ATOL):
            return f"{label}: margin or violation flag inconsistent with best LHS"
        if any(abs(a / step - round(a / step)) > 1e-9 for a in angles):
            return f"{label}: winner {angles} is not a grid point"
        if not oracle.close(oracle.quantum_lhs(np.array(rho.matrix), angles), best):
            return f"{label}: LHS at the winner disagrees with tr[rho (P x P)] reference"
        if label == "singlet":
            if not oracle.close(best, oracle.SINGLET_GRID32_LHS) or best > oracle.SINGLET_OPTIMUM:
                return f"singlet: best LHS {best!r} != frozen {oracle.SINGLET_GRID32_LHS!r}"
            if not oracle.close(oracle.singlet_lhs(angles), best):
                return "singlet: LHS at the winner disagrees with the closed form"
        return None

    def run_probes(self):
        res = self.PROBE_RESOLUTION
        result = self.eb.search.grid_search(self.eb.quantum.DensityMatrix(2, 2, self.raw_state), res)
        mi = oracle.grid_mi_table(self.raw_state, res)
        # The trace is compared in full: the best LHS alone can match by chance.
        wrong = sum(not oracle.close(lhs, want) for (_, lhs), want in zip(result.trace, oracle.grid_cube(mi).ravel()))
        true = oracle.grid_max(mi)
        return [{"probe": "grid-asymmetric-state",
                 "defect": "grid_search copies MI(i,j) into MI(j,i); on a state that is not swap-symmetric "
                           "its trace is wrong where i > j and its best LHS is not the grid maximum",
                 "passed": wrong == 0 and len(result.trace) == res ** 3 and oracle.close(result.best_lhs, true),
                 "resolution": res, "wrong_trace_entries": wrong, "best_lhs": result.best_lhs, "oracle_max": true}]


class Audit(Workload):
    """The ``inequality --markov-checks`` battery over a seeded stream of tables.

    The end-to-end op is one pass over the whole stream.  One battery takes
    about 2 ms, far shorter than the swings in host speed on a shared VM, so
    the median battery latency jumped between speed modes from run to run
    (IQR/median 0.29-0.31 over ten seeds).  Per-battery p50 and p95 are in
    the report, and the traced pass counts each battery as one op.
    """

    name = "audit"
    pass_is_op = True

    def setup(self, eb, seed):
        self.eb = eb
        rng = np.random.default_rng(seed)
        self.items = []  # (kind, package input, raw table or spec arrays)
        for _ in range(40 if self.smoke else AUDIT_SIZE):
            sizes = NONBINARY_SIZES[rng.integers(len(NONBINARY_SIZES))] if rng.random() < 0.25 else (2, 2, 2)
            n = math.prod(sizes)
            u = rng.random()
            if u < 0.65:
                kind = "dense" if u < 0.4 else "sparse"
                flat = rng.dirichlet(np.ones(n)) if kind == "dense" else sparse_dirichlet(rng, n)
                self.items.append((kind, eb.dist.JointDistribution.from_flat(sizes, flat), flat.reshape(sizes)))
            else:
                arrays = (rng.dirichlet(np.ones(sizes[0])),
                          stochastic_matrix(rng, sizes[0], sizes[1]),
                          stochastic_matrix(rng, sizes[1], sizes[2]))
                initial = eb.dist.JointDistribution.from_flat((sizes[0],), arrays[0])
                spec = eb.markov.MarkovChainSpec(initial, arrays[1], arrays[2])
                self.items.append(("markov", spec, arrays))

    def prepare(self):
        self.expected = []
        for kind, _, raw in self.items:
            table = oracle.markov_table(*raw) if kind == "markov" else raw
            self.expected.append((table.shape, oracle.entropy_vector(table)))

    def op_count(self):
        return len(self.items)

    def run_op(self, i):
        eb = self.eb
        kind, item, _ = self.items[i]
        d = eb.markov.build_tripartite(item) if kind == "markov" else item
        ineq = eb.inequalities
        reports = [ineq.cerf_adami_classical(d, pivot=p) for p in (0, 1, 2)]
        reports += [ineq.joint_triangle_check(d), ineq.two_hb_bound_check(d), ineq.narrowed_bound_check(d)]
        forward = eb.markov.is_markov(d, (0, 1, 2))
        reverse = eb.markov.is_markov(d, (2, 1, 0))
        reports.append(ineq.triangle_check(d))
        reports += ineq.dpi_check(d, forward)
        return reports, forward, reverse, ineq.marginal_bound(d)

    def check(self, i, result):
        kind = self.items[i][0]
        shape, h = self.expected[i]
        return check_battery(h, result, markov_built=kind == "markov", binary=shape == (2, 2, 2))


def _satisfied_ok(flag: bool, lhs: float, rhs: float) -> bool:
    """``flag`` matches lhs <= rhs + 1e-9, ignoring values within 1e-12 of the edge."""
    slack = rhs + oracle.ATOL - lhs
    return abs(slack) <= 1e-12 or flag == (slack >= 0.0)


def report_key(report) -> str:
    pivot = report.meta.get("pivot") if isinstance(report.meta, dict) else None
    return f"{report.name}:{pivot}" if pivot else report.name


def check_report(h, expected, key: str, lhs, rhs, terms: dict, satisfied, margin) -> str | None:
    """Compare one report with ``expected = oracle.expected_battery(h)``; None when it matches."""
    if key not in expected:
        return f"unexpected report {key}"
    exp_lhs, exp_rhs = expected[key]
    if not (oracle.close(lhs, exp_lhs) and oracle.close(rhs, exp_rhs)):
        return f"{key}: lhs/rhs {lhs}/{rhs} != entropy-vector {exp_lhs}/{exp_rhs}"
    if not oracle.close(margin, exp_rhs - exp_lhs):
        return f"{key}: margin {margin} != rhs - lhs"
    for label, value in terms.items():
        if not oracle.close(value, oracle.term_value(h, label)):
            return f"{key}: term {label} = {value} != entropy-vector {oracle.term_value(h, label)}"
    if not _satisfied_ok(satisfied, exp_lhs, exp_rhs):
        return f"{key}: satisfied={satisfied} disagrees with lhs <= rhs + 1e-9"
    return None


def check_battery(h, result, markov_built: bool, binary: bool) -> str | None:
    reports, forward, reverse, bound = result
    expected = oracle.expected_battery(h)
    if [report_key(r) for r in reports] != list(expected):
        return f"unexpected report list {[report_key(r) for r in reports]}"
    for r in reports:
        failure = check_report(h, expected, report_key(r), r.lhs, r.rhs, r.terms, r.satisfied, r.margin)
        if failure:
            return failure
        name = r.name
        if name in oracle.ALWAYS_VALID and not r.satisfied:
            return f"always-valid {name} reported violated"
        if name in oracle.MARKOV_ONLY and markov_built and not r.satisfied:
            return f"{name} violated on a Markov-built input"
        if name == "cerf_adami" and (r.lhs > bound + oracle.ATOL or (binary and not r.satisfied)):
            return f"cerf_adami pivot {r.meta.get('pivot')} exceeds its always-valid bound"
        if name.startswith("dpi") and r.meta.get("markov_certified") != forward:
            return f"{name}: markov_certified flag != is_markov"
    if not oracle.close(bound, max(h["A"], h["B"], h["C"])):
        return f"marginal_bound {bound} != max single entropy"
    cmi = oracle.cmi(h, "A", "C", "B")
    for flag in (forward, reverse):
        if abs(cmi - oracle.ATOL) > 1e-12 and flag != (cmi <= oracle.ATOL):
            return f"is_markov={flag} but I(A;C|B) = {cmi}"
    if markov_built and not (forward and reverse):
        return "Markov-built input failed is_markov"
    return None

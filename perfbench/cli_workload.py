"""The ``cli`` workload: a fixed, seeded script of ``python -m entrobound`` runs.

Set-up writes the input files into a private directory under
``perfbench/out``.  Each op is one invocation in a fresh interpreter, so
interpreter start, ``import entrobound``, argparse, file parsing and
rendering are all inside the op.  The traced pass runs the same script in
process through ``entrobound.cli.main(argv)``.

Expected outputs come from the oracle (entropy vectors, ``tr[rho (P x P)]``
tables, spectra, closed-form counts); only the seeded Monte Carlo estimate
is taken from the library in process.  Malformed inputs must exit 2 with
exactly one stderr line and no traceback, as the README's exit-code
contract says.

The known input-boundary defects are kept out of the timed script, because
they fail today and a benchmark op must not fail; ``DEFECT_PROBES`` runs
each of them once per run.  The report lists every probe's outcome, and the
traced pass counts the failing ones in ``defects.probes_failing``.

``peak_rss_mb`` on this workload is the largest ``ru_maxrss`` of the timed
invocations themselves, not of the benchmark process.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from itertools import product
from pathlib import Path

import numpy as np

import oracle
from procs import OUT_DIR, run_child
from workloads import Workload, check_report, random_mixed_state, stochastic_matrix, swap_symmetric

# ROADMAP item 4 defects (and one more breach of the README contract),
# each with the invocation that shows it.  A probe passes when it exits 2
# with one stderr line, no traceback and no stdout.
DEFECT_PROBES = (
    ("werner-nonnumeric", "quantum --state werner:abc fails with a ValueError traceback and exit 1",
     ["quantum", "--state", "werner:abc", "--angles", "0,0.5,1.0"]),
    ("rho-nonnumeric-re", "density-matrix file with non-numeric re: traceback, exit 1",
     ["quantum", "--state-file", "{rho_text}", "--angles", "0,0.5,1.0"]),
    ("dist-string-prob", "distribution file with a string probability: traceback, exit 1",
     ["entropy", "--dist", "{dist_string}"]),
    ("rho-nan", "density matrix with a NaN passes validation, then LinAlgError, exit 1",
     ["quantum", "--state-file", "{rho_nan}", "--angles", "0,0.5,1.0"]),
    ("threshold-tol-nan", "search --werner-threshold --tolerance nan prints threshold 0, exit 0, invalid JSON",
     ["search", "--werner-threshold", "--resolution", "32", "--tolerance", "nan"]),
    ("search-tol-nan", "search --tolerance nan skips refinement but reports refined true",
     ["search", "--state", "singlet", "--resolution", "8", "--tolerance", "nan"]),
    ("argparse-usage", "usage errors print argparse's usage block, not one stderr line (README contract)",
     ["entropy"]),
)


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _matrix_payload(m: np.ndarray) -> dict:
    return {"dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()}


def flatten(obj, prefix: str = "", out: dict | None = None) -> dict:
    """Flatten parsed JSON with the CLI's own key scheme: ``a.b[0].c``."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for k, v in obj.items():
            flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def parse_output(fmt: str, text: str) -> dict:
    """Stdout of one invocation as flat ``key -> value`` (values may be strings)."""
    if fmt == "json":
        return flatten(json.loads(text))
    lines = text.splitlines()
    if fmt == "human":
        return dict(line.split(None, 1) for line in lines)
    if lines and lines[0] == "name,lhs,rhs,satisfied,margin,terms":
        flat = {}
        for i, row in enumerate(csv.reader(lines[1:])):
            name, lhs, rhs, satisfied, margin, terms = row
            flat.update({f"reports[{i}].name": name, f"reports[{i}].lhs": lhs, f"reports[{i}].rhs": rhs,
                         f"reports[{i}].satisfied": satisfied, f"reports[{i}].margin": margin})
            for pair in filter(None, terms.split(";")):
                label, value = pair.rsplit("=", 1)
                flat[f"reports[{i}].terms.{label}"] = value
        return flat
    return dict(line.rsplit(",", 1) for line in lines[1:])


def _same(actual, expected) -> bool:
    if isinstance(expected, bool):
        return str(actual).lower() == str(expected).lower()
    if isinstance(expected, (int, float)):
        try:
            return oracle.close(float(actual), float(expected))
        except (TypeError, ValueError):
            return False
    return str(actual) == str(expected)


class Cli(Workload):
    """27 sequential ``python -m entrobound`` invocations over all subcommands."""

    name = "cli"
    whole_passes = True

    def setup(self, eb, seed):
        self.eb = eb
        self.seed = seed
        self.in_process = False
        self.stdout_bytes = 0
        self.child_peak_kb = 0
        self.workdir = OUT_DIR / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        w = self.workdir
        self.tri = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        self.tri4 = rng.dirichlet(np.ones(24)).reshape(3, 2, 4)
        self.d2 = rng.dirichlet(np.ones(6))
        self.ref = rng.dirichlet(np.ones(6))
        self.chains = [
            (rng.dirichlet(np.ones(na)), stochastic_matrix(rng, na, nb), stochastic_matrix(rng, nb, nc))
            for na, nb, nc in ((2, 2, 2), (3, 3, 2))
        ]
        self.rho = random_mixed_state(rng)
        self.rho_sym = swap_symmetric(self.rho)  # for search; see workloads.Grid
        self.angles = tuple(float(a) for a in rng.uniform(0.0, math.pi, 3))
        self.coin_seed = int(rng.integers(0, 2 ** 31))
        _write(w / "tri.json", {"alphabet_sizes": [2, 2, 2], "probs": self.tri.ravel().tolist()})
        _write(w / "tri4.json", {"alphabet_sizes": [3, 2, 4], "probs": self.tri4.ravel().tolist()})
        _write(w / "d2.json", {"alphabet_sizes": [2, 3], "probs": self.d2.tolist()})
        _write(w / "ref.json", {"alphabet_sizes": [2, 3], "probs": self.ref.tolist()})
        for name, (initial, t1, t2) in zip(("chain.json", "chain3.json"), self.chains):
            _write(w / name, {"initial": initial.tolist(), "t1": t1.tolist(), "t2": t2.tolist()})
        _write(w / "rho.json", _matrix_payload(self.rho))
        _write(w / "rho_sym.json", _matrix_payload(self.rho_sym))
        (w / "bad.json").write_text('{"alphabet_sizes": [2, 2], "probs": [0.5,', encoding="utf-8")
        _write(w / "negative.json", {"alphabet_sizes": [2, 2], "probs": [0.75, -0.25, 0.25, 0.25]})
        rho_text = _matrix_payload(self.rho)
        rho_text["re"][0][0] = "x"
        _write(w / "rho_text.json", rho_text)
        rho_nan = _matrix_payload(self.rho)
        rho_nan["re"][1][2] = rho_nan["re"][2][1] = float("nan")
        _write(w / "rho_nan.json", rho_nan)
        _write(w / "dist_string.json", {"alphabet_sizes": [2], "probs": ["abc", 0.5]})
        # Validate every well-formed input through the package.
        for name in ("tri.json", "tri4.json", "d2.json", "ref.json"):
            eb.dist.JointDistribution.from_dict(json.loads((w / name).read_text()))
        for name in ("chain.json", "chain3.json"):
            eb.markov.MarkovChainSpec.from_dict(json.loads((w / name).read_text()))
        for name in ("rho.json", "rho_sym.json"):
            eb.quantum.DensityMatrix.from_dict(json.loads((w / name).read_text()))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # --- the script ---------------------------------------------------------------

    def prepare(self):
        importlib.import_module(f"{self.eb.__name__}.cli")  # for the in-process traced pass
        p_star = oracle.werner_threshold()
        if abs(p_star - oracle.WERNER_XZ_THRESHOLD) > 1e-6:
            raise RuntimeError(f"oracle Werner threshold {p_star} != {oracle.WERNER_XZ_THRESHOLD}")
        if not 0.75 <= p_star <= 1.0:  # the coarse threshold run below must bracket it
            raise RuntimeError(f"oracle Werner threshold {p_star} outside [0.75, 1]")
        w = str(self.workdir)
        h_tri = oracle.entropy_vector(self.tri)
        h_tri4 = oracle.entropy_vector(self.tri4)
        singlet = np.zeros((4, 4), dtype=complex)
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        werner = 0.8 * singlet + 0.2 * np.eye(4) / 4.0
        p = self.d2 / self.d2.sum()
        q = self.ref / self.ref.sum()
        kl_nats = float(np.sum(p[p > 0] * np.log(p[p > 0] / q[p > 0])))
        dice = sum(1 for roll in product(range(1, 7), repeat=2) if sum(roll) == 7)
        mc = self.eb.statmech.coin_reversal_monte_carlo(5, 2000, self.coin_seed)
        s_angles = ",".join(repr(a) for a in self.angles)
        self.script = [
            (["--version"], 0, "text", {"": f"entrobound {self.eb.__version__}"}),
            (["entropy", "--dist", f"{w}/tri.json"], 0, "json",
             {"command": "entropy", "kind": "joint", "entropy.value": h_tri["ABC"], "entropy.base": 2.0}),
            (["entropy", "--dist", f"{w}/tri.json", "--mutual", "0", "2", "--format", "csv"], 0, "csv",
             {"kind": "mutual H(0:2)", "entropy.value": oracle.mi(h_tri, "A", "C")}),
            (["entropy", "--dist", f"{w}/tri.json", "--conditional", "1", "0", "--format", "human"], 0, "human",
             {"kind": "conditional H(1|0)", "entropy.value": h_tri["AB"] - h_tri["A"]}),
            (["entropy", "--dist", f"{w}/d2.json", "--relative", f"{w}/ref.json", "--base", repr(math.e)], 0,
             "json", {"kind": "relative", "entropy.value": kl_nats, "entropy.base": math.e}),
            self._inequality([f"{w}/tri.json"], h_tri, False, "json"),
            self._inequality([f"{w}/tri.json", "--markov-checks", "--format", "csv"], h_tri, True, "csv"),
            self._inequality([f"{w}/tri4.json", "--markov-checks", "--format", "human"], h_tri4, True, "human"),
            self._markov([f"{w}/chain.json", "--emit-joint"], self.chains[0], "json"),
            self._markov([f"{w}/chain3.json", "--format", "csv"], self.chains[1], "csv"),
            self._quantum(["--state", "singlet", "--angles", "0,0.3927,0.7854"], singlet, (0, 0.3927, 0.7854),
                          "json"),
            self._quantum(["--state", "werner:0.8", "--angles", "0,0.5,1.0", "--format", "csv"], werner,
                          (0, 0.5, 1.0), "csv"),
            self._quantum(["--state-file", f"{w}/rho.json", "--angles", s_angles, "--format", "human"],
                          self.rho, self.angles, "human"),
            self._search(["--state", "singlet", "--resolution", "8", "--no-refine", "--trace"], singlet, "json"),
            self._search(["--state-file", f"{w}/rho_sym.json", "--resolution", "8", "--no-refine", "--format",
                          "csv"], self.rho_sym, "csv"),
            (["search", "--state", "singlet", "--resolution", "8", "--format", "human"], 1, "human",
             {"result.refined": True, "result.best_lhs": oracle.SINGLET_OPTIMUM, "result.grid_resolution": 8}),
            (["search", "--werner-threshold", "--resolution", "32", "--tolerance", "0.25"], 0, "json",
             {"mode": "werner-threshold", "threshold": 0.75, "tolerance": 0.25}),
            (["statmech", "--dice", "2", "7"], 0, "json",
             {"mode": "dice", "multiplicity": dice, "boltzmann_entropy.value": math.log(dice)}),
            (["statmech", "--combine", "6", "5", "--format", "csv"], 0, "csv",
             {"mode": "combine", "multiplicity": 30, "boltzmann_entropy.value": math.log(30)}),
            (["statmech", "--coins", "5", "--trials", "2000", "--seed", str(self.coin_seed)], 0, "json",
             {"reversal_probability": 2.0 ** -5, "monte_carlo.trials": 2000, "monte_carlo.estimate": mc}),
            (["statmech", "--mix", "10", "10", "--format", "human"], 0, "human",
             {"mode": "mixing", "mixing_entropy.value": math.log2(math.comb(20, 10))}),
            (["statmech", "--coins", "6", "--heads", "3"], 0, "json",
             {"reversal_probability": 2.0 ** -6, "unordered_probability": math.comb(6, 3) / 64}),
            (["entropy", "--dist", f"{w}/missing.json"], 2, "error", {}),
            (["inequality", "--dist", f"{w}/bad.json"], 2, "error", {}),
            (["entropy", "--dist", f"{w}/negative.json"], 2, "error", {}),
            (["quantum", "--state", "nosuch", "--angles", "0,0.5,1.0"], 2, "error", {}),
            (["search", "--state", "singlet", "--resolution", "4", "--no-refine"], 2, "error", {}),
        ]
        files = {"rho_text": f"{w}/rho_text.json", "rho_nan": f"{w}/rho_nan.json",
                 "dist_string": f"{w}/dist_string.json"}
        self.probes = [(pid, text, [a.format(**files) for a in argv]) for pid, text, argv in DEFECT_PROBES]

    def _inequality(self, args, h, markov_checks, fmt):
        expected = oracle.expected_battery(h)
        keys = list(expected)[:6] + (list(expected)[6:] if markov_checks else [])
        flat = {"command": "inequality"} if fmt != "csv" else {}
        violations = 0
        for i, key in enumerate(keys):
            lhs, rhs = expected[key]
            violations += lhs > rhs + oracle.ATOL
            flat.update({f"reports[{i}].name": key.split(":")[0], f"reports[{i}].lhs": lhs,
                         f"reports[{i}].rhs": rhs, f"reports[{i}].margin": rhs - lhs})
        if fmt != "csv":
            flat["violations"] = violations
        return ["inequality", "--dist"] + args, int(violations > 0), fmt, (flat, h, keys)

    def _markov(self, args, chain, fmt):
        table = oracle.markov_table(*chain)
        h = oracle.entropy_vector(table)
        expected = oracle.expected_battery(h)
        keys = ["dpi_forward_source", "dpi_forward_chain", "dpi_reverse_source", "dpi_reverse_chain", "triangle"]
        flat = {}
        if fmt != "csv":
            flat = {"command": "markov", "cmi_a_c_given_b.value": oracle.cmi(h, "A", "C", "B"),
                    "is_markov_forward": True, "is_markov_reverse": True, "violations": 0}
        for i, key in enumerate(keys):
            lhs, rhs = expected[key]
            flat.update({f"reports[{i}].name": key, f"reports[{i}].lhs": lhs, f"reports[{i}].rhs": rhs,
                         f"reports[{i}].satisfied": True})
        if "--emit-joint" in args:
            flat.update({f"joint.probs[{i}]": v for i, v in enumerate(table.ravel())})
        return ["markov", "--spec"] + args, 0, fmt, (flat, h, keys)

    def _quantum(self, args, rho, angles, fmt):
        a, b, c = angles
        mis = {label: oracle.table_mi(oracle.pair_table(rho, *pair))
               for label, pair in (("H(A:B)", (a, b)), ("H(A:C)", (a, c)), ("H(B:C)", (b, c)))}
        lhs = abs(mis["H(A:B)"] - mis["H(A:C)"]) + mis["H(B:C)"]
        violated = lhs > 1.0 + oracle.ATOL
        flat = {"reports[0].name": "cerf_adami", "reports[0].lhs": lhs, "reports[0].rhs": 1.0,
                "reports[0].satisfied": not violated}
        flat.update({f"reports[0].terms.{k}": v for k, v in mis.items()})
        if fmt != "csv":
            s_ab, s_a = oracle.spectrum_entropy(rho), oracle.spectrum_entropy(oracle.reduced(rho, 0))
            flat.update({"command": "quantum", "violations": int(violated), "diagnostics.S(A,B)": s_ab,
                         "diagnostics.S(A)": s_a,
                         "diagnostics.S(B)": oracle.spectrum_entropy(oracle.reduced(rho, 1)),
                         "diagnostics.S(B|A)": s_ab - s_a,
                         "diagnostics.purity": float(np.vdot(rho, rho).real)})
        return ["quantum"] + args, int(violated), fmt, flat

    def _search(self, args, rho, fmt):
        mi = oracle.grid_mi_table(rho, 8)
        best = oracle.grid_max(mi)
        flat = {"result.best_lhs": best, "result.margin": best - 1.0, "result.grid_resolution": 8,
                "result.refined": False, "result.violation_found": best > 1.0 + oracle.ATOL}
        if "--trace" in args:
            cube = oracle.grid_cube(mi).ravel()
            for n, (i, j, k) in enumerate(np.ndindex(8, 8, 8)):
                flat[f"result.trace[{n}][0][0]"] = i * math.pi / 8
                flat[f"result.trace[{n}][0][1]"] = j * math.pi / 8
                flat[f"result.trace[{n}][0][2]"] = k * math.pi / 8
                flat[f"result.trace[{n}][1]"] = float(cube[n])
        return ["search"] + args, int(best > 1.0 + oracle.ATOL), fmt, flat

    # --- running and checking -------------------------------------------------------

    def op_count(self):
        return len(self.script)

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        """(exit code, stdout, stderr) of one invocation."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.eb.cli.main(argv)
                except SystemExit as exc:  # argparse: --version and usage errors
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception:  # noqa: BLE001 - a traceback is an outcome to report
                    traceback.print_exc()
                    code = 1
            self.stdout_bytes += len(out.getvalue().encode())
            return code, out.getvalue(), err.getvalue()
        child = run_child([sys.executable, "-m", "entrobound", *argv])
        self.child_peak_kb = max(self.child_peak_kb, child.maxrss_kb)
        return child.code, child.stdout, child.stderr

    def peak_rss_kb(self):
        return self.child_peak_kb

    def run_op(self, i):
        return self.invoke(self.script[i][0])

    def check(self, i, result):
        argv, want_code, fmt, expected = self.script[i]
        code, out, err = result
        label = " ".join(argv[:2])
        if code != want_code:
            return f"{label}: exit {code}, expected {want_code}"
        if "Traceback" in err:
            return f"{label}: traceback on stderr"
        if fmt == "error":
            if out or len(err.splitlines()) != 1 or not err.startswith("error: "):
                return f"{label}: expected one 'error:' line on stderr, got {err!r}"
            return None
        if err:
            return f"{label}: unexpected stderr {err!r}"
        if fmt == "text":
            return None if out.strip() == expected[""] else f"{label}: stdout {out!r}"
        try:
            flat = parse_output(fmt, out)
        except (ValueError, json.JSONDecodeError) as exc:
            return f"{label}: unparsable {fmt} output: {exc}"
        checks = expected
        if isinstance(expected, tuple):  # inequality/markov: also compare every report with the oracle
            checks, h, keys = expected
            full = oracle.expected_battery(h)
            for n, key in enumerate(keys):
                terms = {k.split(".terms.", 1)[1]: float(v) for k, v in flat.items()
                         if k.startswith(f"reports[{n}].terms.")}
                failure = check_report(
                    h, full, key, float(flat[f"reports[{n}].lhs"]), float(flat[f"reports[{n}].rhs"]), terms,
                    str(flat[f"reports[{n}].satisfied"]).lower() == "true", float(flat[f"reports[{n}].margin"]))
                if failure:
                    return f"{label}: {failure}"
        for key, want in checks.items():
            if key not in flat or not _same(flat[key], want):
                return f"{label}: {key} = {flat.get(key)!r}, expected {want!r}"
        return None

    def run_probes(self):
        """Run every defect probe once (subprocess) and record how it ended."""
        outcomes = []
        for pid, text, argv in self.probes:
            start = time.perf_counter()
            proc = run_child([sys.executable, "-m", "entrobound", *argv])
            try:
                json.loads(proc.stdout) if proc.stdout else None
                stdout_json = "valid" if proc.stdout else "empty"
            except json.JSONDecodeError:
                stdout_json = "invalid"
            lines = proc.stderr.splitlines()
            ok = proc.code == 2 and len(lines) == 1 and not proc.stdout and "Traceback" not in proc.stderr
            outcomes.append({"probe": pid, "defect": text, "passed": ok,
                             "exit": proc.code, "traceback": "Traceback" in proc.stderr,
                             "stderr_lines": len(lines), "stdout_json": stdout_json,
                             "ms": round((time.perf_counter() - start) * 1e3, 1)})
        return outcomes

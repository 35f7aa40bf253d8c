"""Byte-for-byte CLI output on a fixed corpus of checked-in inputs.

Every invocation below runs in process through ``cli.main`` and must print
exactly the stdout stored in ``tests/data/golden/<case>.out`` and exit with
the code stored in ``tests/data/golden/exit_codes.json``.  A case that
writes to stderr (an input error) stores that too, in ``<case>.err``; every
other case must leave stderr empty.  The stored files were captured before
the classical checks were rebuilt on the entropy vector (and, for the
statmech, refined-search, trace, threshold, relative-entropy, base and
error cases, before the CLI dropped its separate config object, and for
the refined search on a random mixed state, before refine's probes
stopped building reports), so they pin today's bytes for every later
change.

Only a deliberate output change may rewrite them::

    PYTHONPATH=src python tests/test_golden_cli.py
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from entrobound.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

DISTS = ("uniform", "ghz", "xor", "triangle_counterexample", "nonbinary", "random",
         "random_sparse", "point_mass")
SPECS = ("noisy_copy_spec", "nonbinary_spec")
FORMATS = ("json", "csv", "human")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in DISTS:
        dist = str(DATA / f"{name}.json")
        for fmt in FORMATS:
            cases[f"inequality-{name}-{fmt}"] = ["inequality", "--dist", dist, "--format", fmt]
            cases[f"inequality-{name}-markov-{fmt}"] = ["inequality", "--dist", dist, "--markov-checks",
                                                         "--format", fmt]
    for name in SPECS:
        for fmt in FORMATS:
            cases[f"markov-{name}-joint-{fmt}"] = ["markov", "--spec", str(DATA / f"{name}.json"),
                                                   "--emit-joint", "--format", fmt]
    for name in ("random", "nonbinary", "point_mass"):
        dist = str(DATA / f"{name}.json")
        for x, y in ((0, 2), (2, 1)):
            cases[f"entropy-{name}-mutual-{x}{y}"] = ["entropy", "--dist", dist, "--mutual", str(x), str(y)]
            cases[f"entropy-{name}-conditional-{x}{y}"] = ["entropy", "--dist", dist,
                                                          "--conditional", str(x), str(y)]
    dist = str(DATA / "nonbinary.json")
    for fmt in ("csv", "human"):
        cases[f"entropy-nonbinary-mutual-01-{fmt}"] = ["entropy", "--dist", dist, "--mutual", "0", "1",
                                                       "--format", fmt]
    for fmt in FORMATS:
        cases[f"quantum-singlet-{fmt}"] = ["quantum", "--state", "singlet", "--angles", "0,0.3927,0.7854",
                                           "--format", fmt]
        cases[f"search-singlet-no-refine-{fmt}"] = ["search", "--state", "singlet", "--no-refine",
                                                    "--format", fmt]
    cases["quantum-werner-csv"] = ["quantum", "--state", "werner:0.5", "--angles", "0,1,2", "--format", "csv"]
    more = {
        "statmech-dice": ["statmech", "--dice", "2", "7"],
        "statmech-combine": ["statmech", "--combine", "6", "5"],
        "statmech-coins-monte-carlo": ["statmech", "--coins", "5", "--trials", "2000", "--seed", "7"],
        "statmech-coins-heads": ["statmech", "--coins", "6", "--heads", "3"],
        "statmech-mix": ["statmech", "--mix", "10", "10"],
        "statmech-mix-same-species": ["statmech", "--mix", "10", "10", "--same-species"],
        "search-singlet-refined": ["search", "--state", "singlet", "--resolution", "8"],
        # seeded random_mixed_state (rng 21): not swap-symmetric, with non-uniform marginals
        "search-mixed_state-refined": ["search", "--state-file", str(DATA / "mixed_state.json"), "--resolution",
                                       "16"],
        "search-werner-trace": ["search", "--state", "werner:0.97", "--resolution", "8", "--no-refine",
                                "--trace"],
        "search-werner-threshold": ["search", "--werner-threshold", "--resolution", "32", "--tolerance", "0.25"],
        "entropy-random-relative-uniform": ["entropy", "--dist", str(DATA / "random.json"),
                                            "--relative", str(DATA / "uniform.json")],
        "entropy-uniform-relative-ghz": ["entropy", "--dist", str(DATA / "uniform.json"),
                                         "--relative", str(DATA / "ghz.json")],
        "entropy-random-base-e": ["entropy", "--dist", str(DATA / "random.json"), "--base", "2.718281828459045"],
        # input errors: exit 2 and one stderr line, stored in <case>.err
        "error-unknown-state": ["quantum", "--state", "nosuch", "--angles", "0,0.5,1.0"],
        "error-resolution-4": ["search", "--state", "singlet", "--resolution", "4", "--no-refine"],
        "error-missing-file": ["entropy", "--dist", "no-such-dir/missing.json"],
        "error-angles-before-tolerance": ["quantum", "--state", "singlet", "--angles", "0,1,nan",
                                          "--tolerance", "nan"],
        "error-trace-above-cap": ["search", "--state", "singlet", "--resolution", "129", "--trace"],
    }
    for name, argv in more.items():
        for fmt in FORMATS:
            cases[f"{name}-{fmt}"] = argv + ["--format", fmt]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    code, stdout, stderr = _run(CASES[case])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case]
    assert stdout.encode() == (GOLDEN / f"{case}.out").read_bytes()
    err_file = GOLDEN / f"{case}.err"
    assert stderr.encode() == (err_file.read_bytes() if err_file.exists() else b"")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], stdout, stderr = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout.encode())
        if stderr:
            (GOLDEN / f"{case}.err").write_bytes(stderr.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")

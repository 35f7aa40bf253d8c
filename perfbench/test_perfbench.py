"""Tests of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import procs
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = json.loads(report_line)["report"]
    assert report["environment"]["seed"] == 3
    if trace == "0":
        assert report["failed_frac"] == 0.0
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        failing = result["metrics"]["defects.probes_failing"]["value"]
        assert failing == sum(not p["passed"] for p in report["defect_probes"])


def test_child_peak_rss_is_the_childs_own():
    """run_child reports the child's ru_maxrss, not the benchmark's."""
    child = procs.run_child([sys.executable, "-c", "b = bytearray(96 * 2**20); print(len(b))"])
    assert child.code == 0 and child.stdout.strip() == str(96 * 2**20)
    assert child.maxrss_kb >= 96 * 1024


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "audit", "--seed", "5", "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["markov.is_markov.calls"] == 2 * 40


@pytest.mark.parametrize("workload, module", [("audit", "inequalities"), ("grid", "search")])
def test_corrupted_result_raises_failed_frac(monkeypatch, workload, module):
    """Shift every pair MI the workload sees by 1e-6; its checks must catch it."""
    eb = run.load_package()
    bench_workload = run.make_workload(workload, smoke=True)
    bench_workload.setup(eb, 0)
    bench_workload.prepare()
    real = eb.entropy.mutual_entropy

    def off_by_a_little(*args):
        value = real(*args)
        return type(value)(value.value + 1e-6, value.base)

    monkeypatch.setattr(getattr(eb, module), "mutual_entropy", off_by_a_little)
    _, report, attempted, failed = run.end_to_end(bench_workload, 0.1, lambda: 0.0, 1)
    assert failed > 0 and report["failed_frac"] == failed / attempted > 0


def test_bare_directory_exits_nonzero_without_result():
    """A checkout holding only BENCHMARK.json and perfbench/ has no package to measure."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""entrobound benchmark: one seeded workload per run, every output checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload {grid,audit,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

With ``--trace 0`` it runs the workload as a closed loop with one client for
about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs one fixed pass untraced and the same pass traced,
and reports the per-layer metrics; spans go to ``perfbench/out``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is a report with the environment,
latency-percentile details and the defect-probe outcomes.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, no helper threads: pin BLAS pools before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from procs import OUT_DIR, ROOT, SRC, child_env, run_child  # noqa: E402 - after the BLAS pins

SETUP_PROBES = 9
# op_tail_ms percentile.  A 30 s run holds 7 to 12 ops on grid and audit, too
# few for a high percentile: the maximum of so few swings with the host.
TAIL_PERCENTILE = 75.0
FLOOR_REPEATS = 5
WORKLOADS = ("grid", "audit", "cli")


class MissingPackage(Exception):
    pass


def load_package():
    """Import ``entrobound`` from ``src/`` beside this directory."""
    if not (SRC / "entrobound" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'entrobound'}")
    sys.path.insert(0, str(SRC))
    import entrobound

    if Path(entrobound.__file__).resolve().parent != SRC / "entrobound":
        raise MissingPackage(f"imported entrobound from {entrobound.__file__}, not from {SRC}")
    return entrobound


def make_workload(name: str, smoke: bool):
    from cli_workload import Cli
    from workloads import Audit, Grid

    return {"grid": Grid, "audit": Audit, "cli": Cli}[name](smoke)


# --- set-up time -----------------------------------------------------------------------

def setup_probe(name: str, seed: int, smoke: bool) -> None:
    """Body of one set-up probe process: import, build and validate inputs, signal."""
    eb = load_package()
    workload = make_workload(name, smoke)
    workload.setup(eb, seed)
    print("ready", flush=True)
    workload.close()


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit {code}")
    return elapsed


def floor_ms(code: str) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter, in ms."""
    times = []
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        child = run_child([sys.executable, "-c", code])
        times.append(time.perf_counter() - start)
        if child.code != 0:
            raise RuntimeError(f"python -c {code!r} exited {child.code}: {child.stderr}")
    return statistics.median(times) * 1e3


# --- the two passes -----------------------------------------------------------------------

def run_ops(workload, indices, recorder=None) -> tuple[list[float], list[str]]:
    """Run and check the given ops; returns (latencies in s, failure descriptions)."""
    latencies, failures = [], []
    for n, i in enumerate(indices):
        if recorder is not None:
            recorder.start_op(n)
        start = time.perf_counter()
        try:
            result = workload.run_op(i)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            latencies.append(time.perf_counter() - start)
            failures.append(f"op {i} raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        failure = workload.check(i, result)
        if failure:
            failures.append(f"op {i}: {failure}")
    return latencies, failures


def timed_loop(workload, seconds: float, setup_probe, probes: int):
    """Closed loop over the workload's ops, cycling, for ``seconds`` of op time.

    A timed op is one workload op, or one whole pass over all of them when
    ``workload.pass_is_op``.  The ``probes`` set-up probes run between timed
    ops, spread evenly over the run, so that their median sees the same
    host phases as the ops; their time does not count towards ``seconds``.
    Returns the timed-op latencies, one failure description per failed
    timed op, the latencies of the single ops and the set-up times.
    """
    latencies, failures, singles, setup_times = [], [], [], []
    count = workload.op_count()
    step = count if workload.pass_is_op else 1
    start = time.perf_counter()
    probe_s = 0.0

    def op_time() -> float:
        return time.perf_counter() - start - probe_s

    i = 0
    while True:
        lat, fail = run_ops(workload, [(i + k) % count for k in range(step)])
        singles += lat
        latencies.append(sum(lat))
        if fail:
            failures.append(f"{len(fail)} of {step} failed, first: {fail[0]}" if step > 1 else fail[0])
        i += step
        while len(setup_times) < probes and op_time() >= len(setup_times) * seconds / probes:
            probe_start = time.perf_counter()
            setup_times.append(setup_probe())
            probe_s += time.perf_counter() - probe_start
        if op_time() >= seconds and (not workload.whole_passes or i % count == 0):
            return latencies, failures, singles, setup_times


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(nearest-rank ``pct`` percentile, samples beyond it)."""
    ordered = sorted(latencies)
    k = math.ceil(pct / 100.0 * len(ordered)) - 1
    return ordered[k], len(ordered) - 1 - k


def end_to_end(workload, seconds: float, setup_probe, probes: int) -> tuple[dict, dict, int, int]:
    latencies, failures, singles, setup_times = timed_loop(workload, seconds, setup_probe, probes)
    attempted, failed = len(latencies), len(failures)
    tail_s, beyond = tail(latencies, TAIL_PERCENTILE)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((attempted - failed) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
    }
    report = {
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "op_tail": {"percentile": TAIL_PERCENTILE, "samples_beyond": beyond, "samples": attempted},
        "setup_s_samples": setup_times,
    }
    if workload.pass_is_op:
        report["single_op_ms"] = {"count": len(singles), "p50": statistics.median(singles) * 1e3,
                                  "p95": tail(singles, 95.0)[0] * 1e3}
    probes = workload.run_probes()
    if probes:
        failing = sum(not p["passed"] for p in probes)
        report.update({"defect_probes": probes, "defect_probes_failing": failing,
                       "failed_frac_with_probes": (failed + failing) / (attempted + len(probes))})
    return metrics, report, attempted, failed


def traced(workload, eb, seed: int) -> tuple[dict, dict, int, int]:
    import spans

    indices = list(range(workload.op_count()))
    if hasattr(workload, "in_process"):
        workload.in_process = True
    plain, plain_failures = run_ops(workload, indices)
    recorder = spans.Recorder()
    uninstall = spans.install(recorder, eb)
    if hasattr(workload, "stdout_bytes"):
        workload.stdout_bytes = 0  # count the traced pass only
    try:
        lat, failures = run_ops(workload, indices, recorder)
    finally:
        uninstall()
    untraced_rate = len(indices) / sum(plain)
    traced_rate = len(indices) / sum(lat)
    metrics = spans.layer_metrics(recorder)
    metrics.update({
        "cli.interp_floor_ms": (floor_ms("pass"), "ms"),
        "cli.import_floor_ms": (floor_ms("import entrobound"), "ms"),
        "cli.stdout_bytes": (getattr(workload, "stdout_bytes", 0), "bytes"),
        "trace.untraced_ops_per_s": (untraced_rate, "ops/s"),
        "trace.traced_ops_per_s": (traced_rate, "ops/s"),
        "trace.overhead_pct": (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%"),
    })
    probes = workload.run_probes()
    metrics["defects.probes_failing"] = (sum(not p["passed"] for p in probes), "count")
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
    recorder.write(path)
    report = {
        "defect_probes": probes,
        "failures": (plain_failures + failures)[:20],
        "spans": len(recorder.spans),
        "spans_file": str(path.relative_to(ROOT)),
        "ops_per_pass": len(indices),
    }
    return metrics, report, 2 * len(indices), len(plain_failures) + len(failures)


# --- environment ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke)
            return 0
        eb = load_package()
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.smoke)
    workload.setup(eb, args.seed)
    try:
        workload.prepare()
        if args.trace:
            metrics, report, attempted, failed = traced(workload, eb, args.seed)
        else:
            metrics, report, attempted, failed = end_to_end(
                workload, args.seconds, lambda: measure_setup(args.workload, args.seed, args.smoke),
                1 if args.smoke else SETUP_PROBES)
    finally:
        workload.close()

    report = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed),
              **report}
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

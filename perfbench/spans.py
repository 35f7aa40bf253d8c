"""Span recorder for the traced pass, stdlib only.

``install`` wraps, in this process only, every public package function at
the module attributes through which one module calls another (for example
``entrobound.search.measure_pair`` and ``entrobound.inequalities.marginalize``)
plus the ``__post_init__`` validation of ``JointDistribution`` and
``DensityMatrix``.  Each call becomes a span named ``layer.function``, where
the layer is the defining module; these names are the phase vocabulary that
run statistics are meant to reuse.  Spans stay in memory as
``(name, start_ns, end_ns, parent, op)`` tuples and are written out once,
when the benchmark ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dist", "entropy", "inequalities", "markov", "quantum", "search", "statmech", "cli")
VALIDATED_CLASSES = (("dist", "JointDistribution"), ("quantum", "DensityMatrix"))
# Timed as part of the JointDistribution span, which covers validated construction.
UNWRAPPED = {"validate_table"}

_now = time.perf_counter_ns


class Recorder:
    """Spans of one traced pass; ``op`` groups the spans of one benchmark op."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.observed: dict[int, tuple] = {}  # span id -> summary of the return value
        self._stack: list[int] = []
        self._op = -1

    def start_op(self, op: int) -> None:
        self._op = op

    def wrap(self, name: str, fn, observe=None):
        """``observe(result)`` keeps a small summary of each return value."""
        spans, stack, observed = self.spans, self._stack, self.observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)
            if observe is not None:
                observed[sid] = observe(out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """One ``name,start_ns,end_ns,parent,op`` line per span, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


def _refine_summary(result) -> tuple:
    """(LHS evaluations, probes, strict improvements) from a refine trace."""
    best, accepted = result.trace[0][1], 0
    for _, lhs in result.trace[1:]:
        if lhs > best:
            best, accepted = lhs, accepted + 1
    return len(result.trace), len(result.trace) - 1, accepted


def _report_count(result) -> tuple:
    if isinstance(result, list):
        return (len(result),)
    return (int(hasattr(result, "lhs")),)


OBSERVERS = {
    "search.grid_search": lambda result: (len(result.trace), result.grid_resolution),
    "search.refine": _refine_summary,
}


def install(recorder: Recorder, package) -> callable:
    """Wrap the package's cross-module call sites; returns the undo function."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    wrapped: dict[object, object] = {}
    undo: list[tuple[object, str, object]] = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(obj):
                continue
            owner = getattr(obj, "__module__", "") or ""
            if not owner.startswith(package.__name__ + "."):
                continue
            if obj not in wrapped:
                name = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                observe = OBSERVERS.get(name, _report_count if owner.endswith(".inequalities") else None)
                wrapped[obj] = recorder.wrap(name, obj, observe)
            undo.append((module, attr, obj))
            setattr(module, attr, wrapped[obj])
    for layer, cls_name in VALIDATED_CLASSES:
        cls = getattr(getattr(package, layer), cls_name)
        original = cls.__dict__["__post_init__"]
        undo.append((cls, "__post_init__", original))
        cls.__post_init__ = recorder.wrap(f"{layer}.{cls_name}", original)

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    Self time of a span is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    spans = recorder.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    pair_ns: list[int] = []
    layer_self_ns: dict[str, int] = defaultdict(int)
    for sid, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - child_ns[sid]
        calls[name] += 1
        self_ns[name] += own
        layer_self_ns[name.split(".", 1)[0]] += own
        if name == "quantum.measure_pair":
            pair_ns.append(end - start)

    def ancestor_layers(sid: int):
        parent = spans[sid][3]
        while parent >= 0:
            yield spans[parent][0].split(".", 1)[0], spans[parent][0]
            parent = spans[parent][3]

    pair_mi = sum(
        1 for sid, span in enumerate(spans)
        if span[0] == "quantum.measure_pair" and any(layer == "search" for layer, _ in ancestor_layers(sid))
    )
    grid_refine_in_threshold = sum(
        1 for sid, span in enumerate(spans)
        if span[0] == "search.grid_refine" and any(n == "search.werner_threshold" for _, n in ancestor_layers(sid))
    )
    mi_under_inequalities = sum(
        1 for sid, span in enumerate(spans)
        if span[0] == "entropy.mutual_entropy"
        and next(ancestor_layers(sid), ("", ""))[0] == "inequalities"
    )

    trace_entries = cube_bytes = lhs_evals = probes = accepted = reports = 0
    ops_with_checks: set[int] = set()
    for sid, summary in recorder.observed.items():
        name, _, _, parent, op = spans[sid]
        if name == "search.grid_search":
            entries, resolution = summary
            trace_entries += entries
            # the cube plus the two same-size temporaries a - b and |a - b|
            cube_bytes += 3 * resolution ** 3 * 8
        elif name == "search.refine":
            lhs_evals += summary[0]
            probes += summary[1]
            accepted += summary[2]
        elif parent < 0 or not spans[parent][0].startswith("inequalities."):
            reports += summary[0]
            ops_with_checks.add(op)

    ms = 1e-6
    metrics = {
        "quantum.measure_pair.calls": (calls["quantum.measure_pair"], "count"),
        "quantum.measure_pair.self_ms": (self_ns["quantum.measure_pair"] * ms, "ms"),
        "quantum.measure_pair.p50_us": (statistics.median(pair_ns or [0]) * 1e-3, "us"),
        "quantum.cerf_adami_quantum.calls": (calls["quantum.cerf_adami_quantum"], "count"),
        "quantum.cerf_adami_quantum.self_ms": (self_ns["quantum.cerf_adami_quantum"] * ms, "ms"),
        "quantum.DensityMatrix.calls": (calls["quantum.DensityMatrix"], "count"),
        "quantum.DensityMatrix.self_ms": (self_ns["quantum.DensityMatrix"] * ms, "ms"),
        "search.grid_search.self_ms": (self_ns["search.grid_search"] * ms, "ms"),
        "search.trace_entries": (trace_entries, "count"),
        "search.cube_bytes_computed": (cube_bytes, "bytes"),
        "search.pair_mi.count": (pair_mi, "count"),
        "search.refine.self_ms": (self_ns["search.refine"] * ms, "ms"),
        "search.refine.lhs_evals": (lhs_evals, "count"),
        "search.refine.accept_ratio": (accepted / probes if probes else 0.0, "ratio"),
        "search.werner_threshold.grid_refine_calls": (grid_refine_in_threshold, "count"),
        "entropy.mutual_entropy.calls": (calls["entropy.mutual_entropy"], "count"),
        "entropy.mutual_entropy.self_ms": (self_ns["entropy.mutual_entropy"] * ms, "ms"),
        "entropy.shannon_entropy.calls": (calls["entropy.shannon_entropy"], "count"),
        "entropy.shannon_entropy.self_ms": (self_ns["entropy.shannon_entropy"] * ms, "ms"),
        "dist.JointDistribution.calls": (calls["dist.JointDistribution"], "count"),
        "dist.JointDistribution.self_ms": (self_ns["dist.JointDistribution"] * ms, "ms"),
        "dist.marginalize.calls": (calls["dist.marginalize"], "count"),
        "dist.marginalize.self_ms": (self_ns["dist.marginalize"] * ms, "ms"),
        "inequalities.self_ms": (layer_self_ns["inequalities"] * ms, "ms"),
        "inequalities.reports": (reports, "count"),
        "inequalities.mi_distinct_ratio": (
            3 * len(ops_with_checks) / mi_under_inequalities if mi_under_inequalities else 0.0, "ratio"),
        "markov.build_tripartite.calls": (calls["markov.build_tripartite"], "count"),
        "markov.build_tripartite.self_ms": (self_ns["markov.build_tripartite"] * ms, "ms"),
        "markov.is_markov.calls": (calls["markov.is_markov"], "count"),
        "markov.is_markov.self_ms": (self_ns["markov.is_markov"] * ms, "ms"),
        "markov.conditional_mutual_information.calls": (calls["markov.conditional_mutual_information"], "count"),
        "statmech.self_ms": (layer_self_ns["statmech"] * ms, "ms"),
        "cli.main.self_ms": (layer_self_ns["cli"] * ms, "ms"),
    }
    return metrics

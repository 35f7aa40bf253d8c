"""Command-line front door.

Subcommands: entropy, inequality, markov, quantum, search, statmech.

Exit codes invert some expectations, deliberately: 0 means every requested
inequality check was satisfied, 1 means a violation was found (so shell
pipelines can branch on "violation found"), and 2 means a usage or input
error.  Output is deterministic byte-for-byte for identical invocations:
keys are emitted in fixed order and floats with 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import TextIO

from . import __version__
from .dist import JointDistribution
from .entropy import (
    boltzmann_entropy,
    conditional_entropy,
    convert_base,
    mutual_entropy,
    relative_entropy,
    shannon_entropy,
)
from .errors import EntroboundError, ParseError, ValidationError
from .inequalities import (
    InequalityReport,
    cerf_adami_classical,
    dpi_check,
    joint_triangle_check,
    narrowed_bound_check,
    reports_to_csv,
    triangle_check,
    two_hb_bound_check,
)
from .markov import MarkovChainSpec, build_tripartite, conditional_mutual_information, is_markov
from .quantum import (
    DensityMatrix,
    MeasurementSettings,
    bell_state,
    cerf_adami_quantum,
    conditional_quantum_entropy,
    is_entangled_pure,
    partial_trace,
    singlet,
    von_neumann_entropy,
    werner_state,
)
from .search import grid_refine, grid_search, werner_threshold
from .statmech import (
    MacrostateSpec,
    coin_reversal_monte_carlo,
    coin_reversal_probability,
    coin_reversal_unordered_probability,
    combine_multiplicities,
    dice_multiplicity,
    mixing_demo,
)


@dataclass
class RunConfig:
    """Parsed invocation: command, inputs, and the global knobs."""

    command: str
    input_paths: list[str]
    output_format: str = "json"
    base: float = 2.0
    tolerance: float = 1e-6
    seed: int = 0
    trace: bool = False
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance) or self.tolerance <= 0.0:
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not math.isfinite(self.base) or self.base <= 1.0:
            raise ValidationError(f"base must be finite and > 1, got {self.base}")


# --- deterministic rendering ---------------------------------------------------

def _render_json(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"'
        return format(obj, ".12g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _render_json(obj).strip('"')))


def _emit(payload: dict, fmt: str, out: TextIO) -> None:
    reports = payload.get("reports")
    if fmt == "csv" and reports is not None:
        out.write(reports_to_csv(reports))
        return
    if reports is not None:
        payload = {**payload, "reports": [r.to_dict() for r in reports]}
    if fmt == "json":
        out.write(_render_json(payload) + "\n")
        return
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", payload, rows)
        out.write("key,value\n")
        for key, value in rows:
            out.write(f"{key},{value}\n")
        return
    # human
    rows = []
    _flatten("", payload, rows)
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        out.write(f"{key.ljust(width)}  {value}\n")


# --- input loading ---------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, kind: str, from_dict):
    payload = _load_json(path)
    try:
        return from_dict(payload)
    except KeyError as exc:
        raise ParseError(f"{path} is not a {kind} file: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a {kind} file: {exc}") from exc


def _load_distribution(path: str) -> JointDistribution:
    return _load(path, "distribution", JointDistribution.from_dict)


def _load_markov_spec(path: str) -> MarkovChainSpec:
    return _load(path, "Markov spec", MarkovChainSpec.from_dict)


def _resolve_state(name: str | None, path: str | None) -> DensityMatrix:
    if (name is None) == (path is None):
        raise ValidationError("provide exactly one of --state or --state-file")
    if path is not None:
        return _load(path, "density-matrix", DensityMatrix.from_dict)
    key = name.strip().lower()
    if key == "singlet" or key == "bell-psi-minus":
        return singlet()
    bell = {"bell-phi-plus": "phi+", "bell-phi-minus": "phi-", "bell-psi-plus": "psi+"}
    if key in bell:
        return bell_state(bell[key])
    if key.startswith("werner:"):
        try:
            p = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad Werner parameter in {name!r}: {exc}") from exc
        return werner_state(p)
    raise ValidationError(
        f"unknown state {name!r}; expected singlet, bell-phi-plus, bell-phi-minus, "
        f"bell-psi-plus, bell-psi-minus, or werner:p"
    )


def _parse_angles(text: str) -> MeasurementSettings:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--angles needs three comma-separated values, got {text!r}")
    try:
        return MeasurementSettings(tuple(float(p) for p in parts))
    except ValueError as exc:
        raise ValidationError(f"bad angle in {text!r}: {exc}") from exc


# --- command handlers -----------------------------------------------------------

def _cmd_entropy(config: RunConfig) -> tuple[dict, int]:
    d = _load_distribution(config.input_paths[0])
    opts = config.options
    if opts.get("mutual") is not None:
        x, y = opts["mutual"]
        value = convert_base(mutual_entropy(d, x, y), config.base)
        kind = f"mutual H({x}:{y})"
    elif opts.get("conditional") is not None:
        t, g = opts["conditional"]
        value = convert_base(conditional_entropy(d, t, g), config.base)
        kind = f"conditional H({t}|{g})"
    elif opts.get("relative") is not None:
        ref = _load_distribution(opts["relative"])
        value = relative_entropy(d, ref, config.base)
        kind = "relative"
    else:
        value = shannon_entropy(d, config.base)
        kind = "joint"
    payload = {"command": "entropy", "kind": kind, "entropy": value.to_dict()}
    return payload, 0


def _classical_battery(d: JointDistribution, markov_checks: bool) -> list[InequalityReport]:
    reports = [cerf_adami_classical(d, pivot=p) for p in (0, 1, 2)]
    reports += [joint_triangle_check(d), two_hb_bound_check(d), narrowed_bound_check(d)]
    if markov_checks:
        certified = is_markov(d)
        reports.append(triangle_check(d))
        reports += dpi_check(d, certified)
    return reports


def _cmd_inequality(config: RunConfig) -> tuple[dict, int]:
    d = _load_distribution(config.input_paths[0])
    reports = _classical_battery(d, config.options.get("markov_checks", False))
    violations = sum(0 if r.satisfied else 1 for r in reports)
    payload = {
        "command": "inequality",
        "markov": is_markov(d),
        "violations": violations,
        "reports": reports,
    }
    return payload, 0 if violations == 0 else 1


def _cmd_markov(config: RunConfig) -> tuple[dict, int]:
    spec = _load_markov_spec(config.input_paths[0])
    d = build_tripartite(spec)
    cmi = conditional_mutual_information(d, 0, 2, 1)
    reports = dpi_check(d, markov_certified=True) + [triangle_check(d)]
    violations = sum(0 if r.satisfied else 1 for r in reports)
    payload = {
        "command": "markov",
        "cmi_a_c_given_b": cmi.to_dict(),
        "is_markov_forward": is_markov(d, (0, 1, 2)),
        "is_markov_reverse": is_markov(d, (2, 1, 0)),
        "violations": violations,
        "reports": reports,
    }
    if config.options.get("emit_joint"):
        payload["joint"] = d.to_dict()
    return payload, 0 if violations == 0 else 1


def _cmd_quantum(config: RunConfig) -> tuple[dict, int]:
    rho = _resolve_state(config.options.get("state"), config.options.get("state_file"))
    settings = config.options["angles"]
    report = cerf_adami_quantum(rho, settings)
    s_joint = von_neumann_entropy(rho)
    s_a = von_neumann_entropy(partial_trace(rho, 0))
    s_b = von_neumann_entropy(partial_trace(rho, 1))
    s_b_given_a = conditional_quantum_entropy(rho, 1, 0)
    purity = rho.purity()
    diagnostics = {
        "S(A,B)": s_joint.value,
        "S(A)": s_a.value,
        "S(B)": s_b.value,
        "S(B|A)": s_b_given_a.value,
        "purity": purity,
    }
    if purity >= 1.0 - 1e-9:
        diagnostics["entangled"] = is_entangled_pure(rho)
    payload = {
        "command": "quantum",
        "diagnostics": diagnostics,
        "violations": 0 if report.satisfied else 1,
        "reports": [report],
    }
    return payload, 0 if report.satisfied else 1


def _cmd_search(config: RunConfig) -> tuple[dict, int]:
    opts = config.options
    if opts.get("werner_threshold"):
        threshold = werner_threshold(opts["resolution"], config.tolerance)
        payload = {
            "command": "search",
            "mode": "werner-threshold",
            "resolution": opts["resolution"],
            "tolerance": config.tolerance,
            "threshold": threshold,
        }
        return payload, 0
    rho = _resolve_state(opts.get("state"), opts.get("state_file"))
    if opts.get("refine", True):
        result = grid_refine(rho, opts["resolution"], tol=config.tolerance)
    else:
        result = grid_search(rho, opts["resolution"])
    payload = {"command": "search", "result": result.to_dict(include_trace=config.trace)}
    return payload, 1 if result.violation_found else 0


def _cmd_statmech(config: RunConfig) -> tuple[dict, int]:
    opts = config.options
    payload: dict = {"command": "statmech"}
    if opts.get("dice") is not None:
        n, total = opts["dice"]
        spec = dice_multiplicity(n, total)
        payload["mode"] = "dice"
        payload["description"] = spec.description
        payload["multiplicity"] = spec.multiplicity
        if spec.multiplicity >= 1:
            payload["boltzmann_entropy"] = boltzmann_entropy(spec.multiplicity).to_dict()
    elif opts.get("combine") is not None:
        m1, m2 = opts["combine"]
        spec = combine_multiplicities(
            MacrostateSpec(f"multiplicity {m1}", m1),
            MacrostateSpec(f"multiplicity {m2}", m2),
        )
        payload["mode"] = "combine"
        payload["multiplicity"] = spec.multiplicity
        payload["boltzmann_entropy"] = boltzmann_entropy(spec.multiplicity).to_dict()
    elif opts.get("coins") is not None:
        n = opts["coins"]
        payload["mode"] = "coins"
        payload["sequence_length"] = n
        payload["reversal_probability"] = coin_reversal_probability(n)
        if opts.get("heads") is not None:
            payload["unordered_probability"] = coin_reversal_unordered_probability(n, opts["heads"])
        if opts.get("trials"):
            estimate = coin_reversal_monte_carlo(n, opts["trials"], config.seed)
            payload["monte_carlo"] = {
                "trials": opts["trials"],
                "seed": config.seed,
                "estimate": estimate,
            }
    elif opts.get("mixing") is not None:
        n_a, n_b = opts["mixing"]
        value = mixing_demo(n_a, n_b, opts.get("same_species", False))
        payload["mode"] = "mixing"
        payload["n_a"] = n_a
        payload["n_b"] = n_b
        payload["same_species"] = opts.get("same_species", False)
        payload["mixing_entropy"] = value.to_dict()
    else:
        raise ValidationError("statmech needs one of --dice, --combine, --coins, --mix")
    return payload, 0


_HANDLERS = {
    "entropy": _cmd_entropy,
    "inequality": _cmd_inequality,
    "markov": _cmd_markov,
    "quantum": _cmd_quantum,
    "search": _cmd_search,
    "statmech": _cmd_statmech,
}


def run(config: RunConfig, out: TextIO | None = None) -> int:
    """Dispatch a parsed invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        payload, code = _HANDLERS[config.command](config)
    except EntroboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, config.output_format, out)
    return code


# --- argument parsing --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json",
                        help="output format (default json)")
    common.add_argument("--base", type=float, default=2.0,
                        help="logarithm base for entropy outputs (default 2)")
    common.add_argument("--tolerance", type=float, default=1e-6,
                        help="refinement / bisection tolerance (default 1e-6); "
                             "inequality satisfaction tolerance is fixed at 1e-9")
    common.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    common.add_argument("--trace", action="store_true", help="include the search trace in output")

    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Entropic quantities and Cerf-Adami inequality checks. "
                    "Exit codes: 0 all checks satisfied, 1 violation found, 2 bad input.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common], help="entropies of a distribution file")
    p.add_argument("--dist", required=True, help="JSON distribution file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mutual", nargs=2, type=int, metavar=("X", "Y"))
    group.add_argument("--conditional", nargs=2, type=int, metavar=("TARGET", "GIVEN"))
    group.add_argument("--relative", metavar="REF_FILE")

    p = sub.add_parser("inequality", parents=[common],
                       help="inequality battery on a tripartite distribution")
    p.add_argument("--dist", required=True, help="JSON tripartite distribution file")
    p.add_argument("--markov-checks", action="store_true",
                   help="also run the Markov-only checks (triangle, data processing); "
                        "these can legitimately fail on non-Markov inputs")

    p = sub.add_parser("markov", parents=[common], help="build and audit a Markov tripartite")
    p.add_argument("--spec", required=True, help="JSON Markov chain spec file")
    p.add_argument("--emit-joint", action="store_true", help="include the joint table in output")

    p = sub.add_parser("quantum", parents=[common], help="Cerf-Adami check on pairwise measurements")
    p.add_argument("--state", help="named state: singlet, bell-phi-plus, ..., werner:p")
    p.add_argument("--state-file", help="JSON density-matrix file")
    p.add_argument("--angles", required=True, help="three angles in radians, comma separated")

    p = sub.add_parser("search", parents=[common], help="violation search over settings")
    p.add_argument("--state", help="named state (see quantum)")
    p.add_argument("--state-file", help="JSON density-matrix file")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--no-refine", action="store_true", help="grid search only")
    p.add_argument("--werner-threshold", action="store_true",
                   help="bisect the Werner parameter instead of searching one state")

    p = sub.add_parser("statmech", parents=[common], help="multiplicities, coins, mixing")
    p.add_argument("--dice", nargs=2, type=int, metavar=("NUM", "TOTAL"))
    p.add_argument("--combine", nargs=2, type=int, metavar=("M1", "M2"))
    p.add_argument("--coins", type=int, metavar="LENGTH")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials for --coins")
    p.add_argument("--heads", type=int, help="also report the unordered-match probability")
    p.add_argument("--mix", nargs=2, type=int, metavar=("N_A", "N_B"))
    p.add_argument("--same-species", action="store_true")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options: dict = {}
    input_paths: list[str] = []
    cmd = args.command
    if cmd == "entropy":
        input_paths = [args.dist]
        options = {
            "mutual": tuple(args.mutual) if args.mutual else None,
            "conditional": tuple(args.conditional) if args.conditional else None,
            "relative": args.relative,
        }
        if args.relative:
            input_paths.append(args.relative)
    elif cmd == "inequality":
        input_paths = [args.dist]
        options = {"markov_checks": args.markov_checks}
    elif cmd == "markov":
        input_paths = [args.spec]
        options = {"emit_joint": args.emit_joint}
    elif cmd == "quantum":
        options = {
            "state": args.state,
            "state_file": args.state_file,
            "angles": _parse_angles(args.angles),
        }
        if args.state_file:
            input_paths.append(args.state_file)
    elif cmd == "search":
        options = {
            "state": args.state,
            "state_file": args.state_file,
            "resolution": args.resolution,
            "refine": not args.no_refine,
            "werner_threshold": args.werner_threshold,
        }
        if args.state_file:
            input_paths.append(args.state_file)
    elif cmd == "statmech":
        options = {
            "dice": tuple(args.dice) if args.dice else None,
            "combine": tuple(args.combine) if args.combine else None,
            "coins": args.coins,
            "trials": args.trials,
            "heads": args.heads,
            "mixing": tuple(args.mix) if args.mix else None,
            "same_species": args.same_species,
        }
    return RunConfig(
        command=cmd,
        input_paths=input_paths,
        output_format=args.format,
        base=args.base,
        tolerance=args.tolerance,
        seed=args.seed,
        trace=args.trace,
        options=options,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except EntroboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

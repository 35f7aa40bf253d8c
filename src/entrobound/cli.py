"""Command-line front door.

Subcommands: entropy, inequality, markov, quantum, search, statmech.

Exit codes invert some expectations, deliberately: 0 means every requested
inequality check was satisfied, 1 means a violation was found (so shell
pipelines can branch on "violation found"), and 2 means a usage or input
error.  Output is deterministic byte-for-byte for identical invocations:
keys are emitted in fixed order and floats with 12 significant digits.

Imports are lazy: this module loads the standard library and
:mod:`~entrobound.errors` only, and each handler imports the modules it
computes with.  The exact statistical mechanics (``statmech --dice``,
``--combine``, ``--mix``, ``--coins`` without ``--trials``) and ``--version``
thus never load numpy, which costs more than interpreter start.  An input
file is read and parsed as JSON before any module that needs numpy, so a
missing or malformed file is reported without loading it either.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, TextIO

from . import __version__
from .errors import EntroboundError, ParseError, ValidationError

if TYPE_CHECKING:
    from .dist import JointDistribution
    from .inequalities import InequalityReport
    from .quantum import DensityMatrix, MeasurementSettings

# A trace has about resolution^3 entries and streams at ~100k entries/s: at 128
# it is 2.1e6 entries, 136 MB of JSON and ~21 s; at the grid's own cap (1024) it
# would be 1.07e9 entries, hours and ~70 GB.
TRACE_MAX_RESOLUTION = 128


# --- deterministic rendering ---------------------------------------------------

def _is_list(obj) -> bool:
    """A list, a tuple or any other non-string sequence (such as the lazy search trace)."""
    return not isinstance(obj, (str, int, float)) and isinstance(obj, (list, tuple, Sequence))


def _render_json(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isinf(obj):
            return f'"{float(obj)}"'  # "inf" or "-inf"
        return format(obj, ".12g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return "".join(_json_chunks(obj))
    if _is_list(obj):  # only list elements get here (see _json_chunks): short, so joined at once
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    return json.dumps(str(obj))


def _json_chunks(obj):
    """The JSON text of ``obj`` in pieces: one per dict item and per list element.

    A long sequence (the lazy search trace) is written as it is read and
    never held as one string.
    """
    if isinstance(obj, dict):
        yield "{"
        for n, (k, v) in enumerate(obj.items()):
            yield f"{', ' if n else ''}{json.dumps(str(k))}: "
            yield from _json_chunks(v)
        yield "}"
    elif _is_list(obj):
        yield "["
        for n, v in enumerate(obj):
            yield (", " if n else "") + _render_json(v)
        yield "]"
    else:
        yield _render_json(obj)


def _flatten(prefix: str, obj):
    """``(key, leaf)`` pairs of ``obj``, with keys like ``result.trace[0][1]``."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items())
    else:
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    for key, v in items:
        if isinstance(v, dict) or _is_list(v):
            yield from _flatten(key, v)
        else:
            yield key, v


def _emit(payload: dict, fmt: str, out: TextIO) -> None:
    reports = payload.get("reports")
    if fmt == "csv" and reports is not None:
        from .inequalities import reports_to_csv

        out.write(reports_to_csv(reports))
        return
    if reports is not None:
        payload = {**payload, "reports": [r.to_dict() for r in reports]}
    if fmt == "json":
        for chunk in _json_chunks(payload):
            out.write(chunk)
        out.write("\n")
        return
    if fmt == "csv":
        out.write("key,value\n")
        layout = "{},{}\n"
    else:  # human: one pass for the key width, one to write
        width = max((len(k) for k, _ in _flatten("", payload)), default=0)
        layout = f"{{:{width}}}  {{}}\n"
    for key, leaf in _flatten("", payload):
        out.write(layout.format(key, _render_json(leaf).strip('"')))


# --- input loading ---------------------------------------------------------------

def _load(path: str, kind: str, module: str, cls: str):
    """``cls.from_dict`` of the JSON file at ``path``; ``module`` defines ``cls`` and is imported once it parses."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # too deeply nested to parse
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    from_dict = getattr(importlib.import_module(f".{module}", __package__), cls).from_dict
    try:
        return from_dict(payload)
    except KeyError as exc:
        raise ParseError(f"{path} is not a {kind} file: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # an integer too large for a float
        raise ParseError(f"{path} is not a {kind} file: {exc}") from exc


def _load_distribution(path: str) -> JointDistribution:
    return _load(path, "distribution", "dist", "JointDistribution")


def _resolve_state(name: str | None, path: str | None) -> DensityMatrix:
    if path is not None:
        return _load(path, "density-matrix", "quantum", "DensityMatrix")
    from .quantum import bell_state, singlet, werner_state

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
    from .quantum import MeasurementSettings

    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--angles needs three comma-separated values, got {text!r}")
    try:
        return MeasurementSettings(tuple(float(p) for p in parts))
    except ValueError as exc:
        raise ValidationError(f"bad angle in {text!r}: {exc}") from exc


# --- command handlers -----------------------------------------------------------
#
# Each handler takes the parsed argv and returns (payload, exit code).

def _cmd_entropy(args: argparse.Namespace) -> tuple[dict, int]:
    if not math.isfinite(args.base) or args.base <= 1.0:
        raise ValidationError(f"base must be finite and > 1, got {args.base}")
    d = _load_distribution(args.dist)
    from .entropy import conditional_entropy, convert_base, mutual_entropy, relative_entropy, shannon_entropy

    if args.mutual is not None:
        x, y = args.mutual
        value = convert_base(mutual_entropy(d, x, y), args.base)
        kind = f"mutual H({x}:{y})"
    elif args.conditional is not None:
        t, g = args.conditional
        value = convert_base(conditional_entropy(d, t, g), args.base)
        kind = f"conditional H({t}|{g})"
    elif args.relative is not None:
        ref = _load_distribution(args.relative)
        value = relative_entropy(d, ref, args.base)
        kind = "relative"
    else:
        value = shannon_entropy(d, args.base)
        kind = "joint"
    payload = {"command": "entropy", "kind": kind, "entropy": value.to_dict()}
    return payload, 0


def _classical_battery(d: JointDistribution, markov_checks: bool) -> list[InequalityReport]:
    from .inequalities import (cerf_adami_classical, dpi_check, joint_triangle_check, narrowed_bound_check,
                               triangle_check, two_hb_bound_check)
    from .markov import is_markov

    reports = [cerf_adami_classical(d, pivot=p) for p in (0, 1, 2)]
    reports += [joint_triangle_check(d), two_hb_bound_check(d), narrowed_bound_check(d)]
    if markov_checks:
        certified = is_markov(d)
        reports.append(triangle_check(d))
        reports += dpi_check(d, certified)
    return reports


def _cmd_inequality(args: argparse.Namespace) -> tuple[dict, int]:
    d = _load_distribution(args.dist)
    from .markov import is_markov

    reports = _classical_battery(d, args.markov_checks)
    violations = sum(0 if r.satisfied else 1 for r in reports)
    payload = {
        "command": "inequality",
        "markov": is_markov(d),
        "violations": violations,
        "reports": reports,
    }
    return payload, 0 if violations == 0 else 1


def _cmd_markov(args: argparse.Namespace) -> tuple[dict, int]:
    spec = _load(args.spec, "Markov spec", "markov", "MarkovChainSpec")
    from .inequalities import dpi_check, triangle_check
    from .markov import build_tripartite, conditional_mutual_information, is_markov

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
    if args.emit_joint:
        payload["joint"] = d.to_dict()
    return payload, 0 if violations == 0 else 1


def _cmd_quantum(args: argparse.Namespace) -> tuple[dict, int]:
    rho = _resolve_state(args.state, args.state_file)
    from .quantum import (PURITY_ATOL, cerf_adami_quantum, conditional_quantum_entropy, is_entangled_pure,
                          partial_trace, von_neumann_entropy)

    report = cerf_adami_quantum(rho, args.angles)
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
    if purity >= 1.0 - PURITY_ATOL:
        diagnostics["entangled"] = is_entangled_pure(rho)
    payload = {
        "command": "quantum",
        "diagnostics": diagnostics,
        "violations": 0 if report.satisfied else 1,
        "reports": [report],
    }
    return payload, 0 if report.satisfied else 1


def _cmd_search(args: argparse.Namespace) -> tuple[dict, int]:
    if not math.isfinite(args.tolerance) or args.tolerance <= 0.0:
        raise ValidationError(f"tolerance must be positive and finite, got {args.tolerance}")
    if args.werner_threshold:
        if args.trace or args.no_refine:
            flag = "--trace" if args.trace else "--no-refine"
            raise ValidationError(f"{flag} does not apply to --werner-threshold")
        from .search import werner_threshold

        threshold = werner_threshold(args.resolution, args.tolerance)
        payload = {
            "command": "search",
            "mode": "werner-threshold",
            "resolution": args.resolution,
            "tolerance": args.tolerance,
            "threshold": threshold,
        }
        return payload, 0
    if args.trace and args.resolution > TRACE_MAX_RESOLUTION:
        raise ValidationError(f"--trace capped at resolution {TRACE_MAX_RESOLUTION}, got {args.resolution}")
    rho = _resolve_state(args.state, args.state_file)
    from .search import grid_refine, grid_search

    if args.no_refine:
        result = grid_search(rho, args.resolution)
    else:
        result = grid_refine(rho, args.resolution, tol=args.tolerance)
    payload = {"command": "search", "result": result.to_dict()}
    if args.trace:
        payload["result"]["trace"] = result.trace  # lazy: rendered entry by entry
    return payload, 1 if result.violation_found else 0


def _cmd_statmech(args: argparse.Namespace) -> tuple[dict, int]:
    mode = next(m for m in ("dice", "combine", "coins", "mix") if getattr(args, m) is not None)
    for flag, owner, given in (("--trials", "coins", args.trials is not None),
                               ("--seed", "coins", args.seed is not None),
                               ("--heads", "coins", args.heads is not None),
                               ("--same-species", "mix", args.same_species)):
        if given and mode != owner:
            raise ValidationError(f"{flag} does not apply to --{mode}")
    if args.seed is not None and args.trials is None:
        raise ValidationError("--seed does not apply without --trials")
    from .statmech import (MacrostateSpec, coin_reversal_monte_carlo, coin_reversal_probability,
                           coin_reversal_unordered_probability, combine_multiplicities, dice_multiplicity,
                           mixing_demo)
    from .value import boltzmann_entropy

    payload: dict = {"command": "statmech"}
    if args.dice is not None:
        spec = dice_multiplicity(*args.dice)
        payload.update(mode="dice", description=spec.description, multiplicity=spec.multiplicity)
        if spec.multiplicity >= 1:
            payload["boltzmann_entropy"] = boltzmann_entropy(spec.multiplicity).to_dict()
    elif args.combine is not None:
        m1, m2 = args.combine
        spec = combine_multiplicities(
            MacrostateSpec(f"multiplicity {m1}", m1),
            MacrostateSpec(f"multiplicity {m2}", m2),
        )
        payload.update(mode="combine", multiplicity=spec.multiplicity,
                       boltzmann_entropy=boltzmann_entropy(spec.multiplicity).to_dict())
    elif args.coins is not None:
        n = args.coins
        payload.update(mode="coins", sequence_length=n, reversal_probability=coin_reversal_probability(n))
        if args.heads is not None:
            payload["unordered_probability"] = coin_reversal_unordered_probability(n, args.heads)
        if args.trials is not None:
            seed = 0 if args.seed is None else args.seed
            estimate = coin_reversal_monte_carlo(n, args.trials, seed)
            payload["monte_carlo"] = {"trials": args.trials, "seed": seed, "estimate": estimate}
    else:  # --mix: the parser requires exactly one mode
        n_a, n_b = args.mix
        value = mixing_demo(n_a, n_b, args.same_species)
        payload.update(mode="mixing", n_a=n_a, n_b=n_b, same_species=args.same_species,
                       mixing_entropy=value.to_dict())
    return payload, 0


# --- argument parsing --------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them as one ``error:`` line and exit 2."""

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="entrobound",
        description="Entropic quantities and Cerf-Adami inequality checks. "
                    "Exit codes: 0 all checks satisfied, 1 violation found, 2 bad input.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv", "human"), default="json",
                       help="output format (default json)")
        return p

    p = command("entropy", _cmd_entropy, "entropies of a distribution file")
    p.add_argument("--dist", required=True, help="JSON distribution file")
    p.add_argument("--base", type=float, default=2.0, help="logarithm base of the output (default 2)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mutual", nargs=2, type=int, metavar=("X", "Y"))
    group.add_argument("--conditional", nargs=2, type=int, metavar=("TARGET", "GIVEN"))
    group.add_argument("--relative", metavar="REF_FILE")

    p = command("inequality", _cmd_inequality, "inequality battery on a tripartite distribution")
    p.add_argument("--dist", required=True, help="JSON tripartite distribution file")
    p.add_argument("--markov-checks", action="store_true",
                   help="also run the Markov-only checks (triangle, data processing); "
                        "these can legitimately fail on non-Markov inputs")

    p = command("markov", _cmd_markov, "build and audit a Markov tripartite")
    p.add_argument("--spec", required=True, help="JSON Markov chain spec file")
    p.add_argument("--emit-joint", action="store_true", help="include the joint table in output")

    p = command("quantum", _cmd_quantum, "Cerf-Adami check on pairwise measurements")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="named state: singlet, bell-phi-plus, ..., werner:p")
    group.add_argument("--state-file", help="JSON density-matrix file")
    # Parsed here, so a bad angle is reported before an unrecognized argument.
    p.add_argument("--angles", required=True, type=_parse_angles,
                   help="three angles in radians, comma separated; a negative first angle needs --angles=-0.5,0,1")

    p = command("search", _cmd_search, "violation search over settings")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="named state (see quantum)")
    group.add_argument("--state-file", help="JSON density-matrix file")
    group.add_argument("--werner-threshold", action="store_true",
                       help="bisect the Werner parameter instead of searching one state")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--no-refine", action="store_true", help="grid search only")
    p.add_argument("--tolerance", type=float, default=1e-6,
                   help="refinement / bisection tolerance (default 1e-6); "
                        "inequality satisfaction tolerance is fixed at 1e-9")
    p.add_argument("--trace", action="store_true",
                   help=f"include the search trace in output (resolution <= {TRACE_MAX_RESOLUTION})")

    p = command("statmech", _cmd_statmech, "multiplicities, coins, mixing")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dice", nargs=2, type=int, metavar=("NUM", "TOTAL"))
    group.add_argument("--combine", nargs=2, type=int, metavar=("M1", "M2"))
    group.add_argument("--coins", type=int, metavar="LENGTH")
    group.add_argument("--mix", nargs=2, type=int, metavar=("N_A", "N_B"))
    # --trials and --seed default to None, not 0, so that another mode can tell they were given.
    p.add_argument("--trials", type=int, help="Monte Carlo trials for --coins")
    p.add_argument("--seed", type=int, help="Monte Carlo seed, with --trials (default 0)")
    p.add_argument("--heads", type=int, help="also report the unordered-match probability")
    p.add_argument("--same-species", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, run one command and print its result; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        payload, code = args.handler(args)
        _emit(payload, args.format, sys.stdout)
        sys.stdout.flush()
    except EntroboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): send the rest to devnull,
        # so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

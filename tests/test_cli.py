import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrobound
from entrobound import JointDistribution, product_state, singlet
from entrobound.cli import _render_json, main

from conftest import random_tripartite, triangle_counterexample, noisy_copy_spec


@pytest.fixture
def tri_file(tmp_path):
    d = random_tripartite(np.random.default_rng(100))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(d.to_dict()))
    return str(path)


@pytest.fixture
def counterexample_file(tmp_path):
    path = tmp_path / "counter.json"
    path.write_text(json.dumps(triangle_counterexample().to_dict()))
    return str(path)


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "mkv.json"
    path.write_text(json.dumps(noisy_copy_spec(0.1).to_dict()))
    return str(path)


@pytest.fixture
def product_state_file(tmp_path):
    rho = product_state(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho.to_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_command(capsys, tri_file):
    code, out, _ = run_cli(capsys, "entropy", "--dist", tri_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "entropy"
    assert 0.0 <= payload["entropy"]["value"] <= 3.0
    assert payload["entropy"]["base"] == 2


def test_entropy_mutual_and_base(capsys, tri_file):
    code, out, _ = run_cli(capsys, "entropy", "--dist", tri_file, "--mutual", "0", "2",
                           "--base", "2.718281828459045")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mutual H(0:2)"
    assert payload["entropy"]["base"] == pytest.approx(2.718281828459045)


def test_entropy_conditional(capsys, tri_file):
    code, out, _ = run_cli(capsys, "entropy", "--dist", tri_file, "--conditional", "1", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conditional H(1|0)"
    assert payload["entropy"]["value"] >= 0.0


def test_render_json_keeps_the_sign_of_infinity():
    assert _render_json(math.inf) == '"inf"'
    assert _render_json(-math.inf) == '"-inf"'
    assert _render_json(np.float64(-math.inf)) == '"-inf"'
    assert json.loads(_render_json({"x": [-math.inf, math.inf], "y": -math.inf})) == {
        "x": ["-inf", "inf"], "y": "-inf"}


def test_entropy_relative_infinite(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"alphabet_sizes": [2], "probs": [0.5, 0.5]}))
    b.write_text(json.dumps({"alphabet_sizes": [2], "probs": [1.0, 0.0]}))
    code, out, _ = run_cli(capsys, "entropy", "--dist", str(a), "--relative", str(b))
    assert code == 0
    assert json.loads(out)["entropy"]["value"] == "inf"


def test_inequality_random_tripartite_satisfied(capsys, tri_file):
    code, out, _ = run_cli(capsys, "inequality", "--dist", tri_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert all(r["satisfied"] for r in payload["reports"])
    names = {r["name"] for r in payload["reports"]}
    assert names == {"cerf_adami", "joint_triangle", "two_hb_bound", "narrowed_bound"}


def test_inequality_markov_checks_flag(capsys, counterexample_file):
    code, out, _ = run_cli(capsys, "inequality", "--dist", counterexample_file, "--markov-checks")
    assert code == 1
    payload = json.loads(out)
    failing = {r["name"] for r in payload["reports"] if not r["satisfied"]}
    assert "triangle" in failing


def test_markov_command(capsys, markov_file):
    code, out, _ = run_cli(capsys, "markov", "--spec", markov_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_markov_forward"] is True
    assert payload["is_markov_reverse"] is True
    assert payload["cmi_a_c_given_b"]["value"] == 0


def test_markov_emit_joint(capsys, markov_file):
    code, out, _ = run_cli(capsys, "markov", "--spec", markov_file, "--emit-joint")
    assert code == 0
    payload = json.loads(out)
    assert payload["joint"]["alphabet_sizes"] == [2, 2, 2]
    assert len(payload["joint"]["probs"]) == 8


def test_quantum_no_violation_at_equal_angles(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--state", "singlet", "--angles", "0.5,0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert payload["diagnostics"]["S(B|A)"] == pytest.approx(-1.0, abs=1e-9)


def test_quantum_violation_exit_code(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--state", "singlet", "--angles", "0,0.3927,0.7854")
    assert code == 1
    assert json.loads(out)["reports"][0]["satisfied"] is False


def test_quantum_angle_a_hair_below_zero_prints_zero(capsys):
    # a negative first angle needs the = form: with a space argparse reads it as an option
    code, out, _ = run_cli(capsys, "quantum", "--state", "singlet", "--angles=-1e-17,0.3927,0.7854")
    assert code == 1
    assert '"angles": [0, 0.3927, 0.7854]' in out


def test_quantum_state_file(capsys, product_state_file):
    code, out, _ = run_cli(capsys, "quantum", "--state-file", product_state_file,
                           "--angles", "0.2,0.9,1.4")
    assert code == 0
    assert json.loads(out)["reports"][0]["lhs"] == pytest.approx(0.0, abs=1e-9)


def test_search_singlet_finds_violation(capsys):
    code, out, _ = run_cli(capsys, "search", "--state", "singlet", "--resolution", "16")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["best_lhs"] > 1.0
    assert payload["result"]["violation_found"] is True
    assert "trace" not in payload["result"]


def test_search_trace_flag(capsys):
    code, out, _ = run_cli(capsys, "search", "--state", "singlet", "--resolution", "8",
                           "--no-refine", "--trace")
    assert code == 1
    payload = json.loads(out)
    assert len(payload["result"]["trace"]) == 8 ** 3


def test_search_product_state_clean(capsys, product_state_file):
    code, out, _ = run_cli(capsys, "search", "--state-file", product_state_file,
                           "--resolution", "16")
    assert code == 0
    assert json.loads(out)["result"]["violation_found"] is False


def test_statmech_dice(capsys):
    code, out, _ = run_cli(capsys, "statmech", "--dice", "2", "7")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 6


def test_statmech_coins_with_monte_carlo(capsys):
    code, out, _ = run_cli(capsys, "statmech", "--coins", "5", "--trials", "20000", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["reversal_probability"] == 0.03125
    assert abs(payload["monte_carlo"]["estimate"] - 0.03125) < 0.01


def test_statmech_mix(capsys):
    code, out, _ = run_cli(capsys, "statmech", "--mix", "1", "1")
    assert code == 0
    assert json.loads(out)["mixing_entropy"]["value"] == pytest.approx(1.0)


def test_statmech_requires_a_mode(capsys):
    code, _, err = run_cli(capsys, "statmech")
    assert code == 2
    assert "error:" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "entropy", "--dist", "/nonexistent/x.json")
    assert code == 2
    assert err.strip().count("\n") == 0  # single-line diagnostic


def test_invalid_distribution_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet_sizes": [2], "probs": [0.7, 0.7]}))
    code, _, err = run_cli(capsys, "entropy", "--dist", str(bad))
    assert code == 2
    assert "sum" in err


def test_unknown_state_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "quantum", "--state", "ghz", "--angles", "0,0,0")
    assert code == 2
    assert "unknown state" in err


def test_csv_format_reports(capsys, tri_file):
    code, out, _ = run_cli(capsys, "inequality", "--dist", tri_file, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,satisfied,margin,terms"
    assert len(lines) == 7  # header + 3 cerf_adami pivots + 3 chain checks


def test_human_format(capsys):
    code, out, _ = run_cli(capsys, "statmech", "--dice", "2", "8", "--format", "human")
    assert code == 0
    assert "multiplicity" in out
    assert "5" in out


def test_identical_invocations_identical_bytes():
    cmd = [sys.executable, "-m", "entrobound", "search", "--state", "werner:0.97",
           "--resolution", "8", "--no-refine", "--trace"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_float_rendering_is_12_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--state", "singlet", "--angles", "0,0.3927,0.7854")
    assert code == 1
    assert '"lhs": 1.13422279326' in out


@pytest.mark.parametrize(
    "extra", [["--state", "singlet"], ["--state", "singlet", "--no-refine"], ["--werner-threshold"]]
)
def test_search_resolution_above_cap_is_exit_2(capsys, extra):
    code, out, err = run_cli(capsys, "search", "--resolution", "1025", *extra)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "resolution must be <= 1024" in err


_ZERO_ROW = [0, 0, 0, 0]
_BAD_INPUT_FILES = {
    "dist": {"alphabet_sizes": [2], "probs": ["half", 0.5]},
    "dist-bool": {"alphabet_sizes": [2], "probs": [True, False]},
    "dist-numeric-str": {"alphabet_sizes": [2], "probs": ["0.5", "0.5"]},
    "dist-padded-str": {"alphabet_sizes": [2], "probs": [" 0.5 ", 0.5]},
    "dist-ragged": {"alphabet_sizes": [2, 2], "probs": [[0.5, 0.25], [0.25]]},
    "dist-huge-int": {"alphabet_sizes": [2], "probs": [10 ** 400, 0]},  # a 401-digit literal
    "spec": {"initial": [0.5, "x"], "t1": [[1, 0], [0, 1]], "t2": [[1, 0], [0, 1]]},
    "spec-bool-initial": {"initial": [True, False], "t1": [[1, 0], [0, 1]], "t2": [[1, 0], [0, 1]]},
    "spec-str-t1": {"initial": [0.5, 0.5], "t1": [["0.5", "0.5"], [0, 1]], "t2": [[1, 0], [0, 1]]},
    "state-re": {"dims": [2, 2], "re": [["a", 0, 0, 0]] + [_ZERO_ROW] * 3, "im": [_ZERO_ROW] * 4},
    "state-im": {"dims": [2, 2], "re": [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
                 "im": [_ZERO_ROW, [0, "b", 0, 0], _ZERO_ROW, _ZERO_ROW]},
    "state-bool": {"dims": [2, 2], "re": [[True, 0, 0, 0], _ZERO_ROW, _ZERO_ROW, _ZERO_ROW], "im": [_ZERO_ROW] * 4},
    "state-numeric-str": {"dims": [2, 2], "re": [["0.5", 0, 0, 0], _ZERO_ROW, _ZERO_ROW, [0, 0, 0, "0.5"]],
                          "im": [_ZERO_ROW] * 4},
}
_BAD_INPUT_COMMANDS = {
    "dist": ["inequality", "--dist"],
    "dist-bool": ["entropy", "--dist"],
    "dist-numeric-str": ["entropy", "--dist"],
    "dist-padded-str": ["inequality", "--dist"],
    "dist-ragged": ["entropy", "--dist"],
    "dist-huge-int": ["entropy", "--dist"],
    "spec": ["markov", "--spec"],
    "spec-bool-initial": ["markov", "--spec"],
    "spec-str-t1": ["markov", "--spec"],
    "state-re": ["quantum", "--angles", "0,1,2", "--state-file"],
    "state-im": ["search", "--state-file"],
    "state-bool": ["quantum", "--angles", "0,1,2", "--state-file"],
    "state-numeric-str": ["search", "--state-file"],
}
# every file's numbers, density matrices' included, are checked by the package's rule (dist._reals)
_BAD_INPUT_MESSAGES = {
    "dist": "probabilities must be real numbers, got 'half'",
    "dist-bool": "probabilities must be real numbers, got True",
    "dist-numeric-str": "probabilities must be real numbers, got '0.5'",
    "dist-padded-str": "probabilities must be real numbers, got ' 0.5 '",
    "dist-ragged": "ragged table",
    "dist-huge-int": "probabilities must lie within the float range",
    "spec": "probabilities must be real numbers, got 'x'",
    "spec-bool-initial": "probabilities must be real numbers, got True",
    "spec-str-t1": "t1 entries must be real numbers, got '0.5'",
    "state-re": "density matrix entries must be real numbers, got 'a'",
    "state-im": "density matrix entries must be real numbers, got 'b'",
    "state-bool": "density matrix entries must be real numbers, got True",
    "state-numeric-str": "density matrix entries must be real numbers, got '0.5'",
}


def assert_input_error(code, out, err, fragment):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(_BAD_INPUT_FILES))
def test_non_numeric_file_entry_is_exit_2(capsys, tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_BAD_INPUT_FILES[case]))
    code, out, err = run_cli(capsys, *_BAD_INPUT_COMMANDS[case], str(path))
    assert_input_error(code, out, err, _BAD_INPUT_MESSAGES[case])


def test_nan_density_matrix_file_is_exit_2(capsys, tmp_path):
    re = [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]
    re[0][0] = math.nan
    path = tmp_path / "nan_state.json"
    path.write_text(json.dumps({"dims": [2, 2], "re": re, "im": [_ZERO_ROW] * 4}))
    code, out, err = run_cli(capsys, "quantum", "--angles", "0,1,2", "--state-file", str(path))
    assert_input_error(code, out, err, "density matrix has non-finite entries")
    assert "probabilities must be finite" not in err


def test_non_object_file_is_exit_2_without_missing_key_claim(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[0.5, 0.5]")
    code, out, err = run_cli(capsys, "entropy", "--dist", str(path))
    assert_input_error(code, out, err, "is not a distribution file: list indices must be integers")


def test_non_utf8_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "entropy", "--dist", str(path))
    assert_input_error(code, out, err, "is not valid JSON")


_NON_INTEGER_SIZE_FILES = {
    "fraction_dist": '{"alphabet_sizes": [2.9, 2], "probs": [0.25, 0.25, 0.25, 0.25]}',
    "bool_dist": '{"alphabet_sizes": [true, 4], "probs": [0.25, 0.25, 0.25, 0.25]}',
    "string_dist": '{"alphabet_sizes": ["2", "2"], "probs": [0.25, 0.25, 0.25, 0.25]}',
    "fraction_state": json.dumps({"dims": [2.5, 2.99], "re": (np.eye(4) / 4).tolist(), "im": [_ZERO_ROW] * 4}),
}


@pytest.mark.parametrize("case, fragment", [
    ("fraction_dist", "got 2.9"), ("bool_dist", "got True"), ("string_dist", "got '2'"),
    ("fraction_state", "got 2.5"),
])
def test_non_integer_size_in_file_is_exit_2(capsys, tmp_path, case, fragment):
    path = tmp_path / f"{case}.json"
    path.write_text(_NON_INTEGER_SIZE_FILES[case])
    argv = ["quantum", "--angles", "0,0,0", "--state-file"] if case.endswith("state") else ["entropy", "--dist"]
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, out, err, f"sizes must be integers, {fragment}")


# 1e999 parses as an infinite float, which int() cannot convert
_INFINITE_SIZE_FILES = {
    "dist": '{"alphabet_sizes": [1e999, 2], "probs": [0.5, 0.5]}',
    "state": '{"dims": [1e999, 2], "re": [[1.0]], "im": [[0.0]]}',
}


@pytest.mark.parametrize("argv, case", [
    (["entropy", "--dist"], "dist"),
    (["quantum", "--angles", "0,0,0", "--state-file"], "state"),
])
def test_infinite_size_in_file_is_exit_2(capsys, tmp_path, argv, case):
    path = tmp_path / f"{case}.json"
    path.write_text(_INFINITE_SIZE_FILES[case])
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, out, err, "cannot convert float infinity to integer")


def test_an_integer_literal_past_the_conversion_limit_is_exit_2(capsys, tmp_path):
    # json.load raises a plain ValueError, not a JSONDecodeError, on an int of over 4300 digits
    path = tmp_path / "long_int.json"
    path.write_text('{"alphabet_sizes": [2], "probs": [1' + "0" * 5000 + ", 0]}")
    code, out, err = run_cli(capsys, "entropy", "--dist", str(path))
    assert_input_error(code, out, err, "is not valid JSON: Exceeds the limit (4300 digits)")


def test_too_deeply_nested_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "inequality", "--dist", str(path))
    assert_input_error(code, out, err, "is not valid JSON")


def test_non_numeric_werner_parameter_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "quantum", "--state", "werner:abc", "--angles", "0,0,0")
    assert_input_error(code, out, err, "bad Werner parameter")


@pytest.mark.parametrize("angles", ["0,1", "0,1,2,3"])
def test_angles_other_than_three_are_exit_2(capsys, angles):
    code, out, err = run_cli(capsys, "quantum", "--state", "singlet", "--angles", angles)
    assert_input_error(code, out, err, f"--angles needs three comma-separated values, got {angles!r}")


def test_a_markov_table_above_the_cap_is_exit_2(capsys, tmp_path):
    # 2^24 cells from a 1.6 MB spec: refused before the table is built
    row = [1 / 256] * 256
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"initial": row, "t1": [row] * 256, "t2": [row] * 256}))
    code, out, err = run_cli(capsys, "markov", "--spec", str(path))
    assert_input_error(code, out, err, "tables are capped at 4194304 cells, got 16777216")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_exit_2(capsys, value):
    code, out, err = run_cli(capsys, "search", "--werner-threshold", "--tolerance", value)
    assert_input_error(code, out, err, f"tolerance must be positive and finite, got {value}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_base_is_exit_2(capsys, tri_file, value):
    code, out, err = run_cli(capsys, "entropy", "--dist", tri_file, "--base", value)
    assert_input_error(code, out, err, f"base must be finite and > 1, got {value}")


@pytest.mark.parametrize("argv, fragment", [
    (["entropy"], "the following arguments are required: --dist"),
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    (["statmech", "--coins", "5", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["statmech", "--dice", "2", "7", "--mix", "10", "10"], "argument --mix: not allowed with argument --dice"),
    (["search", "--werner-threshold", "--state", "singlet"],
     "argument --state: not allowed with argument --werner-threshold"),
    (["quantum", "--state", "singlet", "--state-file", "rho.json", "--angles", "0,0,0"],
     "argument --state-file: not allowed with argument --state"),
])
def test_usage_error_is_one_line_and_exit_2(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert_input_error(code, out, err, fragment)


DATA = Path(__file__).parent / "data"
# a valid invocation of each subcommand
_VALID_ARGV = {
    "entropy": ["entropy", "--dist", str(DATA / "uniform.json")],
    "inequality": ["inequality", "--dist", str(DATA / "uniform.json")],
    "markov": ["markov", "--spec", str(DATA / "noisy_copy_spec.json")],
    "quantum": ["quantum", "--state", "singlet", "--angles", "0.5,0.5,0.5"],
    "search": ["search", "--state", "singlet", "--resolution", "8", "--no-refine"],
    "statmech": ["statmech", "--dice", "2", "7"],
}
# the flags among --base, --tolerance, --seed and --trace that each subcommand reads
_OWN_FLAGS = {"entropy": {"--base"}, "search": {"--tolerance", "--trace"}, "statmech": {"--seed"}}
_FOREIGN = [(command, flag) for command in sorted(_VALID_ARGV)
            for flag in ("--base", "--tolerance", "--seed", "--trace")
            if flag not in _OWN_FLAGS.get(command, ())]


@pytest.mark.parametrize("command, flag", _FOREIGN)
def test_flag_of_another_subcommand_is_exit_2(capsys, command, flag):
    value = {"--base": ["10"], "--tolerance": ["1e-3"], "--seed": ["1"], "--trace": []}[flag]
    code, out, err = run_cli(capsys, *_VALID_ARGV[command], flag, *value)
    assert_input_error(code, out, err, f"unrecognized arguments: {flag}")


def test_trace_above_cap_is_exit_2_before_any_search(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(entrobound.search, "grid_search", refuse)
    monkeypatch.setattr(entrobound.search, "grid_refine", refuse)
    for extra in (["--no-refine"], []):
        code, out, err = run_cli(capsys, "search", "--state", "singlet", "--resolution", "129", "--trace", *extra)
        assert_input_error(code, out, err, "--trace capped at resolution 128, got 129")


@pytest.mark.parametrize("argv, flag, mode", [
    (["search", "--werner-threshold", "--resolution", "32", "--trace"], "--trace", "--werner-threshold"),
    (["search", "--werner-threshold", "--resolution", "32", "--no-refine"], "--no-refine", "--werner-threshold"),
    (["statmech", "--dice", "2", "7", "--trials", "0"], "--trials", "--dice"),
    (["statmech", "--mix", "10", "10", "--seed", "3"], "--seed", "--mix"),
    (["statmech", "--combine", "6", "5", "--heads", "1"], "--heads", "--combine"),
    (["statmech", "--coins", "5", "--same-species"], "--same-species", "--coins"),
])
def test_flag_the_chosen_mode_ignores_is_exit_2_before_any_work(capsys, monkeypatch, argv, flag, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(entrobound.search, "werner_threshold", refuse)
    for name in ("dice_multiplicity", "combine_multiplicities", "coin_reversal_probability", "mixing_demo"):
        monkeypatch.setattr(entrobound.statmech, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert_input_error(code, out, err, f"{flag} does not apply to {mode}")


def test_statmech_coins_seed_defaults_to_0(capsys):
    code, out, _ = run_cli(capsys, "statmech", "--coins", "5", "--trials", "2000")
    assert code == 0 and json.loads(out)["monte_carlo"]["seed"] == 0
    assert run_cli(capsys, "statmech", "--coins", "5", "--trials", "2000", "--seed", "0") == (0, out, "")


def test_stdout_closed_early_is_quiet_and_keeps_the_exit_code():
    """About 1.5 MB of trace into a pipe that the reader closes after 100 bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(entrobound.__file__).parents[1])}
    argv = ["search", "--state", "werner:0.3", "--resolution", "32", "--no-refine", "--trace"]
    child = subprocess.Popen([sys.executable, "-m", "entrobound", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(), err) == (0, b"")


@pytest.mark.parametrize("argv, first_line", [
    (["--version"], f"entrobound {entrobound.__version__}"),
    (["-h"], "usage: entrobound [-h] [--version]"),
    (["search", "-h"], "usage: entrobound search [-h] [--format {json,csv,human}]"),
])
def test_version_and_help_exit_0(capsys, argv, first_line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == first_line
    assert captured.err == ""


def test_statmech_long_coin_sequence_with_heads(capsys):
    code, out, err = run_cli(capsys, "statmech", "--coins", "2000", "--heads", "3")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["reversal_probability"] == 0 and payload["unordered_probability"] == 0


@pytest.mark.parametrize("extra, fragment", [
    (["--coins", "10001", "--heads", "3"], "coin sequences capped at 10000, got 10001"),
    (["--coins", "1000000000", "--trials", "1"], "coin sequences capped at 10000, got 1000000000"),
    (["--coins", "1000", "--trials", "1000000"], "Monte Carlo capped at 100000000 flips"),
    (["--coins", "5", "--trials", "100", "--seed", "-1"], "seed must be >= 0, got -1"),
    # --trials given means a Monte Carlo run, and --seed alone seeds nothing
    (["--coins", "5", "--trials", "0", "--seed", "3"], "trials must be >= 1, got 0"),
    (["--coins", "5", "--seed", "3"], "--seed does not apply without --trials"),
])
def test_statmech_coin_caps_are_exit_2(capsys, extra, fragment):
    code, out, err = run_cli(capsys, "statmech", *extra)
    assert_input_error(code, out, err, fragment)


# Runs each argv in its own ``python -m entrobound`` and prints {name: [exit code, peak RSS in MB]}.
# On Linux a child's ru_maxrss also counts the RSS high-water mark of the
# process that spawned it, so the children are spawned from this small
# script rather than from the test process.
_PEAK_RSS_SCRIPT = """
import json, os, subprocess, sys
runs = json.loads(sys.argv[1])
children = {name: subprocess.Popen([sys.executable, "-m", "entrobound", *argv],
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for name, argv in runs.items()}
peaks = {}
for name, child in children.items():
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    peaks[name] = [child.returncode, usage.ru_maxrss / 1024]
print(json.dumps(peaks))
"""


def test_trace_output_is_streamed_in_every_format():
    """A res-64 trace (262144 entries) costs no more peak memory than the run without it.

    Holding the trace as nested lists or as one string took 150-300 MB.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(entrobound.__file__).parents[1])}
    search = ["search", "--state", "singlet", "--resolution", "64", "--no-refine"]
    runs = {fmt: search + ["--format", fmt, "--trace"] for fmt in ("json", "csv", "human")}
    runs["untraced"] = search
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    peaks = json.loads(done.stdout)
    assert all(code == 1 for code, _ in peaks.values()), peaks  # the singlet violates
    for fmt in ("json", "csv", "human"):
        assert peaks[fmt][1] < peaks["untraced"][1] + 16, peaks


# --- fuzzed argv and input files -------------------------------------------------
#
# Files are named in argv as "@name" and written once per module; "@missing" is never written.
_FUZZ_FILES = {
    "tri": json.dumps(random_tripartite(np.random.default_rng(5)).to_dict()),
    "counter": json.dumps(triangle_counterexample().to_dict()),
    "pair": json.dumps(JointDistribution.from_flat((2, 2), [0.4, 0.1, 0.1, 0.4]).to_dict()),
    "spec": json.dumps(noisy_copy_spec(0.1).to_dict()),
    "singlet": json.dumps(singlet().to_dict()),
    "inf_dist": _INFINITE_SIZE_FILES["dist"],
    "inf_state": _INFINITE_SIZE_FILES["state"],
    **_NON_INTEGER_SIZE_FILES,
    "nan_dist": '{"alphabet_sizes": [2], "probs": [NaN, 1.0]}',
    "nan_state": json.dumps({"dims": [2, 2], "re": [[math.nan] * 4] * 4, "im": [_ZERO_ROW] * 4}),
    "nan_spec": '{"initial": [0.5, 0.5], "t1": [[NaN, 1], [0, 1]], "t2": [[1, 0], [0, 1]]}',
    "ragged_dist": '{"alphabet_sizes": [2, 2], "probs": [[0.5], [0.25, 0.25]]}',
    "ragged_state": '{"dims": [2, 2], "re": [[0.5, 0], [0.5]], "im": [[0, 0], [0, 0]]}',
    "ragged_spec": '{"initial": [0.5, 0.5], "t1": [[1, 0], [0]], "t2": [[1, 0], [0, 1]]}',
    "list": "[0.5, 0.5]",
    "empty": "",
    "deep": "[" * 100_000,
    "not_utf8": b"\xff\xfe\x00",
}


def _arg(good, bad=()):
    """One flag argument: the values a clean draw takes, and the bad values it adds otherwise."""
    return tuple(good), tuple(bad)


_GOOD_FILES = ("tri", "counter", "pair", "spec", "singlet")
_FILE = _arg((f"@{name}" for name in _GOOD_FILES),
             [f"@{name}" for name in sorted(_FUZZ_FILES) if name not in _GOOD_FILES] + ["@missing"])
# past the interpreter's 4300-digit int-to-str limit when two are multiplied, and past the float range
_HUGE = ("9" * 2200, "9" * 310)
_INDEX = _arg(("0", "1", "2"), ("3", "-1", "x", *_HUGE))
_STATE = _arg(("singlet", "bell-phi-plus", "bell-psi-plus", "werner:0.9", "werner:0.3"),
              ("werner:2", "werner:nan", "werner:x", "ghz", ""))
# flag -> its arguments, none for a switch; search always gets a small or bad --resolution
_FORMAT = {"--format": (_arg(("json", "csv", "human"), ("xml",)),)}
_FLAGS = {
    "entropy": {"--dist": (_FILE,), "--mutual": (_INDEX, _INDEX), "--conditional": (_INDEX, _INDEX),
                "--relative": (_FILE,),
                "--base": (_arg(("2", "10", "2.718281828"), ("1", "0.5", "-3", "inf", "nan", "1e999", "x")),)},
    "inequality": {"--dist": (_FILE,), "--markov-checks": ()},
    "markov": {"--spec": (_FILE,), "--emit-joint": ()},
    "quantum": {"--state": (_STATE,), "--state-file": (_FILE,),
                "--angles": (_arg(("0,0.3927,0.7854", "0.5,0.5,0.5", "0,0,0", "-1,4,9"),
                                  ("nan,0,0", "inf,0,0", "1e999,0,0", "1,2", "a,b,c", "0,1,2,3")),)},
    "search": {"--state": (_STATE,), "--state-file": (_FILE,),
               "--resolution": (_arg(("8", "12", "16"), ("7", "0", "-4", "200", "1025", "x", *_HUGE)),),
               "--no-refine": (), "--werner-threshold": (),
               "--tolerance": (_arg(("1e-3", "1e-6"), ("0", "-1", "nan", "inf", "x")),), "--trace": ()},
    "statmech": {"--dice": (_arg(("2", "6"), ("9", "0", "x", *_HUGE)), _arg(("7", "30"), ("0", "-1", *_HUGE))),
                 "--combine": (_arg(("3", "10" * 15), ("0", "-2", *_HUGE)), _arg(("4", "1"), _HUGE)),
                 "--coins": (_arg(("5", "2000"), ("10001", "0", "x", *_HUGE)),),
                 "--trials": (_arg(("100", "100000"), ("0", "-5", *_HUGE)),),
                 "--seed": (_arg(("0", "7"), ("-1", "x", *_HUGE)),),
                 "--heads": (_arg(("0", "3"), ("6", "-1", *_HUGE)),),
                 "--mix": (_arg(("1", "20"), ("60", "0", "x", *_HUGE)), _arg(("1", "20"), _HUGE)),
                 "--same-species": ()},
}


# the required choices: a clean draw names exactly one of them
_EXCLUSIVE = {"quantum": ("--state", "--state-file"),
              "search": ("--state", "--state-file", "--werner-threshold"),
              "statmech": ("--dice", "--combine", "--coins", "--mix")}
_ANY_FLAG = {flag: arguments for flags in _FLAGS.values() for flag, arguments in flags.items()}


@st.composite
def _argv(draw):
    """A subcommand and a random subset of its flags.

    A clean draw takes only good values and one of each required choice; any
    other draw may add a flag that only another subcommand reads.
    """
    command = draw(st.sampled_from(sorted(_FLAGS)))
    clean = draw(st.booleans())
    flags = {**_FLAGS[command], **_FORMAT}
    always = {"--resolution"}
    if clean and command in _EXCLUSIVE:
        choice = draw(st.sampled_from(_EXCLUSIVE[command]))
        always.add(choice)
        flags = {f: a for f, a in flags.items() if f == choice or f not in _EXCLUSIVE[command]}
    elif not clean and draw(st.booleans()):
        foreign = draw(st.sampled_from(sorted(set(_ANY_FLAG) - set(flags))))
        flags[foreign] = _ANY_FLAG[foreign]
    argv = [command]
    for flag, arguments in flags.items():
        if flag in always or draw(st.booleans()):
            argv.append(flag)
            argv += [draw(st.sampled_from(good if clean else good + bad)) for good, bad in arguments]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FUZZ_FILES.items():
        path = root / f"{name}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return root


@settings(max_examples=200, deadline=None)
@example(argv=["entropy", "--dist", "@inf_dist"])
@example(argv=["quantum", "--state-file", "@inf_state", "--angles", "0,0,0"])
@example(argv=["entropy", "--dist", "@fraction_dist"])
@example(argv=["inequality", "--dist", "@tri", "--base", "10"])
@example(argv=["statmech", "--combine", "9" * 2200, "9" * 2200])  # a product past printing
@example(argv=["statmech", "--coins", "9" * 310])  # 2.0 ** -n past the float range
@given(argv=_argv())
def test_main_keeps_its_exit_contract_on_any_input(fuzz_dir, argv):
    """0, 1 or 2 and nothing raised; 2 is one ``error:`` line; 1 only with a violation."""
    argv = [str(fuzz_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == "" and out
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        payload = json.loads(out)
        violated = payload.get("violations", 0) > 0 or payload.get("result", {}).get("violation_found", False)
        assert violated is (code == 1)

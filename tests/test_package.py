"""The package namespace: lazy public names, which runs load numpy, its immutable values and its argument rules."""
import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrobound

# Runs ``python -m entrobound`` with the given arguments (or only imports the
# package when there are none), then reports the exit code and whether numpy
# dataclasses and csv were loaded, as the last stderr line.
_PROBE = """
import runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("entrobound", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import entrobound
print(code, "numpy" in sys.modules, "dataclasses" in sys.modules, "csv" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--version"], 0),
    (["statmech", "--dice", "2", "7"], 0),
    (["statmech", "--combine", "6", "5", "--format", "csv"], 0),
    (["statmech", "--mix", "10", "10", "--format", "human"], 0),
    (["statmech", "--coins", "6", "--heads", "3"], 0),
    (["entropy", "--dist", "{tmp}/missing.json"], 2),
    (["inequality", "--dist", "{tmp}/bad.json"], 2),
    # the classical side is stdlib-only
    (["entropy", "--dist", "{data}/random.json"], 0),
    (["entropy", "--dist", "{data}/nonbinary.json", "--mutual", "0", "2"], 0),
    (["entropy", "--dist", "{data}/random.json", "--conditional", "2", "1", "--format", "csv"], 0),
    (["entropy", "--dist", "{data}/random.json", "--relative", "{data}/uniform.json"], 0),
    (["inequality", "--dist", "{data}/random.json", "--markov-checks", "--format", "human"], 0),
    (["markov", "--spec", "{data}/nonbinary_spec.json", "--emit-joint"], 0),
    (["entropy", "--dist", "{tmp}/negative.json"], 2),
    # bad quantum and search arguments are refused before the state is built
    (["quantum", "--state", "nosuch", "--angles", "0,0.5,1.0"], 2),
    (["quantum", "--state", "werner:abc", "--angles", "0,0.5,1.0"], 2),
    (["quantum", "--state", "singlet", "--angles", "0,1,nan"], 2),
    (["search", "--state", "singlet", "--resolution", "4", "--no-refine"], 2),
    (["search", "--state", "singlet", "--resolution", "2000", "--no-refine"], 2),
], ids=["import", "version", "dice", "combine", "mix", "coins-heads", "missing-file", "bad-json", "entropy-joint",
        "entropy-mutual", "entropy-conditional", "entropy-relative", "inequality-markov", "markov-joint",
        "negative-probability", "unknown-state", "werner-not-a-number", "non-finite-angle", "resolution-4",
        "resolution-2000"])
def test_runs_without_array_work_never_load_numpy(tmp_path, argv, code):
    """No run here loads numpy; none but inequality and markov (frozen dataclass values) loads dataclasses.

    csv is loaded only to write CSV reports, so no run without ``--format csv`` loads it.
    """
    (tmp_path / "bad.json").write_text('{"alphabet_sizes": [2, 2], "probs": [0.5,', encoding="utf-8")
    (tmp_path / "negative.json").write_text('{"alphabet_sizes": [2], "probs": [1.5, -0.5]}', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(entrobound.__file__).parents[1])}
    data = Path(__file__).parent / "data"
    argv = [a.format(tmp=tmp_path, data=data) for a in argv]
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    exit_code, numpy_loaded, dataclasses_loaded, csv_loaded = done.stderr.splitlines()[-1].split()
    assert (exit_code, numpy_loaded) == (str(code), "False")
    if argv[:1] not in (["inequality"], ["markov"]):
        assert dataclasses_loaded == "False", argv
    if "--format" not in argv or argv[argv.index("--format") + 1] != "csv":
        assert csv_loaded == "False", argv


def test_every_public_name_is_its_defining_modules_object():
    namespace = dir(entrobound)
    for name in entrobound.__all__:
        obj = getattr(entrobound, name)
        assert name in namespace
        if name == "__version__":
            assert obj == "0.1.0"
        elif inspect.ismodule(obj):
            assert obj is sys.modules[f"entrobound.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj
            assert obj.__module__.startswith("entrobound.")


def test_star_import_and_submodule_attributes():
    namespace = {}
    exec("from entrobound import *", namespace)
    assert set(entrobound.__all__) <= set(namespace)
    for module in ("cli", "dist", "entropy", "inequalities", "markov", "quantum", "search", "statmech", "value"):
        assert getattr(entrobound, module) is sys.modules[f"entrobound.{module}"]
    with pytest.raises(AttributeError):
        entrobound.no_such_name


def test_immutable_values_copy_and_pickle_exactly():
    d = entrobound.JointDistribution.from_flat((3,), [0.1, 0.2, 0.7])
    values = [d, entrobound.EntropyValue(1.5, 2.0), entrobound.MacrostateSpec("two dice totaling 7", 6)]
    for obj in values:
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj)
            assert [getattr(clone, n) for n in obj.__slots__] == [getattr(obj, n) for n in obj.__slots__]
            with pytest.raises(AttributeError):
                setattr(clone, obj.__slots__[0], None)
    assert values[1] == copy.copy(values[1]) and hash(values[2]) == hash(copy.deepcopy(values[2]))


_REAL_ARGUMENTS = {
    "werner_state": lambda v: entrobound.werner_state(v),
    "angle": lambda v: entrobound.MeasurementSettings((0.0, 1.0, v)),
    "pair_mi_table": lambda v: entrobound.pair_mi_table(entrobound.singlet(), [0.5], [v]),
    "refine-tol": lambda v: entrobound.refine(entrobound.singlet(), entrobound.MeasurementSettings((0, 0, 0)), tol=v),
    "werner_threshold-tol": lambda v: entrobound.werner_threshold(32, v),
    "classical-bound": lambda v: entrobound.cerf_adami_classical(entrobound.JointDistribution.uniform((2, 2, 2)),
                                                                 bound=v),
    "check-bound": lambda v: entrobound.cerf_adami_check(*[entrobound.EntropyValue(0.1)] * 3, bound=v),
    "check-mutual-information": lambda v: entrobound.cerf_adami_check(
        entrobound.EntropyValue(v), entrobound.EntropyValue(0.1), entrobound.EntropyValue(0.1)),
    "shannon-base": lambda v: entrobound.shannon_entropy(entrobound.JointDistribution.uniform((2,)), v),
    "boltzmann-base": lambda v: entrobound.boltzmann_entropy(4, v),
}


@pytest.mark.parametrize("call, value", [
    (call, value) for call in sorted(_REAL_ARGUMENTS) for value in (True, "0.5", None, 1j)
    if not (call == "classical-bound" and value is None)  # bound=None asks for the default bound of 1
])
def test_a_real_argument_must_be_a_real_number(call, value):
    # float() alone read True as 1 and "0.5" as 0.5, and raised a bare TypeError on None and 1j
    with pytest.raises(entrobound.errors.EntroboundError, match=re.escape(f"must be real numbers, got {value!r}")):
        _REAL_ARGUMENTS[call](value)


@pytest.mark.parametrize("call, error", [
    (lambda: entrobound.werner_state(10 ** 400), entrobound.errors.ValidationError),
    (lambda: entrobound.JointDistribution.from_flat((2,), [10 ** 400, 0]), entrobound.errors.ValidationError),
    (lambda: entrobound.MarkovChainSpec(entrobound.JointDistribution.uniform((1,)), [[10 ** 400]], [[1.0]]),
     entrobound.errors.InvalidSpecError),
    (lambda: entrobound.MeasurementSettings((10 ** 400, 0, 0)), entrobound.errors.ValidationError),
], ids=["werner", "distribution", "spec-row", "settings"])
def test_an_integer_past_the_float_range_raises_the_callers_error(call, error):
    # float() raised a bare OverflowError on each of these
    with pytest.raises(error, match="must lie within the float range"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: entrobound.maximally_mixed(10 ** 400, 2), entrobound.errors.InvalidDensityMatrixError),
    (lambda: entrobound.maximally_mixed(2 ** 40, 2), entrobound.errors.InvalidDensityMatrixError),
    (lambda: entrobound.maximally_mixed(-10 ** 5000, 2), entrobound.errors.InvalidDensityMatrixError),
    (lambda: entrobound.DensityMatrix(2, 1, [np.zeros((2, 2)), np.zeros((2, 3))]), entrobound.errors.ValidationError),
    (lambda: entrobound.dpi_check(entrobound.JointDistribution.uniform((2, 2, 2)), np.array([1, 0])),
     entrobound.errors.ValidationError),
    (lambda: entrobound.mixing_demo(2, 3, np.array([1, 0])), entrobound.errors.ValidationError),
], ids=["huge-density-matrix", "oversized-density-matrix", "huge-negative-dimension", "ragged-entries",
        "array-markov-flag", "array-species-flag"])
def test_oversized_ragged_and_array_arguments_raise_package_errors(call, error):
    # numpy raised a bare ValueError on each: np.eye past its size limit, a ragged object array, bool() of an array
    # (str() of the -10**5000 in the message did too)
    with pytest.raises(error):
        call()


_UNIFORM3 = entrobound.JointDistribution.uniform((2, 2, 2))


@pytest.mark.parametrize("call, error", [
    (lambda: entrobound.JointDistribution.uniform(2), entrobound.errors.ShapeMismatchError),
    (lambda: entrobound.JointDistribution.from_flat(2, [1.0, 0.0]), entrobound.errors.ShapeMismatchError),
    (lambda: entrobound.JointDistribution(None, [1.0]), entrobound.errors.ShapeMismatchError),
    (lambda: entrobound.JointDistribution.point_mass((2, 2), 0), entrobound.errors.IndexOutOfRangeError),
    (lambda: entrobound.marginalize(_UNIFORM3, 0), entrobound.errors.ValidationError),
    (lambda: entrobound.mix(0, [1.0]), entrobound.errors.ValidationError),
    (lambda: entrobound.is_markov(_UNIFORM3, 0), entrobound.errors.InvalidPermutationError),
    (lambda: entrobound.is_markov(_UNIFORM3, [[0], 1, 2]), entrobound.errors.InvalidPermutationError),
    (lambda: entrobound.MeasurementSettings(0.5), entrobound.errors.ValidationError),
    (lambda: entrobound.pair_mi_table(entrobound.singlet(), 0.5, 0.5), entrobound.errors.ValidationError),
], ids=["uniform-int-sizes", "from_flat-int-sizes", "none-sizes", "point_mass-int-outcome", "marginalize-int-keep",
        "mix-int-components", "is_markov-int-order", "is_markov-nested-order", "settings-one-angle",
        "pair_mi_table-scalar-angles"])
def test_a_sequence_argument_given_a_scalar_or_none_raises_the_sites_error(call, error):
    # tuple() or iteration raised a bare TypeError on each, and a list entry made the order lookup unhashable
    with pytest.raises(error):
        call()

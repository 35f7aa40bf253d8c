"""The library's error contract, checked by one sweep.

Every public callable and every ``from_dict`` gets one valid call, and then
each hostile value in each argument in turn (a ``from_dict`` also in each
field of its payload).  A bad value of a documented kind raises an
EntroboundError; anything else escaping fails the sweep, except where an
argument takes one of the package's own objects: an object of the wrong
class there is a programmer's error, and these arguments are declared.
"""
import math

import numpy as np
import pytest

import entrobound as eb
from entrobound.errors import EntroboundError, InvalidDensityMatrixError, InvalidSpecError, ValidationError

from conftest import nested


_HOSTILE = (
    None, True, False, 0, -1, 2.5, 10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, 1j,
    "", "2", "abc", b"\x00", [], [[]], [1, [2]], [[0.5, 0.5], [1.0]], nested(40), nested(70), {}, {"a": 1}, (),
    np.array(0.5), np.zeros(0), np.full((2, 3), np.nan), np.array(["a", "b"]), np.zeros((2, 2, 2)),
    np.array([1, [2]], dtype=object), object(),
)

_D1 = eb.JointDistribution.uniform((2,))
_D3 = eb.JointDistribution.uniform((2, 2, 2))
_RHO = eb.singlet()
_SETTINGS = eb.MeasurementSettings((0.0, 0.4, 0.8))
_H = eb.EntropyValue(0.1)
_IDENTITY = ((1.0, 0.0), (0.0, 1.0))
_SPEC = eb.MarkovChainSpec(_D1, _IDENTITY, _IDENTITY)
_MACROSTATE = eb.MacrostateSpec("six", 6)

# name -> one valid call's keyword arguments
_CALLS = {
    "JointDistribution": {"alphabet_sizes": (2,), "probs": [0.5, 0.5]},
    "marginalize": {"d": _D3, "keep": (0,)},
    "product": {"d1": _D1, "d2": _D1},
    "mix": {"components": [_D1, _D1], "weights": [0.5, 0.5]},
    "validate": {"d": _D1},
    "validate_table": {"alphabet_sizes": (2,), "probs": [0.5, 0.5]},
    "EntropyValue": {"value": 1.0, "base": 2.0},
    "boltzmann_entropy": {"multiplicity": 4, "base": 2.0},
    "convert_base": {"e": _H, "new_base": 10.0},
    "shannon_entropy": {"d": _D3, "base": 2.0},
    "relative_entropy": {"d": _D1, "ref": _D1, "base": 2.0},
    "mutual_entropy": {"d": _D3, "var_x": 0, "var_y": 1},
    "conditional_entropy": {"d": _D3, "target": 0, "given": 1},
    "mixing_entropy": {"components": [_D1, _D1], "weights": [0.5, 0.5], "after": _D1},
    "entropy_vector": {"d": _D3},
    "InequalityReport": {"name": "r", "lhs": 0.5, "rhs": 1.0, "terms": {}, "meta": None},
    "triangle_check": {"d": _D3},
    "joint_triangle_check": {"d": _D3},
    "two_hb_bound_check": {"d": _D3},
    "narrowed_bound_check": {"d": _D3},
    "cerf_adami_check": {"hab": _H, "hac": _H, "hbc": _H, "bound": 1.0, "source": "s"},
    "cerf_adami_classical": {"d": _D3, "pivot": 0, "bound": None},
    "marginal_bound": {"d": _D3, "pivot": None},
    "dpi_check": {"d": _D3, "markov_certified": True},
    "reports_to_csv": {"reports": [eb.cerf_adami_check(_H, _H, _H)]},
    "MarkovChainSpec": {"initial": _D1, "t1": _IDENTITY, "t2": _IDENTITY},
    "build_tripartite": {"spec": _SPEC},
    "conditional_mutual_information": {"d": _D3, "x": 0, "y": 2, "given": 1},
    "is_markov": {"d": _D3, "order": (0, 1, 2)},
    "DensityMatrix": {"dim_a": 2, "dim_b": 2, "matrix": np.eye(4) / 4},
    "MeasurementSettings": {"angles": (0.0, 0.4, 0.8)},
    "partial_trace": {"rho": _RHO, "keep": 0},
    "von_neumann_entropy": {"rho": _RHO, "base": 2.0},
    "conditional_quantum_entropy": {"rho": _RHO, "target": 1, "given": 0},
    "is_entangled_pure": {"rho": _RHO},
    "measure_pair": {"rho": _RHO, "angle_1": 0.0, "angle_2": 0.5},
    "pair_mi_table": {"rho": _RHO, "angles_x": [0.0, 0.5], "angles_y": [0.5]},
    "cerf_adami_quantum": {"rho": _RHO, "settings": _SETTINGS},
    "singlet": {},
    "bell_state": {"name": "phi+"},
    "werner_state": {"p": 0.5},
    "pure_state": {"amplitudes": [1.0, 0.0, 0.0, 1.0], "dims": (2, 2)},
    "product_state": {"rho_a": np.eye(2) / 2, "rho_b": np.eye(2) / 2},
    "maximally_mixed": {"dim_a": 2, "dim_b": 2},
    "SearchResult": {"best_settings": _SETTINGS, "best_lhs": 0.5, "trace": (), "grid_resolution": 8,
                     "refined": False},
    "grid_search": {"rho": _RHO, "resolution": 8},
    "refine": {"rho": _RHO, "start": _SETTINGS, "tol": 0.1, "resolution": 8},
    "grid_refine": {"rho": _RHO, "resolution": 8, "tol": 0.1},
    "werner_threshold": {"resolution": 32, "tol": 0.25},
    "MacrostateSpec": {"description": "six", "multiplicity": 6},
    "dice_multiplicity": {"num_dice": 2, "total": 7},
    "combine_multiplicities": {"a": _MACROSTATE, "b": _MACROSTATE},
    "coin_reversal_probability": {"sequence_length": 5},
    "coin_reversal_unordered_probability": {"sequence_length": 5, "target_heads": 2},
    "coin_reversal_monte_carlo": {"sequence_length": 5, "trials": 10, "seed": 0},
    "mixing_demo": {"n_a": 2, "n_b": 3, "same_species": False},
}
# each reader's class and a valid payload, swept as a whole and field by field
_READERS = {
    "JointDistribution.from_dict": (eb.JointDistribution, _D1.to_dict()),
    "MarkovChainSpec.from_dict": (eb.MarkovChainSpec, _SPEC.to_dict()),
    "DensityMatrix.from_dict": (eb.DensityMatrix, _RHO.to_dict()),
}

# The arguments that take the package's own objects (a distribution, a state, settings, an entropy value, a
# report, a spec, a macrostate) or a sequence of them.  Given anything else, they may raise what Python raises.
_WRONG_CLASS = {
    "marginalize": {"d"}, "product": {"d1", "d2"}, "mix": {"components"}, "validate": {"d"},
    "convert_base": {"e"}, "shannon_entropy": {"d"}, "relative_entropy": {"d", "ref"}, "mutual_entropy": {"d"},
    "conditional_entropy": {"d"}, "mixing_entropy": {"components", "after"}, "entropy_vector": {"d"},
    "triangle_check": {"d"}, "joint_triangle_check": {"d"}, "two_hb_bound_check": {"d"},
    "narrowed_bound_check": {"d"}, "cerf_adami_check": {"hab", "hac", "hbc"}, "cerf_adami_classical": {"d"},
    "marginal_bound": {"d"}, "dpi_check": {"d"}, "reports_to_csv": {"reports"}, "MarkovChainSpec": {"initial"},
    "build_tripartite": {"spec"}, "conditional_mutual_information": {"d"}, "is_markov": {"d"},
    "partial_trace": {"rho"}, "von_neumann_entropy": {"rho"}, "conditional_quantum_entropy": {"rho"},
    "is_entangled_pure": {"rho"}, "measure_pair": {"rho"}, "pair_mi_table": {"rho"},
    "cerf_adami_quantum": {"rho", "settings"}, "grid_search": {"rho"}, "refine": {"rho", "start"},
    "grid_refine": {"rho"}, "combine_multiplicities": {"a", "b"},
}


def _calls(name):
    """``name``'s function, its valid keyword arguments and its hostile calls, as (argument, value, kwargs)."""
    if name in _READERS:
        cls, payload = _READERS[name]
        hostile = [("payload", v, {"payload": v}) for v in _HOSTILE]
        hostile += [(f"payload[{key!r}]", v, {"payload": {**payload, key: v}}) for key in payload for v in _HOSTILE]
        return cls.from_dict, {"payload": payload}, hostile
    kwargs = _CALLS[name]
    return getattr(eb, name), kwargs, [(arg, v, {**kwargs, arg: v}) for arg in kwargs for v in _HOSTILE]


def test_every_public_callable_has_a_valid_call():
    public = {name for name in eb.__all__ if callable(getattr(eb, name))}
    assert public == set(_CALLS)
    assert set(_WRONG_CLASS) <= public


@pytest.mark.parametrize("name", [*_CALLS, *_READERS])
def test_a_bad_argument_raises_only_package_errors(name):
    function, valid, hostile = _calls(name)
    function(**valid)
    escaped = {}
    for arg, value, kwargs in hostile:
        try:
            function(**kwargs)
        except EntroboundError:
            pass
        except Exception as exc:  # whatever escapes, the first per argument, is reported
            escaped.setdefault(arg, f"{type(exc).__name__} for {value!r:.60}")
    declared = _WRONG_CLASS.get(name, set())
    assert {arg: why for arg, why in escaped.items() if arg not in declared} == {}
    assert declared <= set(escaped), "a declared wrong-class argument no longer escapes: take it off the list"


@pytest.mark.parametrize("name, error", [
    ("JointDistribution.from_dict", ValidationError),
    ("MarkovChainSpec.from_dict", InvalidSpecError),
    ("DensityMatrix.from_dict", InvalidDensityMatrixError),
])
def test_a_payload_that_is_not_a_dict_or_lacks_a_key_raises_its_readers_error(name, error):
    cls, payload = _READERS[name]
    with pytest.raises(error, match="must be a JSON object \\(a dict\\), got a list"):
        cls.from_dict(list(payload.values()))
    for key in payload:
        with pytest.raises(error, match=f"must have the key '{key}'"):
            cls.from_dict({k: v for k, v in payload.items() if k != key})

"""Entropic quantities over finite systems and Cerf-Adami inequality checks.

Classical side: joint distributions, Shannon / relative / mutual entropies,
the data-processing and triangle inequalities, and the Cerf-Adami bound
|H(A:B) - H(A:C)| + H(B:C) <= 1.  Quantum side: a small two-qubit
density-matrix engine, von Neumann entropies, and a deterministic search
over measurement settings for violations of the classical bound.

Imports are lazy (PEP 562): ``import entrobound`` loads no submodule but
:mod:`~entrobound.errors`, and each public name imports its defining module
on first access.  Importing numpy costs several times the rest of the
package, and the exact-integer statistical mechanics never needs it, so a
command-line run pays only for the modules its command computes with.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Each public name, grouped by the module that defines it.
_EXPORTS = {
    "dist": ("JointDistribution", "marginalize", "product", "mix", "validate", "validate_table"),
    "value": ("EntropyValue", "boltzmann_entropy", "convert_base"),
    "entropy": ("shannon_entropy", "relative_entropy", "mutual_entropy", "conditional_entropy",
                "mixing_entropy", "entropy_vector"),
    "inequalities": ("InequalityReport", "triangle_check", "joint_triangle_check", "two_hb_bound_check",
                     "narrowed_bound_check", "cerf_adami_check", "cerf_adami_classical", "marginal_bound",
                     "dpi_check", "reports_to_csv"),
    "markov": ("MarkovChainSpec", "build_tripartite", "conditional_mutual_information", "is_markov"),
    "quantum": ("DensityMatrix", "MeasurementSettings", "partial_trace", "von_neumann_entropy",
                "conditional_quantum_entropy", "is_entangled_pure", "measure_pair", "pair_mi_table",
                "cerf_adami_quantum", "singlet", "bell_state", "werner_state", "pure_state", "product_state",
                "maximally_mixed"),
    "search": ("SearchResult", "grid_search", "refine", "grid_refine", "werner_threshold"),
    "statmech": ("MacrostateSpec", "dice_multiplicity", "combine_multiplicities", "coin_reversal_probability",
                 "coin_reversal_unordered_probability", "coin_reversal_monte_carlo", "mixing_demo"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = ["__version__", "errors", *_ORIGIN]


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

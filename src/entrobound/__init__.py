"""Entropic quantities over finite systems and Cerf-Adami inequality checks.

Classical side: joint distributions, Shannon / relative / mutual entropies,
the data-processing and triangle inequalities, and the Cerf-Adami bound
|H(A:B) - H(A:C)| + H(B:C) <= 1.  Quantum side: a small two-qubit
density-matrix engine, von Neumann entropies, and a deterministic search
over measurement settings for violations of the classical bound.
"""

__version__ = "0.1.0"

from .dist import JointDistribution, marginalize, mix, product, validate, validate_table
from .entropy import (
    EntropyValue,
    boltzmann_entropy,
    conditional_entropy,
    convert_base,
    entropy_vector,
    mixing_entropy,
    mutual_entropy,
    relative_entropy,
    shannon_entropy,
)
from .inequalities import (
    InequalityReport,
    cerf_adami_check,
    cerf_adami_classical,
    dpi_check,
    joint_triangle_check,
    marginal_bound,
    narrowed_bound_check,
    reports_to_csv,
    triangle_check,
    two_hb_bound_check,
)
from .markov import (
    MarkovChainSpec,
    build_tripartite,
    conditional_mutual_information,
    is_markov,
)
from .quantum import (
    DensityMatrix,
    MeasurementSettings,
    bell_state,
    cerf_adami_quantum,
    conditional_quantum_entropy,
    is_entangled_pure,
    maximally_mixed,
    measure_pair,
    pair_mi_table,
    partial_trace,
    product_state,
    pure_state,
    singlet,
    von_neumann_entropy,
    werner_state,
)
from .search import SearchResult, grid_refine, grid_search, refine, werner_threshold
from .statmech import (
    MacrostateSpec,
    coin_reversal_monte_carlo,
    coin_reversal_probability,
    coin_reversal_unordered_probability,
    combine_multiplicities,
    dice_multiplicity,
    mixing_demo,
)
from . import errors

__all__ = [
    "__version__",
    "errors",
    # distributions
    "JointDistribution", "marginalize", "product", "mix", "validate", "validate_table",
    # entropies
    "EntropyValue", "shannon_entropy", "relative_entropy", "mutual_entropy",
    "conditional_entropy", "boltzmann_entropy", "convert_base", "mixing_entropy", "entropy_vector",
    # inequality checks
    "InequalityReport", "triangle_check", "joint_triangle_check", "two_hb_bound_check",
    "narrowed_bound_check", "cerf_adami_check", "cerf_adami_classical", "marginal_bound",
    "dpi_check", "reports_to_csv",
    # Markov chains
    "MarkovChainSpec", "build_tripartite", "conditional_mutual_information", "is_markov",
    # quantum
    "DensityMatrix", "MeasurementSettings", "partial_trace", "von_neumann_entropy",
    "conditional_quantum_entropy", "is_entangled_pure", "measure_pair", "pair_mi_table",
    "cerf_adami_quantum",
    "singlet", "bell_state", "werner_state", "pure_state", "product_state", "maximally_mixed",
    # violation search
    "SearchResult", "grid_search", "refine", "grid_refine", "werner_threshold",
    # statistical mechanics
    "MacrostateSpec", "dice_multiplicity", "combine_multiplicities",
    "coin_reversal_probability", "coin_reversal_unordered_probability",
    "coin_reversal_monte_carlo", "mixing_demo",
]

"""Randomized pairwise orthogonalization of unit-column matrices.

Sample an ordered pair of columns, replace the first by its component
orthogonal to the second, renormalize, repeat. This package provides the
update and its diagnostics (leave-one-out distances, the potential
-sum log d_j, singular values, condition number), closed-form evaluators
for the convergence bounds governing the process, seeded Monte Carlo
ensembles that certify those bounds empirically, matrix generators across
conditioning regimes, and a Kaczmarz co-solver that orthogonalizes the
system while solving it.
"""

from .bounds import (
    ConvergenceTarget,
    c_n,
    f_map,
    inflection,
    kappa_bounds_from_phi,
    prop_a0_bound,
    stopping_tail,
    theorem1_steps,
    theorem7_bound,
)
from .cosolve import (
    CosolveRecord,
    CosolveState,
    initial_state,
    kaczmarz_step,
    orth_with_rhs,
    run_cosolve,
)
from .errors import (
    ChainAbortError,
    ConstructionError,
    DegeneratePairError,
    DomainError,
    PairOrthError,
    SingularityError,
    UsageError,
)
from .generators import GeneratorSpec, generate, haar_factor
from .matrix import (
    ColumnMatrix,
    PairIndex,
    build_unit_column_matrix,
    gram_offdiag_fro,
    inner,
    orth_step,
)
from .metrics import (
    HadamardReport,
    MetricsSnapshot,
    condition_number,
    hadamard_report,
    leave_one_out_distances,
    potential_phi,
    snapshot,
)
from .oracle import (
    brute_force_distance,
    exact_one_step_expectation,
    highprec_bound_reference,
    verify_lemma3,
)
from .process import (
    EnsembleStats,
    Trajectory,
    derive_replicate_seed,
    detect_t_star,
    make_rng,
    run_chain,
    run_ensemble,
    sample_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ChainAbortError",
    "ColumnMatrix",
    "ConstructionError",
    "ConvergenceTarget",
    "CosolveRecord",
    "CosolveState",
    "DegeneratePairError",
    "DomainError",
    "EnsembleStats",
    "GeneratorSpec",
    "HadamardReport",
    "MetricsSnapshot",
    "PairIndex",
    "PairOrthError",
    "SingularityError",
    "Trajectory",
    "UsageError",
    "build_unit_column_matrix",
    "brute_force_distance",
    "c_n",
    "condition_number",
    "derive_replicate_seed",
    "detect_t_star",
    "exact_one_step_expectation",
    "f_map",
    "generate",
    "gram_offdiag_fro",
    "haar_factor",
    "hadamard_report",
    "highprec_bound_reference",
    "inflection",
    "initial_state",
    "inner",
    "kaczmarz_step",
    "kappa_bounds_from_phi",
    "leave_one_out_distances",
    "make_rng",
    "orth_step",
    "orth_with_rhs",
    "potential_phi",
    "prop_a0_bound",
    "run_chain",
    "run_cosolve",
    "run_ensemble",
    "sample_pair",
    "snapshot",
    "stopping_tail",
    "theorem1_steps",
    "theorem7_bound",
    "verify_lemma3",
]

"""Exact simulation and analysis of the quantum walk for l-subset finding.

Two engines run the same (W^t1 P)^t2 loop, from algorithm: full_sim
carries the complete state vector over (subset, coin) pairs and is the
ground truth at small n; reduced_sim works in the (2l+1)-dimensional
symmetric subspace and is exact at n up to 10^6 and beyond.  spectral
verifies the eigenstructure both engines rely on, cost_model picks
parameters and fits query-complexity exponents, and instances supplies
the problem generators and the classical brute-force scan.
"""
from .algorithm import RunReport
from .combinat import (
    NormConstants,
    a_side_labels,
    b_side_labels,
    binomial,
    norm_constants,
    rank_subset,
    unrank_subset,
)
from .cost_model import (
    MSS,
    RECURSIVE,
    SIMPLE,
    CliqueCostRow,
    OptimizeResult,
    ParameterChoice,
    choose_parameters,
    clique_cost,
    mss_walk_size,
    nint,
    optimize_m,
    oracle_queries,
    table1,
    table1_csv,
)
from .full_sim import (
    DEFAULT_MEMCAP,
    FullState,
    MemoryCapError,
    WalkContext,
    apply_coin1,
    apply_coin2,
    apply_phase_flip,
    apply_shift,
    apply_walk_step,
    get_context,
    measure_sample,
    memory_cap,
    prepare_s,
    run_algorithm,
)
from .instances import (
    ITEM,
    PAIRWISE,
    FindResult,
    MarkedSet,
    ProblemInstance,
    find_marked,
    instance_from_json,
    instance_to_json,
    load_instance,
    make_family,
    pair_index,
)
from .reduced_sim import (
    ReducedBasis,
    apply_phase_flip_reduced,
    build_walk_matrix,
    coin1_matrix,
    coin2_matrix_b,
    embed_to_full,
    reduced_s,
    run_reduced,
    shift_permutation,
)
from .spectral import (
    DeltaDecomposition,
    RootBracketError,
    RotationReport,
    UnitaryEigen,
    UPSpectrum,
    WalkSpectrumReport,
    algorithm_rotation,
    circular_phase_gap,
    delta_decomposition,
    eigendecompose_unitary,
    up_eigenphases,
    walk_spectrum,
)

__version__ = "0.1.0"

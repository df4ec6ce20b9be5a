"""Exact simulation and analysis of the quantum walk for l-subset finding.

Two engines run the same (W^t1 P)^t2, from algorithm: full_sim carries
the complete state vector over (subset, coin) pairs step by step and is
the ground truth at small n; reduced_sim works in the symmetric subspace
of at most 2l+1 dimensions by two float matrix powers, and refuses a run
past the error bound run_reduced states.  spectral verifies
the eigenstructure both engines rely on, cost_model picks parameters
and fits query-complexity exponents, and instances supplies the problem
generators and the classical brute-force scan.

The public names below load their module, and numpy with the engines,
on first use: `import johnson_walk` alone imports no submodule.
"""
import importlib

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in {
    "algorithm": "RunReport",
    "combinat": "norm_constants",
    "cost_model": "ITEM PAIRWISE MSS RECURSIVE SIMPLE CliqueCostRow "
                  "OptimizeResult ParameterChoice choose_parameters "
                  "clique_cost nint optimize_m oracle_queries table1",
    "full_sim": "DEFAULT_MEMCAP FullState MemoryCapError WalkContext "
                "apply_coin1 apply_coin2 apply_phase_flip apply_shift "
                "apply_walk_step get_context memory_cap prepare_s "
                "run_algorithm",
    "instances": "GenerationError MarkedSet ProblemInstance find_marked "
                 "instance_from_json instance_to_json load_instance "
                 "make_family pair_index",
    "reduced_sim": "ReducedBasis build_walk_matrix coin_deltas "
                   "embed_to_full reduced_s run_reduced",
    "spectral": "DeltaDecomposition RootBracketError RotationReport "
                "UnitaryEigen UPSpectrum WalkSpectrumReport algorithm_rotation "
                "circular_phase_gap delta_decomposition eigendecompose_unitary "
                "up_eigenphases walk_spectrum",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Look a public name up in its module on every access.  Nothing is
    cached here, so a rebinding in the defining module is what the next
    lookup sees."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                   name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

"""Walk through a small element-distinctness instance with both engines.

A 9-element table with one repeated value is searched for its colliding
pair by the quantum walk.  The full engine carries all C(9,4)*5 = 630
(subset, coin) amplitudes; the reduced engine carries five.  They
must agree to machine precision, and the walk amplifies the success
probability well above the uniform baseline.
"""
import numpy as np

from johnson_walk import (
    ReducedBasis, build_walk_matrix, choose_parameters, embed_to_full,
    make_family, norm_constants, oracle_queries, reduced_s, run_algorithm,
    run_reduced,
)

inst = make_family("element-distinctness", n=9, seed=1)
(marked,) = inst.marked_sets  # the generator plants exactly one
print("instance values:", inst.values)
print("marked pair:", marked.indices, "(unique)")

params = choose_parameters(9, 2)
print(f"\nparameters: m={params.m}, t1={params.t1}, t2={params.t2}, "
      f"budget={oracle_queries(params.m, params.t1, params.t2)} queries")

weights, total = norm_constants(9, params.m, 2)
baseline = weights[(2, 0)] / total
print(f"uniform baseline c_(l,0)/c = {baseline:.6f}")

full = run_algorithm(inst, params.m, params.t1, params.t2)
print(f"\nfull engine:    success = {full.success_probability:.12f} "
      f"({full.query_count} queries used)")

basis = ReducedBasis(9, params.m, 2)
reduced = run_reduced(basis, params.t1, params.t2)
print(f"reduced engine: success = {reduced.success_probability:.12f}")
print(f"amplification over baseline: {full.success_probability / baseline:.2f}x")

# embed the 5-component reduced state back into the 630-amplitude space
embedded = embed_to_full(reduced.final_state, basis, marked,
                         full.final_state.ctx)
dev = np.max(np.abs(embedded - full.final_state.amps))
print(f"max amplitude deviation between engines: {dev:.3e}")

# the walk step fixes the uniform start state exactly
w = build_walk_matrix(basis)
s = reduced_s(basis)
print(f"|W s - s|_max = {np.max(np.abs(w @ s - s)):.3e}")

"""Engine contract: wherever both engines accept an input, they agree.

Both engines run (W^t1 P)^t2 on drawn instances; the reduced state,
embedded into the full pair space, must match the full engine's state,
and the two reports must agree on every field they both compute.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from johnson_walk import MarkedSet, ReducedBasis, embed_to_full, \
    make_family, run_algorithm, run_reduced

# family -> marked-set sizes at which its generator can plant a unique
# solution at n <= 10 (an l-clique of 2 vertices is one edge, and a
# random graph nearly always has several)
FAMILIES = {
    "element-distinctness": (2,),
    "l-distinctness": (2, 3),
    "zero-sum-xor": (2, 3),
    "sum-mod-q": (2, 3),
    "consecutive": (2, 3),
    "l-clique": (3,),
}


@st.composite
def runs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    l = draw(st.sampled_from(FAMILIES[family]))
    n = draw(st.integers(l + 2, 10))
    m = draw(st.integers(l, n - 1))
    return (family, n, l, m, draw(st.integers(0, 3)), draw(st.integers(0, 3)),
            draw(st.booleans()), draw(st.integers(0, 2 ** 16)))


@settings(max_examples=100, deadline=None)
@example(("l-clique", 9, 3, 5, 2, 2, True, 1))
@example(("zero-sum-xor", 8, 3, 4, 2, 2, False, 0))
@given(runs())
def test_engines_agree(run):
    family, n, l, m, t1, t2, planted, seed = run
    params = {"n": n, "seed": seed, "planted": planted}
    if family != "element-distinctness":
        params["l"] = l
    inst = make_family(family, **params)
    found = inst.marked_sets
    full = run_algorithm(inst, m, t1, t2)
    basis = ReducedBasis(n, m, l)
    reduced = run_reduced(basis, t1, t2, found, inst.mode)

    # with nothing marked both states stay uniform, which embeds alike
    # from any l-set
    marked = found[0] if found else MarkedSet(tuple(range(l)))
    fs = full.final_state
    embedded = embed_to_full(reduced.final_state, basis, marked, fs.ctx)
    assert np.max(np.abs(embedded - fs.amps)) <= 1e-9
    assert reduced.success_probability == pytest.approx(
        full.success_probability, abs=1e-9)
    assert reduced.overlap_w == pytest.approx(full.overlap_w, abs=1e-9)
    assert reduced.query_count == full.query_count
    assert reduced.mode == full.mode

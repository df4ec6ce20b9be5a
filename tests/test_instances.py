"""Problem instances, generators, the scan oracle, and JSON round trips."""
import json
import random

import pytest

from johnson_walk import (
    ITEM, PAIRWISE, MarkedSet, ProblemInstance, binomial, find_marked,
    instance_from_json, instance_to_json, load_instance, make_family,
    pair_index,
)


def test_pair_index_is_colex():
    seen = {}
    for hi in range(6):
        for lo in range(hi):
            seen[pair_index(lo, hi)] = (lo, hi)
            assert pair_index(hi, lo) == pair_index(lo, hi)
    assert sorted(seen) == list(range(15))
    with pytest.raises(ValueError):
        pair_index(3, 3)


def test_marked_set_validation():
    assert MarkedSet((1, 3, 5)).indices == (1, 3, 5)
    with pytest.raises(ValueError):
        MarkedSet((3, 1))
    with pytest.raises(ValueError):
        MarkedSet((2, 2))
    assert 3 in MarkedSet((1, 3))


def test_element_distinctness_fixture():
    inst = ProblemInstance(
        n=6, l=2, mode=ITEM, values=(3, 1, 4, 1, 5, 9),
        family_tag="element-distinctness", property_params={},
        predicate=lambda items: items[0][1] == items[1][1])
    res = find_marked(inst)
    assert res.kind == "unique"
    assert res.marked.indices == (1, 3)


def test_injective_values_reject():
    inst = ProblemInstance(
        n=6, l=2, mode=ITEM, values=(3, 1, 4, 7, 5, 9),
        family_tag="element-distinctness", property_params={},
        predicate=lambda items: items[0][1] == items[1][1])
    assert find_marked(inst).kind == "none"


def test_value_table_length_checked():
    with pytest.raises(ValueError):
        ProblemInstance(n=6, l=2, mode=ITEM, values=(1, 2, 3),
                        family_tag="x", property_params={}, predicate=len)
    with pytest.raises(ValueError):
        ProblemInstance(n=4, l=2, mode=PAIRWISE, values=(1, 2, 3),
                        family_tag="x", property_params={}, predicate=len)


@pytest.mark.parametrize("family,params", [
    ("element-distinctness", {"n": 12}),
    ("l-distinctness", {"n": 10, "l": 3}),
    ("zero-sum-xor", {"n": 10, "l": 3}),
    ("sum-mod-q", {"n": 10, "l": 3}),
    ("consecutive", {"n": 12, "l": 3}),
    ("l-clique", {"n": 8, "l": 3}),
])
def test_planted_families_are_unique(family, params):
    inst = make_family(family, seed=3, planted=True, **params)
    assert find_marked(inst).kind == "unique"


@pytest.mark.parametrize("family,params", [
    ("element-distinctness", {"n": 12}),
    ("zero-sum-xor", {"n": 16, "l": 3}),
    ("sum-mod-q", {"n": 12, "l": 3}),
    ("consecutive", {"n": 12, "l": 3}),
    ("l-clique", {"n": 7, "l": 3, "edge_prob": 0.15}),
])
def test_unplanted_families_have_no_solution(family, params):
    inst = make_family(family, seed=5, planted=False, **params)
    assert find_marked(inst).kind == "none"


def test_zero_sum_example():
    inst = make_family("zero-sum-xor", n=8, l=3, m_bits=4, seed=7, planted=True)
    res = find_marked(inst)
    assert res.kind == "unique"
    a, b, c = (inst.values[i] for i in res.marked.indices)
    assert a ^ b ^ c == 0


def test_clique_planted_triangle():
    inst = make_family("l-clique", n=5, l=3, clique=(0, 1, 2), seed=0,
                       planted=True, edge_prob=0.0)
    assert inst.mode == PAIRWISE
    assert find_marked(inst).marked.indices == (0, 1, 2)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert inst.edge(a, b) == 1


def test_predicates_permutation_invariant():
    rng = random.Random(11)
    for family, params in [("l-distinctness", {"n": 10, "l": 3}),
                           ("zero-sum-xor", {"n": 10, "l": 3}),
                           ("sum-mod-q", {"n": 10, "l": 3}),
                           ("consecutive", {"n": 12, "l": 3})]:
        inst = make_family(family, seed=2, planted=True, **params)
        for _ in range(30):
            idx = rng.sample(range(inst.n), inst.l)
            items = tuple((i, inst.values[i]) for i in idx)
            shuffled = list(items)
            rng.shuffle(shuffled)
            assert inst.predicate(items) == inst.predicate(tuple(shuffled))


def test_seed_determinism():
    a = make_family("zero-sum-xor", n=10, l=3, seed=13)
    b = make_family("zero-sum-xor", n=10, l=3, seed=13)
    assert a.values == b.values
    c = make_family("zero-sum-xor", n=10, l=3, seed=14)
    assert a.values != c.values


def test_custom_family_list_form():
    values = (5, 5, 7, 9)
    inst = make_family("custom", n=4, l=2, values=values,
                       satisfying=[[(0, 5), (1, 5)]])
    res = find_marked(inst)
    assert res.kind == "unique"
    assert res.marked.indices == (0, 1)


def test_custom_family_callable_form():
    inst = make_family("custom", n=5, l=2, values=(1, 2, 3, 4, 6),
                       predicate=lambda items: items[0][1] + items[1][1] == 7)
    assert find_marked(inst).kind == "multiple"
    with pytest.raises(ValueError):
        instance_to_json(inst)


def test_json_round_trip(tmp_path):
    inst = make_family("sum-mod-q", n=10, l=3, q=17, seed=4, planted=True)
    d = instance_to_json(inst)
    back = instance_from_json(json.loads(json.dumps(d)))
    assert back.values == inst.values
    assert back.n == inst.n and back.l == inst.l and back.mode == inst.mode
    assert find_marked(back).marked == find_marked(inst).marked

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    assert load_instance(path).values == inst.values


def test_json_round_trip_pairwise():
    inst = make_family("l-clique", n=6, l=3, seed=9, planted=True)
    d = instance_to_json(inst)
    assert "pairs" in d and "values" not in d
    back = instance_from_json(d)
    assert find_marked(back).marked == find_marked(inst).marked


def test_multiple_classification():
    inst = ProblemInstance(
        n=5, l=2, mode=ITEM, values=(1, 1, 1, 3, 4), family_tag="custom",
        property_params={}, predicate=lambda it: it[0][1] == it[1][1])
    res = find_marked(inst)
    assert res.kind == "multiple"
    assert res.count == 3
    assert len(res.all_marked) == 3


def test_clique_edge_prob_keeps_one_plant_likely():
    """0.25 up to n=12 at l=3, so those instances are unchanged; past it
    the edge probability falls so that C(n, 3) p^3 = 3.5 chance triangles
    are expected, and n=16 and n=20 plant one triangle, or none."""
    for n in range(6, 13):
        inst = make_family("l-clique", n=n, l=3, seed=1)
        assert inst.property_params["edge_prob"] == 0.25
    for n in (16, 20):
        for planted, kind in ((True, "unique"), (False, "none")):
            inst = make_family("l-clique", n=n, l=3, seed=1, planted=planted)
            assert find_marked(inst).kind == kind
            p = inst.property_params["edge_prob"]
            assert binomial(n, 3) * p ** 3 == pytest.approx(3.5)

"""Problem instances, generators, the scan oracle, and JSON round trips."""
import hashlib
import itertools
import json
import math
import random

import numpy as np
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
        assert inst.values[pair_index(a, b)] == 1


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
    """0.25 up to n=12 at l=3; past it the edge probability falls so that
    C(n, 3) p^3 = 3.5 chance triangles are expected, few for the scrub to
    clear, and n=16 and n=20 draw one planted triangle, or none."""
    for n in range(6, 13):
        inst = make_family("l-clique", n=n, l=3, seed=1)
        assert inst.property_params["edge_prob"] == 0.25
    for n in (16, 20):
        for planted, kind in ((True, "unique"), (False, "none")):
            inst = make_family("l-clique", n=n, l=3, seed=1, planted=planted)
            assert find_marked(inst).kind == kind
            p = inst.property_params["edge_prob"]
            assert binomial(n, 3) * p ** 3 == pytest.approx(3.5)


@pytest.mark.parametrize("family, min_l", [
    ("l-distinctness", 2), ("consecutive", 2), ("l-clique", 3)])
def test_families_refuse_l_below_their_minimum(family, min_l):
    """Below min_l every table has many solutions (one element is a run of
    equal or consecutive values; a 2-clique is an edge)."""
    with pytest.raises(ValueError, match=f"{family} is an l >= {min_l} family"):
        make_family(family, n=9, l=min_l - 1, seed=0)
    make_family(family, n=9, l=min_l, seed=0)


@pytest.mark.parametrize("l", [1, 3])
def test_element_distinctness_refuses_l_other_than_2(l):
    with pytest.raises(ValueError,
                       match="^element-distinctness is an l=2 family$"):
        make_family("element-distinctness", n=9, l=l, seed=0)
    make_family("element-distinctness", n=9, l=2, seed=0)


# sha256 (first 32 hex digits) of the instance JSON, each drawn with the
# historical default range (m_bits = ceil(log2 n) + 2, q = 4n) before it
# widened where that range cannot be drawn
FROZEN_DRAWS = {
    ("zero-sum-xor", 12, 4, 0, True): "94629fd3cb7e38aa533e1ad9c6c8c579",
    ("zero-sum-xor", 12, 4, 9, True): "dcc01983cbd11582f559e2c06502132e",
    ("zero-sum-xor", 24, 3, 5, True): "a79e9ef2ef9d22c71127221c61b2b5bd",
    ("zero-sum-xor", 16, 3, 2, False): "1d931998ee47ccca9066528e868580f0",
    ("sum-mod-q", 16, 3, 4, True): "c8679e22e43955e69e8488c18f36d9b7",
}

# The same digests for draws the historical range could make but where, at
# l >= 4, it expects more than 8 chance solutions: these now go straight to
# the wide range (m_bits = bit length of C(n, l) - 1, q = C(n, l))
WIDENED_DRAWS = {
    ("zero-sum-xor", 13, 5, 0, False): "b613e9cb7ee678790370ba4c8600f19a",
    ("zero-sum-xor", 17, 5, 10, True): "12a92190ae2dece497a1a22803df165b",
    ("zero-sum-xor", 24, 5, 3, True): "d1396ae5615e25fb62533cf7c5b5dac4",
    ("zero-sum-xor", 24, 5, 11, False): "fababbd17f0f0ac72e0e6de3811df355",
    ("sum-mod-q", 12, 4, 0, True): "5598cce10d1eadc37aaf900102890cd7",
    ("sum-mod-q", 24, 4, 10, True): "8c81b3de23b436526e601cbe5364444b",
    ("sum-mod-q", 24, 4, 2, False): "2c55107b344649b00df31142a01430b5",
    ("sum-mod-q", 20, 5, 9, True): "e8d0e51bd75b9566613d826a6b278104",
    ("sum-mod-q", 24, 5, 11, False): "55d0be5a62fad4f7800b85d26df1de93",
}


# The same digests for the families that draw no default range: the
# distinctness families hold their classification by construction, and
# consecutive and l-clique scrub their chance solutions.  The l-clique
# n=9 seeds 1-3, n=12 draws and consecutive n=9 seed 3 held a chance
# solution when first drawn; the other draws held none.
SCRUBBED_DRAWS = {
    ("l-clique", 9, 3, 0, True): "2fb0d9532eb9af782168ca31e60f9bc1",
    ("l-clique", 9, 3, 1, True): "8d1cc527c26fb00dfbabe235ebe7e83c",
    ("l-clique", 9, 3, 2, True): "86a562e40b3a67dccef35032817b19bd",
    ("l-clique", 9, 3, 3, True): "390b204582c9dfa9d9cefa493cb60b54",
    ("l-clique", 9, 3, 1, False): "d7c007abc30f838aeb248c7648e9d9e3",
    ("l-clique", 12, 3, 2, False): "f93a604c44e502d27c9b2e4925386738",
    ("l-clique", 12, 3, 0, True): "d79b7b4b0d03947f076d231c68bac9e7",
    ("l-clique", 16, 4, 0, True): "5f2e2962396e6ae01c5c581b09d38e1c",
    ("consecutive", 9, 3, 3, True): "853a33108bcf5b5aaa032b4e70ec7521",
    ("consecutive", 9, 3, 0, True): "b351aa722b99f11c4c854dbf5212f2dc",
    ("consecutive", 12, 3, 1, False): "849bc105510851faabe507da78e5757b",
    ("consecutive", 16, 4, 2, True): "05921151d2a3a34f61608126bacca1d2",
    ("l-distinctness", 9, 3, 0, True): "0f141e208ff22c43cd3ea00655faf689",
    ("l-distinctness", 16, 4, 5, False): "6910d328d8980d5da33854677db55e86",
    ("element-distinctness", 9, 2, 0, True): "74a50cdd55eeadd9e5f2e56c4f65505a",
    ("element-distinctness", 12, 2, 3, False):
        "d638cb196ae968e04a8f9a36c6ecbbd6",
}


def default_ranges(family, n, l):
    """(key, first, wide): the historical and the wide default range."""
    if family == "zero-sum-xor":
        return ("m_bits", math.ceil(math.log2(n)) + 2,
                (binomial(n, l) - 1).bit_length())
    return "q", 4 * n, binomial(n, l)


def assert_draws(table, pick=None):
    for (family, n, l, seed, planted), digest in table.items():
        inst = make_family(family, n=n, l=l, seed=seed, planted=planted)
        if pick is not None:
            key, first, wide = default_ranges(family, n, l)
            assert inst.property_params[key] == (first, wide)[pick]
        text = json.dumps(instance_to_json(inst), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest


def test_default_range_keeps_every_draw_it_could_make():
    assert_draws(FROZEN_DRAWS, 0)


def test_crowded_default_range_draws_wide_at_once():
    assert_draws(WIDENED_DRAWS, 1)


def test_scrubbed_and_constructed_draws_are_frozen():
    assert_draws(SCRUBBED_DRAWS)


def test_generators_never_scan(monkeypatch):
    """Each generator guarantees its own classification: with find_marked
    raising, every drawn family (all but custom, whose table is given),
    planted and not, still draws at n = 9, 16, 24 and each l = 1..4 in its
    range, and the real scan then finds the planted set alone, or none."""
    from johnson_walk import instances

    def scan(instance):
        raise AssertionError("a generator scanned its draw")

    draws = []
    with monkeypatch.context() as patch:
        patch.setattr(instances, "find_marked", scan)
        for family, fam in instances.FAMILIES.items():
            if family == "custom":
                continue
            for n, l in itertools.product((9, 16, 24), range(1, 5)):
                if fam.min_l <= l <= fam.max_l:
                    for planted in (True, False):
                        draws.append((planted, make_family(
                            family, n=n, l=l, seed=n + l, planted=planted)))
    for planted, inst in draws:
        assert find_marked(inst).kind == ("unique" if planted else "none")


def solutions(inst, subsets):
    """How many of the l-subsets (rows of `subsets`) satisfy inst's
    property: a numpy scan, so the grid below stays fast; find_marked
    checks the smallest n."""
    values = np.array(inst.values)[subsets]
    if inst.family_tag == "zero-sum-xor":
        return int(np.sum(np.bitwise_xor.reduce(values, axis=1) == 0))
    return int(np.sum(values.sum(axis=1) % inst.property_params["q"] == 0))


@pytest.mark.parametrize("l, seeds", [(3, range(12)), (4, range(2)),
                                      (5, range(2))])
@pytest.mark.parametrize("family", ["zero-sum-xor", "sum-mod-q"])
def test_scrubbed_families_draw_up_to_l_5(family, l, seeds):
    """Planted and unplanted draws at n = 12..24 all build, with one
    solution or none.  The default range is the historical one where that
    can be drawn, else about C(n, l) values: from l = 4 on the historical
    range often cannot (at n = 14, l = 4 the scrub gave up), and where it
    expects more than 8 chance solutions the draw goes there at once.
    l = 4 and 5 take two seeds here; all twelve seeds 0..11 build there
    too."""
    for n in range(12, 25):
        key, first, wide = default_ranges(family, n, l)
        values = 2 ** first if key == "m_bits" else first
        crowded = l >= 4 and binomial(n, l) > 8 * values
        subsets = np.array(list(itertools.combinations(range(n), l)))
        for seed in seeds:
            for planted in (True, False):
                inst = make_family(family, n=n, l=l, seed=seed,
                                   planted=planted)
                assert inst.property_params[key] in (
                    (wide,) if crowded else (first, wide))
                assert solutions(inst, subsets) == planted, (n, seed, planted)
                if n == 12:
                    kind = find_marked(inst).kind
                    assert kind == ("unique" if planted else "none")


def reference_scrub(vals, n, l, is_hit, redraw, keep=(), mode=ITEM):
    """The scrub one subset at a time in Python, as it was written before
    its scan was vectorized; returns whether it converged.  A subset's
    slots are its elements, or in pairwise mode its pairs' indices."""
    def slots(s):
        if mode == ITEM:
            return list(s)
        return [pair_index(a, b) for a, b in itertools.combinations(s, 2)]

    kept = slots(sorted(keep))
    for _ in range(200):
        hits = [s for s in itertools.combinations(range(n), l)
                if set(s) != set(keep) and is_hit([vals[i] for i in slots(s)])]
        if not hits:
            return True
        for sub in hits:
            vals[[i for i in slots(sub) if i not in kept][-1]] = redraw()
    return False


# (mode, values drawn from range(r), the scrub's check, one subset's check)
SCRUB_RULES = {
    "xor": (ITEM, 24, lambda v: np.bitwise_xor.reduce(v) == 0,
            lambda row: np.bitwise_xor.reduce(row) == 0),
    "sum": (ITEM, 24, lambda v: v.sum(axis=0) % 24 == 0,
            lambda row: sum(row) % 24 == 0),
    # consecutive's: the sorted values step by 1
    "runs": (ITEM, 24,
             lambda v: np.all(np.diff(np.sort(v, axis=0), axis=0) == 1, axis=0),
             lambda row: all(b - a == 1 for a, b in zip(sorted(row),
                                                         sorted(row)[1:]))),
    # l-clique's: every edge label of the subset's pairs is 1
    "clique": (PAIRWISE, 2, lambda v: (v == 1).all(axis=0),
               lambda row: all(v == 1 for v in row)),
}


def test_scrub_matches_the_subset_loop():
    """Same redraws in the same order, so the same table, and the same
    verdict, on xor, sum and run tables small enough to fail and to pass,
    and on edge tables, whose slots are pair indices."""
    from johnson_walk.instances import GenerationError, _scrub_accidental

    verdicts = set()
    for mode, r, is_hit, one_hit in SCRUB_RULES.values():
        for n, l, seed in itertools.product((8, 10), (3, 4, 5), range(2)):
            size = n if mode == ITEM else binomial(n, 2)
            for planted in (False, True):
                rng = random.Random(seed)
                vals = [rng.randrange(r) for _ in range(size)]
                keep = tuple(rng.sample(range(n), l)) if planted else ()
                ours, theirs = list(vals), list(vals)
                ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
                try:
                    _scrub_accidental(ours, n, l, is_hit,
                                      lambda: ours_rng.randrange(r), keep, mode)
                    converged = True
                except GenerationError:
                    converged = False
                assert converged == reference_scrub(
                    theirs, n, l, one_hit, lambda: theirs_rng.randrange(r),
                    keep, mode)
                assert ours == theirs
                verdicts.add(converged)
    assert verdicts == {True, False}

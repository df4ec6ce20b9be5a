"""Problem instances, generators, the scan oracle, and JSON round trips."""
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from functools import reduce

import numpy as np
import pytest

from johnson_walk import (
    ITEM, PAIRWISE, MarkedSet, ProblemInstance, find_marked,
    instance_from_json, instance_to_json, load_instance, make_family,
    pair_index,
)
from johnson_walk.instances import FAMILIES

# --- the reference scan ---------------------------------------------------
# The per-subset loop and scalar predicates find_marked ran before its scan
# was vectorized; they share no code with it or with the scrub.  A
# predicate maps a sorted subset and the list of its slot values (element
# values, or in pairwise mode the edge labels of its pairs) to a verdict.


def all_equal(subset, vals):
    return all(v == vals[0] for v in vals)


def zero_xor(subset, vals):
    acc = 0
    for v in vals:
        acc ^= v
    return acc == 0


def sum_mod(q):
    return lambda subset, vals: sum(vals) % q == 0


def consecutive(subset, vals):
    vals = sorted(vals)
    return all(b == a + 1 for a, b in zip(vals, vals[1:]))


def all_edges(subset, vals):
    return all(v == 1 for v in vals)


def listed(satisfying):
    canon = {tuple(sorted(tuple(pair) for pair in s)) for s in satisfying}
    return lambda subset, vals: tuple(sorted(zip(subset, vals))) in canon


REFERENCE = {  # family -> (property params -> predicate)
    "element-distinctness": lambda params: all_equal,
    "l-distinctness": lambda params: all_equal,
    "zero-sum-xor": lambda params: zero_xor,
    "sum-mod-q": lambda params: sum_mod(params["q"]),
    "consecutive": lambda params: consecutive,
    "l-clique": lambda params: all_edges,
    "custom": lambda params: listed(params["satisfying"]),
}


def subset_slots(subset, mode):
    if mode == ITEM:
        return list(subset)
    return [pair_index(a, b) for a, b in itertools.combinations(subset, 2)]


def reference_scan(inst, predicate=None):
    """The subsets of inst that satisfy its property, in
    itertools.combinations order.  predicate defaults to the reference of
    inst's family; a raw custom test needs a scalar one given."""
    if predicate is None:
        predicate = REFERENCE[inst.family_tag](inst.property_params)
    return [s for s in itertools.combinations(range(inst.n), inst.l)
            if predicate(s, [inst.values[i]
                             for i in subset_slots(s, inst.mode)])]


def raw(n, l, values, predicate):
    """An item-mode instance of a raw test, tagged custom; it has no JSON
    form."""
    return ProblemInstance(n=n, l=l, mode=ITEM, values=values,
                           family_tag="custom", property_params={},
                           predicate=predicate)


def assert_matches_reference(inst, predicate=None):
    hits = reference_scan(inst, predicate)
    res = find_marked(inst)
    assert isinstance(res, tuple)
    assert all(isinstance(m, MarkedSet) for m in res)
    assert [m.indices for m in res] == hits
    return res


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
        predicate=lambda subsets, values: values[0] == values[1])
    res = find_marked(inst)
    assert len(res) == 1
    assert res[0].indices == (1, 3)


def test_injective_values_reject():
    inst = ProblemInstance(
        n=6, l=2, mode=ITEM, values=(3, 1, 4, 7, 5, 9),
        family_tag="element-distinctness", property_params={},
        predicate=lambda subsets, values: values[0] == values[1])
    assert find_marked(inst) == ()


def test_marked_sets_scan_once_per_instance(scans):
    """marked_sets is find_marked's tuple, scanned on the first read only; a
    replaced table is a new instance, which scans anew; the cache leaves
    equality and hashing to the fields."""
    inst = ProblemInstance(
        n=6, l=2, mode=ITEM, values=(3, 1, 4, 1, 5, 9),
        family_tag="element-distinctness", property_params={},
        predicate=lambda subsets, values: values[0] == values[1])
    first = inst.marked_sets
    assert first == (MarkedSet((1, 3)),) and inst.marked_sets is first
    assert len(scans) == 1 and scans[0] is inst
    other = dataclasses.replace(inst, values=(3, 1, 4, 1, 5, 3))
    assert other.marked_sets == (MarkedSet((0, 5)), MarkedSet((1, 3)))
    assert inst.marked_sets is first
    assert len(scans) == 2 and scans[1] is other

    a = make_family("zero-sum-xor", n=10, l=3, seed=13)
    b = make_family("zero-sum-xor", n=10, l=3, seed=13)
    assert len(a.marked_sets) == 1
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != inst and a.marked_sets == b.marked_sets


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
    assert len(find_marked(inst)) == 1


@pytest.mark.parametrize("family,params", [
    ("element-distinctness", {"n": 12}),
    ("zero-sum-xor", {"n": 16, "l": 3}),
    ("sum-mod-q", {"n": 12, "l": 3}),
    ("consecutive", {"n": 12, "l": 3}),
    ("l-clique", {"n": 7, "l": 3}),
])
def test_unplanted_families_have_no_solution(family, params):
    inst = make_family(family, seed=5, planted=False, **params)
    assert find_marked(inst) == ()


def test_zero_sum_example():
    inst = make_family("zero-sum-xor", n=8, l=3, seed=7, planted=True)
    res = find_marked(inst)
    assert len(res) == 1
    a, b, c = (inst.values[i] for i in res[0].indices)
    assert a ^ b ^ c == 0


def test_clique_planted_triangle():
    inst = make_family("l-clique", n=5, l=3, seed=0, planted=True)
    assert inst.mode == PAIRWISE
    (marked,) = find_marked(inst)
    for a, b in itertools.combinations(marked.indices, 2):
        assert inst.values[pair_index(a, b)] == 1


def test_predicates_permutation_invariant():
    """Each item family's test gives the same verdicts on a block of
    subsets with their elements (rows) shuffled, the plant among them."""
    rng = random.Random(11)
    for family, params in [("l-distinctness", {"n": 10, "l": 3}),
                           ("zero-sum-xor", {"n": 10, "l": 3}),
                           ("sum-mod-q", {"n": 10, "l": 3}),
                           ("consecutive", {"n": 12, "l": 3})]:
        inst = make_family(family, seed=2, planted=True, **params)
        subsets = np.array([sorted(rng.sample(range(inst.n), inst.l))
                            for _ in range(30)]
                           + [find_marked(inst)[0].indices]).T
        values = np.array(inst.values)[subsets]
        verdicts = inst.predicate(subsets, values)
        assert verdicts[-1]
        for _ in range(5):
            order = rng.sample(range(inst.l), inst.l)
            assert np.array_equal(
                inst.predicate(subsets[order], values[order]), verdicts)


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
    assert len(res) == 1
    assert res[0].indices == (0, 1)


def test_custom_family_callable_form():
    inst = raw(5, 2, (1, 2, 3, 4, 6), lambda s, v: v[0] + v[1] == 7)
    assert len(find_marked(inst)) > 1
    with pytest.raises(ValueError):
        instance_to_json(inst)


def test_json_round_trip(tmp_path):
    inst = make_family("sum-mod-q", n=10, l=3, seed=4, planted=True)
    d = instance_to_json(inst)
    back = instance_from_json(json.loads(json.dumps(d)))
    assert back.values == inst.values
    assert back.n == inst.n and back.l == inst.l and back.mode == inst.mode
    assert find_marked(back)[0] == find_marked(inst)[0]

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    assert load_instance(path).values == inst.values


def test_json_round_trip_pairwise():
    inst = make_family("l-clique", n=6, l=3, seed=9, planted=True)
    d = instance_to_json(inst)
    assert "pairs" in d and "values" not in d
    back = instance_from_json(d)
    assert find_marked(back)[0] == find_marked(inst)[0]


def drawn(family):
    """One instance of the family: drawn at n=9, or custom's listed set."""
    if family == "custom":
        return make_family("custom", n=6, l=2, values=(3, 1, 4, 1, 5, 9),
                           satisfying=[[(1, 1), (3, 1)]])
    return make_family(family, n=9, seed=2,
                       l=2 if family == "element-distinctness" else 3)


def without(d, path):
    """A copy of the JSON form d less the key at a dotted path."""
    d = copy.deepcopy(d)
    *outer, key = path.split(".")
    reduce(dict.__getitem__, outer, d).pop(key)
    return d


@pytest.mark.parametrize("family", FAMILIES)
def test_json_holds_only_the_keys_the_loader_reads(family):
    """At each level instance_to_json writes exactly what instance_from_json
    reads: the table under values or pairs by mode, and under
    property.params the keys Family.params names, so a drawn instance's
    params are {} but sum-mod-q's q.  The form loads back equal, and less
    any key but the optional seed it is refused with that key named."""
    inst = drawn(family)
    fam = FAMILIES[family]
    d = instance_to_json(inst)
    table = "values" if fam.mode == ITEM else "pairs"
    assert set(d) == {"n", "l", "mode", table, "property", "seed"}
    assert set(d["property"]) == {"family", "params"}
    params = d["property"]["params"]
    assert set(params) == {name for name, _, _ in fam.params}
    if family == "sum-mod-q":
        assert params == {"q": math.comb(inst.n, inst.l)}
    elif family != "custom":
        assert params == {}
    back = instance_from_json(json.loads(json.dumps(d)))
    assert back == inst and back.property_params == inst.property_params
    assert back.marked_sets == inst.marked_sets
    for path in [*d, "property.family", "property.params",
                 *(f"property.params.{name}" for name in params)]:
        if path != "seed":
            with pytest.raises(ValueError, match=re.escape(repr(path))):
                instance_from_json(without(d, path))


# one key the loader does not read at each level, with its value; the last
# two are the params older drawn files carried, such as a zero-sum-xor
# m_bits edited to 999 or an l-clique clique set to [0, 1, 2], which were
# echoed as the run's params with exit 0
UNREAD = {"bogus": True, "property.edge": 0.25,
          "property.params.m_bits": 999, "property.params.clique": [0, 1, 2]}


@pytest.mark.parametrize("path", UNREAD)
@pytest.mark.parametrize("family", FAMILIES)
def test_unread_key_exits_2(capsys, tmp_path, family, path):
    """One key the loader does not read, at the top level, in property or
    in property.params, is one error line naming its dotted path."""
    from johnson_walk.cli import main

    d = instance_to_json(drawn(family))
    *outer, key = path.split(".")
    reduce(dict.__getitem__, outer, d)[key] = UNREAD[path]
    file = tmp_path / "inst.json"
    file.write_text(json.dumps(d))
    code = main(["simulate", "--instance", str(file), "--engine", "full"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(path) in err and "not read" in err


def test_multiple_classification():
    inst = ProblemInstance(
        n=5, l=2, mode=ITEM, values=(1, 1, 1, 3, 4), family_tag="custom",
        property_params={},
        predicate=lambda subsets, values: values[0] == values[1])
    res = find_marked(inst)
    assert len(res) == 3


def test_clique_edge_prob_keeps_one_plant_likely():
    """0.25 up to n=12 at l=3; past it the edge probability falls so that
    C(n, 3) p^3 = 3.5 chance triangles are expected, few for the scrub to
    clear, and n=16 and n=20 draw one planted triangle, or none.  The
    instance stores no edge probability: it follows from (n, l)."""
    from johnson_walk.instances import _clique_edge_prob

    for n in range(6, 13):
        assert _clique_edge_prob(n, 3) == 0.25
    for n in (16, 20):
        for planted in (True, False):
            inst = make_family("l-clique", n=n, l=3, seed=1, planted=planted)
            assert len(find_marked(inst)) == planted
            assert inst.property_params == {}
            p = _clique_edge_prob(n, 3)
            assert math.comb(n, 3) * p ** 3 == pytest.approx(3.5)


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


@pytest.mark.parametrize("knob", ["m_bits", "q", "edge_prob", "clique"])
def test_generators_take_no_range_or_plant_knob(knob):
    """Each family draws from the one range (n, l) sets, its plant at
    random: no generator takes a range, an edge probability or a plant."""
    for family in FAMILIES:
        with pytest.raises(TypeError, match=f"unexpected keyword .*{knob}"):
            make_family(family, n=9, seed=0, **{knob: 3})


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "custom"])
def test_families_refuse_l_at_or_past_n(family):
    """l = n and l = n + 1 are refused, planted and not, before any draw
    (at l = n the one n-subset could hold a solution no redraw clears)."""
    for n, planted in itertools.product((2, 3, 5, 9), (True, False)):
        for l in (n, n + 1):
            with pytest.raises(ValueError):
                make_family(family, n=n, l=l, seed=0, planted=planted)


# sha256 (first 32 hex digits) of the instance JSON, each drawn with the
# default range of about C(n, l) values (values below 2^b, b the bit length
# of C(n, l) - 1, for zero-sum-xor; q = C(n, l) for sum-mod-q)
FROZEN_DRAWS = {
    ("zero-sum-xor", 12, 4, 0, True): "d3242533cb465981dc118554906c4515",
    ("zero-sum-xor", 12, 4, 9, True): "ed7154c4df003889315729d5c0873127",
    ("zero-sum-xor", 24, 3, 5, True): "8f4804dfbcc1911b45926b327da4d971",
    ("zero-sum-xor", 16, 3, 2, False): "9bbfa6ece476d924f0d6c007777d7920",
    ("sum-mod-q", 16, 3, 4, True): "5734823a76db9eac7fec7a0bebe7f17e",
}

# The same digests for more draws at the default range, at l = 4 and 5
WIDENED_DRAWS = {
    ("zero-sum-xor", 13, 5, 0, False): "0fc4c7084fa396ea77bd7a2e64cb8a32",
    ("zero-sum-xor", 17, 5, 10, True): "58591bedc06ff809e9bd974684987fcf",
    ("zero-sum-xor", 24, 5, 3, True): "5c00b31fd8f9a6fbb8bd3a7918286894",
    ("zero-sum-xor", 24, 5, 11, False): "5695617a145f5bdaf62fb95c7b86c0a1",
    ("sum-mod-q", 12, 4, 0, True): "baa72a7e37b7aeb0656fbd90ec0ab977",
    ("sum-mod-q", 24, 4, 10, True): "a43ee73836c2b129a3b6ffcf5f959a10",
    ("sum-mod-q", 24, 4, 2, False): "dda05cfb44d1b2c87d7abdd3b49ddb3f",
    ("sum-mod-q", 20, 5, 9, True): "8a2867b79f00413400c0632f43589993",
    ("sum-mod-q", 24, 5, 11, False): "b9dcdf780081a79052fbcda2aa240f04",
}


# The same digests for the families that draw no default range: the
# distinctness families hold their classification by construction, and
# consecutive and l-clique scrub their chance solutions.  The l-clique
# n=9 seeds 1-3, n=12 draws and consecutive n=9 seed 3 held a chance
# solution when first drawn; the other draws held none.
SCRUBBED_DRAWS = {
    ("l-clique", 9, 3, 0, True): "e0d6b03e9143c56e6b31969766bbdc0f",
    ("l-clique", 9, 3, 1, True): "3b17acd901d5562d60d354cc7796e47f",
    ("l-clique", 9, 3, 2, True): "aae2d21cac7660843a3312361c987af6",
    ("l-clique", 9, 3, 3, True): "c99ecabec3182cb55d0ed23ed2e1423f",
    ("l-clique", 9, 3, 1, False): "333389118047701067de1b6fbfd7a98a",
    ("l-clique", 12, 3, 2, False): "4f719921e099fdd374579f04e60b1ea0",
    ("l-clique", 12, 3, 0, True): "9972999f2bd2ceecdea262dca1087630",
    ("l-clique", 16, 4, 0, True): "3b33927c55555543cb95ea8352e32dd7",
    ("consecutive", 9, 3, 3, True): "ea414ad2c84e9add0dbb5b03f6867ef1",
    ("consecutive", 9, 3, 0, True): "6ad5545ae07adf2ad722f86cf3967d5b",
    ("consecutive", 12, 3, 1, False): "44e4b09122248edc11546d93c9f1954c",
    ("consecutive", 16, 4, 2, True): "520e64d8f4ec45acd3db6269deef7c8b",
    ("l-distinctness", 9, 3, 0, True): "b22f1ab6081a011bcf16990f55297b31",
    ("l-distinctness", 16, 4, 5, False): "7cadc7785cd0c37bea9d4a60841651b0",
    ("element-distinctness", 9, 2, 0, True): "d3e4464827fe5b6423eb017963a45701",
    ("element-distinctness", 12, 2, 3, False):
        "2d879b2a631973d2a8bbfe16d8377d58",
}


def assert_default_range(inst):
    """The draw is from the default range, about C(n, l) values: a
    zero-sum-xor table's values are each below 2^((C(n, l) - 1) bit
    length), and sum-mod-q's q, the one key it stores, is C(n, l)."""
    wide = math.comb(inst.n, inst.l)
    if inst.family_tag == "zero-sum-xor":
        assert inst.property_params == {}
        assert 0 <= min(inst.values)
        assert max(inst.values) < 2 ** (wide - 1).bit_length()
    else:
        assert inst.property_params == {"q": wide}


def assert_draws(table, default_range=False):
    for (family, n, l, seed, planted), digest in table.items():
        inst = make_family(family, n=n, l=l, seed=seed, planted=planted)
        if default_range:
            assert_default_range(inst)
        text = json.dumps(instance_to_json(inst), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest


def test_default_range_keeps_every_draw_it_could_make():
    assert_draws(FROZEN_DRAWS, default_range=True)


def test_crowded_default_range_draws_wide_at_once():
    assert_draws(WIDENED_DRAWS, default_range=True)


def test_scrubbed_and_constructed_draws_are_frozen():
    assert_draws(SCRUBBED_DRAWS)


def test_generators_never_scan(monkeypatch):
    """Each generator guarantees its own classification: with find_marked
    raising, every drawn family (all but custom, whose table is given),
    planted and not, still draws at n = 9, 16, 24 and each l = 1..4 in its
    range, and the reference scan, which shares no code with the scrub,
    then finds the planted set alone, or none."""
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
        assert len(reference_scan(inst)) == planted


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
    solution or none, at the default range of about C(n, l) values.
    l = 4 and 5 take two seeds here; all twelve seeds 0..11 build there
    too."""
    for n in range(12, 25):
        subsets = np.array(list(itertools.combinations(range(n), l)))
        for seed in seeds:
            for planted in (True, False):
                inst = make_family(family, n=n, l=l, seed=seed,
                                   planted=planted)
                assert_default_range(inst)
                assert solutions(inst, subsets) == planted, (n, seed, planted)
                if n == 12:
                    assert len(find_marked(inst)) == planted


@pytest.mark.parametrize("family", ["zero-sum-xor", "sum-mod-q"])
def test_default_range_needs_few_scrub_passes(monkeypatch, family):
    """One range is enough: at n = 4..100 and every l up to 5 with
    C(n, l) <= 2·10^5, seeds 0-2, planted and not, each default draw takes
    the wide range and clears its chance solutions in at most 12 scrub
    passes (one _hits call each)."""
    from johnson_walk import instances

    passes = []
    hits = instances._hits

    def counted(*args):
        passes[-1] += 1
        return hits(*args)

    monkeypatch.setattr(instances, "_hits", counted)
    for n, l in itertools.product((4, 9, 16, 24, 40, 64, 100), range(1, 6)):
        if l >= n or math.comb(n, l) > 2 * 10 ** 5:
            continue
        for seed, planted in itertools.product(range(3), (True, False)):
            passes.append(0)
            inst = make_family(family, n=n, l=l, seed=seed, planted=planted)
            assert_default_range(inst)
            assert passes[-1] <= 12, (n, l, seed, planted, passes[-1])
    assert len(passes) == 168


def reference_scrub(vals, n, l, is_hit, redraw, keep=(), mode=ITEM):
    """The scrub one subset at a time in Python, as it was written before
    its scan was vectorized; returns whether it converged.  is_hit is a
    reference predicate."""
    kept = subset_slots(sorted(keep), mode)
    for _ in range(200):
        hits = [s for s in itertools.combinations(range(n), l)
                if set(s) != set(keep)
                and is_hit(s, [vals[i] for i in subset_slots(s, mode)])]
        if not hits:
            return True
        for sub in hits:
            vals[[i for i in subset_slots(sub, mode)
                  if i not in kept][-1]] = redraw()
    return False


# (family, its property params, values drawn from range(r)): the scrub runs
# the family's test, the reference scrub the family's reference predicate
SCRUB_RULES = {
    "xor": ("zero-sum-xor", {}, 24),
    "sum": ("sum-mod-q", {"q": 24}, 24),
    "runs": ("consecutive", {}, 24),
    "clique": ("l-clique", {}, 2),
}


def test_scrub_matches_the_subset_loop():
    """Same redraws in the same order, so the same table, and the same
    verdict, on xor, sum and run tables small enough to fail and to pass,
    and on edge tables, whose slots are pair indices."""
    from johnson_walk.instances import GenerationError, _scrub_accidental

    verdicts = set()
    for family, params, r in SCRUB_RULES.values():
        mode = FAMILIES[family].mode
        is_hit = FAMILIES[family].predicate(params)
        one_hit = REFERENCE[family](params)
        for n, l, seed in itertools.product((8, 10), (3, 4, 5), range(2)):
            size = n if mode == ITEM else math.comb(n, 2)
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


# A table of small values for each family, loaded as an instance file and
# so never scrubbed: most hold several solutions.
SMALL_RANGE = {"l-clique": 2, "consecutive": 6, "zero-sum-xor": 4}


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "custom"])
def test_find_marked_matches_the_reference(family):
    """The same marked sets in the same order as the reference scan, on
    every draw at n = 9, 12, 16, each l up to 4 in the family's range,
    seeds 0-2, planted and not, and on the same instance with its table
    replaced by small values."""
    fam = FAMILIES[family]
    counts = set()
    for n, l, seed, planted in itertools.product(
            (9, 12, 16), range(fam.min_l, min(fam.max_l, 4) + 1), range(3),
            (True, False)):
        inst = make_family(family, n=n, l=l, seed=seed, planted=planted)
        assert len(assert_matches_reference(inst)) == planted
        d = instance_to_json(inst)
        rng = random.Random(seed)
        key = "values" if fam.mode == ITEM else "pairs"
        r = SMALL_RANGE.get(family, 3)
        d[key] = [rng.randrange(r) for _ in d[key]]
        counts.add(len(assert_matches_reference(instance_from_json(d))))
    assert max(counts) > 1


def test_custom_instances_match_the_reference():
    """A satisfying list (with entries that can never match: a wrong value,
    a repeated index, the wrong size) and a raw test, one scalar predicate
    beside it for the reference."""
    values = (5, 5, 7, 9, 5, 7)
    inst = make_family("custom", n=6, l=2, values=values, satisfying=[
        [(0, 5), (1, 5)], [(2, 7), (5, 7)], [(3, 8), (4, 5)],
        [(1, 5), (1, 5)], [(0, 5), (1, 5), (4, 5)]])
    assert len(assert_matches_reference(inst)) == 2
    inst = raw(6, 3, values,
               lambda subsets, values: values.sum(axis=0) % 3 == 0)
    assert len(assert_matches_reference(
        inst, lambda subset, vals: sum(vals) % 3 == 0)) > 1
    # values are taken as given, not cast to integers
    inst = raw(4, 2, (0.25, 0.75, 2.0, 2.0), lambda s, v: v[0] == v[1])
    assert assert_matches_reference(
        inst, lambda subset, vals: vals[0] == vals[1])[0].indices == (2, 3)


def test_scan_spans_blocks():
    """Instances with C(n, l) above one scan block: a planted l-clique at
    n=100, l=3 (161,700 subsets) and a raw test whose hits fall in every
    block of n=60, l=3 (34,220 subsets)."""
    from johnson_walk.instances import _BLOCK

    inst = make_family("l-clique", n=100, l=3, seed=0)
    assert math.comb(100, 3) > 4 * _BLOCK
    assert len(assert_matches_reference(inst)) == 1
    rng = random.Random(1)
    inst = raw(60, 3, [rng.randrange(1000) for _ in range(60)],
               lambda subsets, values: values.sum(axis=0) % 50 == 0)
    res = assert_matches_reference(
        inst, lambda subset, vals: sum(vals) % 50 == 0)
    ranks = list(itertools.combinations(range(60), 3))
    assert ranks.index(res[0].indices) < _BLOCK
    assert ranks.index(res[-1].indices) >= _BLOCK


@pytest.mark.parametrize("n, l", [(20, 2), (2 ** 15, 1), (60, 3), (257, 2),
                                  (2 ** 15 + 1, 1)])
def test_scan_calls_the_test_once_a_block(n, l):
    """A counting raw test: one call where C(n, l) <= _BLOCK (the whole scan
    at n=20, l=2), else ceil(C(n, l) / _BLOCK) calls of at most _BLOCK
    subsets each, which together see every subset once."""
    from johnson_walk.instances import _BLOCK

    calls = []

    def count(subsets, values):
        calls.append(subsets.T.tolist())
        return np.zeros(subsets.shape[1], bool)

    inst = raw(n, l, [0] * n, count)
    assert find_marked(inst) == ()
    assert len(calls) == -(-math.comb(n, l) // _BLOCK)
    assert max(map(len, calls)) <= _BLOCK
    seen = [tuple(s) for call in calls for s in call]
    assert len(seen) == math.comb(n, l)
    assert set(seen) == set(itertools.combinations(range(n), l))


@pytest.mark.parametrize("scale", [2 ** 70, -2 ** 70, -3 * 2 ** 60],
                         ids=["2^70", "-2^70", "-3*2^60"])
@pytest.mark.parametrize("family, params", [
    ("sum-mod-q", {"q": 7}), ("zero-sum-xor", {})])
def test_huge_values_classify_exactly(tmp_path, family, params, scale):
    """Instance files of values around +-2^70, past int64, and around
    -3*2^60, where one value fits int64 but a sum of three does not,
    classify as the reference does with Python ints."""
    rng = random.Random(5)
    values = [scale + rng.randrange(100) for _ in range(10)]
    values[2] = values[0] ^ values[1]  # a zero-xor triple
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": 10, "l": 3, "mode": ITEM, "values": values, "seed": None,
        "property": {"family": family, "params": params}}))
    res = assert_matches_reference(load_instance(path))
    assert len(res) > 1 if family == "sum-mod-q" else len(res) == 1

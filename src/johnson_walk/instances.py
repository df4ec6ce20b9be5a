"""Problem instances, property families, and the brute-force marked-set scan.

An instance is a black-box value table (per element, or per element
pair for subgraph problems) together with a permutation-invariant
property over l-tuples.  The classical scan over all C(n, l) subsets
is the ground truth every quantum engine is checked against.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .combinat import binomial

ITEM = "item"
PAIRWISE = "pairwise"

_MAX_PLANT_RETRIES = 200


class GenerationError(RuntimeError):
    """A generator could not draw an instance with the asked-for number of
    marked sets (one planted, or none)."""


def pair_index(i: int, j: int) -> int:
    """Colex index of the unordered pair {i, j} (i != j)."""
    if i == j:
        raise ValueError("pair requires distinct indices")
    lo, hi = (i, j) if i < j else (j, i)
    return hi * (hi - 1) // 2 + lo


@dataclass(frozen=True)
class MarkedSet:
    indices: tuple

    def __post_init__(self):
        idx = tuple(self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"marked indices must be sorted and distinct: {idx}")
        object.__setattr__(self, "indices", idx)

    def __contains__(self, x):
        return x in self.indices


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable l-subset finding instance.

    values is a tuple of n range values (item mode) or C(n, 2) edge
    labels indexed by pair_index (pairwise mode).  predicate is the
    property test; its calling convention depends on the mode:

      item:     predicate(((i1, v1), ..., (il, vl))) -> bool
      pairwise: predicate((i1, ..., il), (((a, b), vab), ...)) -> bool

    and it must be invariant under permutations of the tuple.
    """
    n: int
    l: int
    mode: str
    values: tuple
    family_tag: str
    property_params: dict = field(compare=False)
    predicate: object = field(compare=False, repr=False)
    seed: object = None

    def __post_init__(self):
        if not 1 <= self.l < self.n:
            raise ValueError(f"need 1 <= l < n, got l={self.l}, n={self.n}")
        expected = self.n if self.mode == ITEM else binomial(self.n, 2)
        if len(self.values) != expected:
            raise ValueError(
                f"value table has {len(self.values)} entries, expected {expected}")
        object.__setattr__(self, "values", tuple(self.values))

    def edge(self, i: int, j: int):
        if self.mode != PAIRWISE:
            raise ValueError("edge lookup requires pairwise mode")
        return self.values[pair_index(i, j)]

    def subset_satisfies(self, indices) -> bool:
        """Evaluate the property on a sorted l-subset of indices."""
        idx = tuple(sorted(indices))
        if self.mode == ITEM:
            return bool(self.predicate(tuple((i, self.values[i]) for i in idx)))
        edges = tuple(((a, b), self.values[pair_index(a, b)])
                      for a, b in itertools.combinations(idx, 2))
        return bool(self.predicate(idx, edges))


@dataclass(frozen=True)
class FindResult:
    kind: str              # "unique" | "none" | "multiple"
    marked: object         # MarkedSet or None
    count: int
    all_marked: tuple = ()


def find_marked(instance: ProblemInstance) -> FindResult:
    """Exhaustive scan of all C(n, l) subsets against the property."""
    hits = [s for s in itertools.combinations(range(instance.n), instance.l)
            if instance.subset_satisfies(s)]
    if not hits:
        return FindResult("none", None, 0)
    marked = MarkedSet(hits[0])
    kind = "unique" if len(hits) == 1 else "multiple"
    return FindResult(kind, marked, len(hits),
                      tuple(MarkedSet(h) for h in hits))


# --- property families -------------------------------------------------

def _pred_all_equal(items):
    vals = [v for _, v in items]
    return all(v == vals[0] for v in vals)


def _pred_zero_sum_xor(items):
    acc = 0
    for _, v in items:
        acc ^= v
    return acc == 0


def _make_pred_sum_mod_q(q):
    def pred(items):
        return sum(v for _, v in items) % q == 0
    return pred


def _pred_consecutive(items):
    vals = sorted(v for _, v in items)
    return all(b == a + 1 for a, b in zip(vals, vals[1:]))


def _pred_clique(indices, edges):
    return all(v == 1 for _, v in edges)


def _make_pred_explicit(satisfying):
    """Membership in an explicit list of l-sets of (index, value) tuples."""
    canon = {tuple(sorted(tuple(pair) for pair in subset)) for subset in satisfying}

    def pred(items):
        return tuple(sorted(tuple(p) for p in items)) in canon
    return pred


def _draw_distinct(rng, n, lo, hi):
    return rng.sample(range(lo, hi), n)


def _build(family, n, l, values, params, seed):
    """An instance of a FAMILIES entry: its mode and predicate come from there."""
    fam = FAMILIES[family]
    return ProblemInstance(n=n, l=l, mode=fam.mode, values=tuple(values),
                           family_tag=family, property_params=dict(params),
                           predicate=fam.predicate(params), seed=seed)


def _plant_loop(make_candidate, want_unique):
    """Redraw until the scan classification matches the plant flag."""
    last = None
    for _ in range(_MAX_PLANT_RETRIES):
        inst = make_candidate()
        res = find_marked(inst)
        if want_unique and res.kind == "unique":
            return inst
        if not want_unique and res.kind == "none":
            return inst
        last = res.kind
    raise GenerationError(
        f"could not realize plant={want_unique} in {_MAX_PLANT_RETRIES} draws "
        f"(last classification: {last})")


def make_family(family: str, **params) -> ProblemInstance:
    """Build a ProblemInstance from one of the FAMILIES generators.

    All generators but custom's take an explicit seed and a planted flag;
    planted instances are guaranteed (by scan) to have exactly one marked
    subset, unplanted ones none.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if "l" in params:
        check_family_l(family, params["l"])
    return FAMILIES[family].generate(**params)


def check_family_l(family: str, l: int) -> None:
    """Refuse an l below the family's min_l, where nearly every table holds
    many solutions: one element is always a run of equal or consecutive
    values, and an l-clique of 1 or 2 vertices is a vertex or an edge."""
    min_l = FAMILIES[family].min_l
    if l < min_l:
        raise ValueError(f"{family} is an l >= {min_l} family")


def _gen_element_distinctness(n, l=2, seed=0, planted=True):
    if l != 2:
        raise ValueError("element-distinctness is an l=2 family")
    return _gen_l_distinctness(n, l=2, seed=seed, planted=planted,
                               family="element-distinctness")


def _gen_l_distinctness(n, l=2, seed=0, planted=True, family="l-distinctness"):
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    rng = random.Random(seed)
    hi = 4 * n  # room to stay injective off the plant

    def candidate():
        vals = _draw_distinct(rng, n, 0, hi)
        if planted:
            where = rng.sample(range(n), l)
            for i in where[1:]:
                vals[i] = vals[where[0]]
        return _build(family, n, l, vals, {"planted": planted}, seed)
    return _plant_loop(candidate, planted)


def _gen_zero_sum_xor(n, l=3, m_bits=None, seed=0, planted=True):
    if m_bits is None:
        return _default_range(
            lambda bits: _gen_zero_sum_xor(n, l, bits, seed, planted),
            math.ceil(math.log2(n)) + 2, (binomial(n, l) - 1).bit_length())
    if m_bits < 1:
        raise ValueError("m_bits must be positive")
    import numpy as np

    rng = random.Random(seed)
    vals = [rng.getrandbits(m_bits) for _ in range(n)]
    keep = ()
    if planted:
        keep = rng.sample(range(n), l)
        acc = 0
        for i in keep[:-1]:
            acc ^= vals[i]
        vals[keep[-1]] = acc
    _scrub_accidental(vals, l, lambda v: np.bitwise_xor.reduce(v) == 0,
                      partial(rng.getrandbits, m_bits), keep)
    return _build("zero-sum-xor", n, l, vals,
                  {"m_bits": m_bits, "planted": planted}, seed)


def _default_range(draw, first, wide):
    """draw(first), the family's historical default value range; where that
    cannot be drawn, draw(wide), a range with about C(n, l) values, so that
    about one accidental solution is expected and a few scrub passes
    remove it.  The range is m_bits for zero-sum-xor and q for sum-mod-q.

    The first range is often too narrow from l = 4 and n = 12 on: a redraw
    there can create new solutions faster than it breaks old ones, and the
    scrub gives up.  Trying it first keeps every instance it can draw
    unchanged.
    """
    try:
        return draw(first)
    except GenerationError:
        if wide <= first:
            raise
        return draw(wide)


def _scrub_accidental(vals, l, is_hit, redraw, keep=()):
    """Redraw one value of each accidental solution until none remain.

    Wide value ranges make accidental solutions rare but, beyond a few
    dozen elements, near-certain to occur somewhere; whole-table
    rejection would then practically never terminate.  Point repairs
    converge because each redraw breaks one solution and creates new
    ones only with the background density.  A planted solution is
    passed in `keep`: it is never counted as accidental and its values
    are never touched.  A pass finds every hit among the l-subsets, in
    itertools.combinations order, then redraws the last element outside
    `keep` of each in turn.  is_hit maps an (l, C(n, l)) array of values,
    one column per subset, to a mask of solutions.

    On return the table holds no solution but the planted one, so the
    generators that scrub need no classifying scan afterwards.
    """
    import numpy as np

    n = len(vals)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), l))
    subsets = np.fromiter(flat, dtype=np.min_scalar_type(n),
                          count=binomial(n, l) * l).reshape(-1, l)
    accidental = np.ones(len(subsets), dtype=bool)
    if keep:
        accidental = np.any(subsets != np.sort(keep), axis=1)
    # a subset other than the planted one has an element outside it
    outside = ~np.isin(subsets, keep)
    last_free = l - 1 - np.argmax(outside[:, ::-1], axis=1)
    last_free = subsets[np.arange(len(subsets)), last_free]
    # one row per element of a subset, indexed by the fastest gather type
    columns = np.ascontiguousarray(subsets.T, dtype=np.intp)
    for _ in range(_MAX_PLANT_RETRIES):
        fits = l * max(vals) < 2 ** 62  # sums of l values fit in int64
        values = np.array(vals, dtype=np.int64 if fits else object)
        hits = is_hit(values[columns]) & accidental
        if not hits.any():
            return
        for i in last_free[hits].tolist():
            vals[i] = redraw()
    raise GenerationError(
        f"could not scrub accidental solutions in {_MAX_PLANT_RETRIES} passes")


def _gen_sum_mod_q(n, l=3, q=None, seed=0, planted=True):
    if q is None:
        return _default_range(
            lambda q: _gen_sum_mod_q(n, l, q, seed, planted),
            4 * n, binomial(n, l))
    if q < 2:
        raise ValueError("q must be at least 2")
    rng = random.Random(seed)
    vals = [rng.randrange(q) for _ in range(n)]
    keep = ()
    if planted:
        keep = rng.sample(range(n), l)
        vals[keep[-1]] = (-sum(vals[i] for i in keep[:-1])) % q
    _scrub_accidental(vals, l, lambda v: v.sum(axis=0) % q == 0,
                      partial(rng.randrange, q), keep)
    return _build("sum-mod-q", n, l, vals, {"q": q, "planted": planted}, seed)


def _gen_consecutive(n, l=3, seed=0, planted=True):
    rng = random.Random(seed)
    hi = 8 * n  # sparse values keep accidental runs rare

    def candidate():
        vals = _draw_distinct(rng, n, 0, hi)
        if planted:
            where = rng.sample(range(n), l)
            start = rng.randrange(hi - l)
            for off, i in enumerate(where):
                vals[i] = start + off
        return _build("consecutive", n, l, vals, {"planted": planted}, seed)
    return _plant_loop(candidate, planted)


def _clique_edge_prob(n, l):
    """0.25, lowered where a G(n, 0.25) graph would hold more than 3.5
    l-cliques by chance (l=3 from n=13 on), so that a unique planted clique,
    or none, stays likely: C(n, l) p^C(l, 2) = 3.5."""
    return min(0.25, (3.5 / binomial(n, l)) ** (1.0 / binomial(l, 2)))


def _gen_clique(n, l=3, seed=0, planted=True, clique=None, edge_prob=None):
    if not 2 <= l < n:
        raise ValueError(f"need 2 <= l < n, got l={l}, n={n}")
    rng = random.Random(seed)
    if edge_prob is None:
        edge_prob = _clique_edge_prob(n, l)
    if clique is not None:
        clique = tuple(sorted(clique))
        if len(clique) != l:
            raise ValueError(f"planted clique must have {l} vertices")

    def candidate():
        vals = [1 if rng.random() < edge_prob else 0
                for _ in range(binomial(n, 2))]
        if planted:
            where = clique if clique is not None else tuple(sorted(rng.sample(range(n), l)))
            for a, b in itertools.combinations(where, 2):
                vals[pair_index(a, b)] = 1
        return _build("l-clique", n, l, vals,
                      {"edge_prob": edge_prob, "planted": planted,
                       "clique": list(clique) if clique else None}, seed)
    return _plant_loop(candidate, planted)


def _gen_custom(n, l, values, mode=ITEM, satisfying=None, predicate=None, seed=None):
    """Explicit property: either a list of satisfying l-subsets of
    (index, value) tuples, or a raw callable (not serializable)."""
    if (satisfying is None) == (predicate is None):
        raise ValueError("custom family needs exactly one of satisfying/predicate")
    if predicate is not None:
        return ProblemInstance(n=n, l=l, mode=mode, values=tuple(values),
                               family_tag="custom", property_params={},
                               predicate=predicate, seed=seed)
    if mode != ITEM:
        raise ValueError("list-form custom properties are item-mode only")
    return _build("custom", n, l, values, {"satisfying": [
        sorted([list(p) for p in s]) for s in satisfying]}, seed)


class Family(NamedTuple):
    generate: Callable      # keyword parameters -> ProblemInstance
    mode: str               # oracle mode: ITEM or PAIRWISE
    predicate: Callable     # property params, as stored -> predicate
    min_l: int = 1          # smallest l the generator can plant one set at


FAMILIES = {
    "element-distinctness": Family(_gen_element_distinctness, ITEM,
                                   lambda params: _pred_all_equal, 2),
    "l-distinctness": Family(_gen_l_distinctness, ITEM,
                             lambda params: _pred_all_equal, 2),
    "zero-sum-xor": Family(_gen_zero_sum_xor, ITEM,
                           lambda params: _pred_zero_sum_xor),
    "sum-mod-q": Family(_gen_sum_mod_q, ITEM,
                        lambda params: _make_pred_sum_mod_q(params["q"])),
    "consecutive": Family(_gen_consecutive, ITEM,
                          lambda params: _pred_consecutive, 2),
    "l-clique": Family(_gen_clique, PAIRWISE, lambda params: _pred_clique, 3),
    # a custom property stored in JSON is the list form, item-mode only
    "custom": Family(_gen_custom, ITEM,
                     lambda params: _make_pred_explicit(params["satisfying"])),
}


# --- JSON round trip ---------------------------------------------------

def instance_to_json(instance: ProblemInstance) -> dict:
    """Serializable form: {n, l, mode, values|pairs, property, seed}."""
    if instance.family_tag == "custom" and "satisfying" not in instance.property_params:
        raise ValueError("callable custom properties cannot be serialized")
    d = {
        "n": instance.n,
        "l": instance.l,
        "mode": instance.mode,
        "property": {"family": instance.family_tag,
                     "params": dict(instance.property_params)},
        "seed": instance.seed,
    }
    key = "values" if instance.mode == ITEM else "pairs"
    d[key] = list(instance.values)
    return d


def instance_from_json(d: dict) -> ProblemInstance:
    """Rebuild an instance from its JSON form (values taken verbatim)."""
    family = d["property"]["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} in instance file")
    mode = FAMILIES[family].mode
    if d["mode"] != mode:
        raise ValueError(f"family {family!r} has mode {mode!r}, not {d['mode']!r}")
    values = d["values" if mode == ITEM else "pairs"]
    return _build(family, d["n"], d["l"], values, d["property"]["params"],
                  d.get("seed"))


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))

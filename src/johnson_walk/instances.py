"""Problem instances, property families, and the brute-force marked-set scan.

An instance is a black-box value table (per element, or per element
pair for subgraph problems) together with a permutation-invariant
property of l-subsets, stated once per family as a vectorized test over
a block of them.  The classical scan (find_marked) runs that test over
all C(n, l) subsets, in the blocks of combinat.colex_blocks, and is the
ground truth every quantum engine is checked against; its few hits are
sorted into lexicographic order.  The generators need no scan for their
one planted marked set, or none: the distinctness families hold it by
construction, the others by scrubbing the chance solutions out of the
drawn table with the same test over the same blocks.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from operator import xor
from typing import Callable, NamedTuple

from .combinat import binomial, colex_blocks

ITEM = "item"
PAIRWISE = "pairwise"

_MAX_SCRUB_PASSES = 200
_BLOCK = 1 << 15  # l-subsets per block of a scan


class GenerationError(RuntimeError):
    """The scrub could not rid a drawn table of its chance solutions."""


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


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable l-subset finding instance.

    values is a tuple of n range values (item mode) or C(n, 2) edge
    labels indexed by pair_index (pairwise mode).  predicate is the
    property test on B l-subsets at once, one column per subset:

      predicate(subsets, values) -> bool array of length B

    subsets is (l, B), each column sorted; values is (k, B), the values
    of each subset's slots: its l elements (item mode) or its k = C(l, 2)
    pairs in itertools.combinations order (pairwise); an integer table
    comes as int64 where a sum of k fits, else as Python ints.  The test
    must be invariant under permutations of a subset's elements.
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

    @cached_property
    def marked_sets(self) -> tuple:
        """find_marked(self), made on the first read and kept, so that all
        readers share one scan; equality and hashing still read the fields."""
        return find_marked(self)


def find_marked(instance: ProblemInstance) -> tuple:
    """The marked sets, a tuple of MarkedSets in lexicographic order: all
    C(n, l) subsets tested _BLOCK at a time, so that memory is bounded at
    any C(n, l).  Readers use ProblemInstance.marked_sets, its one scan."""
    n, l, mode = instance.n, instance.l, instance.mode
    return tuple(MarkedSet(s) for s in sorted(
        tuple(s) for subsets, _ in _hits(
            _blocks(n, l, mode), instance.predicate, instance.values, l, mode)
        for s in subsets.T.tolist()))


def _blocks(n, l, mode):
    """The l-subsets of range(n) in colex order, _BLOCK at a time, as an
    (l, B) intp array and the (k, B) array of their slots (the subsets in
    item mode, their pairs' pair_index values in pairwise), C-contiguous
    so that a reduction over a column runs along the block."""
    import numpy as np

    lo, hi = np.triu_indices(l, 1) if mode == PAIRWISE else (None, None)
    for block in colex_blocks(n, l, _BLOCK):
        s = block.T.astype(np.intp)  # the transpose of slot-major is C order
        yield s, s if mode == ITEM else s[hi] * (s[hi] - 1) // 2 + s[lo]


def _hits(blocks, test, vals, l, mode):
    """Each block's subsets and slots that pass test.  vals is read at the
    first block, as numpy numbers where a sum of k fits, else as objects."""
    import numpy as np

    k = l if mode == ITEM else l * (l - 1) // 2
    fits = k * max(map(abs, vals)) < 2 ** 62
    values = np.array(vals, dtype=None if fits else object)
    for subsets, slots in blocks:
        hit = np.flatnonzero(test(subsets, values[slots]))
        yield subsets[:, hit], slots[:, hit]


# --- property families: one vectorized test each -------------------------

def _test_all_equal(subsets, values):
    return (values == values[0]).all(axis=0)


def _test_zero_sum_xor(subsets, values):
    return reduce(xor, values) == 0


def _test_sum_mod_q(q):
    return lambda subsets, values: values.sum(axis=0) % q == 0


def _test_consecutive(subsets, values):
    import numpy as np

    return (np.diff(np.sort(values, axis=0), axis=0) == 1).all(axis=0)


def _test_clique(subsets, values):
    return (values == 1).all(axis=0)


def _test_explicit(satisfying):
    """Membership in an explicit list of l-sets of [index, value] pairs."""
    canon = {tuple(sorted(map(tuple, s))) for s in satisfying}
    return lambda subsets, values: [
        tuple(zip(*col)) in canon
        for col in zip(subsets.T.tolist(), values.T.tolist())]


def _build(family, n, l, values, params, seed):
    """An instance of a FAMILIES entry: its mode and predicate come from there."""
    fam = FAMILIES[family]
    return ProblemInstance(n=n, l=l, mode=fam.mode, values=tuple(values),
                           family_tag=family, property_params=dict(params),
                           predicate=fam.predicate(params), seed=seed)


def make_family(family: str, **params) -> ProblemInstance:
    """Build a ProblemInstance from one of the FAMILIES generators.

    All generators but custom's take an explicit seed and a planted flag,
    and draw exactly one marked subset if planted, else none: the
    distinctness families by construction, the others by _scrub_accidental.
    zero-sum-xor and sum-mod-q draw from about C(n, l) values by default,
    so that about one chance solution is expected and a few passes clear it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if "l" in params:
        check_family_l(family, params["l"])
    return FAMILIES[family].generate(**params)


def check_family_l(family: str, l: int) -> None:
    """Refuse an l outside the family's [min_l, max_l].  Below min_l nearly
    every table holds many solutions: one element is always a run of equal
    or consecutive values, and an l-clique of 1 or 2 vertices is a vertex
    or an edge; element-distinctness is l-distinctness at l=2 alone."""
    fam = FAMILIES[family]
    if not fam.min_l <= l <= fam.max_l:
        rule = f"={fam.min_l}" if fam.min_l == fam.max_l else f" >= {fam.min_l}"
        raise ValueError(f"{family} is an l{rule} family")


def _gen_element_distinctness(n, l=2, seed=0, planted=True):
    return _gen_l_distinctness(n, l=2, seed=seed, planted=planted,
                               family="element-distinctness")


def _gen_l_distinctness(n, l=2, seed=0, planted=True, family="l-distinctness"):
    """Injective values hold no l >= 2 equal ones; the plant copies one
    value to l - 1 other places, which makes those l the only equal ones."""
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    rng = random.Random(seed)
    vals = rng.sample(range(4 * n), n)
    if planted:
        where = rng.sample(range(n), l)
        for i in where[1:]:
            vals[i] = vals[where[0]]
    return _build(family, n, l, vals, {"planted": planted}, seed)


def _gen_zero_sum_xor(n, l=3, m_bits=None, seed=0, planted=True):
    if m_bits is None:
        m_bits = (binomial(n, l) - 1).bit_length()
    if m_bits < 1:
        raise ValueError("m_bits must be positive")
    rng = random.Random(seed)
    vals = [rng.getrandbits(m_bits) for _ in range(n)]
    keep = ()
    if planted:
        keep = rng.sample(range(n), l)
        vals[keep[-1]] = reduce(xor, (vals[i] for i in keep[:-1]), 0)
    _scrub_accidental(vals, n, l, _test_zero_sum_xor,
                      partial(rng.getrandbits, m_bits), keep)
    return _build("zero-sum-xor", n, l, vals,
                  {"m_bits": m_bits, "planted": planted}, seed)


def _scrub_accidental(vals, n, l, test, redraw, keep=(), mode=ITEM):
    """Redraw one value of each accidental solution until none remain.

    Wide value ranges make accidental solutions rare but, beyond a few
    dozen elements, near-certain to occur somewhere; whole-table
    rejection would then practically never terminate.  Point repairs
    converge because each redraw breaks one solution and creates new
    ones only with the background density.  A planted solution is
    passed in `keep`: it is never counted as accidental and its values
    are never touched.  A pass runs the family's test over the blocks
    find_marked scans, then redraws each hit's last slot (element, or
    edge in pairwise mode) that is not the plant's, in turn, the hits in
    itertools.combinations (lexicographic) order.  Each pass streams the
    blocks anew, so its memory is bounded at any C(n, l).

    On return the table holds no solution but the planted one, so the
    generators that scrub need no classifying scan afterwards.
    """
    import numpy as np

    kept = keep if mode == ITEM else [
        pair_index(a, b) for a, b in itertools.combinations(keep, 2)]
    for _ in range(_MAX_SCRUB_PASSES):
        redraws = []
        for subsets, slots in _hits(_blocks(n, l, mode), test, vals, l, mode):
            outside = ~np.isin(slots, kept)
            other = np.flatnonzero(outside.any(axis=0))  # all but the plant
            last = -1 - np.argmax(outside[::-1, other], axis=0)
            redraws += zip(subsets[:, other].T.tolist(),
                           slots[last, other].tolist())
        if not redraws:
            return
        for _, i in sorted(redraws):
            vals[i] = redraw()
    raise GenerationError(
        f"could not scrub accidental solutions in {_MAX_SCRUB_PASSES} passes")


def _gen_sum_mod_q(n, l=3, q=None, seed=0, planted=True):
    if q is None:
        q = binomial(n, l)
    if q < 2:
        raise ValueError("q must be at least 2")
    rng = random.Random(seed)
    vals = [rng.randrange(q) for _ in range(n)]
    keep = ()
    if planted:
        keep = rng.sample(range(n), l)
        vals[keep[-1]] = (-sum(vals[i] for i in keep[:-1])) % q
    _scrub_accidental(vals, n, l, _test_sum_mod_q(q),
                      partial(rng.randrange, q), keep)
    return _build("sum-mod-q", n, l, vals, {"q": q, "planted": planted}, seed)


def _gen_consecutive(n, l=3, seed=0, planted=True):
    rng = random.Random(seed)
    hi = 8 * n  # sparse values keep accidental runs rare
    vals = rng.sample(range(hi), n)
    keep = ()
    if planted:
        keep = rng.sample(range(n), l)
        start = rng.randrange(hi - l)
        for off, i in enumerate(keep):
            vals[i] = start + off
    _scrub_accidental(vals, n, l, _test_consecutive,
                      partial(rng.randrange, hi), keep)
    return _build("consecutive", n, l, vals, {"planted": planted}, seed)


def _clique_edge_prob(n, l):
    """0.25, lowered where a G(n, 0.25) graph would hold more than 3.5
    l-cliques by chance (l=3 from n=13 on), so that the scrub has few
    edges to redraw: C(n, l) p^C(l, 2) = 3.5."""
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

    def edge():
        return 1 if rng.random() < edge_prob else 0
    vals = [edge() for _ in range(binomial(n, 2))]
    keep = ()
    if planted:
        keep = clique if clique is not None else tuple(sorted(rng.sample(range(n), l)))
        for a, b in itertools.combinations(keep, 2):
            vals[pair_index(a, b)] = 1
    _scrub_accidental(vals, n, l, _test_clique, edge, keep, PAIRWISE)
    return _build("l-clique", n, l, vals,
                  {"edge_prob": edge_prob, "planted": planted,
                   "clique": list(clique) if clique else None}, seed)


def _gen_custom(n, l, values, mode=ITEM, satisfying=None, predicate=None, seed=None):
    """Explicit property: either a list of satisfying l-subsets of
    (index, value) tuples, or a raw test in ProblemInstance.predicate's
    calling convention (not serializable)."""
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


def _int_lists(value, depth: int) -> bool:
    """An integer (no bool) at depth 0, else a list of depth - 1 such."""
    if depth == 0:
        return type(value) is int
    return isinstance(value, list) and all(
        _int_lists(v, depth - 1) for v in value)


class Family(NamedTuple):
    generate: Callable      # keyword parameters -> ProblemInstance
    mode: str               # oracle mode: ITEM or PAIRWISE
    predicate: Callable     # property params, as stored -> vectorized test
    min_l: int = 1          # smallest l the generator can plant one set at
    max_l: float = math.inf  # largest l it takes
    params: tuple = ()      # (name, test, what it must be) per param it reads


FAMILIES = {
    "element-distinctness": Family(_gen_element_distinctness, ITEM,
                                   lambda params: _test_all_equal, 2, 2),
    "l-distinctness": Family(_gen_l_distinctness, ITEM,
                             lambda params: _test_all_equal, 2),
    "zero-sum-xor": Family(_gen_zero_sum_xor, ITEM,
                           lambda params: _test_zero_sum_xor),
    "sum-mod-q": Family(_gen_sum_mod_q, ITEM,
                        lambda params: _test_sum_mod_q(params["q"]),
                        params=(("q", lambda q: _int_lists(q, 0) and q >= 2,
                                 "an integer >= 2"),)),
    "consecutive": Family(_gen_consecutive, ITEM,
                          lambda params: _test_consecutive, 2),
    "l-clique": Family(_gen_clique, PAIRWISE, lambda params: _test_clique, 3),
    # a custom property stored in JSON is the list form, item-mode only
    "custom": Family(_gen_custom, ITEM,
                     lambda params: _test_explicit(params["satisfying"]),
                     params=(("satisfying", lambda s: _int_lists(s, 3),
                              "a list of lists of [index, value] pairs"),)),
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


def _entry(obj: dict, path: str, test, what: str):
    """obj's value at the last key of a dotted path, or a ValueError naming
    the path if it is missing or not what it must be."""
    key = path.rpartition(".")[2]
    if key not in obj or not test(obj[key]):
        raise ValueError(f"instance file key {path!r} is "
                         + (f"not {what}" if key in obj else "missing"))
    return obj[key]


def instance_from_json(d: dict) -> ProblemInstance:
    """Rebuild an instance from its JSON form (values taken verbatim).  Each
    key is checked first, so a malformed form is a ValueError naming one."""
    if not isinstance(d, dict):
        raise ValueError("an instance file holds one JSON object")
    prop = _entry(d, "property", lambda p: isinstance(p, dict), "an object")
    family = _entry(prop, "property.family",
                    lambda f: isinstance(f, str) and f in FAMILIES,
                    f"one of {', '.join(FAMILIES)}")
    fam = FAMILIES[family]
    params = _entry(prop, "property.params", lambda p: isinstance(p, dict),
                    "an object")
    for name, test, what in fam.params:
        _entry(params, f"property.params.{name}", test, what)
    _entry(d, "mode", lambda mode: mode == fam.mode, f"{fam.mode!r} for {family}")
    if fam.mode == ITEM:
        values = _entry(d, "values", lambda v: _int_lists(v, 1),
                        "a list of integers")
    else:
        values = _entry(d, "pairs",
                        lambda v: _int_lists(v, 1) and set(v) <= {0, 1},
                        "a list of 0/1 edge labels")
    n, l = (_entry(d, key, lambda v: _int_lists(v, 0), "an integer")
            for key in ("n", "l"))
    seed = _entry(d, "seed", lambda s: s is None or _int_lists(s, 0),
                  "an integer or null") if "seed" in d else None
    check_family_l(family, l)
    inst = _build(family, n, l, values, params, seed)
    if family == "custom":  # a set the table cannot hold would never match
        table = set(enumerate(values))  # one (index, value) pair per index
        _entry(params, "property.params.satisfying", lambda sets: all(
            len(s) == l == len(table & set(map(tuple, s))) for s in sets),
            f"a list of sets of {l} distinct [index, value] pairs of the table")
    return inst


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))

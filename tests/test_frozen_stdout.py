"""CLI stdout, frozen byte for byte: the sha256 of each command's output.

`simulate` is frozen for one small two-engine draw per family, an
unplanted draw, two custom instance files (one marked set, two) and four
scans of C(n, l) = 5·10^5 and 1.6·10^5 (three) subsets.  The twelve
drawn hashes were last frozen when params came to hold only what the
property reads ({} but sum-mod-q's q); with that block removed, each
output is byte for byte what it was before, and all but the zero-sum-xor
and sum-mod-q ones what the per-subset scan printed before the
marked-set scan was vectorized.  The two custom-file hashes are older.
`verify`, `spectrum`, `cost --optimize --l 3`, `cost --table1` and
`sweep --l 2` are frozen as they printed before `verify` checked the full
engine's index tables in place of the rank/unrank pair;
`cost --optimize --l 4 --variant mss` and
`sweep --l 3` as they printed while `sweep` still had a full-engine path
and `clique_cost`'s mss branch chose its own m; `cost --optimize --l 2`
(the simple variant) and `--n 10^12 --l 5 --variant recursive` as they
printed while the optimizer's step restated the cost's terms.  One
`simulate` and one `spectrum` run at n - m < l, where the reduced walk
has only 2(n - m) of its 2l+1 classes, are frozen as they printed while
the coins still built their groups from (n, m, l).  Every hash that holds
a reduced-engine or spectral number was re-frozen when each coin came to
be stated as C + Delta, W^t1 to be powered in I + E form and overlap_w
to be read over the state's squared norm: the full blocks, the cost
outputs and the full-only custom run printed the same bytes before."""
import hashlib
import json

import pytest

from johnson_walk.cli import main

# custom instance files: the satisfying list holds one set found in the
# table, or that one and a second
CUSTOM = {"n": 6, "l": 2, "mode": "item", "values": [3, 1, 4, 1, 5, 9],
          "seed": None}
SETS = [[[1, 1], [3, 1]], [[0, 3], [2, 4]]]

FROZEN = [
    ("--family element-distinctness --n 9 --engine both",
     "9c36978f299b7056262d27b0ad77bc7fc04c81efad75cd4b036b131242f0895e"),
    ("--family l-distinctness --n 10 --l 3 --engine both",
     "a22f705a955eb0234e18804f87419e0beee064ed89dc0ec1b97ffaa1eba9e4ad"),
    ("--family zero-sum-xor --n 10 --l 3 --engine both",
     "f0b8dd07297e63dbd33c49ccbfeb4b58e491f0c0468bd474f60361ec7ef729d0"),
    ("--family sum-mod-q --n 10 --l 3 --engine both",
     "e06dce5e3b1756a1388b9e85a0a1f62184270bbea662fc5aa4da565e9a1d6091"),
    ("--family consecutive --n 12 --l 3 --engine both",
     "eec0afe6983dfcf95491ee86e62c651aff8cf674ec9388c04686bbc2e041248d"),
    ("--family l-clique --n 9 --l 3 --engine both",
     "ca1dc37272c05995ed1da6bc294c8c23bc69dadcb255cce7d2b9ab0722ac7075"),
    ("--family sum-mod-q --n 12 --l 3 --no-plant --engine both",
     "212e60111b6bf2ad5c6ae9683614c31d289ac58704f7441e30a956ca64fa28c0"),
    ("--instance {one} --engine both",
     "35479e2753fc6fef2362c2d95219f453634fc2f75a05faa5183338d85558586b"),
    ("--instance {two} --engine full",
     "39f627c981e6643abea3b82c97961a5302ae1a8b55c55f8d0228815113b230e9"),
    ("--family l-distinctness --n 1000 --l 2 --engine reduced",
     "feef27bc9477f13174281a9441c2f3bbe2117c5b53473b1ae533f2e14f87efa2"),
    ("--family l-clique --n 100 --l 3 --engine reduced",
     "8195d40eb7c93705ccfc031dcb3f6481f6e38da1f880d35c8fe1d200b070ebaa"),
    ("--family consecutive --n 100 --l 3 --engine reduced",
     "5fd25715ed6c444ca0d9ac35ecce85cddfe9c548f8fe1b00bb6701cac5b207fe"),
    ("--family sum-mod-q --n 100 --l 3 --engine reduced",
     "af79ae7b5ff705cc364b3693fac6d2f7bbfe7d6bf64a773986f8a65a410c2850"),
    ("--family l-distinctness --n 7 --l 4 --m 5 --engine both",
     "d97599eae6d9bc9375f48122a175fa7f06d36e110dff8bfa3c99021b20351238"),
]


@pytest.mark.parametrize("argv, digest", FROZEN, ids=[a for a, _ in FROZEN])
def test_simulate_stdout_is_frozen(capsys, tmp_path, argv, digest):
    files = {}
    for name, sets in (("one", SETS[:1]), ("two", SETS)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({**CUSTOM, "property": {
            "family": "custom", "params": {"satisfying": sets}}}))
    assert main(["simulate", *argv.format(**files).split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


OTHER = [
    ("verify",
     "30b455f264a23b885d652e1c30745a15dcdd8f95d9551758dd9330a58417542a"),
    ("spectrum --n 10000000 --l 2",
     "338445ea179bb8ae4f632173be60ad244f8bcc8e7659a04d4fa872dd8beed486"),
    ("spectrum --n 12 --l 4 --m 9",
     "7bf9c85a7aaa263b3c50c7265c7c64043a52d5f8b62b75adaa5a2da6ad16d090"),
    ("cost --optimize --l 3 --variant recursive",
     "e64dafeaa92b880475ef63c84e4a1cb1dee5bf503fb7335d5e37bdbe385186f0"),
    ("cost --optimize --l 2",
     "98cebe3f48f2b40b1c8ba14535dd26b251ab7ce5ccd3cc8ccabe46942f1ed691"),
    ("cost --optimize --n 1000000000000 --l 5 --variant recursive",
     "3ba0562d96c26062cff7051ddea05de678f980e88fc22a8ac72f48ad2fb2be0c"),
    ("cost --optimize --l 4 --variant mss",
     "ef12157999b25906933a09b8c0dc8ac0e244b84dde0a7ec3c7dccd9d1b88dfdc"),
    ("cost --table1",
     "b096561f3c5cb783e5482769e9b30297f9c4be8f0a6fe4eac5fb10798da38d91"),
    ("sweep --l 2 --n-values 100 1000 10000",
     "96547d7eb18f1f5b37132eec86c1d606cd031b01a546753972f7b05fad75881d"),
    ("sweep --l 3 --n-values 100 1000 10000",
     "d99011f1c7d09b9806f2e0b2c697cdba09a042ab46acfd0cae48afe9a92631bd"),
]


@pytest.mark.parametrize("argv, digest", OTHER, ids=[a for a, _ in OTHER])
def test_command_stdout_is_frozen(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

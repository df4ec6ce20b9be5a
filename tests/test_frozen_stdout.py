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
the coins still built their groups from (n, m, l)."""
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
     "ce8b5c036cb5e06c87f45f0c9ad4591197707700f19cf432611acdb134dce5ff"),
    ("--family l-distinctness --n 10 --l 3 --engine both",
     "a84e2bb1118b66b404ae5abf11667858f58f630d203629026cd77a7a869f1b1f"),
    ("--family zero-sum-xor --n 10 --l 3 --engine both",
     "1179b8f1125019d2c047b9ab0e4104e181f183d5fd82518892eac994a1c1663e"),
    ("--family sum-mod-q --n 10 --l 3 --engine both",
     "20743a594db9b657b34e1cd7b1e410b753b181d557e42c69aaabeff5d83f6899"),
    ("--family consecutive --n 12 --l 3 --engine both",
     "55e82d8c9aba41a642cf6274bab37ed6fe2067eb8fc300a9c9dd98954eab4e87"),
    ("--family l-clique --n 9 --l 3 --engine both",
     "f4c2d81f18f520043563910ac196f22bad6882c9ddd46b458c0d6cf7f1169773"),
    ("--family sum-mod-q --n 12 --l 3 --no-plant --engine both",
     "212e60111b6bf2ad5c6ae9683614c31d289ac58704f7441e30a956ca64fa28c0"),
    ("--instance {one} --engine both",
     "a153786bdf706dc8111c37b3e5a7f61244ac293e359e4fd37c6c510063861da1"),
    ("--instance {two} --engine full",
     "39f627c981e6643abea3b82c97961a5302ae1a8b55c55f8d0228815113b230e9"),
    ("--family l-distinctness --n 1000 --l 2 --engine reduced",
     "060090e36530469d02cab1e7c750716a3a7abfe720daa1f5881fe696094a8269"),
    ("--family l-clique --n 100 --l 3 --engine reduced",
     "969acacd5cc4cd85d1cc0c29d18ff463e2420d7a72125e5c1f1039547e7d5a9f"),
    ("--family consecutive --n 100 --l 3 --engine reduced",
     "d79ea07fac2e0990d3628ebf6643d0e136f9cb389af41f3b7334649c66ae1911"),
    ("--family sum-mod-q --n 100 --l 3 --engine reduced",
     "e3aa55b3b190e8cfdb2d7cbfac13ffe6615f45aa44d424e6981859d5e3d89de8"),
    ("--family l-distinctness --n 7 --l 4 --m 5 --engine both",
     "38e6875b9a514b732c864d1fdbfcfd5e69b0a1f1dc8d5b3acfd1f6cc249eb356"),
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
     "6e77de4621472e92bc275109be63c88257e2c69e34cda7a9e181d0b31357db6b"),
    ("spectrum --n 10000000 --l 2",
     "0ca18064d3385a8fc936eda7207def1012062d28d3ca8c72b473c65067cebfad"),
    ("spectrum --n 12 --l 4 --m 9",
     "6e7d8ad80c4795a7707b6a7e192f572ddd011fab440720fb09bd0b0c26abf6dc"),
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
     "c5c19c3d604f93e154b507bfbb3b01e049158d97f0cf28a5d621a9f70513eb5d"),
    ("sweep --l 3 --n-values 100 1000 10000",
     "25d4a7ddf96de7ba815c57e93f27efb6139cca3fc15d82f8541325533cb79b62"),
]


@pytest.mark.parametrize("argv, digest", OTHER, ids=[a for a, _ in OTHER])
def test_command_stdout_is_frozen(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

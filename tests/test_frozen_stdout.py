"""CLI stdout, frozen byte for byte: the sha256 of each command's output.

`simulate` is frozen for one small two-engine draw per family, an
unplanted draw, two custom instance files (one marked set, two) and four
scans of C(n, l) = 5·10^5 and 1.6·10^5 (three) subsets.  All but the
zero-sum-xor and sum-mod-q hashes are what the per-subset scan printed
before the marked-set scan was vectorized; those two families draw from
their default range of about C(n, l) values.  `verify`, `spectrum`,
`cost --optimize --l 3`, `cost --table1` and `sweep --l 2` are frozen as
they printed before `verify` checked the full engine's index tables in
place of the rank/unrank pair; `cost --optimize --l 4 --variant mss` and
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
     "7d29ca519b7ca63f39a1b55e51fe0c89cee5ce854dea8be4c939cf08e14554d6"),
    ("--family l-distinctness --n 10 --l 3 --engine both",
     "333cebf3c39e3a6f44b616e70e273958fca6f3cb06c5a09b02db050d6d7f67ff"),
    ("--family zero-sum-xor --n 10 --l 3 --engine both",
     "3be2bf7fb8de09fd17b2124ffe004dc70db52b011e3dd42bd5b5e7c747b2c03c"),
    ("--family sum-mod-q --n 10 --l 3 --engine both",
     "47d39cb4abe1410dc6aff3e03e3861ee407b767ae95c4660c7a678a8788c23c9"),
    ("--family consecutive --n 12 --l 3 --engine both",
     "9e1c0bf3526c17e62335e1a5a803e74b35c453b9b627a42732b4b449b5ff92fc"),
    ("--family l-clique --n 9 --l 3 --engine both",
     "994ed55fb9adb6946acebc0e6e9f8dc9448c92234be13e8bc3e2f0343128cdcc"),
    ("--family sum-mod-q --n 12 --l 3 --no-plant --engine both",
     "a9a9fa13cefcca1ceed6dce5339e4670114f763bbec9bb8010843880a468abf7"),
    ("--instance {one} --engine both",
     "a153786bdf706dc8111c37b3e5a7f61244ac293e359e4fd37c6c510063861da1"),
    ("--instance {two} --engine full",
     "39f627c981e6643abea3b82c97961a5302ae1a8b55c55f8d0228815113b230e9"),
    ("--family l-distinctness --n 1000 --l 2 --engine reduced",
     "d2bbb1ae21359ff8e6f0bdbf505232b72a87cb1a552f7b85f9812c08f5b03289"),
    ("--family l-clique --n 100 --l 3 --engine reduced",
     "e4ae093e6d0fcd2a0eb9d6b47fab56603c73e7007777c5d63196117f7cf45c44"),
    ("--family consecutive --n 100 --l 3 --engine reduced",
     "6991421314056a0d7b6339c7ecfed676483e4e099e461ec4f5275c18085f571a"),
    ("--family sum-mod-q --n 100 --l 3 --engine reduced",
     "cff5060cfe4811832391cb39cadc030091ecab4beec459f3533f1d5a5bb6e73a"),
    ("--family l-distinctness --n 7 --l 4 --m 5 --engine both",
     "b4c44d0decf086843ce3ad344c87edd3337f780b296e24ecd6dcc89b800e53d8"),
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

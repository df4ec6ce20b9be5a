"""CLI: subcommands, exit codes, determinism, and serialization format."""
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from johnson_walk.cli import main
from johnson_walk.cost_model import oracle_queries
from johnson_walk.serialize import dumps_report, format_float


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_both_engines(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family",
                           "element-distinctness", "--n", "9", "--l", "2",
                           "--engine", "both", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["full"]["success_probability"] == pytest.approx(
        rep["reduced"]["success_probability"], abs=1e-9)
    assert rep["max_state_deviation"] <= 1e-9
    assert rep["full"]["query_count"] == rep["reduced"]["query_count"]


def test_simulate_no_plant(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "zero-sum-xor",
                           "--n", "16", "--l", "3", "--no-plant",
                           "--engine", "full")
    assert code == 0
    rep = json.loads(out)
    assert rep["full"]["success_probability"] == 0
    assert "no_marked" in rep["full"]["flags"]


def test_simulate_large_reduced(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "1000000", "--l", "2",
                           "--engine", "reduced")
    assert code == 0
    rep = json.loads(out)
    assert rep["reduced"]["overlap_w"] >= 0.97
    assert "assumed_unique" in rep["reduced"]["flags"]


@pytest.mark.parametrize("argv, n, l, rule, t1, t2, bound", [
    (("simulate", "--n", str(10 ** 28)), 10 ** 28, 2, 2392975281,
     2392975281, 1692089049, "1.503e-06"),
    (("simulate", "--n", "100000000", "--l", "3", "--t1", "15710634085",
      "--t2", "1"), 10 ** 8, 3, 907, 15710634085, 1, "1.000e-06"),
    (("sweep", "--n-values", "1000", str(10 ** 28)), 10 ** 28, 2,
     2392975281, 2392975281, 1692089049, "1.503e-06"),
], ids=["rule", "given-t1-t2", "sweep"])
def test_reduced_past_the_error_bound_exit_2(capsys, argv, n, l, rule, t1,
                                             t2, bound):
    """At n=10^28 the rule's t2 = 1.7e9 rotations bound the float error
    only by 1.5e-6, past 1e-6: one line, before any walk.  Given t1 and
    t2 are held to the bound too (15710634085, 1.7e7 times the rule's t1,
    is the first t1 past it at t2 = 1), and so is each point of a sweep."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: the reduced engine refuses n={n}, l={l}: its "
                   f"error bound 4*(t2+64)*max(1, t1/{rule})*2^-52 = {bound} "
                   f"at t1={t1}, t2={t2} passes 1e-06\n")


def test_reduced_at_the_error_bound_runs(capsys):
    """One step of t1 short of the refusal, the run is admitted."""
    code, out, _ = run_cli(capsys, "simulate", "--n", "100000000", "--l", "3",
                           "--t1", "15710634084", "--t2", "1",
                           "--engine", "reduced")
    assert code == 0
    assert json.loads(out)["reduced"]["overlap_w"] <= 1.0


def test_simulate_explicit_overrides(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "9", "--l", "2",
                           "--m", "4", "--t1", "2", "--t2", "2",
                           "--engine", "full", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["full"]["t1"] == 2 and rep["full"]["t2"] == 2
    assert rep["full"]["success_probability"] == pytest.approx(
        0.7953860624657066, abs=1e-12)


def test_simulate_instance_file(capsys, tmp_path):
    from johnson_walk import instance_to_json, make_family

    inst = make_family("element-distinctness", n=9, seed=1)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    code, out, _ = run_cli(capsys, "simulate", "--instance", str(path),
                           "--engine", "full")
    assert code == 0
    assert json.loads(out)["full"]["n"] == 9


def test_spectrum_three_cycle(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--m", "1",
                           "--l", "1")
    assert code == 0
    rep = json.loads(out)
    phases = rep["walk_spectrum"]["phases"]
    assert phases == pytest.approx([-2.0943951023931957, 0.0,
                                    2.0943951023931957], abs=1e-12)


def test_spectrum_large(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "10000", "--l", "2")
    assert code == 0
    rep = json.loads(out)
    assert 0.95 <= rep["rotation"]["ratio_plus"] <= 1.05


def test_config_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "9", "--m", "1",
                           "--l", "2")
    assert code == 2
    assert "error" in err


def test_spectrum_underflowed_overlap_exit_2(capsys):
    """<w|s>^2 underflows to 0.0 here; no inf may reach the JSON."""
    code, out, err = run_cli(capsys, "spectrum", "--n", "10000000",
                             "--m", "200", "--l", "200")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "underflow" in err


@pytest.mark.parametrize("n", range(2, 16))
def test_spectrum_grid_exit_0_or_one_line_2(capsys, n):
    """Every 1 <= l <= m < n gives a report or one error line and exit 2.
    The grid holds walks with an eigenvalue -1 (theta = pi, on the
    eigensolver's branch cut), with n - m < l, and with one active root."""
    for m in range(1, n):
        for l in range(1, m + 1):
            code, out, err = run_cli(capsys, "spectrum", "--n", str(n),
                                     "--m", str(m), "--l", str(l))
            if code == 0:
                assert err == "", (n, m, l)
                assert json.loads(out)["walk_spectrum"]["closed_form_exact"]
            else:
                assert code == 2 and out == "", (n, m, l)
                assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_theta_l_at_pi(capsys):
    """n=4, m=2, l=2: sin(theta_2 / 2) = 1, so -1 is an eigenvalue, simple
    at n - m = l.  theta lists pi once, and each extreme-pair target keeps a
    quarter of its weight in that eigenspace (the null space of W + 1)."""
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--m", "2",
                           "--l", "2")
    assert code == 0
    rep = json.loads(out)["walk_spectrum"]
    assert rep["theta"] == pytest.approx([1.9106332362490184, math.pi],
                                         abs=1e-12)
    assert rep["extreme_pair_fidelity"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("argv, message", [
    (("--n", "4", "--l", "2"),
     "W^t1 P has no rotation pair at n=4, m=3, l=2"),
    (("--n", "3", "--m", "2", "--l", "1"),
     "W^t1 P has no rotation pair at n=3, m=2, l=1"),
    (("--n", str(10 ** 40), "--l", "2"),
     f"W^t1 P has no rotation pair at n={10 ** 40}, "
     f"m=464158883361276304094658560, l=2"),
    ((), "--n is required"),
])
def test_spectrum_refusals_name_the_cause(capsys, argv, message):
    code, out, err = run_cli(capsys, "spectrum", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_spectrum_large_n_grid_right_pair_or_one_line_2(capsys):
    """l = 1..8, n = 10^10..10^24 by half decades: every one of the 232
    points answers, and its rotation pair is the right one, to error_scale
    with a 2e-11 floor for float rounding at l=1 (at 10^23, |ratio_plus -
    1| is 1.06e-11 against an error_scale of 6.3e-12; every point but
    l=1 from 10^22.5 is within half its error_scale).  Before W^t1 was
    powered in I + E form, its float drift failed the eigensolver's
    orthogonality check at 129 of them."""
    answered = 0
    for l in range(1, 9):
        for k in range(20, 49):
            n = 10 ** (k // 2) if k % 2 == 0 else math.isqrt(10 ** k)
            code, out, err = run_cli(capsys, "spectrum", "--n", str(n),
                                     "--l", str(l))
            assert code == 0 and err == "", (l, n, err)
            rot = json.loads(out)["rotation"]
            assert rot["eigvec_fidelity"] >= 0.99, (l, n)
            assert abs(rot["ratio_plus"] - 1.0) <= max(
                rot["error_scale"], 2e-11), (l, n)
            answered += 1
    assert answered == 232


def test_spectrum_past_n_minus_m_below_l(capsys):
    """n=9, l=4 walks at m=6: the classes (0, 0) and (0, 1) are empty, and
    the closed form holds on the six labels left, theta_3 = pi included."""
    code, out, err = run_cli(capsys, "spectrum", "--n", "9", "--l", "4")
    assert code == 0 and err == ""
    rep = json.loads(out)["walk_spectrum"]
    assert rep["m"] == 6 and rep["closed_form_exact"]
    assert len(rep["theta"]) == 3 and len(rep["phases"]) == 6
    assert rep["theta"][-1] == pytest.approx(math.pi, abs=1e-12)


ED_FILE = {"n": 9, "l": 2, "mode": "item",
           "values": [1, 1, 2, 3, 4, 5, 6, 7, 8],
           "property": {"family": "element-distinctness", "params": {}},
           "seed": None}
SMQ_FILE = {"n": 6, "l": 3, "mode": "item", "values": [1, 2, 3, 4, 5, 6],
            "property": {"family": "sum-mod-q", "params": {"q": 7}},
            "seed": None}
CLIQUE_FILE = {"n": 4, "l": 3, "mode": "pairwise", "pairs": [1, 1, 1, 0, 0, 0],
               "property": {"family": "l-clique", "params": {}},
               "seed": None}


def custom_file(*sets):
    """A custom instance file at n=6, l=2 listing the given sets."""
    return {"n": 6, "l": 2, "mode": "item", "values": [3, 1, 4, 1, 5, 9],
            "property": {"family": "custom",
                         "params": {"satisfying": list(sets)}},
            "seed": None}


@pytest.mark.parametrize("doc, key", [
    ({}, "'property'"),
    ([], "one JSON object"),
    ({**ED_FILE, "property": "x"}, "'property'"),
    ({k: v for k, v in ED_FILE.items() if k != "values"}, "'values'"),
    ({**SMQ_FILE, "property": {"family": "sum-mod-q", "params": {}}},
     "'property.params.q'"),
    ({**ED_FILE, "property": {"family": "custom", "params": {}}},
     "'property.params.satisfying'"),
    ({**ED_FILE, "n": "9"}, "'n'"),
    ({**ED_FILE, "n": 9.0}, "'n'"),
    ({**SMQ_FILE, "values": ["1", "2", "3", "4", "5", "6"]}, "'values'"),
    ({**ED_FILE, "seed": {"x": [1.5]}}, "'seed'"),
    ({**ED_FILE, "seed": 1.5}, "'seed'"),
    ({**ED_FILE, "seed": True}, "'seed'"),
    ({**CLIQUE_FILE, "pairs": [1, 1, 7, 0, 0, 0]}, "'pairs'"),
    ({**CLIQUE_FILE, "pairs": [1, 1, 1, 0, -1, 0]}, "'pairs'"),
    (custom_file([[1, 1], [3, 1], [0, 3]]), "'property.params.satisfying'"),
    (custom_file([[3], [1, 1]]), "'property.params.satisfying'"),
    (custom_file([[1, 1], [1, 1]]), "'property.params.satisfying'"),
    (custom_file([[1, 1], [6, 1]]), "'property.params.satisfying'"),
    (custom_file([[1, 7], [3, 7]]), "'property.params.satisfying'"),
], ids=["empty-object", "array", "property-string", "no-values",
        "sum-mod-q-no-q", "custom-no-satisfying", "n-string", "n-float",
        "string-values", "seed-object", "seed-float", "seed-bool",
        "clique-label-7", "clique-label-negative", "custom-three-pairs",
        "custom-pair-without-value", "custom-repeated-index",
        "custom-index-past-n", "custom-value-not-in-table"])
def test_malformed_instance_file_exit_2(capsys, tmp_path, doc, key):
    """A malformed instance file is one error line naming the bad key."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--instance", str(path),
                             "--engine", "full")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("engine", ["reduced", "both"])
def test_reduced_refuses_several_marked_sets(capsys, tmp_path, engine):
    """Two disjoint collisions: the reduced engine models only one."""
    path = tmp_path / "two_collisions.json"
    path.write_text(json.dumps({
        "n": 9, "l": 2, "mode": "item", "values": [1, 1, 2, 2, 3, 4, 5, 6, 7],
        "property": {"family": "element-distinctness", "params": {}},
        "seed": None}))
    argv = ("simulate", "--instance", str(path), "--m", "4", "--t1", "2",
            "--t2", "2")
    code, out, err = run_cli(capsys, *argv, "--engine", engine)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "found 2 marked sets" in err and "--engine full" in err
    code, out, _ = run_cli(capsys, *argv, "--engine", "full")
    assert code == 0
    assert "unguaranteed" in json.loads(out)["full"]["flags"]


@pytest.mark.parametrize("argv, message", [
    ((), "either --instance or --n is required"),
    (("--engine", "full", "--n", "9", "--t1", "-1"),
     "t1, t2 must be nonnegative"),
], ids=["no-size", "negative-t1"])
def test_simulate_refusals_name_the_cause(capsys, argv, message):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("--engine", "full"), ("--engine", "reduced"), ("--seed", "1"),
])
def test_sweep_takes_no_engine_or_seed(capsys, argv):
    """sweep runs the reduced engine only, on no drawn instance."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n-values", "100", "1000", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_simulate_large_reduced_takes_the_family_oracle(capsys):
    """Past the scan limit no instance is built; the mode still comes from
    the family: l-clique is charged edge queries."""
    code, out, _ = run_cli(capsys, "simulate", "--engine", "reduced",
                           "--family", "l-clique", "--n", "100000000",
                           "--l", "3")
    assert code == 0
    rep = json.loads(out)["reduced"]
    assert (rep["m"], rep["t1"], rep["t2"]) == (10 ** 6, 907, 785)
    assert rep["mode"] == "pairwise"
    assert rep["query_count"] == oracle_queries(10 ** 6, 907, 785,
                                                "pairwise") == 1923989500000


@pytest.mark.parametrize("argv", [
    ("--family", "custom", "--n", "9"),
    ("--family", "element-distinctness", "--engine", "reduced",
     "--n", "100000000", "--l", "3"),
    ("--engine", "reduced", "--n", "1000000", "--no-plant"),
])
def test_simulate_refuses_family_without_table_exit_2(capsys, argv):
    """custom needs --instance; the l=2 rule holds past the scan limit,
    where no scan can show that a drawn table has no marked set."""
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--n", "9", "--engine", "both"),
    ("--n", "9", "--l", "1", "--engine", "full"),
    ("--engine", "reduced", "--n", "100000000", "--l", "2"),
])
def test_simulate_l_clique_refuses_l_below_3_exit_2(capsys, argv):
    """A 1- or 2-clique is a vertex or an edge, too common to plant a
    unique one; the rule holds past the scan limit too."""
    code, out, err = run_cli(capsys, "simulate", "--family", "l-clique", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: l-clique is an l >= 3 family\n"


@pytest.mark.parametrize("family, argv", [
    ("consecutive", ("--n", "9", "--engine", "both")),
    ("consecutive", ("--engine", "reduced", "--n", "100000000")),
    ("l-distinctness", ("--n", "9", "--engine", "full")),
    ("l-distinctness", ("--engine", "reduced", "--n", "100000000")),
])
def test_simulate_run_families_refuse_l_1_exit_2(capsys, family, argv):
    """Every element is a run of one equal or consecutive value, so no
    instance has a unique marked set; the rule holds past the scan limit."""
    code, out, err = run_cli(capsys, "simulate", "--family", family,
                             "--l", "1", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {family} is an l >= 2 family\n"


@pytest.mark.parametrize("l", ["1", "3"])
@pytest.mark.parametrize("argv", [
    ("--n", "9", "--engine", "both"),
    ("--engine", "reduced", "--n", "100000000"),
])
def test_simulate_element_distinctness_refuses_l_other_than_2(capsys, l,
                                                              argv):
    """The l=2 rule comes from the family's entry, built or not."""
    code, out, err = run_cli(capsys, "simulate", "--family",
                             "element-distinctness", "--l", l, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: element-distinctness is an l=2 family\n"


@pytest.mark.parametrize("family, l, rule", [
    ("element-distinctness", 3, "l=2"), ("l-distinctness", 1, "l >= 2"),
    ("consecutive", 1, "l >= 2"), ("l-clique", 2, "l >= 3")])
def test_instance_file_obeys_the_family_l_range(capsys, tmp_path, family, l,
                                                rule):
    """An instance file at an l outside its family's range is refused with
    the line --family gives for that l: a loaded table is held to the rule
    a drawn one is."""
    mode = "pairs" if family == "l-clique" else "values"
    path = tmp_path / "out_of_range.json"
    path.write_text(json.dumps({
        "n": 6, "l": l, "mode": "pairwise" if mode == "pairs" else "item",
        mode: [0] * 15 if mode == "pairs" else [1, 2, 3, 4, 5, 6],
        "property": {"family": family, "params": {}}, "seed": None}))
    code, out, err = run_cli(capsys, "simulate", "--instance", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {family} is an {rule} family\n"
    assert run_cli(capsys, "simulate", "--family", family, "--n", "6",
                   "--l", str(l)) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ("--family", "zero-sum-xor", "--n", "14", "--l", "4"),
    ("--family", "sum-mod-q", "--n", "20", "--l", "5"),
])
def test_simulate_scrubbed_families_past_l_3(capsys, argv):
    """Past l = 3 the default range of about C(n, l) values is scrubbed of
    its chance solutions too."""
    code, out, _ = run_cli(capsys, "simulate", *argv, "--engine", "reduced",
                           "--seed", "0")
    assert code == 0
    rep = json.loads(out)["reduced"]
    assert "assumed_unique" not in rep["flags"]
    assert rep["success_probability"] > 0


@pytest.mark.parametrize("family", ["consecutive", "zero-sum-xor"])
def test_simulate_generation_failure_exit_2(capsys, monkeypatch, family):
    """With no scrub passes allowed, the scrub of consecutive (values drawn
    from 8n) and of zero-sum-xor (about C(n, l) values) gives up: one line,
    exit 2."""
    from johnson_walk import instances

    monkeypatch.setattr(instances, "_MAX_SCRUB_PASSES", 0)
    code, out, err = run_cli(capsys, "simulate", "--family", family,
                             "--n", "9", "--l", "3", "--engine", "full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: could not ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, family", [
    (("--engine", "reduced", "--n", "100000000", "--l", "3"), "l-distinctness"),
    (("--engine", "reduced", "--n", "1000000", "--l", "2"),
     "element-distinctness"),
    (("--engine", "full", "--n", "9", "--l", "3"), "l-distinctness"),
])
def test_simulate_default_family_follows_l(capsys, argv, family):
    """With --family left out the run is labelled (and, when an instance
    is built, generated) by the distinctness family of its l."""
    code, out, _ = run_cli(capsys, "simulate", *argv)
    assert code == 0
    assert json.loads(out)["family"] == family


def test_simulate_l_clique_at_n_16(capsys):
    """At edge probability 0.25 an n=16 graph holds about 8.75 chance
    triangles, too many to plant a unique one; the generator lowers it."""
    code, out, _ = run_cli(capsys, "simulate", "--family", "l-clique",
                           "--l", "3", "--n", "16", "--engine", "both",
                           "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_state_deviation"] <= 1e-9
    assert rep["full"]["success_probability"] == pytest.approx(
        rep["reduced"]["success_probability"], abs=1e-9)


def test_simulate_unknown_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "nonsense", "--engine", "reduced",
              "--n", "100000000", "--l", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_simulate_overflowing_t2_exit_2(capsys):
    """(n/m)^{l/2} overflows a float here; a given t2 is never computed."""
    argv = ("simulate", "--engine", "reduced", "--n", "10000000",
            "--m", "200", "--l", "200")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "overflows" in err
    code, out, _ = run_cli(capsys, *argv, "--t2", "1")
    assert code == 0
    assert json.loads(out)["reduced"]["t2"] == 1


HUGE_N = str(10 ** 400)


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", HUGE_N),
    ("simulate", "--n", HUGE_N, "--engine", "full"),
    ("simulate", "--n", HUGE_N, "--m", "5", "--t1", "1", "--t2", "1"),
    ("spectrum", "--n", HUGE_N),
    ("sweep", "--n-values", HUGE_N),
    ("cost", "--optimize", "--n", HUGE_N),
    ("cost", "--optimize", "--n", HUGE_N, "--variant", "mss"),
    ("cost", "--optimize", "--n", HUGE_N, "--variant", "recursive"),
    ("cost", "--optimize", "--n", str(10 ** 250)),
], ids=["simulate", "simulate-full", "simulate-given-m", "spectrum", "sweep",
        "cost-simple", "cost-mss", "cost-recursive", "cost-simple-10^250"])
def test_size_past_float_range_exit_2(capsys, argv):
    """n = 10^400 does not fit a float, and at n = 10^250 the optimizer's
    cost does not; the OverflowError is one line naming the size option."""
    code, out, err = run_cli(capsys, *argv)
    size = "--n-values" if argv[0] == "sweep" else "--n"
    assert code == 2 and out == ""
    assert err == (f"error: {size} is too large: a size derived from it is "
                   "past float range\n")


@pytest.mark.parametrize("engine", ["reduced", "full", "both"])
def test_simulate_negative_n_exit_2(capsys, engine):
    code, out, err = run_cli(capsys, "simulate", "--n", "-5",
                             "--engine", engine)
    assert code == 2 and out == ""
    assert err == "error: need 1 <= l < n, got l=2, n=-5\n"


def test_memcap_exit_3(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "40", "--l", "2",
                           "--engine", "full")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--engine", "full", "--n", "5000"),
    ("simulate", "--engine", "both", "--n", "1000000"),
])
def test_memcap_exit_3_before_the_draw(capsys, monkeypatch, argv):
    """The byte cap is checked before the generator's scan over C(n, l)
    subsets, which would take hours here; a need too long for str() is
    shown as a power of ten."""
    from johnson_walk import cli

    def no_draw(*args, **kwargs):
        raise AssertionError("the instance was drawn before the cap check")

    monkeypatch.setattr(cli, "make_family", no_draw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: the walk at ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--engine", "full", "--n", "200", "--l", "5"),
    ("--engine", "both", "--n", "200", "--l", "5"),
    ("--instance", "{big}", "--engine", "reduced"),
    ("--instance", "{big}", "--engine", "full"),
], ids=["full", "both", "file-reduced", "file-full"])
def test_scan_cap_exit_2_before_the_draw(capsys, monkeypatch, tmp_path,
                                         scans, argv):
    """A run that must scan C(200, 5) = 2.5e9 subsets (about 30 s of scan)
    exits 2 at once, before any draw or scan, with one line naming C(n, l);
    --m 199 keeps the walk small."""
    from johnson_walk import cli

    def no_draw(*args, **kwargs):
        raise AssertionError("the instance was drawn before the scan cap")

    monkeypatch.setattr(cli, "make_family", no_draw)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({**SMQ_FILE, "n": 200, "l": 5,
                               "values": list(range(200))}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "199",
                             *(a.format(big=big) for a in argv))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and scans == []
    assert err == ("error: the marked-set scan stops at C(n, l) = 100000000; "
                   "C(200, 5) is past it\n")


@pytest.mark.parametrize("engine", ["full", "reduced", "both"])
def test_simulate_scans_once(capsys, scans, engine):
    """simulate scans the C(n, l) subsets once with any engine: the
    command and both engines read the instance's marked_sets, which scans
    on its first read."""
    code, out, _ = run_cli(capsys, "simulate", "--engine", engine,
                           "--n", "9", "--seed", "1")
    assert code == 0
    for report in ("full", "reduced") if engine == "both" else (engine,):
        flags = json.loads(out)[report]["flags"]
        assert not {"assumed_unique", "unguaranteed"} & set(flags)
    assert [inst.n for inst in scans] == [9]


def test_memcap_exit_3_without_the_count(capsys, monkeypatch):
    """Far past the cap, the refusal forms no C(n, m): at n=10^8 that count
    alone took over a minute."""
    def no_count(*args):
        raise AssertionError("C(n, m) was formed")

    monkeypatch.setattr(math, "comb", no_count)
    code, out, err = run_cli(capsys, "simulate", "--engine", "full",
                             "--n", "100000000")
    assert code == 3 and out == ""
    assert err.startswith("error: the walk at n=100000000, m=215443 needs "
                          "over 10^") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "--engine", "reduced", "--n", "10000000", "--l", "2"),
    ("spectrum", "--n", "100000000", "--l", "2"),
    ("verify",),
    ("cost", "--optimize", "--n", "1000000000000", "--l", "8"),
], ids=["reduced", "spectrum", "verify", "optimize"])
def test_no_giant_binomial(capsys, monkeypatch, argv):
    """The reduced, spectral, verify and cost paths form no C(n, k) with
    k > 64: C(n, m) at n = 10^8 alone takes minutes."""
    comb = math.comb

    def small_comb(n, k):
        if k > 64:
            raise AssertionError(f"C({n}, {k}) was formed")
        return comb(n, k)

    monkeypatch.setattr(math, "comb", small_comb)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("option, value", [
    ("n", 12), ("family", "zero-sum-xor"), ("l", 2), ("seed", 0),
    ("no-plant", True),
])
def test_simulate_instance_refuses_draw_options(capsys, tmp_path, option,
                                                value):
    """--instance brings n, l, family and seed, so an option that draws an
    instance exits 2 and is named, from the command line or a config file,
    even at its default value."""
    from johnson_walk import instance_to_json, make_family

    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_json(
        make_family("l-distinctness", n=9, l=3, seed=1))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({option: value}))
    flag = ("--" + option,) + (() if value is True else (str(value),))
    for extra in (flag, ("--config", str(config))):
        code, out, err = run_cli(capsys, "simulate", "--instance", str(inst),
                                 *extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"--{option}" in err


def test_sweep_csv_and_slope(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--l", "2", "--n-values",
                           "1000", "10000", "100000", "1000000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,t1,t2,queries,overlap_w,success"
    assert len(lines) == 6
    slope = float(lines[-1].split(",")[1])
    assert abs(slope - 2.0 / 3.0) <= 0.02


def test_sweep_empty(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--l", "2", "--n-values")
    assert code == 0
    assert out.strip() == "n,m,t1,t2,queries,overlap_w,success"


def test_cost_table1(capsys):
    code, out, _ = run_cli(capsys, "cost", "--table1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "L,simple,recursive,mss,best"
    assert lines[2] == "3,3/2,13/10,4/3,recursive"


def test_cost_optimize(capsys):
    code, out, _ = run_cli(capsys, "cost", "--optimize", "--l", "3",
                           "--variant", "recursive")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["fitted_exponent"] - 1.3) <= 0.02
    code, out, _ = run_cli(capsys, "cost", "--optimize", "--l", "5",
                           "--variant", "mss")
    assert abs(json.loads(out)["fitted_exponent"] - 1.6) <= 0.02


@pytest.mark.parametrize("argv", [("--l", "0"), ("--l", "-1"),
                                  ("--l", "2", "--n", "0"),
                                  ("--l", "3", "--n", "3")])
def test_cost_optimize_bad_l_or_n_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "cost", "--optimize", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: need 1 <= l < n") and err.count("\n") == 1


@pytest.mark.parametrize("n", range(2, 16))
def test_cost_optimize_grid_exit_0_or_one_line_2(capsys, n):
    """Every l < n and variant gives a report or one error line and exit
    2; simple and recursive always report, l = n - 1 included."""
    for l in range(1, n):
        for variant in ("simple", "recursive", "mss"):
            code, out, err = run_cli(capsys, "cost", "--optimize", "--n",
                                     str(n), "--l", str(l), "--variant",
                                     variant)
            if code == 0:
                assert err == "", (n, l, variant)
                assert json.loads(out)["m_star"] >= l
            else:
                assert variant == "mss" and code == 2 and out == "", \
                    (n, l, variant)
                assert err.startswith("error: ") and err.count("\n") == 1


def test_cost_optimize_mss_below_l_exit_2(capsys):
    """mss keeps its own m = nint(n^{(l-1)/l}), here 3 < l = 4."""
    code, out, err = run_cli(capsys, "cost", "--optimize", "--n", "5",
                             "--l", "4", "--variant", "mss")
    assert code == 2 and out == ""
    assert err == "error: need l <= m < n, got n=5, m=3, l=4\n"


def test_cost_requires_action(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost"])
    assert exc.value.code == 2
    assert "one of the arguments --table1 --optimize is required" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--table1", "--variant", "bogus"), "invalid choice: 'bogus'"),
    (("--optimize", "--variant", "bogus"), "invalid choice: 'bogus'"),
    (("--table1", "--optimize"), "not allowed with argument"),
], ids=["table1-variant", "optimize-variant", "table1-optimize"])
def test_cost_options_checked_by_argparse(capsys, argv, message):
    """An option cost would ignore or cannot combine is refused, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["cost", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_cost_config_variant_checked_by_argparse(capsys, tmp_path):
    cfg = tmp_path / "cost.json"
    cfg.write_text(json.dumps({"variant": "bogus"}))
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--optimize", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--l", "9", "--n", "3"), ("--n", "5"), ("--l", "2"), ("--config", None),
], ids=["l-and-n", "n", "l-at-its-old-default", "config-l"])
def test_cost_table1_refuses_l_and_n(capsys, tmp_path, argv):
    """The table covers l = 2..7 at no particular n, so an --l or --n given
    with --table1, on the command line or in a config file, is refused."""
    cfg = tmp_path / "cost.json"
    cfg.write_text(json.dumps({"l": 3}))
    argv = [str(cfg) if a is None else a for a in argv]
    code, out, err = run_cli(capsys, "cost", "--table1", *argv)
    assert code == 2 and out == ""
    assert err == "error: --table1 covers l = 2..7 and takes no --l or --n\n"


@pytest.mark.parametrize("argv", [
    ("--variant", "mss"), ("--variant", "simple"), ("--config", None),
], ids=["variant", "variant-at-its-old-default", "config-variant"])
def test_cost_table1_refuses_variant(capsys, tmp_path, argv):
    """The table has a column per variant, so a --variant given with
    --table1, on the command line or in a config file, is refused."""
    cfg = tmp_path / "cost.json"
    cfg.write_text(json.dumps({"variant": "mss"}))
    argv = [str(cfg) if a is None else a for a in argv]
    code, out, err = run_cli(capsys, "cost", "--table1", *argv)
    assert code == 2 and out == ""
    assert err == "error: --table1 lists every variant and takes no --variant\n"


def test_cost_optimize_variant_defaults_to_simple(capsys):
    _, explicit, _ = run_cli(capsys, "cost", "--optimize", "--variant",
                             "simple")
    code, out, _ = run_cli(capsys, "cost", "--optimize")
    assert code == 0 and out == explicit
    assert json.loads(out)["variant"] == "simple"


def test_cost_optimize_defaults_hold_through_config(capsys, tmp_path):
    """Left out, --l is 2 and --n is 10^6, also when a config file gives
    other options or sets them to null."""
    _, explicit, _ = run_cli(capsys, "cost", "--optimize", "--l", "2",
                             "--n", "1000000", "--variant", "recursive")
    cfg = tmp_path / "cost.json"
    cfg.write_text(json.dumps({"variant": "recursive", "l": None, "n": None}))
    code, out, _ = run_cli(capsys, "cost", "--optimize", "--config", str(cfg))
    assert code == 0 and out == explicit
    code, out, _ = run_cli(capsys, "cost", "--optimize", "--variant",
                           "recursive")
    assert code == 0 and out == explicit


def test_sweep_runs_each_n_once(capsys):
    """A repeated n is one row and one point of the slope fit."""
    code, out, _ = run_cli(capsys, "sweep", "--n-values", "10", "9", "9")
    assert code == 0
    _, once, _ = run_cli(capsys, "sweep", "--n-values", "9", "10")
    assert out == once
    assert [line.split(",")[0] for line in out.splitlines()[1:]] \
        == ["9", "10", "# slope"]


def test_determinism_byte_identical(capsys):
    argv = ("simulate", "--family", "element-distinctness", "--n", "9",
            "--l", "2", "--engine", "both", "--seed", "1")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "cost", "--table1", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("L,simple")


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 9, "l": 2, "engine": "full", "seed": 1}))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["full"]["n"] == 9


def test_config_fills_only_options_left_at_default(capsys, tmp_path):
    """An explicit --t2 0 wins over the file; an omitted --t2 takes it.
    An explicit value equal to its default (--seed 0) wins too."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t2": 5}))
    base = ("simulate", "--n", "9", "--seed", "1", "--config", str(cfg))
    code, out, _ = run_cli(capsys, *base, "--t2", "0")
    assert code == 0
    assert json.loads(out)["reduced"]["t2"] == 0
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out)["reduced"]["t2"] == 5
    seed_cfg = tmp_path / "seed.json"
    seed_cfg.write_text(json.dumps({"seed": 5}))
    code, out, _ = run_cli(capsys, "simulate", "--n", "9", "--seed", "0",
                           "--config", str(seed_cfg))
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"walk_size": 4}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("content", ['{"engine": "bogus"}', '{"n": 9.5}'])
def test_config_values_checked_like_options(capsys, tmp_path, content):
    """argparse checks a --config value's type and choices, exit 2."""
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "9", "--config", str(cfg)])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("content", ['[1, 2]', '{"no_plant": 1}',
                                     '{"seed": {}}', '{"engine": true}'])
def test_config_bad_shape_exit_2(capsys, tmp_path, content):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, "simulate", "--n", "9",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


RUN_KEYS = ["n", "m", "l", "t1", "t2", "mode", "engine",
            "success_probability", "overlap_w", "query_count", "flags"]


def test_simulate_key_order(capsys):
    _, out, _ = run_cli(capsys, "simulate", "--engine", "both", "--family",
                        "element-distinctness", "--n", "9", "--seed", "1")
    rep = json.loads(out)
    assert list(rep) == ["command", "family", "seed", "params", "engine",
                         "full", "reduced", "max_state_deviation"]
    assert list(rep["full"]) == RUN_KEYS
    assert list(rep["reduced"]) == RUN_KEYS


def test_simulate_reports_the_generator_params(capsys):
    """params holds what the property reads, sum-mod-q's modulus q =
    C(n, l), and nothing else; an unplanted draw shows in the scan's
    no_marked flag.  Past the scan limit no instance is built and params
    is null."""
    from johnson_walk import make_family

    argv = ("simulate", "--family", "sum-mod-q", "--n", "12", "--l", "4",
            "--seed", "0", "--engine", "full")
    rep = json.loads(run_cli(capsys, *argv)[1])
    inst = make_family("sum-mod-q", n=12, l=4, seed=0)
    assert rep["params"] == inst.property_params == {"q": math.comb(12, 4)}
    assert "no_marked" not in rep["full"]["flags"]
    rep = json.loads(run_cli(capsys, *argv, "--no-plant")[1])
    assert rep["params"] == {"q": math.comb(12, 4)}
    assert "no_marked" in rep["full"]["flags"]
    rep = json.loads(run_cli(capsys, "simulate", "--n", "100000000",
                             "--l", "3")[1])
    assert rep["params"] is None


def test_spectrum_key_order(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--n", "10000", "--l", "2")
    rep = json.loads(out)
    assert list(rep) == ["command", "walk_spectrum", "delta_decomposition",
                         "rotation"]
    assert list(rep["walk_spectrum"]) == [
        "n", "m", "l", "alpha", "beta", "phases", "theta", "closed_form",
        "asymptotic", "closed_form_residual", "asymptotic_deviation",
        "extreme_pair_fidelity", "closed_form_exact"]
    assert list(rep["delta_decomposition"]) == [
        "n", "m", "l", "norm_delta1", "norm_delta2", "scaled_norm_delta1",
        "scaled_norm_delta2", "delta2c_eigs_real", "delta2c_eigs_imag"]
    assert list(rep["rotation"]) == [
        "n", "m", "l", "t1", "theta_plus", "theta_minus", "w_s_overlap",
        "ratio_plus", "ratio_minus", "eigvec_fidelity", "error_scale"]


def test_cost_optimize_key_order(capsys):
    _, out, _ = run_cli(capsys, "cost", "--optimize", "--l", "3",
                        "--variant", "recursive")
    assert list(json.loads(out)) == ["command", "variant", "n", "l", "m_star",
                                     "cost", "fitted_exponent", "m_canonical"]


def test_dumps_report_renders_dataclass_fields():
    """Fields in order, repr=False left out, arrays and tuples as lists."""
    @dataclass
    class Report:
        b: float
        a: tuple
        values: np.ndarray
        hidden: object = field(default=None, repr=False)

    text = dumps_report({"r": Report(0.1, (1, 2), np.array([0.5, 1.0]))})
    assert json.loads(text) == {"r": {"b": 0.1, "a": [1, 2],
                                      "values": [0.5, 1.0]}}
    assert list(json.loads(text)["r"]) == ["b", "a", "values"]
    assert "0.10000000000000001" in text


def test_float_serialization_17_digits(capsys):
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(0.0) == "0"
    text = dumps_report({"x": 1.0 / 3.0, "nested": [0.1, {"y": 2.5}]})
    assert "0.33333333333333331" in text
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0


def test_simulate_json_has_17_digit_floats(capsys):
    _, out, _ = run_cli(capsys, "simulate", "--family",
                        "element-distinctness", "--n", "9", "--l", "2",
                        "--engine", "full", "--seed", "1")
    match = re.search(r'"success_probability": ([0-9.]+)', out)
    assert match and len(match.group(1).replace(".", "")) >= 17


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("spectrum", "--n", "10000000"),
    ("cost", "--optimize"),
    ("simulate", "--engine", "both", "--n", "9"),
], ids=lambda argv: argv[0])
def test_runs_without_scipy(argv):
    """scipy is a test dependency only: with it unimportable, each
    subcommand that does linear algebra still exits 0."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import sys; sys.modules['scipy'] = None; "
              "from johnson_walk.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

"""Command-line front end: simulate, spectrum, sweep, cost, verify.

Single runs emit JSON, sweeps and tables emit CSV; all floats carry 17
significant digits so identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 bad
configuration, 3 state space over the memory cap.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .combinat import binomial
from .cost_model import VARIANTS, choose_parameters, optimize_m, \
    rotation_count, table1_csv, walk_steps
from .full_sim import MemoryCapError, run_algorithm
from .instances import ITEM, find_marked, load_instance, make_family
from .reduced_sim import ReducedBasis, embed_to_full, run_reduced
from .serialize import csv_line, dumps_report
from .spectral import algorithm_rotation, delta_decomposition, walk_spectrum

EXIT_CONFIG = 2
EXIT_MEMCAP = 3


class ConfigError(ValueError):
    pass


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_config(args) -> dict:
    """The --config file's values, keyed by the options they set."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    values = {}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        values[attr] = value
    return values


def _build_instance(args):
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    if args.n is None:
        raise ConfigError("either --instance or --n is required")
    params = {"n": args.n, "seed": args.seed, "planted": not args.no_plant}
    if args.family != "element-distinctness":
        params["l"] = args.l
    elif args.l != 2:
        raise ConfigError("element-distinctness is an l=2 family")
    return make_family(args.family, **params)


def _resolve_params(n, l, args):
    if args.m is None and args.t1 is None and args.t2 is None:
        p = choose_parameters(n, l)
        return p.m, p.t1, p.t2
    m = args.m if args.m is not None else choose_parameters(n, l).m
    if not l <= m < n:
        raise ConfigError(f"need l <= m < n, got l={l}, m={m}, n={n}")
    t1 = args.t1 if args.t1 is not None else walk_steps(m, l)
    t2 = args.t2 if args.t2 is not None else rotation_count(n, m, l)
    return m, t1, t2


_SCAN_LIMIT = 500_000  # largest C(n, l) the brute-force scan will walk


def cmd_simulate(args) -> int:
    # the reduced dynamics depend only on (n, m, l): past the scan limit no
    # value table is built, and a unique marked set is assumed and flagged
    scan = args.engine != "reduced" or getattr(args, "instance", None) \
        or args.n is None or binomial(args.n, args.l) <= _SCAN_LIMIT
    inst = _build_instance(args) if scan else None
    n, l = (inst.n, inst.l) if inst else (args.n, args.l)
    m, t1, t2 = _resolve_params(n, l, args)
    found = find_marked(inst) if inst else None
    out = {"command": "simulate",
           "family": inst.family_tag if inst else args.family,
           "seed": inst.seed if inst else args.seed, "engine": args.engine}
    if args.engine != "full":  # first: it refuses several marked sets
        basis = ReducedBasis(n, m, l)
        reduced = run_reduced(basis, t1, t2, found,
                              inst.mode if inst else ITEM)
    if args.engine != "reduced":
        full = run_algorithm(inst, m, t1, t2)
        out["full"] = full.to_dict()
    if args.engine != "full":
        out["reduced"] = reduced.to_dict()
    if args.engine == "both" and found.kind == "unique":
        embedded = embed_to_full(reduced.final_state, basis, found.marked)
        fs = full.final_state
        dev = max(float(np.max(np.abs(embedded.amps_a - fs.amps_a))),
                  float(np.max(np.abs(embedded.amps_b - fs.amps_b))))
        out["max_state_deviation"] = dev
    _emit(dumps_report(out), args.output)
    return 0


def cmd_spectrum(args) -> int:
    if args.n is None:
        raise ConfigError("--n is required")
    n, l = args.n, args.l
    m = args.m if args.m is not None else choose_parameters(n, l).m
    if not l <= m < n:
        raise ConfigError(f"need l <= m < n, got l={l}, m={m}, n={n}")
    rotation = algorithm_rotation(n, m, l)  # first: it refuses a tiny <w|s>
    out = {
        "command": "spectrum",
        "walk_spectrum": walk_spectrum(n, m, l).to_dict(),
        "delta_decomposition": delta_decomposition(n, m, l).to_dict(),
        "rotation": rotation.to_dict(),
    }
    _emit(dumps_report(out), args.output)
    return 0


def cmd_sweep(args) -> int:
    header = "n,m,t1,t2,queries,overlap_w,success"
    lines = [header]
    ns = sorted(args.n_values or [])
    points = []
    for n in ns:
        p = choose_parameters(n, args.l)
        if args.engine == "full":
            inst = make_family("l-distinctness", n=n, l=args.l, seed=args.seed)
            rep = run_algorithm(inst, p.m, p.t1, p.t2)
        else:
            rep = run_reduced(ReducedBasis(n, p.m, args.l), p.t1, p.t2)
        lines.append(csv_line([n, p.m, p.t1, p.t2, rep.query_count,
                               rep.overlap_w, rep.success_probability]))
        points.append((n, rep.query_count))
    if len(points) >= 2:
        logs_n = np.log([n for n, _ in points])
        logs_q = np.log([q for _, q in points])
        slope = float(np.polyfit(logs_n, logs_q, 1)[0])
        lines.append(f"# slope,{slope:.17g}")
    _emit("\n".join(lines), args.output)
    return 0


def cmd_cost(args) -> int:
    if args.table1:
        _emit(table1_csv().rstrip("\n"), args.output)
        return 0
    if args.optimize:
        if args.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        res = optimize_m(args.n or 10 ** 6, args.l, args.variant)
        _emit(dumps_report({"command": "cost", **res.to_dict()}), args.output)
        return 0
    raise ConfigError("cost requires --table1 or --optimize")


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; config values replace the defaults of the options
    they name, so an option given on the command line still wins."""
    parser = argparse.ArgumentParser(
        prog="johnson-walk",
        description="Exact quantum-walk subset-finding simulator and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with RunConfig fields")
        p.add_argument("--output", help="write to file instead of stdout")
        p.set_defaults(**(config or {}))

    p = sub.add_parser("simulate", help="run (W^t1 P)^t2 on an instance")
    p.add_argument("--family", default="element-distinctness")
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--m", type=int)
    p.add_argument("--t1", type=int)
    p.add_argument("--t2", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-plant", action="store_true")
    p.add_argument("--engine", choices=("full", "reduced", "both"),
                   default="reduced")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="walk and rotation eigenstructure")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="query scaling over a range of n")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--n-values", type=int, nargs="*", default=None)
    p.add_argument("--engine", choices=("full", "reduced"), default="reduced")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="cost table and optimizer")
    p.add_argument("--table1", action="store_true")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--variant", default="simple")
    common(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = build_parser(_load_config(args)).parse_args(argv)
        return args.func(args)
    except MemoryCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MEMCAP
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: simulate, spectrum, sweep, cost, verify.

Single runs emit JSON, sweeps and tables emit CSV; all floats carry 17
significant digits so identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 bad
configuration (including an instance the generator cannot draw, a size
past float range and a root the finder cannot bracket), 3 state space
over the memory cap.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .cost_model import SIMPLE, VARIANTS, choose_parameters, optimize_m, \
    table1, walk_size
from .instances import FAMILIES, GenerationError, check_family_l, \
    load_instance, make_family
from .serialize import csv_line, dumps_report

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


def _config_tokens(args) -> list:
    """The --config file's values as option tokens, so that argparse checks
    them as it checks the command line.  A flag takes true or false, an
    option of several values a list, any other option a number or string;
    null leaves an option at its default."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("a config file holds one JSON object")
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in ("command", "func") or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        option = "--" + attr.replace("_", "-")
        flag = isinstance(getattr(args, attr), bool)  # a store_true option
        values = value if isinstance(value, list) and not flag else [value]
        if not all(isinstance(v, bool) == flag and isinstance(v, (int, float, str))
                   for v in values):
            raise ConfigError(f"bad value {value!r} for config key {key!r}")
        tokens += ([option] if value else []) if flag else [option, *map(str, values)]
    return tokens


_SCAN_LIMIT = 500_000  # largest C(n, l) the reduced engine scans
_SCAN_CAP = 10 ** 8  # largest C(n, l) any scan walks: about 1.3 s of it


def cmd_simulate(args) -> int:
    """The instance comes from --instance, which takes none of the options
    that draw one, or is drawn from the family (l = 2 and seed 0 when left
    out).  Past the scan limit the reduced engine draws none: its dynamics
    depend only on (n, m, l), so no value table is built, a unique marked
    set is assumed and flagged, and the oracle mode is the family's; only
    the scan can honour --no-plant, so it is refused there.  A full-engine
    walk gets its context before the draw, so that one over the byte cap
    exits 3 before the scan; then a run that must scan exits 2 past the
    scan cap.  The engines and the command read the instance's
    marked_sets, so any --engine scans it once."""
    import numpy as np

    from .full_sim import binomial_upto, get_context, run_algorithm
    from .reduced_sim import ReducedBasis, embed_to_full, run_reduced

    if args.instance:
        for key in ("n", "family", "l", "seed", "no_plant"):
            value = getattr(args, key)
            if value is not None and value is not False:
                raise ConfigError(f"--instance brings its own instance and "
                                  f"takes no --{key.replace('_', '-')}")
        inst = load_instance(args.instance)
        n, l = inst.n, inst.l
    else:
        if args.n is None:
            raise ConfigError("either --instance or --n is required")
        n, l = args.n, 2 if args.l is None else args.l
        seed = 0 if args.seed is None else args.seed
        # left out, the family is distinctness at the run's l
        family = args.family or ("element-distinctness" if l == 2
                                 else "l-distinctness")
        if family == "custom":
            raise ConfigError("the custom family needs --instance")
        check_family_l(family, l)
    p = choose_parameters(n, l, args.m, args.t1, args.t2)  # first: it refuses n <= l
    count = binomial_upto(n, l, _SCAN_CAP)  # C(n, l), None past the cap
    unscanned = not args.instance and args.engine == "reduced" \
        and (count is None or count > _SCAN_LIMIT)
    if unscanned and args.no_plant:
        raise ConfigError(f"--no-plant needs the marked-set scan, which "
                          f"stops at C(n, l) = {_SCAN_LIMIT}")
    if args.engine != "reduced":  # the byte cap first: exit 3 before the scan
        get_context(n, p.m)
    if count is None and not unscanned:
        raise ConfigError(f"the marked-set scan stops at C(n, l) = "
                          f"{_SCAN_CAP}; C({n}, {l}) is past it")
    if not args.instance:
        inst = None if unscanned else make_family(
            family, n=n, l=l, seed=seed, planted=not args.no_plant)
    found = inst.marked_sets if inst else None
    out = {"command": "simulate",
           "family": inst.family_tag if inst else family,
           "seed": inst.seed if inst else seed,
           "params": inst.property_params if inst else None,
           "engine": args.engine}
    if args.engine != "full":  # first: it refuses several marked sets
        basis = ReducedBasis(n, p.m, l)
        reduced = run_reduced(basis, p.t1, p.t2, found,
                              inst.mode if inst else FAMILIES[family].mode)
    if args.engine != "reduced":
        full = out["full"] = run_algorithm(inst, p.m, p.t1, p.t2)
    if args.engine != "full":
        out["reduced"] = reduced
    if args.engine == "both" and len(found) == 1:
        fs = full.final_state
        # in place: embed_to_full's array is the third one the byte cap charges
        gap = embed_to_full(reduced.final_state, basis, found[0], fs.ctx)
        gap -= fs.amps
        out["max_state_deviation"] = float(np.max(np.abs(gap, out=gap)))
    _emit(dumps_report(out), args.output)
    return 0


def cmd_spectrum(args) -> int:
    from .spectral import algorithm_rotation, delta_decomposition, \
        walk_spectrum

    if args.n is None:
        raise ConfigError("--n is required")
    n, l = args.n, args.l
    m = walk_size(n, l, args.m)
    rotation = algorithm_rotation(n, m, l)  # first: it refuses a too-large n
    out = {
        "command": "spectrum",
        "walk_spectrum": walk_spectrum(n, m, l),
        "delta_decomposition": delta_decomposition(n, m, l),
        "rotation": rotation,
    }
    _emit(dumps_report(out), args.output)
    return 0


def cmd_sweep(args) -> int:
    """The reduced engine at each n: only it reaches the sizes where the
    fitted slope means anything."""
    import numpy as np

    from .reduced_sim import ReducedBasis, run_reduced

    lines = ["n,m,t1,t2,queries,overlap_w,success"]
    points = []
    for n in sorted(set(args.n_values or [])):
        p = choose_parameters(n, args.l)
        rep = run_reduced(ReducedBasis(n, p.m, args.l), p.t1, p.t2)
        lines.append(csv_line([n, p.m, p.t1, p.t2, rep.query_count,
                               rep.overlap_w, rep.success_probability]))
        points.append((n, rep.query_count))
    if len(points) >= 2:
        logs_n = np.log([n for n, _ in points])
        logs_q = np.log([q for _, q in points])
        slope = float(np.polyfit(logs_n, logs_q, 1)[0])
        lines.append(csv_line(["# slope", slope]))
    _emit("\n".join(lines), args.output)
    return 0


def cmd_cost(args) -> int:
    if args.table1:
        if args.l is not None or args.n is not None:
            raise ConfigError("--table1 covers l = 2..7 and takes no --l or --n")
        if args.variant is not None:
            raise ConfigError("--table1 lists every variant and takes no --variant")
        lines = ["L,simple,recursive,mss,best"]
        lines += [csv_line([r.l, r.simple_exponent, r.recursive_exponent,
                            r.mss_exponent, r.best]) for r in table1()]
        _emit("\n".join(lines), args.output)
        return 0
    res = optimize_m(10 ** 6 if args.n is None else args.n,
                     2 if args.l is None else args.l, args.variant or SIMPLE)
    _emit(dumps_report({"command": "cost", **dataclasses.asdict(res)}),
          args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="johnson-walk",
        description="Exact quantum-walk subset-finding simulator and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file holding one object of option "
                       "values by name; null keeps the default")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("simulate", help="run (W^t1 P)^t2 on an instance")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)  # 2 when left out
    p.add_argument("--m", type=int)
    p.add_argument("--t1", type=int)
    p.add_argument("--t2", type=int)
    p.add_argument("--seed", type=int)  # 0 when left out
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
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="cost table and optimizer")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--table1", action="store_true")
    action.add_argument("--optimize", action="store_true")
    p.add_argument("--l", type=int)  # --optimize: 2 when left out
    p.add_argument("--n", type=int)  # --optimize: 10^6 when left out
    # --optimize: simple when left out; --table1 lists every variant
    p.add_argument("--variant", choices=VARIANTS)
    common(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.set_defaults(func=cmd_verify)
    return parser


def _exit_code(exc):
    """The exit code of an error that is the input's fault, else None.
    ConfigError and JSONDecodeError are ValueErrors; an OverflowError is a
    size past float range, which main names.  The full engine's
    MemoryCapError is looked up, not imported: a module never loaded
    raised none."""
    full_sim = sys.modules.get(f"{__package__}.full_sim")
    if full_sim is not None and isinstance(exc, full_sim.MemoryCapError):
        return EXIT_MEMCAP
    if isinstance(exc, (ValueError, OSError, OverflowError, GenerationError)):
        return EXIT_CONFIG
    return None


def main(argv=None) -> int:
    """Run the CLI.  --config values go in as option tokens right after the
    subcommand, so an option given on the command line still wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        if isinstance(exc, OverflowError):  # only a size reaches that far
            size = "--n-values" if args.command == "sweep" else "--n"
            exc = f"{size} is too large: a size derived from it is past float range"
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

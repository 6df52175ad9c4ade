"""Command-line front end.

Every command emits one machine-readable report (JSON by default, CSV or
plain text on request) with a top-level schema version.  Identical argv and
seed produce byte-identical output.  Exit status: 0 on success, 1 on a
negative verdict (failed certification, no witness, uncorrectable word,
nothing found), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from .codes import GridWord, TensorCode, decode
from .errors import MrGridError
from .galois import prime_powers_upto, spec_for_order
from .mr import attack_t3, attack_t4, certify_mr, search_mr
from .patterns import enumerate_types

SCHEMA = 1


def _emit(report: dict, fmt: str, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        rows = _flatten(report)
        out.write("key,value\n")
        for k, v in rows:
            out.write(f"{k},{v}\n")
    else:
        for k, v in _flatten(report):
            out.write(f"{k} = {v}\n")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix[:-1], json.dumps(obj, sort_keys=True)))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_enumerate(args) -> tuple[int, dict]:
    types = enumerate_types(args.m, args.b)
    return 0, {"schema": SCHEMA, "command": "enumerate",
               "m": args.m, "b": args.b,
               "types": [pt.to_dict() for pt in types]}


def _cmd_certify(args) -> tuple[int, dict]:
    code = TensorCode.from_dict(_load_json(args.code))
    report = certify_mr(code, instantiation_cap=args.cap)
    status = 0 if report.verdict == "certified" else 1
    return status, {"schema": SCHEMA, "command": "certify", "report": report.to_dict()}


def _cmd_search(args) -> tuple[int, dict]:
    progress = []
    found = None
    q_found = None
    for q in prime_powers_upto(args.q_max):
        if q < args.q_min:
            continue
        try:
            spec = spec_for_order(q)
        except ValueError:
            continue
        code = search_mr(args.m, args.b, args.n, spec,
                         strategy=args.strategy, seed=args.seed,
                         budget=args.budget, instantiation_cap=args.cap)
        progress.append({"q": q, "strategy": args.strategy,
                         "trials": 1 if args.strategy == "greedy_indep" else args.budget,
                         "outcome": "found" if code else "not_found"})
        if code is not None:
            found = code
            q_found = q
            break
    report = {"schema": SCHEMA, "command": "search",
              "m": args.m, "b": args.b, "n": args.n, "seed": args.seed,
              "progress": progress, "q_found": q_found,
              "code": found.to_dict() if found else None}
    return (0 if found else 1), report


def _cmd_attack(args) -> tuple[int, dict]:
    code = TensorCode.from_dict(_load_json(args.code))
    attack = attack_t4 if args.topology == "t4" else attack_t3
    outcome = attack(code.h_row)
    report = {"schema": SCHEMA, "command": "attack", "topology": args.topology,
              "outcome": outcome.to_dict() if outcome else None}
    return (0 if outcome else 1), report


def _cmd_decode(args) -> tuple[int, dict]:
    code = TensorCode.from_dict(_load_json(args.code))
    word = GridWord.from_dict(_load_json(args.word))
    grid = decode(code, word)
    return 0, {"schema": SCHEMA, "command": "decode",
               "grid": [list(row) for row in grid]}


def _cmd_bounds(args) -> tuple[int, dict]:
    dests = {"m": "m", "b": "b", "n": "n", "N": "big_n", "nv": "nv",
             "delta_r": "delta_r", "r": "r", "C": "const_c", "c_r": "c_r"}
    params = {}
    for key, dest in dests.items():
        v = getattr(args, dest, None)
        if v is not None:
            params[key] = v
    report = bounds_mod.bound(args.name, params)
    return 0, {"schema": SCHEMA, "command": "bounds", "report": report.to_dict()}


def build_parser() -> argparse.ArgumentParser:
    # shared flags accepted both before and after the subcommand; SUPPRESS
    # keeps a subcommand's unset flag from clobbering one given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report to a file instead of stdout")
    common.add_argument("--threads", type=_positive_int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; certification always "
                             "runs in one process")

    p = argparse.ArgumentParser(prog="mrgrid", parents=[common],
                                description="MR tensor-product codes for grid topologies")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("enumerate", help="regular irreducible pattern types")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.set_defaults(func=_cmd_enumerate)

    sp = add_parser("certify", help="certify a code file")
    sp.add_argument("--code", required=True)
    sp.add_argument("--cap", type=int, default=10 ** 7)
    sp.set_defaults(func=_cmd_certify)

    sp = add_parser("search", help="sweep field sizes for a certified MR code")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q-min", type=int, default=2)
    sp.add_argument("--q-max", type=int, required=True)
    sp.add_argument("--strategy", choices=("greedy_indep", "random"), default="greedy_indep")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=200)
    sp.add_argument("--cap", type=int, default=10 ** 7)
    sp.set_defaults(func=_cmd_search)

    sp = add_parser("attack", help="produce an uncorrectable-pattern witness")
    sp.add_argument("--code", required=True)
    sp.add_argument("--topology", choices=("t4", "t3"), required=True)
    sp.set_defaults(func=_cmd_attack)

    sp = add_parser("decode", help="recover erased cells of a grid word")
    sp.add_argument("--code", required=True)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=_cmd_decode)

    sp = add_parser("bounds", help="evaluate a named field-size bound")
    sp.add_argument("--name", choices=bounds_mod.BOUND_NAMES, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--N", dest="big_n", type=int)
    sp.add_argument("--nv", type=int)
    sp.add_argument("--delta-r", dest="delta_r", type=float)
    sp.add_argument("--r", type=int)
    sp.add_argument("--C", dest="const_c", type=float)
    sp.add_argument("--c-r", dest="c_r", type=float)
    sp.set_defaults(func=_cmd_bounds)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "out"):
        args.out = None
    try:
        status, report = args.func(args)
    except MrGridError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            _emit(report, args.format, fh)
    else:
        _emit(report, args.format, sys.stdout)
    return status


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

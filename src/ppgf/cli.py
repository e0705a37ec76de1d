"""Command-line front end.

    ppgf gfun       multivariate generating function of a poset
    ppgf qgfun      one-variable specialization, optionally with a series
    ppgf recurrence discover and print a recurrence system for a family
    ppgf eval       iterate a recurrence system up to n
    ppgf verify     compare a formula against brute-force enumeration

Exit codes: 0 success / verification passed, 1 verification failed,
2 bad input or an input too deep for the recursion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import ParseError, parse_rational
from .poset import PosetError, parse_poset_text
from . import engine, oracle, families, recurrence


def _read_poset_file(path):
    with open(path) as fh:
        return parse_poset_text(fh.read())


def _reject_ignored(args, reads_file):
    """Refuse a poset file, a --block or an --n that the command would
    ignore: --n has no meaning for a poset file, for the one diamond, or
    for the recurrence system, which holds for every n."""
    if args.poset and (args.family or not reads_file):
        raise PosetError("%s would ignore the poset file" % args.command)
    if args.block and args.family != "rpower" and (reads_file or args.family):
        raise PosetError("--block is read only with --family rpower")
    if args.n is not None and (args.poset or args.family == "diamond"
                               or args.command == "recurrence"):
        raise PosetError("%s would ignore --n" % args.command)


def _input_poset(args):
    _reject_ignored(args, True)
    if args.family:
        block, rels = (None, None)
        if args.family == "rpower":
            if not args.block:
                raise PosetError("rpower needs --block FILE")
            block, rels = _read_poset_file(args.block)
        return families.build_family(args.family, n=args.n,
                                     block=block, rels=rels)
    if args.poset:
        p, _ = _read_poset_file(args.poset)
        return p
    raise PosetError("give a poset file or --family")


def _decomposition(args):
    _reject_ignored(args, False)
    block, rels = (None, None)
    if args.block:
        block, rels = _read_poset_file(args.block)
        if args.family is None or args.family == "rpower":
            return families.family_decomposition("rpower", block, rels)
    if not args.family:
        raise PosetError("give --family or --block FILE with rel: lines")
    return families.family_decomposition(args.family)


def _print_rf(f, as_json):
    if as_json:
        print(f.dumps())
    else:
        print(f)


def cmd_gfun(args):
    p = _input_poset(args)
    _print_rf(engine.gfun(p), args.json)
    return 0


def cmd_qgfun(args):
    p = _input_poset(args)
    f = engine.gfun_q(p)
    series = None if args.series is None else f.series(args.series)
    _print_rf(f, args.json)
    if series is not None:
        print("series:", series)
    return 0


def cmd_recurrence(args):
    deco, _ = _decomposition(args)
    system = recurrence.discover_states(deco)
    if args.json:
        print(json.dumps(system.to_json()))
    else:
        print(system.emit_text(), end="")
    return 0


def cmd_eval(args):
    deco, blocks_for = _decomposition(args)
    if args.n < 1:
        raise PosetError("n must be >= 1")
    nblocks = blocks_for(args.n)
    if nblocks < 1:
        # a member with no block copy, as two_rowed_dd's n = 1
        p = families.build_family(args.family, n=args.n)
        f = engine.gfun(p) if args.multivariate else engine.gfun_q(p)
    else:
        f = recurrence.discover_states(deco).evaluate(
            nblocks, q_only=not args.multivariate)
    _print_rf(f, args.json)
    return 0


def cmd_verify(args):
    p = _input_poset(args)
    if args.against:
        with open(args.against) as fh:
            f = parse_rational(fh.read())
    else:
        f = engine.gfun(p)
    result = oracle.verify(p, f, args.bound)
    if result:
        print("pass: series and enumeration agree to degree %d" % args.bound)
        return 0
    print("FAIL: %s" % result)
    return 1


def _add_input_options(sub):
    sub.add_argument("poset", nargs="?", help="poset file")
    sub.add_argument("--family", choices=families.FAMILY_NAMES)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--block", help="block poset file with rel: lines (rpower)")
    sub.add_argument("--json", action="store_true")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ppgf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gfun", help="multivariate generating function")
    _add_input_options(sub)
    sub.set_defaults(func=cmd_gfun)

    sub = subs.add_parser("qgfun", help="q-specialized generating function")
    _add_input_options(sub)
    sub.add_argument("--series", type=int, default=None,
                     help="also print the series to this total degree")
    sub.set_defaults(func=cmd_qgfun)

    sub = subs.add_parser("recurrence", help="emit the recurrence system")
    _add_input_options(sub)
    sub.set_defaults(func=cmd_recurrence)

    sub = subs.add_parser("eval", help="evaluate the recurrence at n")
    _add_input_options(sub)
    sub.add_argument("--multivariate", action="store_true",
                     help="keep one variable per element instead of q")
    sub.set_defaults(func=cmd_eval)

    sub = subs.add_parser("verify", help="check a formula against enumeration")
    _add_input_options(sub)
    sub.add_argument("--bound", type=int, default=8)
    sub.add_argument("--against", help="rational function file to verify")
    sub.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if args.command == "eval" and args.n is None:
        print("error: eval needs --n", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (PosetError, ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep for the recursion", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

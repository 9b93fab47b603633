"""Command-line front door.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 environment error (network or cache).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .backtrack import brute_table, count_brute, enumerate_perms
from .closed_form import ANCHORED_RECURRENCES, closed_count, closed_table
from .core import ANCHORED, FREE, Variant, endpoints
from .oeis import OeisFetchError, no_digit_limit, serialize_bfile
from .profile_dp import count_dp, term_table
from .seqmine import conjecture_probe
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ENV = 3


def parse_variant(text: str) -> Variant:
    if text == "anchored":
        return ANCHORED
    if text == "free":
        return FREE
    if text.startswith("endpoints:"):
        try:
            s, e = text[len("endpoints:"):].split(",")
            return endpoints(int(s), int(e))
        except ValueError:
            raise ValueError(f"bad endpoints spec {text!r}, want endpoints:<s>,<e>") from None
    raise ValueError(f"unknown variant {text!r}")


def _methods() -> dict[str, tuple[Callable, Callable]]:
    """Each --method's count(k, n, variant) and table(k, variant=, max_n=).
    Built at each call from the module's names, so a wrapper bound over one
    of them, as the benchmark's tracer binds, is the one that runs."""
    return {
        "brute": (count_brute, brute_table),
        "dp": (count_dp, term_table),
        "closed": (closed_count, closed_table),
    }


def _method(name: str, k: int, variant: Variant) -> tuple[Callable, Callable]:
    """The method's functions; auto is the closed form where it applies, else the DP."""
    if name == "auto":
        name = "closed" if variant == ANCHORED and k in ANCHORED_RECURRENCES else "dp"
    return _methods()[name]


def cmd_count(args) -> int:
    variant = parse_variant(args.variant)
    count, _ = _method(args.method, args.k, variant)
    print(count(args.k, args.n, variant))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    variant = parse_variant(args.variant)
    stream = enumerate_perms(args.k, args.n, variant)
    if args.format == "lines":
        for p in stream:
            print(",".join(str(v) for v in p.entries))
    else:
        print(json.dumps([list(p.entries) for p in stream]))
    return EXIT_OK


def cmd_table(args) -> int:
    variant = parse_variant(args.variant)
    _, make_table = _method(args.method, args.k, variant)
    if args.max_n == 0:  # an empty table prints nothing, but is checked as max_n = 1 is
        make_table(args.k, variant=variant, max_n=1)
        return EXIT_OK
    table = make_table(args.k, variant=variant, max_n=args.max_n)
    if args.format == "bfile":
        sys.stdout.write(serialize_bfile(table))
    elif args.format == "csv":
        for n, count in enumerate(table.values(), table.offset):
            print(f"{n},{count}")
    else:
        print(
            json.dumps(
                {
                    "k": table.k,
                    "variant": args.variant,
                    "offset": table.offset,
                    "terms": table.values(),
                }
            )
        )
    return EXIT_OK


def cmd_mine(args) -> int:
    report = conjecture_probe(args.k, args.terms, args.holdout, args.max_order)
    if report is None:
        print(
            json.dumps(
                {"k": args.k, "order": None, "note": "no recurrence found within the order bound"}
            )
        )
        return EXIT_VERIFY_FAIL
    print(
        json.dumps(
            {
                "k": report.k,
                "order": report.order,
                "coefficients": list(report.coefficients),
                "gf_numerator": list(report.gf.numerator),
                "gf_denominator": list(report.gf.denominator),
                "holdout_match": report.holdout_match,
                "state_space_size": report.state_space_size,
                "note": "numerical evidence only; not a proof of rationality",
            }
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    kwargs = {}
    if args.max_n is not None:
        kwargs["max_n"] = args.max_n
    try:
        checks = suite(**kwargs)
    except OeisFetchError as exc:
        print(f"skip: {exc}", file=sys.stderr)
        return EXIT_ENV
    all_ok = True
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            all_ok = False
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="anchorperms",
        description="Exact enumeration of bounded-gap anchored permutations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        p.add_argument("--k", type=int, required=True)
        if with_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--variant", default="anchored")

    p = sub.add_parser("count", help="print one exact count")
    add_common(p)
    p.add_argument("--method", choices=["auto", *_methods()], default="auto")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list the permutations in lexicographic order")
    add_common(p)
    p.add_argument("--format", choices=["lines", "json"], default="lines")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="emit a count table")
    add_common(p, with_n=False)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["bfile", "csv", "json"], default="bfile")
    p.add_argument("--method", choices=list(_methods()), default="dp")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("mine", help="mine a linear recurrence from DP counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--holdout", type=int, required=True)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return ap


# Static data (its choices are method and suite names): built once, at import.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        with no_digit_limit():  # exact counts may run past 4300 digits
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OeisFetchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV


if __name__ == "__main__":
    sys.exit(main())

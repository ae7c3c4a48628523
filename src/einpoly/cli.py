"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 unsupported
capability (the analysis is still emitted).  Warnings never change the exit
code.  Commands raise; `main` turns a usage error (`UsageError`, or an
OSError on a path) and invalid data (`SchemaError`,
`DegenerateSpectrumError`) into one line on stderr and the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import nullcontext

from .homspace import (
    DegenerateSpectrumError,
    SchemaError,
    catalog_names,
    is_int,
    kaehler_b2_polytope,
    load_catalog,
    parse_obj,
    weight_polytope,
)
from .infinity import B2NotApplicableError, b2_exponent, delta_min, flat_complex
from .faces import marked_census
from .polytope import LatticePolytope, polytope_from_json
from .report import analyze, render_report, summarize
from .solver import delannoy, legendre_at_3


class UsageError(Exception):
    """A mistake on the command line: exit 1 with this message."""


class _Parser(argparse.ArgumentParser):
    """A command-line mistake is a usage error: exit 1, one stderr line."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_input(source: str, polytope: bool = False):
    """The HomSpaceData in a homspace/v1 file, or of a catalog entry when no
    such file exists.  With `polytope`, a file may instead hold a polytope
    document {"vertices": [[int, ...], ...]}; its hull is returned."""
    if not os.path.exists(source):
        try:
            return load_catalog(source)
        except (KeyError, ValueError):
            raise UsageError(f"no such file or catalog entry: {source}") from None
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError("/", str(exc)) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from None
    if not polytope or isinstance(obj, dict) and obj.get("schema") == "homspace/v1":
        return parse_obj(obj)
    if not (isinstance(obj, dict) and "vertices" in obj):
        raise SchemaError("/", "neither a homspace/v1 nor a polytope document")
    _check_vertices(obj["vertices"])
    return polytope_from_json(obj)


def _check_vertices(points) -> None:
    """The vertices of a polytope document must be a nonempty list of
    integer points of one length."""
    if not (isinstance(points, list) and points):
        raise SchemaError("/vertices", "must be a nonempty list of points")
    for i, p in enumerate(points):
        if not (isinstance(p, list) and all(is_int(x) for x in p)):
            raise SchemaError(f"/vertices/{i}", "must be a list of integers")
        if len(p) != len(points[0]):
            raise SchemaError(f"/vertices/{i}", f"expected {len(points[0])} coordinates")


def cmd_analyze(args) -> int:
    data = _load_input(args.input)
    # the report path is opened first, so a bad path fails before the run;
    # a run that fails removes it again rather than leave an empty report,
    # but only a regular file: a device such as /dev/null is left alone
    with open(args.json, "w", encoding="utf-8") if args.json else nullcontext() as fh:
        try:
            report, solver_exit = analyze(data, solve=not args.no_solve)
        except BaseException:
            if fh is not None:
                regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                fh.close()
                if regular:
                    os.remove(args.json)
            raise
        print(summarize(report))
        if fh is not None:
            fh.write(render_report(report) + "\n")
    return solver_exit


def cmd_kaehler_b2(args) -> int:
    d = args.d
    try:
        P = kaehler_b2_polytope(d)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    nu = P.normalized_volume()
    try:
        b2 = b2_exponent(P)
    except B2NotApplicableError as exc:
        b2 = f"not applicable: {exc}"
    obj = {
        "d": d,
        "facets": len(P.facets),
        "nu": nu,
        "b2_exponent": b2,
    }
    census = marked_census(P)
    obj["marked_by_dim"] = {str(k): v for k, v in sorted(census.marked_by_dim().items())}
    obj["marked_total"] = census.marked_total()
    obj["test2_count"] = census.test2_count()
    print(json.dumps(obj, indent=2))
    return 0


def cmd_delannoy(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    value = delannoy(n)
    check = legendre_at_3(n)
    if value != check:
        print("internal error: recurrences disagree", file=sys.stderr)
        return 2
    print(value)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    if not args.name:
        raise UsageError("catalog show/export needs a name")
    try:
        data = load_catalog(args.name)
    except (KeyError, ValueError):
        raise UsageError(f"unknown catalog entry: {args.name}") from None
    if args.action == "show":
        print(f"name: {data.name}")
        print(f"d: {data.d}")
        print(f"dims: {list(data.dims)}")
        print(f"b: {[str(x) for x in data.b]}")
        for key, val in data.triple_items():
            print(f"[{key[0]}, {key[1]}, {key[2]}] = {val}")
        print(f"bracket_meets_h: {sorted(data.bracket_meets_h)}")
        print(f"h_nontrivial: {sorted(data.h_nontrivial)}")
        print(f"central: {sorted(data.central)}")
        print(f"complement: {data.complement}")
        if data.expected:
            print(f"expected: {json.dumps(data.expected)}")
    else:  # export
        print(data.to_json())
    return 0


def cmd_polytope(args) -> int:
    source = _load_input(args.input, polytope=True)
    if isinstance(source, LatticePolytope):
        if args.min:
            raise UsageError("--min needs spectral data, not a bare polytope")
        if args.volume and any(sum(v) != 1 for v in source.vertices):
            raise SchemaError("/vertices", "--volume needs points whose coordinates sum to 1")
        P = source
    else:
        P = weight_polytope(source)
        if args.min:
            P = delta_min(P, flat_complex(source))
    if args.volume:
        print(P.normalized_volume())
    elif args.vertices:
        print(json.dumps([list(v) for v in P.vertices]))
    elif args.facets:
        print(json.dumps([{"normal": list(n), "offset": o} for n, o in P.facets]))
    else:
        print(P.to_json())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="einpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of a spectral-data file or catalog entry")
    p.add_argument("input")
    p.add_argument("--json", default=None, help="write the full JSON report here")
    p.add_argument("--no-solve", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("kaehler-b2", help="polytope data of the b2 = 1 family")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_kaehler_b2)

    p = sub.add_parser("delannoy", help="central Delannoy number")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_delannoy)

    p = sub.add_parser("catalog", help="list/show/export catalog fixtures")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("polytope", help="weight / minimal polytope of an input")
    p.add_argument("input")
    p.add_argument("--min", action="store_true")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--vertices", action="store_true")
    out.add_argument("--facets", action="store_true")
    out.add_argument("--volume", action="store_true")
    p.set_defaults(func=cmd_polytope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, DegenerateSpectrumError) as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 = all checks passed, 1 = an axiom/round-trip check failed,
2 = parse or usage error.  Reports list every violated identity with the
basis tuple and both evaluated sides; --json emits the same data with
stable field names (module, axiom, tuple, lhs, rhs).  All numbers are
exact rationals.

    courant-vpa check courant FILE
    courant-vpa check 1tca FILE
    courant-vpa convert FILE --to 1tca [--out FILE]
    courant-vpa build FILE --max-degree N [--out FILE]
    courant-vpa roundtrip FILE --max-degree N
    courant-vpa extract FILE [--out FILE]
    courant-vpa examples list | examples emit NAME [--out FILE]
    courant-vpa selftest

`convert`, `build` and `examples emit` write the file they make to --out,
or else to standard output.  Under --json they print a payload instead
that names the written file under `out`, or, without --out, carries its
text under `output`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .courant import StructureError, check_annihilation, check_compat, check_courant, to_1tca
from .examples import example, example_names
from .fileformat import (
    ParseError,
    courant_to_file,
    parse,
    print_file,
    tca_to_file,
    view_to_file,
)
from .graded import assemble_view, extract_courant
from .quotient import CourantQuotient, ReduceBoundError, roundtrip_check
from .reports import CheckReport
from .selftest import run_all
from .tca import check_all as check_tca_all
from .vlie import CutoffError


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _Failure(2, "cannot read %s: %s" % (path, err))


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(payload: dict, text: str, args) -> None:
    """Write ``text`` to --out or standard output; under --json print
    ``payload`` instead, with the path (``out``) or the text (``output``)."""
    if args.out or not args.json:
        _write_out(text, args.out)
    if args.json:
        payload.update({"out": args.out} if args.out else {"output": text})
        _emit(payload, None, True, [])


def _emit(payload: dict, report: CheckReport | None, as_json: bool, lines: list[str]) -> None:
    if as_json:
        if report is not None:
            payload.update(report.to_json())
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)
        if report is not None and not report.passed:
            print(report.summary())


def cmd_check(args) -> int:
    sf = parse(_read(args.file))
    if args.kind == "courant":
        X = sf.courant()
        report = check_courant(X).merge(check_compat(X), check_annihilation(X))
    else:
        report = check_tca_all(sf.tca())
    _emit(
        {"command": "check", "kind": args.kind, "file": args.file},
        report,
        args.json,
        ["%s: %s" % (args.file, "PASS" if report.passed else "FAIL")],
    )
    return 0 if report.passed else 1


def cmd_convert(args) -> int:
    sf = parse(_read(args.file))
    X = sf.courant()
    try:
        T = to_1tca(X)
    except StructureError as err:
        _emit({"command": "convert", "file": args.file}, err.report, args.json,
              ["conversion refused: input fails the Courant checks"])
        return 1
    text = print_file(tca_to_file(T, meta=dict(sf.meta)))
    _emit_text({"command": "convert", "file": args.file}, text, args)
    return 0


def cmd_build(args) -> int:
    sf = parse(_read(args.file))
    X = sf.courant()
    try:
        q = CourantQuotient(X, cutoff=args.max_degree)
    except StructureError as err:
        _emit({"command": "build", "file": args.file}, err.report, args.json,
              ["build refused: input fails the Courant checks"])
        return 1
    V = assemble_view(q)
    text = print_file(view_to_file(V, meta={"cutoff": str(V.cutoff)}))
    _emit_text({"command": "build", "file": args.file, "stats": q.stats()}, text, args)
    return 0


def cmd_roundtrip(args) -> int:
    sf = parse(_read(args.file))
    X = sf.courant()
    report = roundtrip_check(X, cutoff=args.max_degree)
    table_fails = {v.axiom for v in report.violations if v.axiom.startswith("table.")}
    b_tables = ("table.action", "table.bracket", "table.anchor", "table.pairing")
    a_ok = 0 if "table.mult" in table_fails else 1
    b_ok = sum(1 for t in b_tables if t not in table_fails)
    headline = "A: %d/1 tables equal; B: %d/4 tables equal" % (a_ok, b_ok)
    # the unit and partial are compared too, and named only when they differ
    others = [t for t in ("unit", "partial") if "table." + t in table_fails]
    if others:
        headline += "; also unequal: %s" % ", ".join(others)
    _emit(
        {"command": "roundtrip", "file": args.file, "max_degree": args.max_degree,
         "headline": headline},
        report,
        args.json,
        ["%s: %s" % (args.file, "PASS" if report.passed else "FAIL"), headline],
    )
    return 0 if report.passed else 1


def cmd_extract(args) -> int:
    sf = parse(_read(args.file))
    V = sf.graded_view()
    X = extract_courant(V)
    report = check_courant(X)
    lines = ["%s: extraction %s" % (args.file, "PASS" if report.passed else "FAIL")]
    if report.passed and args.out:
        _write_out(print_file(courant_to_file(X)), args.out)
    _emit({"command": "extract", "file": args.file}, report, args.json, lines)
    return 0 if report.passed else 1


def cmd_examples(args) -> int:
    if args.action == "list":
        names = example_names()
        if args.json:
            json.dump({"command": "examples", "names": names}, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            for n in names:
                print(n)
        return 0
    try:
        X = example(args.name)
    except KeyError as err:  # str(KeyError) would quote the message
        raise _Failure(2, err.args[0])
    text = print_file(courant_to_file(X, meta={"example": args.name}))
    _emit_text({"command": "examples", "name": args.name}, text, args)
    return 0


def cmd_selftest(args) -> int:
    results = run_all()
    if args.json:
        json.dump(
            {"command": "selftest",
             "passed": all(r.passed for r in results),
             "criteria": [
                 {"number": r.number, "name": r.name, "passed": r.passed,
                  "seconds": round(r.seconds, 3), "detail": r.detail}
                 for r in results
             ]},
            sys.stdout, indent=2,
        )
        sys.stdout.write("\n")
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="courant-vpa",
        description="Exact checks and constructions for Courant algebroids and graded vertex Poisson algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("check", help="verify the axioms of a structure file")
    p.add_argument("kind", choices=["courant", "1tca"])
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convert", help="convert a courant file to its conformal pair")
    p.add_argument("file")
    p.add_argument("--to", choices=["1tca"], required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("build", help="build the graded vertex Poisson quotient as tables")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("roundtrip", help="rebuild the algebroid through the quotient and compare")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=4)
    common(p)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("extract", help="extract and certify a Courant algebroid from a graded-vpa file")
    p.add_argument("file")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("examples", help="list or emit the built-in instances")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    common(p)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "examples" and args.action == "emit" and not args.name:
        ap.error("examples emit needs a NAME")
    try:
        return args.fn(args)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except _Failure as err:
        print(str(err), file=sys.stderr)
        return err.code
    except (StructureError, CutoffError, ReduceBoundError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

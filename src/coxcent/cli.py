"""Command-line frontend: analyze, verify, theorems.

Exit codes: 0 verified/ok, 1 table mismatch, 2 internal check violation,
3 usage or capability error.  All outputs are deterministic: two runs on
the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coxtype import CoxeterType
from .group import CoxeterGroup
from .involutions import enumerate_involution_classes
from .rootsys import DEFAULT_MAX_RANK, CapabilityError
from .structure import (
    CHECK_NAMES,
    RecognitionError,
    ViolationError,
    run_property_suite,
)
from .tables import (
    SCHEMA_VERSION,
    FixtureError,
    analyze,
    class_csv,
    class_json,
    diff_report,
    load_fixture,
    verify_type,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3

FAMILY_TYPES = ("A", "B", "D")
FIXED_TYPES = {
    "E6": ("E", 6),
    "E7": ("E", 7),
    "E8": ("E", 8),
    "F4": ("F", 4),
    "H3": ("H", 3),
    "H4": ("H", 4),
}

ALL_SMALL = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
    + [("I", m) for m in (5, 7, 8, 12)]
    + [("H", 3), ("H", 4), ("F", 4), ("E", 6), ("E", 7)]
)


class UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit with status 2, which
    this command reserves for internal check violations."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_type(args) -> CoxeterType:
    """The type named on the command line; E8 only with --large.  A --rank
    or --m that the type does not take is refused, not ignored."""
    t = args.type
    if args.rank is not None and t not in FAMILY_TYPES:
        raise UsageError(f"--rank applies to A/B/D, not {t}")
    if args.m is not None and t != "I2":
        raise UsageError(f"--m applies to I2, not {t}")
    if t == "E8" and not args.large:
        raise CapabilityError("E8 is gated behind --large")
    try:
        if t in FIXED_TYPES:
            return CoxeterType.irreducible(*FIXED_TYPES[t])
        if t in FAMILY_TYPES:
            if args.rank is None:
                raise CapabilityError(f"family {t} needs --rank")
            ctype = CoxeterType([(t, args.rank)])
        elif t == "I2":
            if args.m is None:
                raise CapabilityError("type I2 needs --m")
            ctype = CoxeterType([("I", args.m)])
        else:
            raise CapabilityError(f"unsupported type {t!r}")
    except ValueError as exc:
        raise CapabilityError(str(exc)) from exc
    if not ctype.is_irreducible():
        raise CapabilityError(f"{t} with these parameters is not irreducible")
    return ctype


def _write(out_dir: str, name: str, text: str) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> int:
    ctype = _parse_type(args)
    analysis = analyze(ctype, max_rank=args.max_rank)
    name = str(ctype).replace("(", "_").replace(")", "")
    csv_text = class_csv(analysis)
    json_text = class_json(analysis)
    if args.out:
        _write(args.out, f"{name}.csv", csv_text)
        _write(args.out, f"{name}.json", json_text)
    else:
        sys.stdout.write(json_text if args.format == "json" else csv_text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.all and (args.type or args.rank is not None or args.m is not None):
        raise UsageError("--all takes no --type, --rank or --m")
    # parsed once, so a bad file fails even where no type reads it
    fixture = load_fixture(args.fixtures)
    if args.all:
        targets = [CoxeterType([c]) for c in ALL_SMALL]
        if args.large:
            targets.append(CoxeterType.irreducible("E", 8))
    else:
        targets = [_parse_type(args)]
    reports = []
    status = EXIT_OK
    for ctype in targets:
        expect, diffs = verify_type(ctype, args.fixtures, args.max_rank, fixture)
        report = diff_report(ctype, diffs)
        report["rows_compared"] = len(expect)
        reports.append(report)
        if not diffs:
            print(f"{ctype}: ok ({len(expect)} rows compared)")
        else:
            status = EXIT_MISMATCH
            print(f"{ctype}: MISMATCH")
            for d in report["diffs"]:
                print(
                    f"  degree {d['row']['degree']} {d['row']['labels']}: "
                    f"{d['column']}: expected {d['expected']}, computed {d['computed']}"
                )
    if args.out:
        doc = {"schema_version": SCHEMA_VERSION, "reports": reports}
        _write(args.out, "verify.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return status


def cmd_theorems(args) -> int:
    ctype = _parse_type(args)
    group = CoxeterGroup(ctype, max_rank=args.max_rank)
    profiles = []
    results = run_property_suite(group, enumerate_involution_classes(group), profiles)
    if args.check:
        wanted = "1.2" if args.check == "gamma" else args.check
        results = [r for r in results if r.name == wanted]
    gamma_rows = [
        {
            "degree": p.cls.degree,
            "label": p.cls.label,
            "gamma_structure": str(p.gamma_structure),
            "gamma_order": p.gamma_structure.order,
        }
        for p in profiles
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": str(ctype),
        "checks": [
            {
                "name": r.name,
                "subject": r.subject,
                "status": r.status,
                "detail": r.detail,
            }
            for r in results
        ],
        "gamma": gamma_rows,
        "violations": sum(1 for r in results if r.status == "fail"),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, f"theorems_{ctype}.json", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if doc["violations"] == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxcent",
        description=(
            "Exact involution-centralizer tables for finite Coxeter groups"
        ),
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"coxcent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--type",
            required=False,
            choices=list(FAMILY_TYPES) + list(FIXED_TYPES) + ["I2"],
            help="irreducible type",
        )
        p.add_argument("--rank", type=int, help="rank for families A/B/D")
        p.add_argument("--m", type=int, help="m for I2(m)")
        p.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK)
        p.add_argument("--out", help="directory for output artifacts")
        large = p.add_mutually_exclusive_group()
        large.add_argument("--large", action="store_true", help="enable E8")
        large.add_argument(
            "--skip-large",
            dest="large",
            action="store_false",
            help="skip E8 (default)",
        )
        p.set_defaults(large=False)

    p_an = sub.add_parser("analyze", help="compute classes and profiles")
    common(p_an)
    p_an.add_argument("--format", choices=["csv", "json"], default="csv")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="compare against the reference tables")
    common(p_ver)
    p_ver.add_argument("--all", action="store_true", help="verify every supported type")
    p_ver.add_argument("--fixtures", help="override the reference table file")
    p_ver.set_defaults(func=cmd_verify)

    p_th = sub.add_parser("theorems", help="run the structural check suite")
    common(p_th)
    p_th.add_argument(
        "--check",
        choices=[*CHECK_NAMES, "gamma"],
        help="restrict to one named check (e.g. 2.3); gamma reports check 1.2",
    )
    p_th.set_defaults(func=cmd_theorems)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.type is None and not getattr(args, "all", False):
            raise UsageError("a --type is required (or --all for verify)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FixtureError as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ViolationError, RecognitionError) as exc:
        print(f"internal check violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: analyze, plurigenera, reid-tai, verify, construct-volume, search.
Exit status: 0 success / all checks passed; 1 some check failed or a search
found nothing; 2 usage or parameter error; 3 resource budget exceeded.  All
numbers print exactly; --decimal adds a truncated approximation, clearly
labelled.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .core import Weights
from .errors import BudgetError, NotWellFormedError, ParameterError
from .families import (
    FAMILIES,
    FAMILY_IDS,
    FamilyReport,
    verify_all,
    verify_family,
    volume_witness,
)
from .hilbert import plurigenera_table
from .hypersurface import WeightedHypersurface, singularity_report
from .singularity import parse_quotient, quotient_report

STATUS_OK = 0
STATUS_FAILED_CHECK = 1
STATUS_USAGE = 2
STATUS_BUDGET = 3

# destination -> flag of every count option; a negative count is a usage error
COUNT_FLAGS = {"plurigenera": "--plurigenera", "up_to": "--up-to", "vanishing": "--vanishing",
               "decimal": "--decimal"}


@dataclass
class OutputDocument:
    command: str
    inputs: dict
    results: dict
    checks: list = field(default_factory=list)
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "version": self.version,
                "inputs": self.inputs,
                "results": self.results,
                "checks": self.checks,
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"  {key}: {_fmt(value)}")
        for key, value in self.results.items():
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {_fmt(item)}" for item in value)
            else:
                lines.append(f"{key}: {_fmt(value)}")
        for check in self.checks:
            tag = "PASS" if check["passed"] else "FAIL"
            detail = f": {check['detail']}" if check.get("detail") else ""
            lines.append(f"[{tag}] {check['name']}{detail}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def truncate_decimal(q: Fraction, places: int) -> str:
    """Decimal expansion truncated (not rounded) to `places` digits."""
    if places < 1:
        raise ValueError("need at least one decimal place")
    sign = "-" if q < 0 else ""
    scaled = abs(q).numerator * 10**places // abs(q).denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _parse_range(flag: str, text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise ParameterError(f"{flag} takes an integer or a range like 5..9, got {text!r}") from None


def _parse_ratio(what: str, text: str) -> tuple[int, int]:
    r, slash, s = text.partition("/")
    try:
        return int(r), int(s) if slash else 1
    except ValueError:
        raise ParameterError(f"{what} takes a ratio like 5/7, got {text!r}") from None


def _check_dicts(report: FamilyReport, prefix: str = "") -> list[dict]:
    return [
        {"name": prefix + c.name, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]


# ---------------------------------------------------------------- analyze


def _cmd_analyze(args) -> tuple[OutputDocument, int]:
    weights = Weights.parse(args.weights)
    x = WeightedHypersurface(weights, args.degree)
    results: dict = {
        "well_formed": None,  # filled in by the report below, keeping the key first
        "amplitude": x.amplitude,
        "dimension": x.dimension,
    }
    if x.amplitude >= 1:
        results["volume"] = str(x.volume())
        if args.decimal:
            results["volume_decimal_approx"] = truncate_decimal(x.volume(), args.decimal)
    else:
        results["volume"] = "n/a (amplitude below 1)"
    try:
        report = singularity_report(x)
    except NotWellFormedError:
        report = None
    results["well_formed"] = report is not None
    if report is not None:
        results["quasi_smooth"] = report.quasi_smooth
        results["ambient_canonical"] = report.ambient_canonical
        verdict = report.member_canonical  # None unless quasi-smooth
        results["member_canonical"] = "n/a (member not quasi-smooth)" if verdict is None else verdict
        points = []
        for p in report.points:
            member = "missed by the general member"
            if p.meets_member and p.member_type is None:
                member = "met (no transverse direction matches the degree residue)"
            elif p.meets_member:
                member = f"met, member type {p.member_type} ({p.member_class})"
            ambient = report.classes[p.ambient_type.order]
            points.append(f"i={p.index} {p.ambient_type} ambient={ambient}; {member}")
        results["singular_points"] = points
        if report.strata:
            results["singular_strata"] = [
                f"indices={list(s.indices)} order={s.order} ambient={report.classes[s.order]}"
                for s in report.strata
            ]
    else:
        results["quasi_smooth"] = x.quasi_smooth()
        results["ambient_canonical"] = "n/a (not well-formed)"
    if args.plurigenera:
        if x.amplitude >= 1:
            genera = plurigenera_table(x, args.plurigenera)
            results["plurigenera"] = [f"P_{m + 1} = {p}" for m, p in enumerate(genera)]
        else:
            results["plurigenera"] = ["n/a (amplitude below 1)"]
    doc = OutputDocument(
        "analyze",
        {"weights": str(weights), "degree": args.degree},
        results,
    )
    return doc, STATUS_OK


# ------------------------------------------------------------- plurigenera


def _cmd_plurigenera(args) -> tuple[OutputDocument, int]:
    weights = Weights.parse(args.weights)
    x = WeightedHypersurface(weights, args.degree)
    genera = plurigenera_table(x, args.up_to)
    doc = OutputDocument(
        "plurigenera",
        {"weights": str(weights), "degree": args.degree, "up_to": args.up_to},
        {
            "amplitude": x.amplitude,
            "table": [f"P_{m + 1} = {p}" for m, p in enumerate(genera)],
        },
    )
    return doc, STATUS_OK


# ---------------------------------------------------------------- reid-tai


def _cmd_reid_tai(args) -> tuple[OutputDocument, int]:
    s = parse_quotient(args.singularity)
    report = quotient_report(s)
    results: dict = {"class": str(report.sclass)}
    if report.minimum is not None:
        results["minimum"] = f"min={report.minimum} at j={report.at_multiplier}"
        if args.decimal:
            results["minimum_decimal_approx"] = truncate_decimal(
                report.minimum, args.decimal
            )
    results["quasi_reflection_pattern"] = report.quasi_reflection
    doc = OutputDocument("reid-tai", {"singularity": str(s)}, results)
    return doc, STATUS_OK


# ------------------------------------------------------------------ verify


def _family_reports(args) -> list[FamilyReport]:
    given = [name for name in ("k", "l", "n", "q") if getattr(args, name) is not None]
    if args.all:
        extra = (["--family"] if args.family else []) + [f"--{name}" for name in given]
        if extra:
            raise ParameterError(f"--all runs every default; drop {', '.join(extra)}")
        return verify_all()
    if not args.family:
        raise ParameterError("choose --family or --all")
    stray = [f"--{name}" for name in given if name not in FAMILIES[args.family][1]]
    if stray:
        raise ParameterError(f"family {args.family} takes no {', '.join(stray)}")
    values = {n: _parse_range(f"--{n}", getattr(args, n)) for n in given if n != "q"}
    if args.q is not None:
        values["q"] = [_parse_ratio("--q", q) for q in args.q.split(",")]
    return verify_family(args.family, **values)


def _cmd_verify(args) -> tuple[OutputDocument, int]:
    reports = _family_reports(args)
    results = {
        "reports": [
            f"{r.family} {r.parameters}: {'pass' if r.passed else 'FAIL'}"
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    checks = [
        check
        for r in reports
        for check in _check_dicts(r, f"{r.family} {r.parameters}: ")
    ]
    inputs = {"family": args.family or "all"}
    doc = OutputDocument("verify", inputs, results, checks)
    status = STATUS_OK if results["passed"] else STATUS_FAILED_CHECK
    return doc, status


# -------------------------------------------------------- construct-volume


def _cmd_construct_volume(args) -> tuple[OutputDocument, int]:
    r, s = _parse_ratio("construct-volume", args.ratio)
    report = volume_witness(r, s, a=args.a, b=args.b)
    x = report.hypersurface
    doc = OutputDocument(
        "construct-volume",
        {"ratio": f"{r}/{s}", "a": args.a, "b": args.b},
        {
            "parameters": dict(report.parameters),
            "weights": str(x.weights),
            "degree": x.degree,
            "volume": str(x.volume()),
            "notes": list(report.notes),
        },
        _check_dicts(report),
    )
    return doc, STATUS_OK if report.passed else STATUS_FAILED_CHECK


# ------------------------------------------------------------------ search


def _cmd_search(args) -> tuple[OutputDocument | str, int]:
    from .search import search_records

    up_to = args.plurigenera if args.plurigenera is not None else args.vanishing
    if up_to < args.vanishing:
        raise ParameterError("--plurigenera must be at least --vanishing")
    records = search_records(
        args.dim,
        args.max_sum,
        amplitude=args.amplitude,
        plurigenera_up_to=up_to,
        vanishing=args.vanishing,
        jobs=args.jobs,
    )
    status = STATUS_OK if records else STATUS_FAILED_CHECK
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (
            ["weights", "d", "volume"]
            + [f"P_{m}" for m in range(1, up_to + 1)]
            + ["well_formed", "member_canonical", "quasi_smooth"]
        )
        writer.writerow(header)
        for rec in records:
            writer.writerow(
                [",".join(map(str, rec.weights)), rec.degree, str(rec.volume)]
                + list(rec.plurigenera)
                + ["true", "true", "true"]
            )
        return buf.getvalue().rstrip("\n"), status
    doc = OutputDocument(
        "search",
        {
            "dim": args.dim,
            "max_sum": args.max_sum,
            "amplitude": args.amplitude,
            "vanishing": args.vanishing,
        },
        {
            "record_count": len(records),
            "records": [str(r) for r in records],
            "note": f"bound: weight sum <= {args.max_sum}; no global-minimality claim",
        },
    )
    return doc, status


# ------------------------------------------------------------------ driver


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wph` parser, built on first use and shared by every `run` call:
    each `parse_args` returns a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="wph",
        description="exact arithmetic for weighted projective hypersurfaces",
    )
    parser.add_argument(
        "--json", dest="json_global", action="store_true", help="structured output"
    )
    # subparsers copy their own namespace over the global one, so the
    # postfix position needs a separate destination
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", dest="json_local", action="store_true", help="structured output"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="full report for one hypersurface", parents=[common])
    p.add_argument("--weights", required=True, help="comma-separated, e.g. 4,5,6,7,23")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--plurigenera", type=int, default=0, metavar="M")
    p.add_argument("--decimal", type=int, default=0, metavar="K")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("plurigenera", help="table of P_1..P_M", parents=[common])
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--up-to", dest="up_to", type=int, required=True, metavar="M")
    p.set_defaults(handler=_cmd_plurigenera)

    p = sub.add_parser("reid-tai", help="classify a cyclic quotient singularity", parents=[common])
    p.add_argument("singularity", help='literal such as "1/6(2,2,3)"')
    p.add_argument("--decimal", type=int, default=0, metavar="K")
    p.set_defaults(handler=_cmd_reid_tai)

    p = sub.add_parser("verify", help="run family verifiers", parents=[common])
    p.add_argument("--family", choices=FAMILY_IDS)
    p.add_argument("--all", action="store_true", help="default ranges of every family")
    p.add_argument("--k", help="prop: k value or range like 2..6")
    p.add_argument("--l", help="prop: l value or range")
    p.add_argument("--n", help="thm3/thm4/ample: n value or range")
    p.add_argument("--q", help="volume: comma-separated ratios like 1/2,5/7")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("construct-volume", help="build a member of assigned volume", parents=[common])
    p.add_argument("ratio", help="target volume, e.g. 5/7")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(handler=_cmd_construct_volume)

    p = sub.add_parser("search", help="enumerate low-volume candidates", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-sum", dest="max_sum", type=int, required=True)
    p.add_argument("--amplitude", type=int, default=1)
    p.add_argument("--vanishing", type=int, default=0, metavar="V")
    p.add_argument("--plurigenera", type=int, default=None, metavar="M")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="processes to search on, this one included; serial where os.fork is missing; "
        "an error is that of the first failing leading weight (default: 1)",
    )
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_search)

    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return STATUS_OK if exc.code in (0, None) else STATUS_USAGE
    try:
        for dest, flag in COUNT_FLAGS.items():  # checked before any handler runs
            if (getattr(args, dest, None) or 0) < 0:
                raise ParameterError(f"{flag} must be >= 0, got {getattr(args, dest)}")
        output, status = args.handler(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return STATUS_BUDGET
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATUS_USAGE
    as_json = getattr(args, "json_global", False) or getattr(args, "json_local", False)
    if isinstance(output, OutputDocument):
        print(output.to_json() if as_json else output.to_text())
    else:
        print(output)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

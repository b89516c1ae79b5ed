"""Command-line front end.

Subcommands: analyze, plurigenera, reid-tai, verify, construct-volume, search.
Exit status: 0 success / all checks passed; 1 some check failed or a search
found nothing; 2 usage or parameter error; 3 resource budget exceeded.  All
numbers print exactly; --decimal adds a truncated approximation, clearly
labelled.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__, search
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

_json_str = json.encoder.encode_basestring_ascii

STATUS_OK = 0
STATUS_FAILED_CHECK = 1
STATUS_USAGE = 2
STATUS_BUDGET = 3


class OutputDocument(NamedTuple):
    command: str
    inputs: dict
    results: dict
    checks: list | tuple = ()

    def to_json(self) -> str:
        return _render_json({"command": self.command, "version": __version__,
                             "inputs": self.inputs, "results": self.results, "checks": self.checks})

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


def _render_json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` of a document's str, int, bool, None, list, tuple
    and str-keyed dict values (else TypeError), with strings escaped in C."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):  # _json_str rejects a key that is no str
        items = [f"{_json_str(k)}: {_render_json(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        try:  # a list of strings in one pass of the C escaper
            items = list(map(_json_str, value))
        except TypeError:
            items = [_render_json(v, inner) for v in value]
    else:
        raise TypeError(f"{type(value).__name__} is not rendered as JSON")
    left, right = "{}" if isinstance(value, dict) else "[]"
    return f"{left}{inner}{(',' + inner).join(items)}{indent}{right}" if items else left + right


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
    if args.csv and (args.json_global or args.json_local):
        raise ParameterError("--csv and --json each choose the output format; drop one")
    up_to = args.plurigenera if args.plurigenera is not None else args.vanishing
    if up_to < args.vanishing:
        raise ParameterError("--plurigenera must be at least --vanishing")
    records = search.search_records(
        args.dim,
        args.max_sum,
        amplitude=args.amplitude,
        plurigenera_up_to=up_to,
        vanishing=args.vanishing,
        jobs=args.jobs,
    )
    status = STATUS_OK if records else STATUS_FAILED_CHECK
    if args.csv:
        import csv  # only --csv output needs it
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


# subparsers copy their own namespace over the global one, so the postfix --json that
# every subcommand takes has a separate destination
_JSON = {"--json": dict(dest="json_local", action="store_true", default=False,
                        help="structured output")}

# subcommand -> (help, handler, arguments after _JSON): each argument's `add_argument`
# keywords, and count=True on a count, which must not be negative
COMMANDS = {
    "analyze": ("full report for one hypersurface", _cmd_analyze, {
        "--weights": dict(required=True, help="comma-separated, e.g. 4,5,6,7,23"),
        "--degree": dict(type=int, required=True),
        "--plurigenera": dict(type=int, default=0, metavar="M", count=True),
        "--decimal": dict(type=int, default=0, metavar="K", count=True),
    }),
    "plurigenera": ("table of P_1..P_M", _cmd_plurigenera, {
        "--weights": dict(required=True),
        "--degree": dict(type=int, required=True),
        "--up-to": dict(dest="up_to", type=int, required=True, metavar="M", count=True),
    }),
    "reid-tai": ("classify a cyclic quotient singularity", _cmd_reid_tai, {
        "singularity": dict(help='literal such as "1/6(2,2,3)"'),
        "--decimal": dict(type=int, default=0, metavar="K", count=True),
    }),
    "verify": ("run family verifiers", _cmd_verify, {
        "--family": dict(choices=FAMILY_IDS),
        "--all": dict(action="store_true", default=False, help="default ranges of every family"),
        "--k": dict(help="prop: k value or range like 2..6"),
        "--l": dict(help="prop: l value or range"),
        "--n": dict(help="thm3/thm4/ample: n value or range"),
        "--q": dict(help="volume: comma-separated ratios like 1/2,5/7"),
    }),
    "construct-volume": ("build a member of assigned volume", _cmd_construct_volume, {
        "ratio": dict(help="target volume, e.g. 5/7"),
        "--a": dict(type=int),
        "--b": dict(type=int),
    }),
    "search": ("enumerate low-volume candidates", _cmd_search, {
        "--dim": dict(type=int, required=True),
        "--max-sum": dict(dest="max_sum", type=int, required=True, count=True),
        "--amplitude": dict(type=int, default=1),
        "--vanishing": dict(type=int, default=0, metavar="V", count=True),
        "--plurigenera": dict(type=int, default=None, metavar="M", count=True),
        "--jobs": dict(
            type=int, default=1, metavar="N",
            help="processes to search on, this one included; each claims runs of heads in order, "
            "a head being a weight tuple without its two largest weights; serial where "
            "os.fork is missing; an error is that of the first failing head (default: 1)",
        ),
        "--csv": dict(action="store_true", default=False),
    }),
}
COUNT_FLAGS = {kw.get("dest", flag.lstrip("-")): flag for _, _, arguments in COMMANDS.values()
               for flag, kw in arguments.items() if kw.get("count")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wph` parser, built from COMMANDS on first use and shared by every call:
    each `parse_args` returns a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="wph",
        description="exact arithmetic for weighted projective hypersurfaces",
    )
    parser.add_argument(
        "--json", dest="json_global", action="store_true", help="structured output"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in {**_JSON, **arguments}.items():
            p.add_argument(flag, **{key: value for key, value in kw.items() if key != "count"})
        p.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`. An argv that starts with a subcommand, perhaps
    after one --json, and gives its exact option strings, values that do not start with
    "-" and its positional is read from COMMANDS; argparse reads any other, and alone
    prints help and errors."""
    lead = argv[:1] == ["--json"]
    command = COMMANDS.get(argv[lead]) if len(argv) > lead else None
    if command is not None:
        arguments = {**_JSON, **command[2]}
        values = {"json_global": lead, "subcommand": argv[lead], "handler": command[1]}
        for name, kw in arguments.items():
            values[kw.get("dest", name.lstrip("-"))] = kw.get("default")
        wanted = {name for name, kw in arguments.items() if kw.get("required") or name[0] != "-"}
        tokens = iter(argv[lead + 1:])
        for token in tokens:  # a bare token is the positional while that is still wanted
            name = token if token[:1] == "-" else next((n for n in wanted if n[0] != "-"), None)
            kw = arguments.get(name)
            if kw is None:
                break  # -h, --, --flag=value, an abbreviation, an unknown or extra token
            if "action" in kw:
                value = True
            else:
                value = next(tokens, None) if name[0] == "-" else token
                if value is None or value[:1] == "-":
                    break  # missing, or an option or a negative number
                try:
                    value = kw.get("type", str)(value)
                except ValueError:
                    break
                if "choices" in kw and value not in kw["choices"]:
                    break
            values[kw.get("dest", name.lstrip("-"))] = value
            wanted.discard(name)
        else:
            if not wanted:
                return argparse.Namespace(**values)
    return build_parser().parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return STATUS_OK if exc.code in (0, None) else STATUS_USAGE
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact numbers print whole; the caller's limit comes back
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
    else:
        as_json = getattr(args, "json_global", False) or getattr(args, "json_local", False)
        if isinstance(output, OutputDocument):
            print(output.to_json() if as_json else output.to_text())
        else:
            print(output)
        return status
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

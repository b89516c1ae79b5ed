import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wph.cli
from wph.cli import OutputDocument, _parse, _render_json, build_parser, run, truncate_decimal
from fractions import Fraction

from test_perfbench_digests import WORKLOADS  # the benchmark's calls, read only

GOLDEN = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


class TestAnalyze:
    def test_min_volume_threefold(self, capsys):
        status, out = invoke(
            capsys, "analyze", "--weights", "4,5,6,7,23", "--degree", "46",
            "--plurigenera", "4",
        )
        assert status == 0
        assert "volume: 1/420" in out
        assert "P_1 = 0" in out and "P_2 = 0" in out and "P_3 = 0" in out
        assert "P_4 = 1" in out
        assert "quasi_smooth: yes" in out
        assert "ambient_canonical: no" in out  # the 1/23 point is not canonical
        assert "member_canonical: yes" in out

    def test_json_round_trip_and_determinism(self, capsys):
        args = (
            "--json", "analyze", "--weights", "4,5,6,7,23", "--degree", "46",
            "--plurigenera", "4",
        )
        status1, out1 = invoke(capsys, *args)
        status2, out2 = invoke(capsys, *args)
        assert status1 == status2 == 0
        assert out1 == out2  # byte-identical
        doc = json.loads(out1)
        assert doc["command"] == "analyze"
        assert doc["results"]["volume"] == "1/420"
        assert doc["inputs"]["weights"] == "4,5,6,7,23"

    def test_decimal_is_labelled_approximate(self, capsys):
        status, out = invoke(
            capsys, "analyze", "--weights", "4,5,6,7,23", "--degree", "46",
            "--decimal", "6",
        )
        assert status == 0
        assert "volume_decimal_approx: 0.002380" in out

    def test_negative_amplitude_reported(self, capsys):
        status, out = invoke(capsys, "analyze", "--weights", "1,1,1", "--degree", "2")
        assert status == 0
        assert "volume: n/a (amplitude below 1)" in out
        status, out = invoke(
            capsys, "analyze", "--weights", "1,1,1", "--degree", "2", "--plurigenera", "2"
        )
        assert status == 0
        assert "plurigenera:\n  n/a (amplitude below 1)\n" in out


class TestReidTai:
    def test_example(self, capsys):
        status, out = invoke(capsys, "reid-tai", "1/3(1,1)")
        assert status == 0
        assert "class: NotCanonical" in out
        assert "min=2/3" in out

    def test_smooth(self, capsys):
        status, out = invoke(capsys, "reid-tai", "1/1(1,2)")
        assert status == 0
        assert "class: Smooth" in out

    def test_parse_error(self, capsys):
        assert run(["reid-tai", "totally-not-a-quotient"]) == 2

    def test_budget_status(self, capsys):
        assert run(["reid-tai", "1/2000000(1)"]) == 3


class TestPlurigenera:
    def test_empty_table_still_checks_the_amplitude(self, capsys):
        assert run(["plurigenera", "--weights", "1,2,3,4", "--degree", "5", "--up-to", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: amplitude -5 < 1: plurigenus formula not applicable\n")

    def test_table(self, capsys):
        status, out = invoke(
            capsys, "plurigenera", "--weights", "2,2,2,2,3,3,3", "--degree", "18",
            "--up-to", "2",
        )
        assert status == 0
        assert "P_1 = 0" in out
        assert "P_2 = 4" in out


class TestVerify:
    def test_prop_single(self, capsys):
        status, out = invoke(capsys, "verify", "--family", "prop", "--k", "2", "--l", "0")
        assert status == 0
        assert "passed: yes" in out

    def test_prop_parameter_error(self, capsys):
        assert run(["verify", "--family", "prop", "--k", "1", "--l", "0"]) == 2

    def test_range_syntax(self, capsys):
        status, out = invoke(capsys, "verify", "--family", "thm3", "--n", "5..7")
        assert status == 0

    def test_volume_targets(self, capsys):
        status, out = invoke(capsys, "verify", "--family", "volume", "--q", "1/2,5/7")
        assert status == 0

    def test_gcd_error(self, capsys):
        assert run(["verify", "--family", "volume", "--q", "2/4"]) == 2

    def test_needs_family_or_all(self, capsys):
        assert run(["verify"]) == 2

    def test_empty_range_is_a_usage_error(self, capsys):
        assert run(["verify", "--family", "thm3", "--n", "9..5"]) == 2
        assert "no values given for n" in capsys.readouterr().err
        assert run(["verify", "--family", "prop", "--k", "3..2", "--l", "0"]) == 2
        assert "no values given for k" in capsys.readouterr().err

    def test_unknown_subcommand_usage(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--all", "--family", "prop", "--k", "2", "--l", "0"], "--family, --k, --l"),
            (["--all", "--n", "5"], "--n"),
            (["--family", "thm3", "--k", "3"], "takes no --k"),
            (["--family", "volume", "--n", "3", "--q", "1/2"], "takes no --n"),
        ],
    )
    def test_flags_that_would_be_ignored_are_usage_errors(self, capsys, argv, named):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "thm3", "--n", "5..5,6"],
             "--n takes an integer or a range like 5..9, got '5..5,6'"),
            (["--family", "thm3", "--n", ""],
             "--n takes an integer or a range like 5..9, got ''"),
            (["--family", "prop", "--k", "2", "--l", "0..z"],
             "--l takes an integer or a range like 5..9, got '0..z'"),
            (["--family", "volume", "--q", ""], "--q takes a ratio like 5/7, got ''"),
            (["--family", "volume", "--q", "1/2,x"], "--q takes a ratio like 5/7, got 'x'"),
            (["--family", "volume", "--q", "5/0"], "volume must be a ratio of positive integers"),
        ],
    )
    def test_malformed_range_or_ratio_names_the_flag(self, capsys, argv, message):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_pi_convergent_volume_is_answered(self, capsys):
        # a convergent of pi: (1^m, 1, 33215, 33102) with m = 3,454,061,177;
        # no cost grows with m, and the largest reachability table has 33,102 cells
        start = time.perf_counter()
        assert run(["verify", "--family", "volume", "--q", "104348/33215"]) == 0
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert "'unit_weights': 3454061177" in captured.out
        assert "passed: yes" in captured.out and captured.err == ""


class TestWeightLists:
    def test_run_count_below_one_is_a_usage_error(self, capsys):
        assert run(["analyze", "--weights", "1^-3,2,3,5", "--degree", "30"]) == 2
        assert "run counts" in capsys.readouterr().err
        assert run(["reid-tai", "1/5(1^0,2)"]) == 2
        assert "run counts" in capsys.readouterr().err

    def test_runs_beyond_table_cap_are_a_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WPH_TABLE_CAP", "50")
        assert run(["analyze", "--weights", "1^51,2,3", "--degree", "60"]) == 3
        err = capsys.readouterr().err
        assert "WPH_TABLE_CAP" in err and "53" in err
        assert run(["reid-tai", "1/5(1^51,2)"]) == 3
        assert "WPH_TABLE_CAP" in capsys.readouterr().err


class TestSubsetCap:
    def test_heavy_weights_beyond_cap_are_a_budget_error(self, capsys):
        # 30 weights of 2 would mean 2^30 strata subsets; none is listed
        status = run(["analyze", "--weights", "1,1,2^30", "--degree", "63"])
        err = capsys.readouterr().err
        assert status == 3
        assert "30 weights exceed 1" in err and "WPH_SUBSET_CAP to at least 30" in err

    def test_distinct_values_beyond_cap_are_a_budget_error(self, capsys):
        # 21 distinct values: quasi-smoothness is decided first, so its cap speaks
        weights = ",".join(map(str, range(2, 23)))
        status = run(["analyze", "--weights", weights, "--degree", "253"])
        err = capsys.readouterr().err
        assert status == 3
        assert "21 distinct weights" in err and "WPH_SUBSET_CAP to at least 21" in err


class TestHugeDegree:
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["analyze", "--weights", "2,3,5", "--degree", "100000000001"], "quasi_smooth: no"),
            (["search", "--dim", "2", "--max-sum", "12", "--amplitude", "100000000000"],
             "record_count: 8"),
        ],
        ids=["analyze", "search"],
    )
    def test_huge_degree_is_answered_without_allocation(self, capsys, argv, line):
        # reachability tables have as many cells as a weight, whatever the degree
        start = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert line in captured.out.splitlines() and captured.err == ""


class TestCapVariables:
    def test_malformed_cap_names_itself(self, capsys, monkeypatch):
        monkeypatch.setenv("WPH_ORDER_CAP", "lots")
        assert run(["reid-tai", "1/6(2,2,3)"]) == 2
        err = capsys.readouterr().err
        assert err == "error: WPH_ORDER_CAP must be an integer, got 'lots'\n"

    def test_a_malformed_order_cap_fails_a_search_without_tuples(self, capsys, monkeypatch):
        # the search reads the cap once, before its first leading weight: dim 3
        # at weight sum 4 has none
        monkeypatch.setenv("WPH_ORDER_CAP", "abc")
        assert run(["search", "--dim", "3", "--max-sum", "4"]) == 2
        err = capsys.readouterr().err
        assert err == "error: WPH_ORDER_CAP must be an integer, got 'abc'\n"


class TestConstructVolume:
    def test_five_sevenths(self, capsys):
        status, out = invoke(capsys, "construct-volume", "5/7")
        assert status == 0
        assert "volume: 5/7" in out
        assert "1^17,2,7,3" in out

    def test_override(self, capsys):
        status, out = invoke(capsys, "construct-volume", "1/2", "--a", "7", "--b", "3")
        assert status == 0
        assert "volume: 1/2" in out

    def test_bad_override(self, capsys):
        assert run(["construct-volume", "1/2", "--b", "2"]) == 2

    def test_malformed_ratio_names_the_command(self, capsys):
        assert run(["construct-volume", "1/x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: construct-volume takes a ratio like 5/7, got '1/x'\n"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_carries_no_state_between_calls(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run(["reid-tai", "--help"]) == 0
        assert run(["reid-tai", "1/2000000(1)"]) == 3
        assert run(["verify", "--family", "thm3", "--k", "3"]) == 2
        capsys.readouterr()
        assert run(["--json", "search", "--dim", "2", "--max-sum", "12"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "search-d2-global-json.out").read_text()
        # a global --json of the previous call must not leak into this one
        assert run(["search", "--dim", "2", "--max-sum", "12"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "search-d2.out").read_text()


def _parse_outcome(parse, argv):
    """(namespace or SystemExit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


GOLDEN_ARGVS = [case["argv"] for case in json.loads((GOLDEN / "cases.json").read_text())]
DISPATCH_ARGVS = {
    "golden": GOLDEN_ARGVS,
    "golden-leading-json": [["--json", *argv] for argv in GOLDEN_ARGVS],
    **{name: workload.calls(1, False) for name, workload in WORKLOADS.items()},
    "edge": [
        [],
        ["-h"],
        ["--json"],
        ["--", "analyze"],
        ["frobnicate", "--json"],
        ["--json", "analyze", "--weights", "2,3,5", "--degree", "11"],
        ["analyze", "-h"],
        ["analyze", "--weights", "2,3,5", "--degree", "11", "--bogus"],
        ["analyze", "--weigh", "2,3,5", "--deg", "11"],
        ["analyze", "--weights=2,3,5", "--degree", "11", "--json"],
        ["analyze", "--weights", "2,3,5"],
        ["reid-tai", "--", "1/6(2,2,3)"],
        ["reid-tai", "1/6(2,2,3)", "1/5(1,4)"],
        ["search", "--dim", "2", "--max-sum", "-3"],
        ["search", "--dim", "two", "--max-sum", "12"],
        ["verify", "--family", "bogus"],
        # abbreviations, --flag=value, --, -h
        ["analyze", "--weights", "2,3,5", "--deg", "11"],
        ["verify", "--a"],
        ["verify", "--al", "--family", "thm3"],
        ["verify", "--family=thm3", "--n=5"],
        ["construct-volume", "5/7", "--"],
        ["construct-volume", "--", "5/7"],
        ["verify", "--help"],
        # negative and non-decimal ints, empty strings, repeated options
        ["construct-volume", "1/2", "--a", "-7"],
        ["search", "--dim", "2", "--max-sum", "1_0"],
        ["analyze", "--weights", "2,3,5", "--degree", " 11"],
        ["search", "--dim", "0x2", "--max-sum", "12"],
        ["analyze", "--weights", "", "--degree", "11"],
        ["search", "--dim", "", "--max-sum", "12"],
        ["reid-tai", ""],
        ["analyze", "--weights", "1,1", "--weights", "2,3,5", "--degree", "9", "--degree", "11",
         "--json", "--json"],
        # extra or missing positionals and values, bad choices, store_true given a value
        ["analyze", "--weights", "2,3,5", "--degree", "11", "extra"],
        ["construct-volume", "5/7", "1/2"],
        ["construct-volume", "--a", "7"],
        ["analyze", "--weights", "2,3,5", "--degree"],
        ["analyze", "--weights", "-h", "--degree", "11"],
        ["verify", "--family", "prop", "--k", "--", "2"],
        ["search", "--dim", "2", "--max-sum", "--csv"],
        ["verify", "--family", ""],
        ["verify", "--family", "Thm3"],
        ["verify", "--all=1"],
        ["verify", "--all", "1"],
        ["search", "--dim", "2", "--max-sum", "12", "--csv", "yes"],
    ],
}

# values each kind of table argument reads, and hazards: values argparse reads its own way
INT_TEXTS, INT_HAZARDS = ["0", "3", "12"], ["-3", "1_0", " 7", "", "0x1f", "+4", "٣", "x"]
STR_TEXTS, STR_HAZARDS = ["2,3,5", "1/6(2,2,3)", "5/7", "2..6", "thm3"], ["", "-1", "--", "-h"]
STRAY_TOKENS = ["--deg", "--a", "--al", "--weights=2,3,5", "--all=1", "--json=1", "--", "-h",
                "--help", "-", "--bogus", "extra", ""]


def _table_item(flag, kw, hazard):
    """One argument of a table as argv tokens: a flag, a flag and its value, or a positional."""
    if "action" in kw:
        return st.just([flag, "1"] if hazard else [flag])
    if "choices" in kw:
        texts = st.sampled_from(["bogus", "", "Thm3"] if hazard else kw["choices"])
    elif "type" in kw:
        texts = st.sampled_from(INT_HAZARDS if hazard else INT_TEXTS)
    else:
        texts = st.sampled_from(STR_TEXTS)
        if hazard:
            texts = st.sampled_from(STR_HAZARDS) | st.text(max_size=3)
    return texts.map(lambda text: [flag, text] if flag[0] == "-" else [text])


@st.composite
def table_argvs(draw):
    """A valid argv of one subcommand's table, repeats included, in any order, and then
    perhaps one hazard: an argument's bad value, a stray token or lone flag, or a
    dropped argument."""
    name = draw(st.sampled_from(sorted(wph.cli.COMMANDS)))
    arguments = {**wph.cli._JSON, **wph.cli.COMMANDS[name][2]}
    required = [flag for flag, kw in arguments.items() if kw.get("required") or flag[0] != "-"]
    optional = [flag for flag in arguments if flag not in required]
    flags = draw(st.permutations(required + draw(st.lists(st.sampled_from(optional), max_size=4))))
    hazard = draw(st.sampled_from(["none", "value", "stray", "drop"]))
    bad = draw(st.integers(0, len(flags) - 1)) if hazard == "value" and flags else None
    items = [draw(_table_item(flag, arguments[flag], i == bad)) for i, flag in enumerate(flags)]
    if hazard == "stray":
        stray = draw(st.sampled_from(STRAY_TOKENS + list(arguments)))
        items.insert(draw(st.integers(0, len(items))), [stray])
    if hazard == "drop" and items:
        del items[draw(st.integers(0, len(items) - 1))]
    tokens = [token for item in items for token in item]
    return draw(st.sampled_from([[name], [name], [name], ["--json", name], []])) + tokens


class TestDispatch:
    @pytest.mark.parametrize("group", sorted(DISPATCH_ARGVS))
    def test_direct_dispatch_parses_as_the_full_parser(self, group):
        assert DISPATCH_ARGVS[group]
        for argv in DISPATCH_ARGVS[group]:
            direct = _parse_outcome(_parse, argv)
            assert direct == _parse_outcome(build_parser().parse_args, argv), argv
            assert isinstance(direct[0], argparse.Namespace) or direct[0] in (0, 2), argv

    @settings(max_examples=300)
    @given(table_argvs())
    def test_parse_matches_the_full_parser_on_drawn_argvs(self, argv):
        assert _parse_outcome(_parse, argv) == _parse_outcome(build_parser().parse_args, argv)

    def test_valid_calls_build_no_parser(self):
        # a fresh process pays for every ArgumentParser it builds; help and errors still build one
        env = dict(os.environ, PYTHONPATH=str(Path(wph.cli.__file__).parents[1]), COLUMNS="80")
        code = textwrap.dedent("""
            import argparse, contextlib, io, wph.cli
            built = []
            init = argparse.ArgumentParser.__init__
            argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)
            calls = [["analyze", "--weights", "2,3,5", "--degree", "11", "--json"],
                     ["plurigenera", "--weights", "2,3,5", "--degree", "11", "--up-to", "2"],
                     ["reid-tai", "1/6(2,2,3)", "--decimal", "4"],
                     ["verify", "--json", "--family", "prop", "--k", "2", "--l", "0"],
                     ["construct-volume", "5/7", "--a", "2"],
                     ["search", "--dim", "2", "--max-sum", "6", "--csv"],
                     ["--json", "reid-tai", "1/6(2,2,3)"],
                     ["--json", "search", "--dim", "2", "--max-sum", "6", "--json"]]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                valid = [wph.cli.run(argv) for argv in calls], len(built)
                cached = wph.cli.build_parser.cache_info().currsize
                rest = wph.cli.run(["reid-tai", "-h"]), wph.cli.run(["analyze", "--deg", "11"])
            print(valid, cached, rest, len(built) > 0)
        """)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "([0, 0, 0, 0, 0, 0, 0, 0], 0) 0 (0, 2) True\n"

    def test_module_entry_point(self):
        # `python -m wph.cli` runs main(); a leading --json is the documented global form
        # argparse wraps the usage line at $COLUMNS; the corpus was written at 80
        env = dict(os.environ, PYTHONPATH=str(Path(wph.cli.__file__).parents[1]), COLUMNS="80")
        argv = [sys.executable, "-m", "wph.cli"]
        done = subprocess.run([*argv, "--json", "reid-tai", "1/6(2,2,3)", "--decimal", "4"],
                              capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (GOLDEN / "reid-tai-canonical-json.out").read_text()
        done = subprocess.run([*argv, "frobnicate"], capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (GOLDEN / "error-unknown-subcommand.err").read_text()

    def test_import_loads_no_module_it_does_not_use(self):
        # every call of `wph` pays for its imports; these would add start-up for nothing
        # (csv loads with `search --csv`, pickle with a pooled search). -S keeps site's own
        # imports out of the count.
        env = dict(os.environ, PYTHONPATH=str(Path(wph.cli.__file__).parents[1]))
        code = "import sys, wph.cli; print(sorted({'dataclasses', 'inspect', 'csv', 'pickle'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


TEXT = st.one_of(
    st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é", "数", "😀", "\u2028", 'a"b\\c']),
    st.text(),
)
LEAVES = st.one_of(TEXT, st.integers(), st.integers(-(10**40), 10**40), st.booleans(), st.none())
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(TEXT), st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(TEXT, inner)
    ),
    max_leaves=40,
)


class TestRenderJson:
    @given(VALUES)
    @example({"": [], "{}": {}, 'é"\\\n': ("x", -(2**70), True, None), "f": [False, ["a", 1]]})
    def test_matches_json_dumps_with_indent(self, value):
        assert _render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [{"a": 1.5}, {1: "a"}, [Fraction(1, 2)], {"a": ["s", 0.5]}, [{"b": {(1,): 2}}]]
    )
    def test_other_types_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            _render_json(value)
        with pytest.raises(TypeError):
            OutputDocument("analyze", {}, {"value": value}).to_json()


class TestSearch:
    def test_small_search_text(self, capsys):
        status, out = invoke(capsys, "search", "--dim", "2", "--max-sum", "4")
        assert status == 0
        assert "(1,1,1,1) d=5 vol=5" in out

    def test_csv(self, capsys):
        status, out = invoke(
            capsys, "search", "--dim", "2", "--max-sum", "5", "--plurigenera", "1", "--csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "weights,d,volume,P_1,well_formed,member_canonical,quasi_smooth"
        assert lines[1] == '"1,1,1,2",6,3,3,true,true,true'

    def test_search_reads_search_records_from_its_module_at_call_time(self, capsys, monkeypatch):
        # perfbench's traced run wraps wph.search.search_records in place
        monkeypatch.setattr("wph.search.search_records", lambda *args, **kwargs: [])
        assert run(["search", "--dim", "2", "--max-sum", "4"]) == 1
        assert "record_count: 0" in capsys.readouterr().out

    def test_empty_search_exits_one(self, capsys):
        # five positive weights cannot sum to 4
        status, out = invoke(capsys, "search", "--dim", "3", "--max-sum", "4")
        assert status == 1
        assert "record_count: 0" in out
        status, out = invoke(capsys, "search", "--dim", "3", "--max-sum", "4", "--csv")
        assert status == 1
        assert out.startswith("weights,d,volume,")
        status, out = invoke(capsys, "search", "--dim", "3", "--max-sum", "0")
        assert status == 1  # the least bound is an empty search, not a usage error
        assert "record_count: 0" in out

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert run(["search", "--dim", "2", "--max-sum", "12", "--jobs", jobs]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["search", "--dim", "2", "--max-sum", "12", "--csv", "--json"],
        ["--json", "search", "--dim", "2", "--max-sum", "12", "--csv"],
    ])
    def test_csv_with_json_is_a_usage_error(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --csv and --json each choose the output format; drop one\n"

    def test_plurigenera_must_cover_vanishing(self, capsys):
        assert run(
            ["search", "--dim", "2", "--max-sum", "5", "--vanishing", "2",
             "--plurigenera", "1"]
        ) == 2


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["plurigenera", "--weights", "2,3,5", "--degree", "11", "--up-to", "-1"],
             "--up-to must be >= 0, got -1"),
            (["analyze", "--weights", "2,3,5", "--degree", "9", "--plurigenera", "-2"],
             "--plurigenera must be >= 0, got -2"),
            (["search", "--dim", "2", "--max-sum", "12", "--vanishing", "-1"],
             "--vanishing must be >= 0, got -1"),
            (["search", "--dim", "2", "--max-sum", "12", "--plurigenera", "-1"],
             "--plurigenera must be >= 0, got -1"),
            (["analyze", "--weights", "2,3,5", "--degree", "11", "--decimal", "-3"],
             "--decimal must be >= 0, got -3"),
            (["reid-tai", "1/5(1,4)", "--decimal", "-3"], "--decimal must be >= 0, got -3"),
            (["search", "--dim", "3", "--max-sum", "-5"], "--max-sum must be >= 0, got -5"),
        ],
    )
    def test_negative_count_is_a_usage_error_naming_the_flag(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestTruncateDecimal:
    def test_truncates_not_rounds(self):
        assert truncate_decimal(Fraction(1, 420), 6) == "0.002380"
        assert truncate_decimal(Fraction(2, 3), 3) == "0.666"
        assert truncate_decimal(Fraction(-2, 3), 2) == "-0.66"
        assert truncate_decimal(Fraction(5, 1), 2) == "5.00"

    def test_rejects_zero_places(self):
        with pytest.raises(ValueError):
            truncate_decimal(Fraction(1, 3), 0)


def test_exact_numbers_print_past_the_interpreter_digit_limit(capsys):
    # thm3's volume bound at n = 1500 and a 5,000-digit decimal exceed the 4,300
    # digits that str(int) allows by default; run lifts that limit for the
    # handler and the rendering only, and gives the caller's back
    limit = sys.get_int_max_str_digits()
    status, out = invoke(capsys, "verify", "--family", "thm3", "--n", "1500")
    assert status == 0 and "passed: yes" in out and "[FAIL]" not in out
    status, out = invoke(capsys, "analyze", "--weights", "4,5,6,7,23", "--degree", "46",
                         "--decimal", "5000")
    approx = next(line for line in out.splitlines() if line.startswith("volume_decimal_approx"))
    assert status == 0 and len(approx.split(".")[1]) == 5000
    status, out = invoke(capsys, "reid-tai", "1/7(1,2,4)", "--decimal", "4400")
    assert status == 0 and "minimum_decimal_approx: 1." + "0" * 4400 in out
    # argv is read under the caller's limit: a 5,000-digit degree is a usage error
    assert run(["analyze", "--weights", "2,3,5", "--degree", "7" * 5000]) == 2
    assert sys.get_int_max_str_digits() == limit


def test_thm3_verifies_where_its_top_germ_is_above_the_order_cap(capsys, monkeypatch):
    # at n = 10000 (k = 3333) the ambient check meets the top-weight germ of order
    # k(k + 1) = 11,112,222, above the default WPH_ORDER_CAP; the prime-divisor bound
    # L = k^2 + 2k > k(k + 1) proves it terminal, so no scan runs and no cap speaks
    monkeypatch.delenv("WPH_ORDER_CAP", raising=False)
    status, out = invoke(capsys, "verify", "--family", "thm3", "--n", "10000")
    assert status == 0 and "passed: yes" in out
    assert out.count("[PASS]") == 6 and "[FAIL]" not in out
    assert "ambient space is canonical" in out

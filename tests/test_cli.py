import json
import time
from pathlib import Path

import pytest

from wph.cli import build_parser, run, truncate_decimal
from fractions import Fraction

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

    def test_empty_search_exits_one(self, capsys):
        # five positive weights cannot sum to 4
        status, out = invoke(capsys, "search", "--dim", "3", "--max-sum", "4")
        assert status == 1
        assert "record_count: 0" in out
        status, out = invoke(capsys, "search", "--dim", "3", "--max-sum", "4", "--csv")
        assert status == 1
        assert out.startswith("weights,d,volume,")

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert run(["search", "--dim", "2", "--max-sum", "12", "--jobs", jobs]) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

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

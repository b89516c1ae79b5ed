import json

import pytest

from wph.cli import run, truncate_decimal
from fractions import Fraction


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

    def test_unknown_subcommand_usage(self, capsys):
        assert run(["frobnicate"]) == 2


    def test_volume_beyond_table_cap_is_a_budget_error(self, capsys):
        # a convergent of pi: (1^m, 1, 33215, 33102) with m = 3,454,061,177
        assert run(["verify", "--family", "volume", "--q", "104348/33215"]) == 3
        err = capsys.readouterr().err
        assert "WPH_TABLE_CAP" in err and "3454061177" in err
        assert "Traceback" not in err


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

    def test_plurigenera_must_cover_vanishing(self, capsys):
        assert run(
            ["search", "--dim", "2", "--max-sum", "5", "--vanishing", "2",
             "--plurigenera", "1"]
        ) == 2


class TestTruncateDecimal:
    def test_truncates_not_rounds(self):
        assert truncate_decimal(Fraction(1, 420), 6) == "0.002380"
        assert truncate_decimal(Fraction(2, 3), 3) == "0.666"
        assert truncate_decimal(Fraction(-2, 3), 2) == "-0.66"
        assert truncate_decimal(Fraction(5, 1), 2) == "5.00"

    def test_rejects_zero_places(self):
        with pytest.raises(ValueError):
            truncate_decimal(Fraction(1, 3), 0)

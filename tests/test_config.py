"""Budget caps: every cap site asks `config.require`, and nothing else raises."""

import ast
from pathlib import Path

import pytest

from wph import config
from wph.core import CyclicQuotientSingularity, Weights, parse_runs, singular_strata
from wph.errors import BudgetError
from wph.hilbert import monomial_count, values_present_below, variables_present
from wph.hypersurface import WeightedHypersurface, singularity_report
from wph.search import search_records
from wph.singularity import classify_quotient, order_classes

SRC = Path(__file__).resolve().parents[1] / "src" / "wph"

# (site, variable, small cap, value needed, call that needs it)
SITES = [
    ("listed weights", "WPH_TABLE_CAP", 50, 53, lambda: parse_runs("1^50,2,3,5")),
    ("heavy weights", "WPH_SUBSET_CAP", 4, 5, lambda: singular_strata(Weights((1, 1) + (2,) * 5))),
    (
        "distinct values",
        "WPH_SUBSET_CAP",
        5,
        6,
        lambda: WeightedHypersurface(Weights((1, 2, 3, 4, 5, 6)), 100).quasi_smooth(),
    ),
    ("count table", "WPH_TABLE_CAP", 10, 21, lambda: monomial_count((1, 2), 20)),
    (
        "group order",
        "WPH_ORDER_CAP",
        11,
        12,
        # T(1) = 13 and T(11) = 23 are at least 12, and the gcds sum to 3: only a scan decides
        lambda: classify_quotient(CyclicQuotientSingularity(12, (1, 5, 7))),
    ),
    # orders 6 and 7: the breach names 7, which is enough for both scans
    ("order classes", "WPH_ORDER_CAP", 5, 7, lambda: order_classes((1, 1, 7, 6))),
    ("search sum", "WPH_SEARCH_SUM_CAP", 11, 12, lambda: search_records(2, 12)),
    (
        "reachability table",
        "WPH_TABLE_CAP",
        99,
        100,  # the table of {100} has a cell per residue mod 100, whatever d is
        lambda: WeightedHypersurface(Weights((2, 3, 100)), 6400).quasi_smooth(),
    ),
    ("presence degrees", "WPH_TABLE_CAP", 63, 64, lambda: values_present_below((2, 3), 64)),
    ("presence table", "WPH_TABLE_CAP", 49, 50, lambda: variables_present((50, 51), 10**12)),
]


@pytest.mark.parametrize("site, name, cap, needed, call", SITES, ids=[s[0] for s in SITES])
def test_each_cap_site_names_its_variable_and_the_value_needed(
    site, name, cap, needed, call, monkeypatch
):
    monkeypatch.setenv(name, str(cap))
    with pytest.raises(BudgetError) as info:
        call()
    assert str(info.value).endswith(
        f", above the cap {cap} (set {name} to at least {needed} to allow it)"
    )
    monkeypatch.setenv(name, str(needed))
    call()  # the value needed is enough


# (weights, degree, WPH_SUBSET_CAP, WPH_ORDER_CAP, the need that speaks first)
PRECEDENCE = [
    ((1, 1, 5, 6, 7), 21, 2, 4, "4 distinct weights"),  # quasi-smoothness before the scans
    ((1, 1, 2, 2, 2, 3), 11, 3, 1, "4 weights exceed 1"),  # the strata listing before the scans
]


@pytest.mark.parametrize(
    "entries, degree, subset_cap, order_cap, what", PRECEDENCE, ids=["quasi-smooth", "strata"]
)
def test_report_caps_speak_in_check_order(entries, degree, subset_cap, order_cap, what, monkeypatch):
    monkeypatch.setenv("WPH_SUBSET_CAP", str(subset_cap))
    monkeypatch.setenv("WPH_ORDER_CAP", str(order_cap))
    with pytest.raises(BudgetError) as info:
        singularity_report(WeightedHypersurface(Weights(entries), degree))
    assert str(info.value).startswith(f"{what}, above the cap {subset_cap} (set WPH_SUBSET_CAP")


def test_defaults():
    assert config.DEFAULTS == {
        "WPH_TABLE_CAP": 10_000_000,
        "WPH_SUBSET_CAP": 20,
        "WPH_ORDER_CAP": 1_000_000,
        "WPH_SEARCH_SUM_CAP": 500,
    }


def _budget_raisers(path: Path) -> set[tuple[str, str]]:
    found = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetError":
                    found.add((path.name, func.name))
    return found


def test_only_require_and_the_enumeration_oracle_raise_budget_errors():
    raisers = set().union(*(_budget_raisers(p) for p in sorted(SRC.glob("*.py"))))
    assert raisers == {("config.py", "require"), ("hilbert.py", "monomial_count_enum")}

"""Budget caps: every cap site asks `config.require`, and nothing else raises."""

import ast
from pathlib import Path

import pytest

from wph import config
from wph.core import CyclicQuotientSingularity, Weights, parse_runs, singular_strata
from wph.errors import BudgetError
from wph.hilbert import monomial_count, values_present_below, variables_present
from wph.hypersurface import WeightedHypersurface
from wph.search import search_records
from wph.singularity import classify_quotient

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
        lambda: classify_quotient(CyclicQuotientSingularity(12, (1, 5))),
    ),
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

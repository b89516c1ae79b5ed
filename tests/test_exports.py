"""The export list names only what the package defines, and every exported
name has one role: no public name exists only for the tests."""

import importlib
import re
from pathlib import Path

import pytest

import wph

SRC = Path(wph.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# role -> the names of `wph.__all__` that play it; README's Library section
# lists the same names under the same roles (names in backticks, nothing else)
ROLES = {
    # what the `wph` command calls or prints
    "command backend": {
        "__version__", "parse_quotient", "plurigenera_table", "quotient_report",
        "search_records", "singularity_report", "verify_all", "volume_witness",
    },
    # one question answered for library callers
    "library entry": {
        "ambient_canonical", "ample_witness", "classify_quotient", "consecutive_family",
        "degree_bound_witness", "monomial_count", "plurigenus", "singular_strata",
        "vanishing_witness", "variables_present", "well_formed",
    },
    "value/record type": {
        "Check", "CyclicQuotientSingularity", "FamilyReport", "PointRecord",
        "QuotientReport", "SearchRecord", "SingularityClass", "SingularityReport",
        "StratumRecord", "WeightedHypersurface", "Weights",
    },
    "error": {"BudgetError", "NotWellFormedError", "ParameterError"},
    # a second derivation by the definition, which the fast paths are checked against
    "independent oracle": {"ambient_canonical_bruteforce", "monomial_count_enum", "reid_tai_sum"},
}


@pytest.mark.parametrize("module", ["wph"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_are_unique():
    assert len(wph.__all__) == len(set(wph.__all__))


def test_every_exported_name_has_one_role_and_every_role_a_name():
    named = sorted(name for names in ROLES.values() for name in names)
    assert named == sorted(wph.__all__)
    assert [role for role, names in ROLES.items() if not names] == []


def test_roles_match_what_the_names_are():
    def kind(value):
        if isinstance(value, type):
            return "error" if issubclass(value, Exception) else "value/record type"
        return "function" if callable(value) else "constant"

    expected = {"error": {"error"}, "value/record type": {"value/record type"}}
    for role, names in ROLES.items():
        for name in names:
            assert kind(getattr(wph, name)) in expected.get(role, {"function", "constant"}), name


def test_command_backends_are_read_by_the_cli():
    source = (SRC / "cli.py").read_text()
    unread = [name for name in ROLES["command backend"] if not re.search(rf"\b{name}\b", source)]
    assert unread == []


def test_readme_lists_every_public_name_with_its_role():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        role: set(re.findall(r"`([^`]+)`", body))
        for role, body in re.findall(r"^\* \*\*([^*]+):\*\*(.*?)(?=^\* |^$)", library, re.M | re.S)
    }
    assert listed == ROLES

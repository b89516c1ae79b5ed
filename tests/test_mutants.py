"""The mutant table of tests/mutants.py still fits `src/`: it runs no mutant."""

import re

import pytest

from mutants import MUTANTS, ROOT, run


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / name).is_file() for name in mutant.tests)
    assert re.fullmatch(r"killed|survives \(item \d+\)", mutant.expect)


def test_mutant_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


def test_a_run_past_its_timeout_is_an_error():
    # pytest alone takes far longer than 10 ms to start; the run is killed, not awaited
    outcome, seconds = run(MUTANTS[0], timeout=0.01)
    assert outcome == "error" and seconds < 5

"""Byte-for-byte comparison of CLI output against a committed corpus.

`golden/cases.json` lists each case's argument vector and exit status; its
stdout and stderr are stored as `golden/<name>.out` and `golden/<name>.err`
(a missing file means empty output).  The corpus is fixed data: a change that
alters the output of any case must change the corpus file by hand, in view.
"""

import json
from pathlib import Path

import pytest

from wph.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _expected(name: str, suffix: str) -> str:
    path = GOLDEN / f"{name}.{suffix}"
    return path.read_text() if path.exists() else ""


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_corpus(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at it; the corpus was written at 80
    status = run(list(case["argv"]))
    captured = capsys.readouterr()
    assert status == case["status"]
    assert captured.out == _expected(case["name"], "out")
    assert captured.err == _expected(case["name"], "err")

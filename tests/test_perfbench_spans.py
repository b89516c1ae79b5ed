"""Every function the traced benchmark wraps still exists in `wph`.

`perfbench/spans.py` lists its spans as (name, module, attribute) in `SPANS`.
The file is read and executed here in a private namespace, never installed or
imported as a module, so a refactor that renames or removes a traced function
fails this test instead of `perfbench/run.py --trace 1`.
"""

import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> tuple:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS_FILE.read_text(), str(SPANS_FILE), "exec"), namespace)
    return namespace["SPANS"]


SPANS = _spans()


@pytest.mark.parametrize("span", SPANS, ids=[span[0] for span in SPANS])
def test_traced_function_resolves(span):
    _, module, attribute = span[:3]
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)

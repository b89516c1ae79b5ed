"""The benchmark's seed-1 calls still print what `perfbench/digests.json` records.

`perfbench/workloads.py` makes each workload's CLI argument vectors from a
seed, and `perfbench/digests.json` holds sha256(stdout)[:16] of every call at
seed 1.  Both files are read here, never written; the workloads file is
loaded as a private module.  Every seed-1 call of the single-process
workloads runs through `wph.cli.run` in this process, so a change to any
output fails here before the benchmark's digest gate sees it.
(`search-d3-jobs2` runs the `search-d3` search on a pool and records the
same digest.)
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from wph.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", ["search-d3", "families", "analyze"])
def test_seed_one_outputs_match_the_committed_digests(name):
    assert DIGESTS[name]["seed"] == SEED
    calls = WORKLOADS[name].calls(SEED, False)
    expected = DIGESTS[name]["per_call"]
    assert len(calls) == len(expected)
    for argv, digest in zip(calls, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run(argv)
        assert status == 0, argv
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        assert got == digest, " ".join(argv)

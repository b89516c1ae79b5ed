"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_overlapping_children_are_not_subtracted_twice():
    assert spans.covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert spans.covered([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0)], 0.0, 10.0) == 6.0
    assert spans.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert spans.covered([], 0.0, 10.0) == 0.0

    tracer = spans.Tracer()
    parent = [0.0, 0.0, True, []]
    tracer.stack.append(parent)
    for start, end in [(1.0, 2.0), (3.0, 6.0), (5.0, 9.0), (8.0, 10.0)]:
        tracer.record("leaf", start, end, [0.0, start, True, []], True, 1)
    assert parent[2] is False  # the second pair overlaps: the union is needed
    tracer.stack.pop()
    tracer.record("parent", 0.0, 12.0, parent, None, 0)
    leaf, top = tracer.stats["leaf"], tracer.stats["parent"]
    assert (leaf.calls, leaf.true, leaf.total_s, leaf.self_s, leaf.work) == (4, 4, 10.0, 10.0, 4)
    assert top.self_s == 12.0 - 8.0  # union [1,2] + [3,10], not the 10.0 summed


def test_wrapped_spans_nest():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: True)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert tracer.stats["inner"].calls == 2 and tracer.stats["inner"].true == 2
    outer_stats = tracer.stats["outer"]
    assert 0 <= outer_stats.self_s <= outer_stats.total_s
    assert outer_stats.self_s == pytest.approx(outer_stats.total_s - tracer.stats["inner"].total_s)


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(99)], 0.9) is None
    assert run.tail_percentile([float(i) for i in range(100)], 0.9) == 89.0
    assert run.tail_percentile([], 0.9) is None


def test_times_scale_by_the_probes_around_each_call():
    # probes at 1.0 s and 1.1 s took 0.4 ms: the host ran at half the reference speed
    probes = [(0.0, 1e-4), (1.0, 4e-4), (1.1, 4e-4), (5.0, 1e-4)]
    assert speed.local_probe_s(probes, 1.02, 1.04) == 4e-4
    assert speed.scale(0.003, speed.local_probe_s(probes, 1.02, 1.04)) == pytest.approx(0.003 / 2)
    # no probe in reach: fall back to every probe of the pass
    assert speed.local_probe_s(probes, 3.0, 3.01) == pytest.approx(2.5e-4)
    # a long call sampled while it ran uses only its own probes
    ticks = [(2.0 + 0.05 * k, 3e-4) for k in range(speed.INSIDE_MIN)]
    assert speed.local_probe_s(sorted(probes + ticks), 1.99, 2.6) == 3e-4


def test_candidate_count_matches_enumeration():
    from wph.search import _nondecreasing_tuples

    for length, max_sum in [(4, 20), (5, 30), (3, 7)]:
        assert spans.nondecreasing_count(length, max_sum) == sum(
            1 for _ in _nondecreasing_tuples(length, max_sum, 1)
        )
    assert spans.nondecreasing_count(5, 80) == 271_693


@pytest.mark.parametrize("name", ["families", "analyze"])
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.calls(3, False) == w.calls(3, False)
    assert w.calls(3, False) != w.calls(4, False)
    assert len(w.calls(3, False)) == len(w.calls(4, False))


def test_reid_tai_oracle_agrees_with_wph():
    from wph import parse_quotient, quotient_report

    for text in ["1/6(2,2,3)", "1/7(1,6,3)", "1/5(1,1,1)", "1/9(3,3,5)"]:
        report = quotient_report(parse_quotient(text))
        order, body = int(text[2:text.index("(")]), text[text.index("(") + 1:-1]
        want = workloads.reid_tai_bruteforce(order, [int(b) for b in body.split(",")])
        got = (str(report.sclass), f"min={report.minimum} at j={report.at_multiplier}",
               report.quasi_reflection)
        assert got == want


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"search\.records\s+23\n", proc.stdout)


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert proc.stderr.startswith("perfbench: ")

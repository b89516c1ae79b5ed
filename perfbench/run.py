"""End-to-end and per-layer benchmark of the `wph` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # every workload, reduced sizes
    python3 perfbench/run.py --update-digests   # rewrite digests.json

Each pass of a workload is a fresh process (perfbench/worker.py) that
imports `wph.cli` from this checkout's `src/` and calls `wph.cli.run(argv)`
for every call of the workload, one after another: a closed loop with one
client.  Passes repeat until the next one would overrun --seconds; metrics
are medians over passes.  Times are scaled to a host of fixed speed by the
probe of speed.py, timed next to every call; the raw times are printed too.
Outputs are checked after each pass, outside the timed region.  The last
line of stdout is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1); the lines before it give every metric
with its unit and sample count, the environment, and with --trace 1 the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_LAUNCHES = 5  # import-only launches per run, besides one per pass
RUN_LIMIT_S = 170  # every run must end within 180 s
DIGESTS = HERE / "digests.json"
E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "setup_s": "s",
}
# end-to-end metrics in the result line: every one reported on every workload
# and never zero (op_p90_ms needs 100 calls per pass, fail_ratio is 0 when
# the run is correct; both are printed above the result line)
RESULT_METRICS = ("wall_s", "cpu_s", "op_p50_ms", "peak_rss_mb", "setup_s")
TAIL_SAMPLES = 10


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than ten samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program() -> None:
    """Import this checkout's wph for the oracles; this also leaves its bytecode
    cached, so the timed processes do not pay a one-off compile."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wph.cli
    except ImportError as exc:
        raise SetupError(f"cannot import wph from {src}: {exc}") from exc
    if not Path(wph.cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"wph came from {wph.cli.__file__}, not {src}")


def launch(calls: list[list[str]], trace: bool, timeout: float) -> tuple[float, dict]:
    """Run one pass in a fresh process; returns (set-up seconds, worker document)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WPH_")}
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), "1" if trace else "0"]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(calls), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SetupError(f"pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SetupError(f"worker exited with {proc.returncode}: {err.strip()}")
    doc = json.loads(out)
    return doc["ready"] - launched, doc


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 digests: list[str] | None) -> dict:
    workload = workloads.WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    if workload.jobs > nproc:
        raise SetupError(f"{name} needs {workload.jobs} workers but nproc is {nproc}")
    started = time.monotonic()
    load_before = os.getloadavg()[0]
    calls = workload.calls(seed, smoke)
    if digests is not None and len(digests) != len(calls):
        raise SetupError(f"digests.json lists {len(digests)} calls for {name}, the workload has {len(calls)}")

    setups: list[tuple[float, float]] = []  # (seconds, probe seconds right after)
    for _ in range(1 if smoke else SETUP_LAUNCHES):
        setup, doc = launch([], False, RUN_LIMIT_S)
        setups.append((setup, doc["setup_probe_s"]))
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    outputs: list[str] = []
    modes = [False, True] if trace else [False]
    while True:
        mode = modes[sum(map(len, passes.values())) % len(modes)]
        pass_start = time.monotonic()
        setup, doc = launch(calls, mode, RUN_LIMIT_S - (pass_start - started))
        setups.append((setup, doc["setup_probe_s"]))
        # the first pass is checked in full; later passes must repeat its output
        for i, (argv, call) in enumerate(zip(calls, doc["calls"])):
            if call["error"]:
                problem = call["error"]
            elif outputs:
                same = call["status"] == 0 and call["out"] == outputs[i]
                problem = None if same else "status or stdout differs from the first pass"
            else:
                problem = workloads.check_call(workload, argv, call["status"], call["out"])
                if problem is None and digests is not None and digest(call["out"]) != digests[i]:
                    problem = "stdout differs from the committed digest"
            attempted += 1
            if problem:
                failed += 1
                errors.append(f"{' '.join(argv)}: {problem}")
        if not outputs:
            outputs = [call["out"] if call["status"] == 0 else None for call in doc["calls"]]
        passes[mode].append(doc)
        now = time.monotonic()
        if all(passes[m] for m in modes) and (smoke or now - started + (now - pass_start) > seconds):
            break

    # each call's latency and CPU time, scaled by the probe time around it, is
    # its median over the untraced passes; a pass is estimated by their sums,
    # which slow spells of a shared host shift far less than whole passes
    plain = passes[False]
    e2e = end_to_end(plain, [speed.scale(s, p) for s, p in setups], failed / attempted, speed.scale)
    raw = end_to_end(plain, [s for s, _ in setups], failed / attempted, lambda s, p: s)
    report = {
        "workload": name,
        "env": environment(seed) | {"loadavg_1m_before": load_before, "loadavg_1m_after": os.getloadavg()[0]},
        "passes": len(plain),
        "traced_passes": len(passes[True]),
        "calls_per_pass": len(calls),
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outputs": outputs,
        "e2e": e2e,
        "raw": raw,
        "probe_ms": 1000 * statistics.median(c["probe_s"] for p in plain for c in p["calls"]),
    }
    if trace:
        traced = passes[True]
        # median_low: counts stay whole, times stay values that were measured
        report["layers"] = {
            key: statistics.median_low(p["layers"][key] for p in traced) for key in traced[0]["layers"]
        }
        report["traced_wall_s"] = sum(
            statistics.median(speed.scale(p["calls"][i]["s"], p["calls"][i]["probe_s"]) for p in traced)
            for i in range(len(calls))
        )
    return report


def end_to_end(plain: list[dict], setups: list[float], fail_ratio: float, scale) -> dict:
    n = len(plain[0]["calls"])
    call_s = [statistics.median(scale(p["calls"][i]["s"], p["calls"][i]["probe_s"]) for p in plain)
              for i in range(n)]
    call_cpu = [statistics.median(scale(p["calls"][i]["cpu"], p["calls"][i]["probe_s"]) for p in plain)
                for i in range(n)]
    p90 = tail_percentile(call_s, 0.9)
    return {
        "wall_s": sum(call_s),
        "cpu_s": sum(call_cpu),
        "op_p50_ms": 1000 * statistics.median(call_s),
        "op_p90_ms": None if p90 is None else 1000 * p90,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024,
        "fail_ratio": fail_ratio,
        "setup_s": statistics.median(setups),
    }


def print_report(report: dict) -> None:
    e2e, n = report["e2e"], report["calls_per_pass"]
    print(f"workload {report['workload']}: {report['passes']} untraced and "
          f"{report['traced_passes']} traced passes of {n} calls; {report['setups']} set-ups")
    print("env " + json.dumps(report["env"]))
    print(f"times scaled to a probe of {speed.REF_S * 1000:g} ms (speed.py); "
          f"median probe here {report['probe_ms']:.4f} ms; raw values in brackets")
    each = f"of {n} calls, each the median of {report['passes']} passes"
    notes = {
        "wall_s": f"sum {each}",
        "cpu_s": f"sum {each}",
        "op_p50_ms": f"median {each}",
        "op_p90_ms": f"nearest-rank p90 {each}",
        "fail_ratio": f"{report['failed']} of {report['attempted']} calls failed",
        "setup_s": f"median of {report['setups']} launches to `import wph.cli` done",
    }
    for name, unit in E2E_UNITS.items():
        value, raw = e2e[name], report["raw"][name]
        if value is None:
            shown = f"n/a (needs {TAIL_SAMPLES * 10} calls per pass, so that {TAIL_SAMPLES} lie beyond p90)"
        elif raw != value:
            shown = f"{value:.6g} {unit} [{raw:.6g}]"
        else:
            shown = f"{value:.6g} {unit}"
        note = notes.get(name, f"median of {report['passes']} passes")
        print(f"  {name:<13} {shown:<32} {note if value is not None else ''}")
    if "layers" in report:
        overhead = report["traced_wall_s"] - e2e["wall_s"]
        print(f"tracing overhead: traced wall_s {report['traced_wall_s']:.4f} s - untraced "
              f"{e2e['wall_s']:.4f} s = {overhead:+.4f} s ({100 * overhead / e2e['wall_s']:+.1f}%)")
        if workloads.WORKLOADS[report["workload"]].jobs > 1:
            print("  (pool workers run untraced: only parent-side and pool-level spans are counted)")
        for key, value in report["layers"].items():
            print(f"  {key:<44} {value:.6g}")
    for line in report["errors"][:10]:
        print("FAIL " + line)


def result_line(report: dict, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in report["layers"].items()}
    else:
        metrics = {k: {"value": report["e2e"][k], "unit": E2E_UNITS[k]} for k in RESULT_METRICS}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("parallel_efficiency") else "count"


def load_digests(name: str) -> list[str]:
    try:
        return json.loads(DIGESTS.read_text())[name]["per_call"]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"no committed digests for {name} in {DIGESTS}: {exc!r}") from exc


def update_digests() -> bool:
    table = {}
    for name in workloads.WORKLOADS:
        report = run_workload(name, DEFAULT_SEED, 0, False, False, None)
        print_report(report)
        if report["failed"]:
            return False
        per_call = [digest(out) for out in report["outputs"]]
        table[name] = {"seed": DEFAULT_SEED, "per_call": per_call,
                       "sha256": hashlib.sha256("".join(report["outputs"]).encode()).hexdigest()}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one pass per mode")
    parser.add_argument("--update-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the default seed after the checks pass")
    args = parser.parse_args(argv)
    try:
        import_program()
        if args.update_digests:
            return 0 if update_digests() else 1
        if args.smoke:
            names = [args.workload] if args.workload else list(workloads.WORKLOADS)
            reports = [run_workload(n, args.seed, 0, True, True, None) for n in names]
            for report in reports:
                print_report(report)
            return 0 if all(r["failed"] == 0 for r in reports) else 1
        if not args.workload:
            parser.error("--workload is required")
        digests = load_digests(args.workload) if args.seed == DEFAULT_SEED else None
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, digests)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(result_line(report, bool(args.trace)))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

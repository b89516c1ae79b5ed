"""One fresh benchmark process: import the CLI, run a pass of calls, report.

Usage: python3 worker.py ROOT TRACE < calls.json > result.json

ROOT is the checkout whose `src/wph` is measured; TRACE is 0 or 1.  The
process prints its readiness time (CLOCK_MONOTONIC, comparable with the
parent's launch time) once `wph.cli` is imported, reads the list of argument
vectors from stdin, runs them one after another through `wph.cli.run`, and
writes one JSON document with per-call status, captured output, latency,
CPU time and the local probe time (speed.py), the probe time right after
set-up, the pass's peak RSS and, when traced, per-layer spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


def main() -> int:
    root, trace = sys.argv[1], sys.argv[2] == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import wph.cli
    except ImportError as exc:
        print(f"cannot import wph.cli from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(wph.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"wph.cli came from {wph.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import spans  # after `ready`: set-up time covers the program, not the harness
    import speed

    probes: list[tuple[float, float]] = []
    speed.probe_for(speed.EDGE_S, probes)
    setup_probe_s = statistics.median(d for _, d in probes)

    calls = json.load(sys.stdin)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    with speed.Sampler(probes) as sampler:
        for argv in calls:
            speed.timed_probe(probes)
            out, err = io.StringIO(), io.StringIO()
            error = None
            spent0, spent_cpu0 = sampler.spent_s, sampler.spent_cpu_s
            cpu0 = spans.cpu_s()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = wph.cli.run(argv)
            except Exception as exc:  # a crash is a failed call, not a failed pass
                status, error = None, repr(exc)
            t1 = time.perf_counter()
            probes_cpu = sampler.spent_cpu_s - spent_cpu0 + sampler.collect()
            cpu = spans.cpu_s() - cpu0 - probes_cpu
            results.append({"status": status, "out": out.getvalue(), "err": err.getvalue(), "error": error,
                            "s": t1 - t0 - (sampler.spent_s - spent0), "cpu": cpu, "span": (t0, t1)})
    speed.probe_for(speed.EDGE_S if calls else 0, probes)
    for call in results:
        call["probe_s"] = speed.local_probe_s(probes, *call.pop("span"))

    doc = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": results,
    }
    if tracer is not None:
        doc["layers"] = spans.per_layer(tracer)
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

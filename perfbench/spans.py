"""Per-layer spans for the traced benchmark run.

Wrappers replace public functions of `wph` at every module attribute that
holds them, so a caller that resolves `wph.search.well_formed` or
`WeightedHypersurface.quasi_smooth` at call time enters a span.  Spans are
aggregated in memory per name (count, calls returning True, total time,
self time, an exact work count taken from the arguments) and read out once
the pass ends.  A span's self time is its duration minus the union of its
direct children's intervals, so overlapping children are not subtracted
twice.

Forked pool workers inherit the wrappers but record nothing: the search
pool's children run untraced, and only parent-side spans are reported.
"""

from __future__ import annotations

import os
import resource
import sys
from time import perf_counter, process_time


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStats:
    __slots__ = ("calls", "true", "total_s", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.true = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Span stack and per-name aggregates for one single-threaded process.

    Each open span keeps a frame [covered, last_end, in_order, children]:
    while children arrive in order and disjoint, as they do on one thread,
    their union is the running sum `covered`; otherwise it is computed from
    the stored intervals when the span closes.
    """

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.stack: list[list] = []
        self.active = True
        self.search: list[dict] = []

    def record(self, name: str, start: float, end: float, frame: list, result, work) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.true += result is True
        st.total_s += end - start
        children = frame[0] if frame[2] else covered(frame[3], start, end)
        st.self_s += (end - start) - children
        st.work += work
        if self.stack:
            parent = self.stack[-1]
            parent[3].append((start, end))
            if start >= parent[1]:
                parent[0] += end - start
                parent[1] = end
            else:
                parent[2] = False

    def wrap(self, name: str, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            frame = [0.0, start, True, []]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                tracer.stack.pop()
                tracer.record(name, start, end, frame, None, 0)
                raise
            end = perf_counter()
            tracer.stack.pop()
            tracer.record(
                name, start, end, frame, result, work(*args, **kwargs) if work else 0
            )
            return result

        return traced

    def wrap_search(self, fn):
        """Span around `search_records` that also keeps the pool-level numbers."""
        inner = self.wrap("search", fn)
        tracer = self

        def traced(member_dim, max_weight_sum, *args, **kwargs):
            if not tracer.active:
                return fn(member_dim, max_weight_sum, *args, **kwargs)
            jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
            cpu0 = cpu_s()
            start = perf_counter()
            records = inner(member_dim, max_weight_sum, *args, **kwargs)
            wall = perf_counter() - start
            tracer.search.append(
                {
                    "candidates": nondecreasing_count(member_dim + 2, max_weight_sum),
                    "records": len(records),
                    "parallel_efficiency": (cpu_s() - cpu0) / (max(jobs, 1) * wall),
                }
            )
            return records

        return traced


def cpu_s() -> float:
    """CPU seconds of this process (exact) plus those of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def nondecreasing_count(length: int, max_sum: int, min_value: int = 1) -> int:
    """Number of nondecreasing tuples of `length` integers >= min_value with
    sum <= max_sum: the tuples the search enumerates."""
    # shift to parts >= 0: count partitions into at most `length` parts, total <= budget
    budget = max_sum - length * min_value
    if budget < 0:
        return 0
    ways = [1] + [0] * budget  # ways[s]: multisets of parts in 1..length summing to s
    for part in range(1, length + 1):
        for s in range(part, budget + 1):
            ways[s] += ways[s - part]
    return sum(ways)


def _entries(w) -> tuple[int, ...]:
    return w.entries if hasattr(w, "entries") else tuple(w)


def _table_cells(entries, top: int) -> int:
    """Inner-loop updates of the coin-change table built up to degree `top`."""
    return sum(top - a + 1 for a in entries if a <= top)


def _cells_variables_present(w, t):
    return _table_cells(_entries(w), t) if t > 0 else 0


def _cells_plurigenus(x, m):
    return _table_cells(x.weights.entries, m * x.amplitude)


def _cells_plurigenera_table(x, up_to):
    return _table_cells(x.weights.entries, up_to * x.amplitude) if up_to > 0 else 0


def _order(s):
    return s.order


# (span name, module, attribute or Class.method, work counter, work function),
# in report order; a plain attribute is wrapped in every wph module that
# holds the same function object
SPANS = (
    ("core.Weights", "wph.core", "Weights.__init__", None, None),
    ("core.well_formed", "wph.core", "well_formed", None, None),
    ("core.singular_strata", "wph.core", "singular_strata", None, None),
    ("hypersurface.quasi_smooth", "wph.hypersurface", "WeightedHypersurface.quasi_smooth", None, None),
    ("hypersurface.member_canonical", "wph.hypersurface", "WeightedHypersurface.member_canonical", None, None),
    ("hypersurface.singularity_report", "wph.hypersurface", "singularity_report", None, None),
    ("singularity.classify_quotient", "wph.singularity", "classify_quotient", "order_sum", _order),
    ("singularity.quotient_report", "wph.singularity", "quotient_report", "order_sum", _order),
    ("singularity.ambient_canonical", "wph.singularity", "ambient_canonical", None, None),
    ("hilbert.variables_present", "wph.hilbert", "variables_present", "cells", _cells_variables_present),
    ("hilbert.plurigenus", "wph.hilbert", "plurigenus", "cells", _cells_plurigenus),
    ("hilbert.plurigenera_table", "wph.hilbert", "plurigenera_table", "cells", _cells_plurigenera_table),
    ("families.prop", "wph.families", "consecutive_family", None, None),
    ("families.thm3", "wph.families", "vanishing_witness", None, None),
    ("families.thm4", "wph.families", "degree_bound_witness", None, None),
    ("families.ample", "wph.families", "ample_witness", None, None),
    ("families.volume", "wph.families", "volume_witness", None, None),
)

# spans whose `true` count is reported
TRUTH_SPANS = (
    "core.well_formed",
    "hypersurface.quasi_smooth",
    "hypersurface.member_canonical",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call once, before the first CLI call."""
    import wph.cli  # noqa: F401  (loads every module that holds a traced name)
    import wph.search

    wph_modules = [m for name, m in sys.modules.items() if name == "wph" or name.startswith("wph.")]
    for name, module, attr, _, work in SPANS:
        owner = sys.modules[module]
        if "." in attr:
            cls, method = attr.split(".")
            klass = getattr(owner, cls)
            setattr(klass, method, tracer.wrap(name, getattr(klass, method)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, work)
        for mod in wph_modules:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, traced)
    wph.search.search_records = tracer.wrap_search(wph.search.search_records)
    wph.cli.run = tracer.wrap("cli", wph.cli.run)

    def stop_in_child() -> None:
        tracer.active = False

    os.register_at_fork(after_in_child=stop_in_child)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics of one pass, zero for layers the pass never entered."""
    out: dict[str, float] = {}
    st = tracer.stats.get("cli", SpanStats())
    out["cli.calls"] = st.calls
    out["cli.self_s"] = st.self_s
    for key in ("candidates", "records"):
        out[f"search.{key}"] = sum(s[key] for s in tracer.search)
    out["search.parallel_efficiency"] = (
        sum(s["parallel_efficiency"] for s in tracer.search) / len(tracer.search)
        if tracer.search
        else 0.0
    )
    for name, _, _, counter, _ in SPANS:
        st = tracer.stats.get(name, SpanStats())
        out[f"{name}.calls"] = st.calls
        if name in TRUTH_SPANS:
            out[f"{name}.true"] = st.true
        out[f"{name}.self_s"] = st.self_s
        if counter:
            out[f"{name}.{counter}"] = st.work
    return out

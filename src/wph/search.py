"""Bounded brute-force search for low-volume canonical hypersurfaces.

Weight tuples are nondecreasing (killing permutation duplicates) with sum at
most the bound, the degree is pinned to weight-sum + amplitude, and each
candidate runs through the same well-formedness, quasi-smoothness and
induced-singularity checks the analysis pipeline uses; no shortcut math.
The canonicity filter applies to the singularities the general member
actually acquires (ambient singular points it misses are irrelevant: the
minimum-volume records sit in ambients that are not canonical everywhere).
Results are reported only up to the stated weight-sum bound; nothing here
claims global minimality.

One generator cut keeps most tuples from ever becoming objects, without
changing the records.  It is the singleton case of the quasi-smoothness
criterion (see `wph.hypersurface`): for the value set {a_i} clause (a) says
a_i | d and clause (b) needs some j with a_i | d - a_j, so every quasi-smooth
member has each a_i dividing d or some d - a_j.  No linear cone escapes this
while d exceeds every weight: for every amplitude > 1 - length, since the
other weights sum to at least length - 1, so for every amplitude >= 1.

* The largest weight v is chosen from the degree.  With s the sum of the
  other weights, d = s + v + amplitude, so v | d iff v | s + amplitude and
  v | d - a_j iff v | s + amplitude - a_j.  Only divisors of these numbers,
  which lie in [amplitude, amplitude + max_sum], are tried: the table, indexed
  by number - amplitude, keeps divisors <= max_sum in descending order, so its
  size does not grow with the amplitude and a scan stops at the first below u.
* Every other weight is tested on raw ints.  The head (all but the two
  largest weights u <= v) carries, for each of its values a > 1, the set
  {b mod a : b in head} | {0}, built once per head; u gets its own set once
  per (head, u), unless u | s + amplitude already lets it pass.  The tuple
  passes iff d mod a lies in a's set or equals u mod a or v mod a.  Heads,
  u and v ascend, so the tuples still come in lexicographic order.

Well-formedness is decided in the generator on raw ints, so only well-formed
tuples become `Weights`: per head, g = gcd(head) and P = the product of its
gcds with one weight left out; a u with gcd(g, u) > 1 is skipped, and v must
be coprime to g and to gcd(P, u).  `_evaluate` then asks `member_canonical`
before `quasi_smooth`: both are needed, and the first rejects nearly all
(dim 3, S = 80: 2,377 tuples, 23 member-canonical, 23 quasi-smooth).

A search runs one batch per leading weight.  With jobs = N > 1 the calling
process and up to N - 1 forked children take the batches in order from one
pipe (`_fork_map`), so `jobs` counts the caller; where `os.fork` is missing
the search is serial.  Either way a failing search raises the error of its
first failing batch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import config
from .core import Weights
from .hilbert import plurigenera_table
from .hypersurface import WeightedHypersurface


@dataclass(frozen=True)
class SearchRecord:
    """One surviving candidate; well-formed, quasi-smooth, member-canonical."""

    weights: tuple[int, ...]
    degree: int
    amplitude: int
    volume: Fraction
    plurigenera: tuple[int, ...]

    @property
    def sort_key(self) -> tuple[Fraction, tuple[int, ...]]:
        return (self.volume, self.weights)

    def vanishing_at_least(self, count: int) -> bool:
        if count > len(self.plurigenera):
            raise ValueError("record does not carry that many plurigenera")
        return all(p == 0 for p in self.plurigenera[:count])

    def __str__(self) -> str:
        genera = " ".join(
            f"P_{i + 1}={p}" for i, p in enumerate(self.plurigenera)
        )
        return f"({','.join(map(str, self.weights))}) d={self.degree} vol={self.volume} {genera}".rstrip()


def _nondecreasing_tuples(
    length: int, max_sum: int, min_value: int, spare: int = 0
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of `length` ints >= min_value, in lexicographic
    order, whose sum leaves room for `spare` more entries no smaller than the
    last: sum + spare * last <= max_sum (spare = 0: sum <= max_sum)."""
    if length == 0:
        yield ()
        return
    for v in range(min_value, max_sum // (length + spare) + 1):
        for rest in _nondecreasing_tuples(length - 1, max_sum - v, v, spare):
            yield (v,) + rest


def _divisor_table(max_sum: int, amplitude: int) -> list[list[int]]:
    """Entry k, for k in [0, max_sum]: the divisors <= max_sum of amplitude + k,
    descending.  Sized by the weight-sum bound, never by the degree."""
    table: list[list[int]] = [[] for _ in range(max_sum + 1)]
    for t in range(max_sum, 0, -1):
        for k in range(-amplitude % t, max_sum + 1, t):
            table[k].append(t)
    return table


def _degree_tuples(
    leading: int, length: int, max_sum: int, amplitude: int
) -> Iterator[tuple[int, ...]]:
    """Well-formed tuples starting with `leading` whose every weight passes the
    singleton test (module docstring), in lexicographic order: the heads come
    from `_nondecreasing_tuples`, u and v ascend."""
    table = _divisor_table(max_sum, amplitude)
    for middle in _nondecreasing_tuples(length - 3, max_sum - leading, leading, 2):
        head = (leading,) + middle
        t = sum(head)
        # a value a > 1 of the head -> {b mod a : b in head} | {0}
        head_sets = [(a, {b % a for b in head} | {0}) for a in set(head) if a > 1]
        gaps = (0, *set(head))
        g = math.gcd(*head)
        # the product of the gcds > 1 of the head with one weight left out
        dropped = math.prod({math.gcd(*head[:k], *head[k + 1:]) for k in range(len(head))})
        for u in range(head[-1], (max_sum - t) // 2 + 1):
            if math.gcd(g, u) > 1:
                continue  # leaving out v keeps this factor
            # a prime of v must divide neither g nor both u and a left-out gcd
            coprime_to = g * math.gcd(dropped, u)
            s = t + u
            e = s + amplitude  # d - v
            sets = head_sets
            if u > 1 and e % u and u != head[-1]:  # else u passes, or has its set
                sets = head_sets + [(u, {b % u for b in head} | {0})]
            hi = max_sum - s
            # divisors of d - v - b, so that v | d - b, for b = 0, u or a head weight
            divisors: set[int] = set()
            for b in (u, *gaps):
                for w in table[s - b]:
                    if w < u:
                        break
                    if w <= hi:
                        divisors.add(w)
            for v in sorted(divisors):
                for a, residues in sets:
                    r = (e + v) % a
                    if r not in residues and r != u % a and r != v % a:
                        break
                else:
                    if math.gcd(coprime_to, v) == 1:
                        yield head + (u, v)


def _evaluate(
    weights: tuple[int, ...], amplitude: int, plurigenera_up_to: int
) -> SearchRecord | None:
    x = WeightedHypersurface(Weights(weights), sum(weights) + amplitude)
    # both are required; member canonicity rejects far more, and far cheaper
    if not x.member_canonical() or not x.quasi_smooth():
        return None
    genera = plurigenera_table(x, plurigenera_up_to)
    return SearchRecord(weights, x.degree, amplitude, x.volume(), genera)


def _leading_records(
    leading: int, length: int, max_sum: int, amplitude: int, up_to: int
) -> Iterator[SearchRecord]:
    for weights in _degree_tuples(leading, length, max_sum, amplitude):
        record = _evaluate(weights, amplitude, up_to)
        if record is not None:
            yield record


def _batches(
    member_dim: int, max_weight_sum: int, amplitude: int, up_to: int, vanishing: int = 0
) -> list[tuple[int, int, int, int, int]]:
    """One batch per leading weight; serial and pooled searches run the same.
    A vanishing search drops a_0 if m * amplitude = lcm(a_0, amplitude) has m <= V
    and is below length * a_0 + amplitude <= d: a power of x_0 gives P_m >= 1."""
    if member_dim < 2:
        raise ValueError("member dimension must be >= 2")
    if amplitude < 1:
        raise ValueError("amplitude must be >= 1")
    config.require("WPH_SEARCH_SUM_CAP", max_weight_sum, f"weight-sum bound {max_weight_sum}")
    length = member_dim + 2
    return [
        (lead, length, max_weight_sum, amplitude, up_to)
        for lead in range(1, max_weight_sum // length + 1)
        if math.lcm(lead, amplitude) > min(vanishing * amplitude, length * lead + amplitude - 1)
    ]


def enumerate_candidates(
    member_dim: int,
    max_weight_sum: int,
    amplitude: int = 1,
    plurigenera_up_to: int = 0,
) -> Iterator[SearchRecord]:
    """Stream surviving candidates in deterministic (lexicographic) order."""
    for batch in _batches(member_dim, max_weight_sum, amplitude, plurigenera_up_to):
        yield from _leading_records(*batch)


def _fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] on `workers` processes: this one and
    workers - 1 forked children.  Item indices go as 4-byte tokens on one task
    pipe, in order; each process runs the item of every token it reads until
    EOF, and after a failure only reads.  The caller writes what fits before
    each of its own reads, so a full pipe never blocks it.  A child pickles its
    results, or its first exception, back on its own pipe and leaves through
    `os._exit`.  Raises the exception of the lowest-numbered failing item, or a
    RuntimeError naming the exit status of a child that died unreported; every
    child is killed if still running and reaped, whatever happens."""
    import pickle  # only pooled searches pay for it
    import signal

    def work(tasks: int, feed=None) -> tuple[dict, tuple | None]:
        done, failed = {}, None
        while True:
            if feed is not None and feed():
                feed = None
            token = os.read(tasks, 4)  # every write is one whole token
            if not token:
                return done, failed
            i = int.from_bytes(token, "big")
            if failed is None:
                try:
                    done[i] = fn(items[i])
                except Exception as exc:
                    failed = (i, exc)

    tasks, tasks_w = os.pipe()
    open_fds = [tasks, tasks_w]
    children: dict[int, int] = {}  # unreaped pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            open_fds += (r, w)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(tasks_w)
                    data = memoryview(pickle.dumps(work(tasks)))
                    while data:
                        data = data[os.write(w, data):]
                    status = 0
                finally:
                    os._exit(status)  # never unwind into the caller's stack
            children[pid] = r
            os.close(w)
            open_fds.remove(w)
        tokens = [i.to_bytes(4, "big") for i in reversed(range(len(items)))]
        os.set_blocking(tasks_w, False)

        def feed() -> bool:
            while tokens:
                try:
                    os.write(tasks_w, tokens[-1])  # below PIPE_BUF: whole or not at all
                except BlockingIOError:
                    return False
                tokens.pop()
            os.close(tasks_w)
            open_fds.remove(tasks_w)
            return True

        done, failed = work(tasks, feed)
        failures = [failed] if failed else []
        for pid, r in list(children.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                child_done, child_failed = pickle.loads(data)
            except Exception:
                raise RuntimeError(f"pool worker {pid} exited without reporting (status {status})") from None
            done.update(child_done)
            if child_failed:
                failures.append(child_failed)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return [done[i] for i in range(len(items))]
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in open_fds:
            os.close(fd)


def search_records(
    member_dim: int,
    max_weight_sum: int,
    amplitude: int = 1,
    plurigenera_up_to: int = 0,
    vanishing: int = 0,
    jobs: int = 1,
) -> list[SearchRecord]:
    """All surviving records sorted by (volume, weights); optionally those whose
    first `vanishing` plurigenera are zero.  The result is independent of the
    worker count: partitions by leading weight merge into one sorted list.
    `jobs` counts the calling process, which works too: at most
    min(jobs, usable CPUs, leading weights) processes run, so jobs - 1 children
    at most are forked, and none where `os.fork` is missing (the search is then
    serial).  A failing search raises the error of its first failing leading
    weight, as the serial search does.  jobs or vanishing below their least
    values is a ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if vanishing < 0:
        raise ValueError(f"vanishing must be >= 0, got {vanishing}")
    up_to = max(plurigenera_up_to, vanishing)
    batches = _batches(member_dim, max_weight_sum, amplitude, up_to, vanishing)
    workers = 1
    if jobs > 1 and hasattr(os, "fork"):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(jobs, cpus or 1, len(batches))
    if workers > 1:
        parts = _fork_map(lambda batch: list(_leading_records(*batch)), batches, workers)
        records = [r for part in parts for r in part]
    else:
        records = [r for batch in batches for r in _leading_records(*batch)]
    if vanishing:
        records = [r for r in records if r.vanishing_at_least(vanishing)]
    records.sort(key=lambda r: r.sort_key)
    return records

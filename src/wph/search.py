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
  v | d - a_j iff v | s + amplitude - a_j.  Entry k of the divisor table is
  the bitset of the divisors <= max_sum of amplitude + k, so a (head, u)
  ORs its entries at s - b, for b = 0, u and the head values.
* Every other weight is tested on bitsets over n = d - amplitude in
  [0, max_sum], so none grows with the amplitude.  For each value a > 1 of
  the head (all but the two largest weights u <= v), and for u, the union of
  the classes n + amplitude = b mod a, b in head or 0, is built once per head
  (per (head, u) for u); unless a | s + amplitude (so d = v mod a), the
  candidates v, at bit s + v, keep only that union and the class of u mod a,
  read lowest bit first: the tuples come in lexicographic order.  The divisor
  table and every class are built once per search, before any fork.

Well-formedness is decided in the generator on raw ints: per head, g =
gcd(head) and P = the product of its gcds with one weight left out; a u with
gcd(g, u) > 1 is skipped, and v must be coprime to g and to gcd(P, u), read
only where some v is left.  The member walk's head part is built once per
head (`singularity.member_walk`), and each tuple's (u, v) is run as its tail:
only member-canonical tuples become objects and reach `quasi_smooth` (dim 3,
S = 80: 2,377 tuples over 519 heads, 23 member-canonical, 23 quasi-smooth).

A search runs one batch per leading weight.  With jobs = N > 1 this process
and up to N - 1 forked children take them in order from one pipe, filled
before the first fork (`_fork_map`: one batch a token up to PIPE_BUF // 4),
so `jobs` counts the caller; where `os.fork` is missing the search is serial.
Either way a failing search raises the error of its first failing batch.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import config
from .core import Weights
from .hilbert import plurigenera_table
from .hypersurface import WeightedHypersurface
from .singularity import member_walk


class SearchRecord(NamedTuple):
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


_tables: dict = {}  # the last search's tables, by (max_sum, amplitude)


def _search_tables(max_sum: int, amplitude: int) -> tuple[list[int], dict[int, list[int]]]:
    """One search's divisor table and classes mod each a <= max_sum // 2 (module docstring)."""
    key = (max_sum, amplitude)
    if key not in _tables:
        divisors, classes = [0] * (max_sum + 1), {}
        for w in range(1, max_sum + 1):
            for k in range(-amplitude % w, max_sum + 1, w):
                divisors[k] |= 1 << w
        for a in range(2, max_sum // 2 + 1):
            every = sum(1 << n for n in range(0, max_sum + 1, a))
            classes[a] = [every << (r - amplitude) % a & (2 << max_sum) - 1 for r in range(a)]
        _tables.clear()
        _tables[key] = divisors, classes
    return _tables[key]


def _degree_tuples(
    leading: int, length: int, max_sum: int, amplitude: int
) -> Iterator[tuple[int, ...]]:
    """Well-formed tuples starting with `leading` whose every weight passes the
    singleton test (module docstring), in lexicographic order: the heads come
    from `_nondecreasing_tuples`, u and v ascend."""
    divisors, classes = _search_tables(max_sum, amplitude)

    def residues(a: int, values: tuple[int, ...]) -> int:  # the classes of 0 and values
        by = classes[a]
        mask = by[0]
        for b in values:
            mask |= by[b % a]
        return mask

    for middle in _nondecreasing_tuples(length - 3, max_sum - leading, leading, 2):
        head = (leading,) + middle
        t = sum(head)
        # a value a > 1 of the head -> {b mod a : b in head} | {0}, as a mask
        head_sets = [(a, residues(a, head), classes[a]) for a in set(head) if a > 1]
        gaps = (0, *set(head))
        g = math.gcd(*head)
        dropped = 0  # the product of the gcds > 1 of the head with one weight left out
        for u in range(head[-1], (max_sum - t) // 2 + 1):
            if math.gcd(g, u) > 1:
                continue  # leaving out v keeps this factor
            s = t + u
            e = s + amplitude  # d - v
            # v in [u, max_sum - s] with v | d - b (b = 0, u or a head value), at bit s + v
            found = divisors[t]
            for b in gaps:
                found |= divisors[s - b]
            found = (found & (1 << max_sum - s + 1) - (1 << u)) << s
            for a, kept, by_residue in head_sets:
                if e % a:  # else d = v mod a, and every v passes
                    found &= kept | by_residue[u % a]
            if found and u > 1 and e % u and u != head[-1]:  # else u passes, or has its set
                found &= residues(u, head)
            if found and not dropped:  # built for the heads with candidates only
                dropped = math.prod({math.gcd(*head[:k], *head[k + 1:]) for k in range(len(head))})
            # a prime of v must divide neither g nor both u and a left-out gcd (if any v is left)
            coprime_to = found and g * math.gcd(dropped, u)
            while found:
                low = found & -found
                found ^= low
                v = low.bit_length() - 1 - s
                if math.gcd(coprime_to, v) == 1:
                    yield head + (u, v)


def _evaluate(
    weights: tuple[int, ...], degree: int, amplitude: int, plurigenera_up_to: int
) -> SearchRecord | None:
    x = WeightedHypersurface(Weights(weights), degree)
    if not x.quasi_smooth():
        return None
    genera = plurigenera_table(x, plurigenera_up_to)
    return SearchRecord(weights, degree, amplitude, x.volume(), genera)


def _leading_records(
    leading: int, length: int, max_sum: int, amplitude: int, up_to: int
) -> Iterator[SearchRecord]:
    order_cap = config._cap("WPH_ORDER_CAP")  # once per batch; `require` words the error
    head = None
    for weights in _degree_tuples(leading, length, max_sum, amplitude):
        if weights[:-2] != head:  # the walk's head part, once per head
            head = weights[:-2]
            walk = member_walk({a: head.count(a) for a in head})
        degree = sum(weights) + amplitude
        # both are required; member canonicity rejects far more, and far cheaper
        if walk(degree, order_cap, *weights[-2:]):
            record = _evaluate(weights, degree, amplitude, up_to)
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


def _fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] on `workers` processes: this one and
    workers - 1 forked children.  Before the first fork one write puts every
    4-byte task token on a pipe, whole, since an empty pipe takes PIPE_BUF
    bytes at once, and closes it: token i stands for the run of
    ceil(len(items) / (PIPE_BUF // 4)) items from item i, a single item up to
    PIPE_BUF // 4 items.  Each process runs the items of every token it reads
    until EOF, and after a failure only reads.  A child pickles its results, or
    its first exception, back on its own pipe and leaves through `os._exit`.
    Raises the exception of the lowest-numbered failing item, or a RuntimeError
    naming the exit status of a child that died unreported; every child is
    killed if still running and reaped, whatever happens."""
    import pickle  # only pooled searches pay for it
    import signal

    def work() -> tuple[dict, tuple | None]:
        done, failed = {}, None
        while token := os.read(tasks, 4):  # the pipe holds whole tokens only
            first = int.from_bytes(token, "big")
            for i in range(first, min(first + run, len(items))):
                if failed is None:
                    try:
                        done[i] = fn(items[i])
                    except Exception as exc:
                        failed = (i, exc)
        return done, failed

    tasks, tasks_w = os.pipe()
    open_fds = [tasks, tasks_w]
    children: dict[int, int] = {}  # unreaped pid -> read end of its result pipe
    try:
        run = -(-len(items) // (os.fpathconf(tasks_w, "PC_PIPE_BUF") // 4)) or 1
        os.write(tasks_w, b"".join(i.to_bytes(4, "big") for i in range(0, len(items), run)))
        os.close(tasks_w)
        open_fds.remove(tasks_w)
        for _ in range(workers - 1):
            r, w = os.pipe()
            open_fds += (r, w)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    data = memoryview(pickle.dumps(work()))
                    while data:
                        data = data[os.write(w, data):]
                    status = 0
                finally:
                    os._exit(status)  # never unwind into the caller's stack
            children[pid] = r
            os.close(w)
            open_fds.remove(w)
        done, failed = work()
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
    _search_tables(max_weight_sum, amplitude)  # before any fork: the children inherit them
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

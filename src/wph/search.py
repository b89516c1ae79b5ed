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

The heads are counted once over the whole search, across its leading weights,
and with jobs = N process k of N runs heads k, k + N, k + 2N, ... (`_stripe`):
this process is k = 0 and the others are forked children (`_fork_map`), so
`jobs` counts the caller, and a leading weight holding most of the tuples is
shared too; where `os.fork` is missing the search is serial.  Each process
stops at its first failing head, and the search raises the failure of the
least head index: that of the serial search, as its tuples come in order.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple

from . import config
from .core import Weights, _tally
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


@lru_cache(maxsize=1)  # the last search's tables
def _search_tables(max_sum: int, amplitude: int) -> tuple[list[int], dict[int, list[int]]]:
    """One search's divisor table and classes mod each a <= max_sum // 2 (module docstring)."""
    divisors, classes = [0] * (max_sum + 1), {}
    for w in range(1, max_sum + 1):
        for k in range(-amplitude % w, max_sum + 1, w):
            divisors[k] |= 1 << w
    for a in range(2, max_sum // 2 + 1):
        every = sum(1 << n for n in range(0, max_sum + 1, a))
        classes[a] = [every << (r - amplitude) % a & (2 << max_sum) - 1 for r in range(a)]
    return divisors, classes


def _heads(leads: Iterable[int], length: int, max_sum: int) -> Iterator[tuple[int, ...]]:
    """The heads of a search, every tuple of `length` but its last two weights,
    in lexicographic order over the leading weights `leads`."""
    for lead in leads:
        for middle in _nondecreasing_tuples(length - 3, max_sum - lead, lead, 2):
            yield (lead,) + middle


def _degree_tuples(head: tuple[int, ...], max_sum: int, amplitude: int) -> Iterator[tuple[int, ...]]:
    """The well-formed tuples head + (u, v) whose every weight passes the
    singleton test (module docstring), in lexicographic order: u and v ascend."""
    divisors, classes = _search_tables(max_sum, amplitude)

    def residues(a: int) -> int:  # the classes of 0 and the head values, mod a
        by = classes[a]
        mask = by[0]
        for b in head:
            mask |= by[b % a]
        return mask

    t = sum(head)
    # a value a > 1 of the head -> {b mod a : b in head} | {0}, as a mask
    head_sets = [(a, residues(a), classes[a]) for a in set(head) if a > 1]
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
            found &= residues(u)
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


def _stripe(
    k: int, workers: int, leads: list[int], length: int, max_sum: int, amplitude: int,
    up_to: int, order_cap: int,
) -> list[SearchRecord] | tuple[int, Exception]:
    """Heads k, k + workers, k + 2 * workers, ... of the search, counted once
    over all its leading weights: their records, or (head index, exception) of
    the first failing head."""
    records = []
    try:
        for index, head in islice(enumerate(_heads(leads, length, max_sum)), k, None, workers):
            walk = None  # the walk's head part, built at the head's first tuple
            for weights in _degree_tuples(head, max_sum, amplitude):
                if walk is None:
                    walk = member_walk(_tally(zip(head, repeat(1)), {}))
                degree = sum(weights) + amplitude
                # both are required; member canonicity rejects far more, and far cheaper
                if walk(degree, order_cap, *weights[-2:]):
                    x = WeightedHypersurface(Weights(weights), degree)
                    if x.quasi_smooth():
                        genera = plurigenera_table(x, up_to)
                        records.append(SearchRecord(weights, degree, amplitude, x.volume(), genera))
    except Exception as exc:
        return index, exc
    return records


def _leading_weights(
    member_dim: int, max_weight_sum: int, amplitude: int, vanishing: int = 0
) -> list[int]:
    """The leading weights a search runs.  A vanishing search drops a_0 if
    m * amplitude = lcm(a_0, amplitude) has m <= V and is below
    length * a_0 + amplitude <= d: a power of x_0 gives P_m >= 1."""
    if member_dim < 2:
        raise ValueError("member dimension must be >= 2")
    if amplitude < 1:
        raise ValueError("amplitude must be >= 1")
    config.require("WPH_SEARCH_SUM_CAP", max_weight_sum, f"weight-sum bound {max_weight_sum}")
    length = member_dim + 2
    return [
        lead
        for lead in range(1, max_weight_sum // length + 1)
        if math.lcm(lead, amplitude) > min(vanishing * amplitude, length * lead + amplitude - 1)
    ]


def _fork_map(fn, workers: int) -> list:
    """[fn(k) for k in range(workers)], fn(k) run on process k: this one is 0,
    the others are forked children.  A child pickles its value back on its own
    pipe and leaves through `os._exit`.  Raises a RuntimeError naming the exit
    status of a child that died unreported; every child is killed if still
    running and reaped, whatever happens."""
    import pickle  # only pooled searches pay for it
    import signal

    children: dict[int, int] = {}  # unreaped pid -> read end of its result pipe
    open_fds = []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            open_fds += (r, w)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(fn(k)))
                    status = 0
                finally:
                    os._exit(status)  # never unwind into the caller's stack
            children[pid] = r
            os.close(w)
            open_fds.remove(w)
        values = [fn(0)]
        for pid, r in list(children.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                raise RuntimeError(f"pool worker {pid} exited without reporting (status {status})")
            values.append(pickle.loads(data))
        return values
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
    worker count: the stripes of heads merge into one sorted list.  `jobs`
    counts the calling process, which runs stripe 0: min(jobs, usable CPUs)
    processes run, so jobs - 1 children at most are forked, and none where
    `os.fork` is missing (the search is then serial).  A failing search raises
    the error of its first failing head, as the serial search does.  jobs or
    vanishing below their least values is a ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if vanishing < 0:
        raise ValueError(f"vanishing must be >= 0, got {vanishing}")
    up_to = max(plurigenera_up_to, vanishing)
    leads = _leading_weights(member_dim, max_weight_sum, amplitude, vanishing)
    order_cap = config._cap("WPH_ORDER_CAP")  # once per search; `require` words the error
    _search_tables(max_weight_sum, amplitude)  # before any fork: the children inherit them
    workers = 1
    if jobs > 1 and hasattr(os, "fork"):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(jobs, cpus or 1)
    search = (workers, leads, member_dim + 2, max_weight_sum, amplitude, up_to, order_cap)
    stripes = _fork_map(lambda k: _stripe(k, *search), workers) if workers > 1 else [_stripe(0, *search)]
    failures = [stripe for stripe in stripes if isinstance(stripe, tuple)]
    if failures:
        raise min(failures)[1]  # (head index, exception); the indices differ
    records = [r for stripe in stripes for r in stripe]
    if vanishing:
        records = [r for r in records if r.vanishing_at_least(vanishing)]
    records.sort(key=lambda r: r.sort_key)
    return records

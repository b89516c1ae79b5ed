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

Two cuts keep most tuples from ever becoming objects; neither changes the
records.  Both rest on the singleton case of the quasi-smoothness criterion
(see `wph.hypersurface`): for the value set {a_i} clause (a) says a_i | d and
clause (b) needs some j with a_i | d - a_j, so every quasi-smooth member has
each a_i dividing d or some d - a_j.  No linear cone escapes this, because
amplitude >= 1 makes d larger than every weight.

* Generator: the largest weight v is chosen from the degree.  With prefix
  sum s, d = s + v + amplitude, so v | d iff v | s + amplitude and
  v | d - a_j iff v | s + amplitude - a_j.  Only divisors of these (at most
  one more than the prefix length) numbers are tried, in ascending order, so
  the tuples still come in lexicographic order.  Each number lies in
  [amplitude, amplitude + max_sum]; the divisor table is indexed by
  number - amplitude and keeps divisors <= max_sum, so its size does not
  grow with the amplitude.
* Prefilter: the same condition for every weight is tested on raw ints
  before `Weights` or `WeightedHypersurface` is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import config
from .core import Weights, well_formed
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
    ascending.  Sized by the weight-sum bound, never by the degree."""
    table: list[list[int]] = [[] for _ in range(max_sum + 1)]
    for t in range(1, max_sum + 1):
        for k in range(-amplitude % t, max_sum + 1, t):
            table[k].append(t)
    return table


def _degree_tuples(
    leading: int, length: int, max_sum: int, amplitude: int
) -> Iterator[tuple[int, ...]]:
    """The tuples starting with `leading` whose largest weight v can pass the
    singleton case of the quasi-smoothness criterion, in lexicographic order:
    v divides s + amplitude or some s + amplitude - a_j, s the prefix sum."""
    table = _divisor_table(max_sum, amplitude)
    for middle in _nondecreasing_tuples(length - 2, max_sum - leading, leading, 1):
        prefix = (leading,) + middle
        s = sum(prefix)
        lo, hi = prefix[-1], max_sum - s
        keys = {s}.union(s - a for a in prefix)
        for v in sorted({t for k in keys for t in table[k] if lo <= t <= hi}):
            yield prefix + (v,)


def _singleton_condition(weights: tuple[int, ...], degree: int) -> bool:
    """Every a_i divides d or divides d - a_j for some j: the one-value case of
    the quasi-smoothness criterion, hence necessary for `quasi_smooth` when d
    exceeds every weight (no linear cone)."""
    for a in set(weights):
        r = degree % a
        if r:
            for b in weights:
                if b % a == r:  # a | d - b
                    break
            else:
                return False
    return True


def _evaluate(
    weights: tuple[int, ...], amplitude: int, plurigenera_up_to: int
) -> SearchRecord | None:
    degree = sum(weights) + amplitude
    if not _singleton_condition(weights, degree):
        return None  # raw-int prefilter: no object is built for most tuples
    w = Weights(weights)
    if not well_formed(w):
        return None
    x = WeightedHypersurface(w, degree)
    if not x.quasi_smooth():
        return None  # induced types below are only germs of quasi-smooth members
    if not x.member_canonical():
        return None
    genera = plurigenera_table(x, plurigenera_up_to)
    return SearchRecord(weights, degree, amplitude, x.volume(), genera)


def _leading_records(
    leading: int, length: int, max_sum: int, amplitude: int, up_to: int
) -> Iterator[SearchRecord]:
    for weights in _degree_tuples(leading, length, max_sum, amplitude):
        record = _evaluate(weights, amplitude, up_to)
        if record is not None:
            yield record


def _batches(
    member_dim: int, max_weight_sum: int, amplitude: int, up_to: int
) -> list[tuple[int, int, int, int, int]]:
    """One batch per leading weight; serial and pooled searches run the same."""
    if member_dim < 2:
        raise ValueError("member dimension must be >= 2")
    if amplitude < 1:
        raise ValueError("amplitude must be >= 1")
    config.require("WPH_SEARCH_SUM_CAP", max_weight_sum, f"weight-sum bound {max_weight_sum}")
    length = member_dim + 2
    return [
        (lead, length, max_weight_sum, amplitude, up_to)
        for lead in range(1, max_weight_sum // length + 1)
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


def _leading_batch(args: tuple[int, int, int, int, int]) -> list[SearchRecord]:
    return list(_leading_records(*args))


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
    At most min(jobs, usable CPUs, leading weights) worker processes run;
    jobs below 1 is a ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    up_to = max(plurigenera_up_to, vanishing)
    if jobs == 1:
        records = list(enumerate_candidates(member_dim, max_weight_sum, amplitude, up_to))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only pooled searches pay for it

        batches = _batches(member_dim, max_weight_sum, amplitude, up_to)
        # the pool may start every worker up front, so ask for no more than
        # the CPUs this process may run on and the batches there are
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = max(1, min(jobs, cpus or 1, len(batches)))
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_leading_batch, batches):
                records.extend(batch)
    if vanishing:
        records = [r for r in records if r.vanishing_at_least(vanishing)]
    records.sort(key=lambda r: r.sort_key)
    return records

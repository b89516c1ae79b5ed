"""Bounded brute-force search for low-volume canonical hypersurfaces.

Weight tuples are enumerated in nondecreasing order (killing permutation
duplicates), the degree is pinned to weight-sum + amplitude, and each
candidate runs through the same well-formedness, quasi-smoothness and
induced-singularity checks the analysis pipeline uses; no shortcut math.
The canonicity filter applies to the singularities the general member
actually acquires (ambient singular points it misses are irrelevant: the
minimum-volume records sit in ambients that are not canonical everywhere).
Results are reported only up to the stated weight-sum bound; nothing here
claims global minimality.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import config
from .core import Weights, well_formed
from .errors import BudgetError, EmptySearchError
from .hilbert import plurigenera_table
from .hypersurface import WeightedHypersurface


@dataclass(frozen=True)
class SearchRecord:
    """One surviving candidate; all three flags are true by construction."""

    weights: tuple[int, ...]
    degree: int
    amplitude: int
    volume: Fraction
    plurigenera: tuple[int, ...]
    well_formed: bool = True
    member_canonical: bool = True
    quasi_smooth: bool = True

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
    length: int, max_sum: int, min_value: int
) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for v in range(min_value, max_sum // length + 1):
        for rest in _nondecreasing_tuples(length - 1, max_sum - v, v):
            yield (v,) + rest


def _evaluate(
    weights: tuple[int, ...], amplitude: int, plurigenera_up_to: int
) -> SearchRecord | None:
    w = Weights(weights)
    if not well_formed(w):
        return None
    degree = w.total() + amplitude
    x = WeightedHypersurface(w, degree)
    if not x.quasi_smooth():
        return None  # induced types below are only germs of quasi-smooth members
    if not x.member_canonical():
        return None
    genera = plurigenera_table(x, plurigenera_up_to)
    return SearchRecord(weights, degree, amplitude, x.volume(), genera)


def _check_budget(member_dim: int, max_weight_sum: int, amplitude: int) -> None:
    if member_dim < 2:
        raise ValueError("member dimension must be >= 2")
    if amplitude < 1:
        raise ValueError("amplitude must be >= 1")
    cap = config.search_sum_cap()
    if max_weight_sum > cap:
        raise BudgetError(f"weight-sum bound {max_weight_sum} exceeds cap {cap}")


def enumerate_candidates(
    member_dim: int,
    max_weight_sum: int,
    amplitude: int = 1,
    plurigenera_up_to: int = 0,
) -> Iterator[SearchRecord]:
    """Stream surviving candidates in deterministic enumeration order."""
    _check_budget(member_dim, max_weight_sum, amplitude)
    length = member_dim + 2
    for weights in _nondecreasing_tuples(length, max_weight_sum, 1):
        record = _evaluate(weights, amplitude, plurigenera_up_to)
        if record is not None:
            yield record


def _leading_batch(args: tuple[int, int, int, int, int]) -> list[SearchRecord]:
    leading, length, max_sum, amplitude, up_to = args
    out = []
    for rest in _nondecreasing_tuples(length - 1, max_sum - leading, leading):
        record = _evaluate((leading,) + rest, amplitude, up_to)
        if record is not None:
            out.append(record)
    return out


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
    At most min(jobs, usable CPUs, leading weights) worker processes run."""
    up_to = max(plurigenera_up_to, vanishing)
    if jobs <= 1:
        records = list(enumerate_candidates(member_dim, max_weight_sum, amplitude, up_to))
    else:
        _check_budget(member_dim, max_weight_sum, amplitude)
        length = member_dim + 2
        batches = [
            (lead, length, max_weight_sum, amplitude, up_to)
            for lead in range(1, max_weight_sum // length + 1)
        ]
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


def find_min_volume(
    member_dim: int,
    max_weight_sum: int,
    amplitude: int = 1,
    vanishing: int = 0,
    plurigenera_up_to: int = 0,
    jobs: int = 1,
) -> SearchRecord:
    """Minimum-volume record within the searched bound (ties broken by weights)."""
    records = search_records(
        member_dim, max_weight_sum, amplitude, plurigenera_up_to, vanishing, jobs
    )
    if not records:
        raise EmptySearchError(
            f"no records for dimension {member_dim} with weight sum <= {max_weight_sum}"
            + (f" and {vanishing} vanishing plurigenera" if vanishing else "")
        )
    return records[0]

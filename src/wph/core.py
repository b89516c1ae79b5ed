"""Weight tuples and the singular-strata combinatorics of a weighted projective space.

A weighted projective space is described by its tuple of positive integer
weights (a_0, ..., a_n), one per homogeneous coordinate.  A stratum (the locus
where exactly the coordinates indexed by S are nonzero) is singular precisely
when the weights indexed by S share a common factor h > 1, and transverse to
the stratum the space looks like a cyclic quotient of order h.

Weights and quotient weights are stored as runs: (value, count) pairs in
coordinate order.  The assigned-volume members P(1^m, a, s, b) have m
growing like r*a*b, so the kernels here read the runs: their cost grows
with the number of runs (and, for strata and point lists, with the
coordinates of weight > 1), never with the number of unit weights.  The
expanded tuple is built only on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat, starmap
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import config
from .errors import BudgetError, NotSingularError


Runs = tuple[tuple[int, int], ...]


def _runs_of(entries: Iterable[int]) -> Runs:
    """Maximal runs (value, count) of equal consecutive entries.  Entries of
    different types never share a run, so validation sees every type."""
    out = []
    last, count = None, 0
    for a in entries:
        if count and a == last and type(a) is type(last):
            count += 1
        else:
            if count:
                out.append((last, count))
            last, count = a, 1
    if count:
        out.append((last, count))
    return tuple(out)


def _checked(runs: Iterable[tuple[int, int]]) -> Runs:
    """Canonical form of given runs: counts must be positive integers, and
    adjacent runs of one value (and type) are joined."""
    out: list[tuple[int, int]] = []
    last = None
    for a, count in runs:
        if type(count) is not int or count < 1:
            raise ValueError(f"run counts must be positive integers, got {count!r}")
        if out and a == last and type(a) is type(last):
            out[-1] = (a, out[-1][1] + count)
        else:
            out.append((a, count))
            last = a
    return tuple(out)


def _expand(runs: Runs) -> tuple[int, ...]:
    return tuple(chain.from_iterable(starmap(repeat, runs)))


def _format_runs(runs: Runs) -> str:
    """Comma-separated rendering; runs of 4+ print as "value^count"."""
    parts: list[str] = []
    for a, count in runs:
        if count >= 4:
            parts.append(f"{a}^{count}")
        else:
            parts.extend([str(a)] * count)
    return ",".join(parts)


def format_entries(entries: Sequence[int]) -> str:
    """Comma-separated rendering, compressing runs of 4+ as "value^count"."""
    return _format_runs(_runs_of(entries))


def parse_runs(text: str) -> Runs:
    """Runs of a list such as "1^4,5,2,3" or "4,5,6,7,23", never expanded.

    A count below 1 is a ValueError; a list of more entries than
    `config.table_cap()` is a BudgetError."""
    pairs = []
    for part in text.split(","):
        base, caret, count = part.strip().partition("^")
        pairs.append((int(base), int(count) if caret else 1))
    runs = _checked(pairs)
    length = sum(count for _, count in runs)
    cap = config.table_cap()
    if length > cap:
        raise BudgetError(
            f"{length} listed weights exceed the cap {cap} "
            f"(set WPH_TABLE_CAP to at least {length} to allow it)"
        )
    return runs


def parse_entries(text: str) -> tuple[int, ...]:
    """Inverse of format_entries; plain lists like "4,5,6,7,23" also parse."""
    return _expand(parse_runs(text))


@dataclass(frozen=True, init=False)
class Weights:
    """Ordered weights (a_0, ..., a_n), stored as runs of equal values.

    `runs` holds (value, count) pairs in coordinate order, adjacent values
    distinct, so equal tuples have equal runs and the storage grows with the
    number of runs, not with n.  Build from entries, `Weights((1, 1, 5, 2))`,
    or from runs, `Weights(runs=((1, 2), (5, 1), (2, 1)))`.  Coordinate
    indices refer to positions in the expanded tuple, which `entries` builds
    on demand.  Construction rejects degenerate input (fewer than two
    entries, entries below one); it does not rescale non-well-formed tuples.
    """

    runs: Runs

    def __init__(
        self,
        entries: Iterable[int] = (),
        *,
        runs: Iterable[tuple[int, int]] | None = None,
    ) -> None:
        runs = _runs_of(entries) if runs is None else _checked(runs)
        length = 0
        for _, count in runs:
            length += count
        if length < 2:
            raise ValueError("need at least two weights")
        for a, _ in runs:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"weights must be positive integers, got {a!r}")
        self.__dict__.update(runs=runs, _length=length)  # frozen: no setattr

    @cached_property
    def _starts(self) -> list[int]:
        """First coordinate index of each run."""
        starts, start = [], 0
        for _, count in self.runs:
            starts.append(start)
            start += count
        return starts

    @classmethod
    def coerce(cls, w: "Weights | Iterable[int]") -> "Weights":
        if isinstance(w, Weights):
            return w
        return cls(w)

    @classmethod
    def parse(cls, text: str) -> "Weights":
        """Parse a comma-separated decimal list such as "4,5,6,7,23".

        Runs may be abbreviated as "value^count", e.g. "1^4,5,2,3"; they are
        kept as runs, never expanded.
        """
        try:
            return cls(runs=parse_runs(text))
        except ValueError as exc:
            raise ValueError(f"cannot parse weights from {text!r}: {exc}") from exc

    @property
    def entries(self) -> tuple[int, ...]:
        """The expanded tuple, one entry per coordinate (built on each access)."""
        return _expand(self.runs)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(starmap(repeat, self.runs))

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            return self.entries[i]
        index = i + self._length if i < 0 else i
        if not 0 <= index < self._length:
            raise IndexError(i)
        return self.runs[bisect_right(self._starts, index) - 1][0]

    def __str__(self) -> str:
        return _format_runs(self.runs)

    def spans(self) -> Iterator[tuple[int, int, int]]:
        """(first index, value, count) of each run, in coordinate order."""
        return ((start, a, count) for start, (a, count) in zip(self._starts, self.runs))

    def multiplicities(self) -> dict[int, int]:
        """Distinct value -> number of coordinates carrying it."""
        counts: dict[int, int] = {}
        for a, count in self.runs:
            counts[a] = counts.get(a, 0) + count
        return counts

    def total(self) -> int:
        return sum(starmap(mul, self.runs))

    def product(self) -> int:
        return math.prod(starmap(pow, self.runs))

    def runs_without(self, *indices: int) -> list[tuple[int, int]]:
        """(value, count) pairs, in coordinate order, with the coordinates at
        `indices` (distinct, in range) removed.  Two pairs of one value may
        end up adjacent; the constructors join them."""
        out = []
        for start, (a, count) in zip(self._starts, self.runs):
            left = count
            for i in indices:
                if start <= i < start + count:
                    left -= 1
            if left:
                out.append((a, left))
        return out

    def without(self, index: int) -> tuple[int, ...]:
        """Entries with the one at `index` omitted."""
        if not 0 <= index < self._length:
            raise IndexError(index)
        return _expand(self.runs_without(index))


@dataclass(frozen=True, init=False)
class CyclicQuotientSingularity:
    """Cyclic quotient of type 1/r(b_1, ..., b_m).

    The cyclic group of order r acts diagonally on affine m-space with the
    given weights; only the residues b_i mod r matter for classification,
    but entries are stored as given, as runs in the manner of `Weights`:
    `CyclicQuotientSingularity(r, weights)` or `(r, runs=...)`.
    """

    order: int
    runs: Runs

    def __init__(
        self,
        order: int,
        weights: Iterable[int] = (),
        *,
        runs: Iterable[tuple[int, int]] | None = None,
    ) -> None:
        runs = _runs_of(weights) if runs is None else _checked(runs)
        if order < 1:
            raise ValueError("order must be >= 1")
        if not runs:
            raise ValueError("need at least one weight")
        for b, _ in runs:
            if not isinstance(b, int) or isinstance(b, bool) or b < 0:
                raise ValueError(f"quotient weights must be nonnegative integers, got {b!r}")
        self.__dict__.update(order=order, runs=runs)

    @property
    def weights(self) -> tuple[int, ...]:
        """The expanded weight tuple (built on each access)."""
        return _expand(self.runs)

    def reduced(self) -> "CyclicQuotientSingularity":
        """Same singularity with every weight replaced by its residue mod r."""
        r = self.order
        return CyclicQuotientSingularity(r, runs=((b % r, count) for b, count in self.runs))

    def __str__(self) -> str:
        return f"1/{self.order}({_format_runs(self.runs)})"


@dataclass(frozen=True)
class StratumRecord:
    """A set of coordinate indices whose weights share a common factor > 1."""

    indices: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))
        if not self.indices:
            raise ValueError("stratum needs at least one index")
        if self.order <= 1:
            raise ValueError("stratum common factor must exceed 1")


def well_formed(w: Weights | Iterable[int]) -> bool:
    """True when no n of the n+1 weights share a common factor.

    Equivalently: for every index i, the gcd of the weights with a_i omitted
    is 1.  Omitting one coordinate of a run of two or more leaves its value
    in the gcd, so prefix/suffix gcds over the runs decide it in O(runs),
    whatever the multiplicities.
    """
    runs = Weights.coerce(w).runs
    prefix = [0]
    for a, _ in runs:
        prefix.append(math.gcd(prefix[-1], a))
    suffix = 0
    for i in range(len(runs) - 1, -1, -1):
        a, count = runs[i]
        kept = a if count > 1 else 0  # gcd(x, 0) = x
        if math.gcd(prefix[i], suffix, kept) != 1:
            return False
        suffix = math.gcd(suffix, a)
    return True


def singular_strata(w: Weights | Iterable[int]) -> list[StratumRecord]:
    """All nonempty index sets whose weights share a common factor > 1.

    Every qualifying subset is listed (no maximal-only reduction), ordered by
    size and then lexicographically.  Subsets containing a weight-1 index can
    never qualify, so only indices with weight > 1 enter the enumeration; the
    cap therefore applies to the count of such indices, read from the runs
    before any index is listed.
    """
    weights = Weights.coerce(w)
    heavy_count = sum(count for a, count in weights.runs if a > 1)
    cap = config.subset_cap()
    if heavy_count > cap:
        raise BudgetError(
            f"{heavy_count} weights exceed 1; subset enumeration capped at {cap}"
        )
    heavy = [
        (i, a)
        for start, a, count in weights.spans()
        if a > 1
        for i in range(start, start + count)
    ]
    found: list[StratumRecord] = []
    for size in range(1, len(heavy) + 1):
        for subset in combinations(heavy, size):
            h = math.gcd(*(a for _, a in subset))
            if h > 1:
                found.append(StratumRecord(tuple(i for i, _ in subset), h))
    return found


def stratum_quotient_type(
    w: Weights | Iterable[int], indices: Iterable[int], k: int
) -> CyclicQuotientSingularity:
    """Transverse quotient type 1/h(a_0, ..., a_k omitted, ..., a_n) of a stratum.

    `indices` is the stratum's index set, `k` a member of it; h is the gcd of
    the weights over the stratum.  Entries are returned unreduced; reduction
    mod h happens during classification.
    """
    weights = Weights.coerce(w)
    subset = frozenset(indices)
    if not subset:
        raise ValueError("stratum index set is empty")
    if k not in subset:
        raise ValueError(f"index {k} is not in the stratum {sorted(subset)}")
    h = math.gcd(*(weights[i] for i in subset))
    if h == 1:
        raise NotSingularError(f"weights over {sorted(subset)} are coprime")
    return CyclicQuotientSingularity(h, runs=weights.runs_without(k))


def coordinate_point_types(
    w: Weights | Iterable[int],
) -> list[tuple[int, CyclicQuotientSingularity]]:
    """Quotient type at each coordinate point with weight > 1.

    The point where only coordinate k is nonzero looks like
    1/a_k(the other weights); weight-1 coordinates give smooth points and are
    skipped.  Every coordinate of one run has the same type, built once.
    """
    weights = Weights.coerce(w)
    out: list[tuple[int, CyclicQuotientSingularity]] = []
    for start, a, count in weights.spans():
        if a > 1:
            q = CyclicQuotientSingularity(a, runs=weights.runs_without(start))
            out.extend((k, q) for k in range(start, start + count))
    return out

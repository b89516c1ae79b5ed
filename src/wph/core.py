"""Weight tuples and the singular-strata combinatorics of a weighted projective space.

A weighted projective space is described by its tuple of positive integer
weights (a_0, ..., a_n), one per homogeneous coordinate.  A stratum (the locus
where exactly the coordinates indexed by S are nonzero) is singular precisely
when the weights indexed by S share a common factor h > 1, and transverse to
the stratum the space looks like a cyclic quotient of order h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import config
from .errors import BudgetError, NotSingularError


def format_entries(entries: Sequence[int]) -> str:
    """Comma-separated rendering, compressing runs of 4+ as "value^count"."""
    parts: list[str] = []
    i = 0
    while i < len(entries):
        j = i
        while j < len(entries) and entries[j] == entries[i]:
            j += 1
        run = j - i
        if run >= 4:
            parts.append(f"{entries[i]}^{run}")
        else:
            parts.extend(str(entries[i]) for _ in range(run))
        i = j
    return ",".join(parts)


def parse_entries(text: str) -> tuple[int, ...]:
    """Inverse of format_entries; plain lists like "4,5,6,7,23" also parse."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "^" in part:
            base, _, count = part.partition("^")
            out.extend([int(base)] * int(count))
        else:
            out.append(int(part))
    return tuple(out)


@dataclass(frozen=True)
class Weights:
    """Ordered tuple of positive integer weights (a_0, ..., a_n).

    Order is meaningful: coordinate indices refer to positions in this tuple.
    Construction rejects degenerate input (fewer than two entries, entries
    below one); it does not rescale non-well-formed tuples.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("need at least two weights")
        for a in entries:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"weights must be positive integers, got {a!r}")

    @classmethod
    def coerce(cls, w: "Weights | Iterable[int]") -> "Weights":
        if isinstance(w, Weights):
            return w
        return cls(tuple(w))

    @classmethod
    def parse(cls, text: str) -> "Weights":
        """Parse a comma-separated decimal list such as "4,5,6,7,23".

        Runs may be abbreviated as "value^count", e.g. "1^4,5,2,3".
        """
        try:
            return cls(parse_entries(text))
        except ValueError as exc:
            raise ValueError(f"cannot parse weights from {text!r}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __str__(self) -> str:
        return format_entries(self.entries)

    def total(self) -> int:
        return sum(self.entries)

    def product(self) -> int:
        return math.prod(self.entries)

    def without(self, index: int) -> tuple[int, ...]:
        """Entries with the one at `index` omitted."""
        if not 0 <= index < len(self.entries):
            raise IndexError(index)
        return self.entries[:index] + self.entries[index + 1 :]


@dataclass(frozen=True)
class CyclicQuotientSingularity:
    """Cyclic quotient of type 1/r(b_1, ..., b_m).

    The cyclic group of order r acts diagonally on affine m-space with the
    given weights; only the residues b_i mod r matter for classification,
    but entries are stored as given.
    """

    order: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(weights) < 1:
            raise ValueError("need at least one weight")
        for b in weights:
            if not isinstance(b, int) or isinstance(b, bool) or b < 0:
                raise ValueError(f"quotient weights must be nonnegative integers, got {b!r}")

    def reduced(self) -> "CyclicQuotientSingularity":
        """Same singularity with every weight replaced by its residue mod r."""
        return CyclicQuotientSingularity(self.order, tuple(b % self.order for b in self.weights))

    def __str__(self) -> str:
        return f"1/{self.order}({format_entries(self.weights)})"


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
    is 1.  Uses prefix/suffix gcds, so large tuples stay O(n).
    """
    entries = Weights.coerce(w).entries
    n = len(entries)
    prefix = [0] * (n + 1)
    for i, a in enumerate(entries):
        prefix[i + 1] = math.gcd(prefix[i], a)
    suffix = 0
    for i in range(n - 1, -1, -1):
        if math.gcd(prefix[i], suffix) != 1:
            return False
        suffix = math.gcd(suffix, entries[i])
    return True


def singular_strata(w: Weights | Iterable[int]) -> list[StratumRecord]:
    """All nonempty index sets whose weights share a common factor > 1.

    Every qualifying subset is listed (no maximal-only reduction), ordered by
    size and then lexicographically.  Subsets containing a weight-1 index can
    never qualify, so only indices with weight > 1 enter the enumeration; the
    cap therefore applies to the count of such indices.
    """
    weights = Weights.coerce(w)
    heavy = [i for i, a in enumerate(weights) if a > 1]
    cap = config.subset_cap()
    if len(heavy) > cap:
        raise BudgetError(
            f"{len(heavy)} weights exceed 1; subset enumeration capped at {cap}"
        )
    found: list[StratumRecord] = []
    for size in range(1, len(heavy) + 1):
        for subset in combinations(heavy, size):
            h = math.gcd(*(weights[i] for i in subset))
            if h > 1:
                found.append(StratumRecord(subset, h))
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
    return CyclicQuotientSingularity(h, weights.without(k))


def coordinate_point_types(
    w: Weights | Iterable[int],
) -> list[tuple[int, CyclicQuotientSingularity]]:
    """Quotient type at each coordinate point with weight > 1.

    The point where only coordinate k is nonzero looks like
    1/a_k(the other weights); weight-1 coordinates give smooth points and are
    skipped.
    """
    weights = Weights.coerce(w)
    return [
        (k, CyclicQuotientSingularity(a, weights.without(k)))
        for k, a in enumerate(weights)
        if a > 1
    ]

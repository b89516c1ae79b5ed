"""Weight tuples and the singular-strata combinatorics of a weighted projective space.

A weighted projective space is described by its tuple of positive integer
weights (a_0, ..., a_n), one per homogeneous coordinate.  A stratum (the locus
where exactly the coordinates indexed by S are nonzero) is singular precisely
when the weights indexed by S share a common factor h > 1, and transverse to
the stratum the space looks like a cyclic quotient of order h.  Up to
coordinates that add nothing to a Reid-Tai sum, that quotient depends on h
alone, so this module is the one place that gives each order its germ
(`strata_orders`, `order_residues`); `singular_strata` lists the strata by
index set for display and for the oracles, each built from its prefix, so
that its work follows the strata it lists.

Weights and quotient weights are stored as runs: (value, count) pairs in
coordinate order.  The assigned-volume members P(1^m, a, s, b) have m
growing like r*a*b, so the kernels here read the runs: their cost grows
with the number of runs (and, for strata, with the strata listed), never
with the number of unit weights.  The expanded tuple is
built only on demand.  `_checked` is the one check of any weight multiset,
and `_tally` its one counter by key (multiplicities and residues).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import chain, repeat, starmap
from operator import mul
from typing import Iterable, Iterator

from . import config


Runs = tuple[tuple[int, int], ...]


# the messages of `_checked`, by its least value and by its least number of entries
_LEAST = {0: "quotient weights must be nonnegative", 1: "weights must be positive"}
_NEED = {1: "one weight", 2: "two weights"}


def _checked(runs: Iterable[tuple[int, int]], least: int | None = None, need: int = 0) -> tuple[Runs, int]:
    """Canonical form of given runs and their number of entries: counts must be positive
    integers, and adjacent runs of one value (and type) are joined.  Entries become runs as
    `_checked(zip(entries, repeat(1)), ...)`.  Given `least`, it is the one check of a weight
    multiset: at least `need` entries, then every value an int (never a bool) >= least;
    entries of different types never share a run, so that check sees every type."""
    out: list[tuple[int, int]] = []
    last, length = None, 0
    for a, count in runs:
        if type(count) is not int or count < 1:
            raise ValueError(f"run counts must be positive integers, got {count!r}")
        length += count
        if out and a == last and type(a) is type(last):
            out[-1] = (a, out[-1][1] + count)
        else:
            out.append((a, count))
            last = a
    if length < need:
        raise ValueError(f"need at least {_NEED[need]}")
    for a, _ in out if least is not None else ():
        if type(a) is not int or a < least:
            raise ValueError(f"{_LEAST[least]} integers, got {a!r}")
    return tuple(out), length


def _tally(pairs: Iterable[tuple[int, int]], start: dict[int, int], modulus: int = 0) -> dict[int, int]:
    """Key (mod `modulus`, if given) -> summed count over (key, count) pairs, added into
    `start`: the one counter of multiplicities and residues, with no generator per call."""
    for key, count in pairs:
        if modulus:
            key %= modulus
        start[key] = start.get(key, 0) + count
    return start


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


def parse_runs(text: str) -> Runs:
    """Runs of a list such as "1^4,5,2,3" or "4,5,6,7,23", never expanded.

    A count below 1 is a ValueError; a list of more entries than
    WPH_TABLE_CAP allows is a BudgetError."""
    pairs = []
    for part in text.split(","):
        base, caret, count = part.strip().partition("^")
        pairs.append((int(base), int(count) if caret else 1))
    runs, length = _checked(pairs)
    config.require("WPH_TABLE_CAP", length, f"{length} listed weights")
    return runs


class _Value:
    """Immutable value: equal (to its own type only), hashed and printed by its annotated fields."""

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:  # __init__ fills __dict__
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Weights(_Value):
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
        runs, length = _checked(zip(entries, repeat(1)) if runs is None else runs, 1, 2)
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
        return _tally(self.runs, {})

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


class CyclicQuotientSingularity(_Value):
    """Cyclic quotient of type 1/r(b_1, ..., b_m).

    The cyclic group of order r acts diagonally on affine m-space with the
    given weights, faithfully: gcd(r, b_1, ..., b_m) > 1 is a ValueError.
    Only the residues b_i mod r matter for classification, but entries are
    stored as given, as runs in the manner of `Weights`:
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
        if order < 1:
            raise ValueError("order must be >= 1")
        runs, _ = _checked(zip(weights, repeat(1)) if runs is None else runs, 0, 1)
        if (g := math.gcd(order, *(b for b, _ in runs))) > 1:  # j = order/g would act trivially
            raise ValueError(f"1/{order}({_format_runs(runs)}) is not faithful (gcd {g})")
        self.__dict__.update(order=order, runs=runs)

    @property
    def weights(self) -> tuple[int, ...]:
        """The expanded weight tuple (built on each access)."""
        return _expand(self.runs)

    def __str__(self) -> str:
        return f"1/{self.order}({_format_runs(self.runs)})"


class StratumRecord(_Value):
    """A set of coordinate indices whose weights share a common factor > 1."""

    indices: tuple[int, ...]
    order: int

    def __init__(self, indices: Iterable[int], order: int) -> None:
        self.__dict__.update(indices=tuple(sorted(indices)), order=order)
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

    Every qualifying set is listed (no maximal-only reduction), ordered by
    size and then lexicographically.  Only the c indices of weight > 1 can
    qualify, and each set is built from its prefix by one later index that
    keeps the gcd above 1 (Apriori's level-wise candidates): O(c) gcds per
    listed set, not 2^c subsets.  The cap bounds c, read from the runs
    before any index is listed.
    """
    weights = Weights.coerce(w)
    heavy_count = sum(count for a, count in weights.runs if a > 1)
    config.require("WPH_SUBSET_CAP", heavy_count, f"{heavy_count} weights exceed 1")
    heavy = [
        (i, a)
        for start, a, count in weights.spans()
        if a > 1
        for i in range(start, start + count)
    ]
    found: list[StratumRecord] = []
    level = [((i,), a, p + 1) for p, (i, a) in enumerate(heavy)]  # (set, gcd, next position)
    while level:
        found.extend(StratumRecord(indices, h) for indices, h, _ in level)
        level = [(indices + (i,), g, q + 1) for indices, h, start in level
                 for q, (i, a) in enumerate(heavy[start:], start) if (g := math.gcd(h, a)) > 1]
    return found


def strata_orders(counts: dict[int, int]) -> list[int]:
    """Orders h > 1 of the singular strata, ascending, from the weights'
    multiplicities: the gcd closure of the weight values.  Sing P is the union of
    the P(a_i : h | a_i), one for each such h (Iano-Fletcher 2000)."""
    orders: set[int] = set()
    for v in counts:
        if v > 1:
            orders |= {math.gcd(g, v) for g in orders}
            orders.add(v)
    orders.discard(1)
    return sorted(orders)


def order_residues(counts: dict[int, int], h: int) -> dict[int, int]:
    """Residue mod h -> number of weights, one residue-0 weight removed, from
    the weights' multiplicities.

    Every stratum of order h has the transverse type 1/h(a_0, ..., a_k
    omitted, ..., a_n) for any k on it.  The weights divisible by h, k among
    them, add nothing to a Reid-Tai sum, so these residues are the type of
    every stratum of order h: one germ per order, never one per index subset.
    The dict is raw: residue 0 stays, with count 0, when h divides one weight.
    """
    return _tally(counts.items(), {0: -1}, h)

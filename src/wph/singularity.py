"""Reid-Tai classification of cyclic quotient singularities.

A quotient 1/r(b_1, ..., b_m) is canonical if and only if

    (1/r) * sum_i ((j * b_i) mod r)  >=  1    for every j in [1, r-1],

and terminal when the inequality is strict for every j.  The scan reads the
total T(j) at j and at r - j together, so it visits only j in [1, r//2]:
(r - j) * b = -j * b mod r gives T(r - j) = r * (coordinates j moves) - T(j).
Residues b and r - b add up to r wherever they move, so each such pair folds
into one term; pairs are the normal case, since every 3-fold terminal point
is 1/r(a, -a, b) (the terminal lemma, Morrison-Stevens 1984), whose least
total is at the j that moves b by 1.  So the scan reads k = j * u mod r, u the
unit residue of largest folded coefficient c (1/r(b) is 1/r(b / u)), where
that term is c * k: a bound rising with k, and each block of k ends at the
last k whose bound is at most the least total found (or r, for a verdict).
One frame serves every order (u = 1 where no unit has c > 0).  The k come in
blocks of 64 doubling to 4,096, in exact integers; a report block sums its
other columns only where the two largest leave room, and a verdict-only scan
also stops after the first block holding a total below r.  No scan reads a cap.
Inputs where some multiplier acts as a quasi-reflection (at most one
coordinate moved) are flagged for reporting, by a closed form in the periods
r / gcd(b, r), but classified by the same rule.

`order_classes` is the one place that classifies the ambient germ of each
stratum order h (`core.strata_orders`), whose type `core.order_residues`
gives: every stratum of order h has it.  `ambient_canonical` and
`hypersurface.singularity_report` read its table, and
`ambient_canonical_bruteforce`, their oracle, classifies every singular
stratum by index.  `member_walk` walks the same orders for the member: a head's
orders and residues once, a tail's (the search's u, v) per call.  Every verdict
passes one gate, `_order_class`, and one bounded cache, `_germ_class`, keyed by raw
residues; only `quotient_report` scans outside it.  It scans only where no closed
form decides (`_closed_class`): T(1) = sum rho * c or T(r - 1) below r is NOT_CANONICAL,
and L > r TERMINAL, L = min over primes p | r of sum{g * c : p does not divide g}, g =
gcd(rho, r).  T(j) >= L (Reid 1980; Reid 1987, §4): j * rho is 0 mod r iff r / g divides
gcd(j, r), which divides some r / p, as r / g does iff p | g; else a multiple of g.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, NamedTuple

from . import config
from .core import (
    CyclicQuotientSingularity,
    Weights,
    _tally,
    order_residues,
    parse_runs,
    singular_strata,
    strata_orders,
    well_formed,
)
from .errors import NotWellFormedError

# multipliers per block of the Reid-Tai scan, and trial divisors of `_prime_bound`
_BLOCK, _TRIAL = 4096, 1024


class SingularityClass(enum.IntEnum):
    """Mildness classes, ordered from worst to best."""

    NOT_CANONICAL = 0
    CANONICAL_NOT_TERMINAL = 1
    TERMINAL = 2
    SMOOTH = 3

    @property
    def is_canonical(self) -> bool:
        return self >= SingularityClass.CANONICAL_NOT_TERMINAL

    @property
    def is_terminal(self) -> bool:
        return self >= SingularityClass.TERMINAL

    def __str__(self) -> str:
        return self.name.title().replace("_", "")


def _scan(r: int, residues: dict[int, int], stop_below: bool = False) -> tuple[int, int, bool]:
    """One pass over k in [1, r//2], each read with r - k, in growing blocks, for
    1/r of `residues` (residue in [0, r) -> count > 0); it reads no cap.

    Returns the least total T(j) over j in [1, r-1], the least j attaining
    it, and whether some j moves at most one coordinate.  A class {rho,
    r - rho} with c1 >= c2 copies adds (c1 - c2) * ((j * rho) mod r) + c2 * r
    to T(j) (module docstring), its r-terms dropping at the multiples of
    q = r / gcd(rho, r).  k = j * u mod r for the unit u of largest c = c1 - c2
    (else u = 1), so T >= base + c * k at k and r - k, `base` being the r-terms
    that never drop; a block ends at the last k whose bound is at most the
    least total (or r, with `stop_below`), so a tie there keeps its least j.
    Blocks double from 64 to `_BLOCK`, their column sums built by `map`, so
    memory is O(_BLOCK) for any r.  A report block with no periodic class,
    whose mirrored bounds all exceed the least total, sums the two columns of
    largest c first and the others only at the k where those two leave room.
    With `stop_below` the pass also ends after a block holding a total below
    r, and finds neither the least j nor the flag.
    """
    # T(k) = pairs + low(k) and T(r - k) = moved - high(k), where low and high
    # are the column sums less and plus the terms of q at k = 0 mod q
    columns, pairs, moved, periodic, c, u = [], 0, 0, [], 0, 1
    for rho, c1 in residues.items():
        if not rho:
            continue
        c2 = residues.get(r - rho, 0) if 2 * rho != r else 0
        if c2 > c1 or c2 == c1 and rho < r - rho:
            continue  # read with its mirror
        if c1 > c2:
            # cnt * ((k * rho) mod r) == (k * rho * cnt) mod (r * cnt)
            columns.append((rho * (c1 - c2), r * (c1 - c2)))
        pairs, moved = pairs + r * c2, moved + r * c1
        q = r // gcd(rho, r)
        if q < r:
            periodic.append((q, r * c2, r * c1))
        elif c1 - c2 > c:
            c, u = c1 - c2, rho
    # T >= base + c * k at every k (and r - k) in the frame of u, k = j * u mod r;
    # largest coefficient first, for the sieve
    half, inverse, base = r // 2 + 1, pow(u, -1, r), pairs - sum(p for _, p, _ in periodic)
    columns = sorted(((step * inverse % m, m) for step, m in columns), key=lambda col: -col[1])
    unit = c > 0  # the bound rises with k
    best, best_j = r * sum(residues.values()), 0
    hi, size = 1, 64
    # a report needs the bound at most best; a verdict, at most r and best >= r
    while hi < half and base + c * hi <= (bound := r if stop_below else best) <= best:
        # the block holds the last k whose bound is at most `bound`, not the next
        end = (bound - base) // c + 1 if unit else half
        lo, hi, size = hi, min(hi + size, half, end), min(2 * size, _BLOCK)
        # with no periodic class and every mirrored total above best (so `most`
        # below is never taken), sum the others only where the largest two leave room
        sieve = unit and not (stop_below or periodic) and base + c * (r - hi + 1) > best
        low = []
        for step, modulus in columns[:2] if sieve else columns:
            column = map(modulus.__rmod__, range(lo * step, hi * step, step))
            low = list(map(add, low, column) if low else column)
        if sieve:
            if pairs + min(low) > best:
                continue
            keep = [*map((best - pairs).__ge__, low)]
            ks, low = [*compress(range(lo, hi), keep)], [*compress(low, keep)]
            for step, modulus in columns[2:]:
                low = [*map(add, low, map(modulus.__rmod__, map(step.__mul__, ks)))]
        low = low or [0] * (hi - lo)
        high = low
        if periodic:
            high = low[:]
            for q, p, m in periodic:
                k = -lo % q
                if p:
                    low[k::q] = map(p.__rsub__, low[k::q])
                high[k::q] = map(m.__add__, high[k::q])
        least, most = pairs + min(low), moved - max(high)
        if stop_below:
            best = min(best, least, most)
            continue
        for total, sums, offset, sign in ((least, low, pairs, 1), (most, high, moved, -1)):
            # a tied k is j = sign * k / u mod r, at least k (or r + 1 - hi) if u = 1
            floor = 1 if inverse > 1 else lo if sign > 0 else r + 1 - hi
            if total < best or total == best and best_j > floor:
                ties = compress(ks if sieve else range(lo, hi), map((sign * (total - offset)).__eq__, sums))
                j = min(map(r.__rmod__, map((sign * inverse).__mul__, ties)))
                best, best_j = total, j if total < best else min(j, best_j)
    if stop_below:
        return best, best_j, False
    # j fixes rho iff q | j, so some j < r moves at most one coordinate iff the q
    # of all residues, or of all but one of count 1 (pre[i], suf[-i - 2]), have lcm < r
    moving = [(r // gcd(rho, r), n) for rho, n in residues.items() if rho]
    pre, suf = ([*accumulate((q for q, _ in m), lcm, initial=1)] for m in (moving, moving[::-1]))
    return best, best_j, pre[-1] < r or any(
        n == 1 and lcm(pre[i], suf[-i - 2]) < r for i, (_, n) in enumerate(moving)
    )


def _class_of(total: int, r: int) -> SingularityClass:
    if total > r:
        return SingularityClass.TERMINAL
    if total == r:
        return SingularityClass.CANONICAL_NOT_TERMINAL
    return SingularityClass.NOT_CANONICAL


def reid_tai_sum(s: CyclicQuotientSingularity, j: int) -> Fraction:
    """The value (1/r) * sum_i ((j * b_i) mod r) for one multiplier j."""
    r = s.order
    if not 1 <= j <= r - 1:
        raise ValueError(f"multiplier must lie in [1, {r - 1}], got {j}")
    return Fraction(sum(count * ((j * b) % r) for b, count in s.runs), r)


def _residues(s: CyclicQuotientSingularity) -> dict[int, int]:
    """The counts of s by residue mod r, key 0 always present (a scan is O(r * keys))."""
    return _tally(s.runs, {0: 0}, s.order)


def classify_quotient(s: CyclicQuotientSingularity) -> SingularityClass:
    """Classify via the criterion: min > 1 terminal, = 1 canonical, < 1 neither (`_order_class`)."""
    if s.order == 1:
        return SingularityClass.SMOOTH
    return _order_class(s.order, _residues(s), config._cap("WPH_ORDER_CAP"))


class QuotientReport(NamedTuple):
    """Classification of one quotient plus the attained minimum for display.

    `quasi_reflection` flags a multiplier that moves at most one coordinate:
    the rule is stated for actions without quasi-reflections, so reports carry
    the flag, but the verdict is not altered.
    """

    singularity: CyclicQuotientSingularity
    sclass: SingularityClass
    minimum: Fraction | None
    at_multiplier: int | None
    quasi_reflection: bool


def quotient_report(s: CyclicQuotientSingularity) -> QuotientReport:
    """Full (non-short-circuiting) classification with diagnostics."""
    if (r := s.order) == 1:
        return QuotientReport(s, SingularityClass.SMOOTH, None, None, False)
    config.require("WPH_ORDER_CAP", r, f"group order {r}")
    total, at_j, reflection = _scan(r, _residues(s))
    return QuotientReport(s, _class_of(total, r), Fraction(total, r), at_j, reflection)


def require_well_formed(w: Weights) -> None:
    if not well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")


def order_classes(w: Weights | Iterable[int]) -> dict[int, SingularityClass]:
    """Stratum order h -> the class of every stratum of order h (module docstring),
    largest h first, so a `WPH_ORDER_CAP` breach names an order enough for all."""
    counts, cap = Weights.coerce(w).multiplicities(), config._cap("WPH_ORDER_CAP")
    return {h: _order_class(h, order_residues(counts, h), cap) for h in reversed(strata_orders(counts))}


def member_walk(counts: dict[int, int]) -> Callable[..., bool]:
    """The walk of `WeightedHypersurface.member_canonical` (its docstring) split
    at a head, multiplicities `counts` whose orders and residues are built once:
    walk(d, cap, *tail) adds the tail's weights (the search's u <= v), for the
    member of degree d.  The head's orders up to `cap` come first, as most
    members fail at one; then the tail's new orders and the rest, ascending."""
    head, by_order = strata_orders(counts), {}  # the head's residues by order

    def walk(d: int, cap: int, *tail: int) -> bool:
        orders = low = head[: bisect_right(head, cap)]
        while True:
            for h in orders:
                if h not in by_order:
                    by_order[h] = order_residues(counts, h)
                residues = by_order[h].copy()
                for b in tail:
                    residues[b % h] = residues.get(b % h, 0) + 1
                if r := d % h:
                    if not (left := residues.pop(r, 0)):
                        return False
                    if left > 1:  # an emptied residue leaves the key
                        residues[r] = left - 1
                elif residues[0] <= 0:
                    continue  # a single weight is divisible by h
                if not _order_class(h, residues, cap).is_canonical:
                    return False
            if orders is not low:  # the second pass is done
                return True
            grown = {*head}  # the gcd closure with the tail, as in `strata_orders`
            for b in tail:
                grown.update({gcd(g, b) for g in grown}, (b,))
            orders = sorted(grown.difference(low, (1,)))

    return walk


def _order_class(h: int, residues: dict[int, int], cap: int) -> SingularityClass:
    """Every verdict's gate: 1/h(residues) from `_germ_class`; above `cap` only closed forms answer."""
    del residues[0]
    runs = tuple(sorted(residues.items()))
    if h > cap and _closed_class(h, runs) is None:
        config.require("WPH_ORDER_CAP", h, f"group order {h}", cap)
    return _germ_class(h, runs)


@lru_cache(maxsize=4096)
def _germ_class(order: int, runs: tuple[tuple[int, int], ...]) -> SingularityClass:
    """The class of 1/order(runs), keyed by the sorted nonzero (residue, count) runs (a zero
    residue adds nothing to any total): the one cache of germ verdicts, read by `_order_class`
    alone, key () the all-zero germ.  It scans only where `_closed_class` does not decide."""
    closed = _closed_class(order, runs)
    return _class_of(_scan(order, dict(runs), stop_below=True)[0], order) if closed is None else closed


def _closed_class(h: int, runs: tuple[tuple[int, int], ...]) -> SingularityClass | None:
    """The class of 1/h(runs) where T(1), T(h - 1) or L decides it (module docstring), else None."""
    total = moved = shared = 0  # T(1) = total, T(h - 1) = h * moved - total, and L <= shared
    for rho, c in runs:
        total, moved, shared = total + rho * c, moved + c, shared + gcd(rho, h) * c
    if total < h or h * moved - total < h:
        return SingularityClass.NOT_CANONICAL
    return SingularityClass.TERMINAL if shared > h and _prime_bound(h, runs) > h else None


def _prime_bound(h: int, runs: Iterable[tuple[int, int]]) -> int:
    """L (module docstring) in O(_TRIAL + primes * runs) for any h: trial division stops at
    _TRIAL, and a cofactor q left counts as one prime, its sum over g coprime to q at most its primes'."""
    gs, factors, q, p = [(gcd(rho, h), c) for rho, c in runs], set(), h, 2
    while p * p <= q and p <= _TRIAL:
        while q % p == 0:
            factors.add(p)
            q //= p
        p += 1
    return min(sum(g * c for g, c in gs if gcd(g, f) == 1) for f in [*factors, q] if f > 1)


def ambient_canonical(w: Weights | Iterable[int]) -> bool:
    """True when every singular stratum of the (well-formed) space is canonical:
    one germ per stratum order (`order_classes`).  Non-well-formed input is
    rejected, not rescaled."""
    weights = Weights.coerce(w)
    require_well_formed(weights)
    return all(c.is_canonical for c in order_classes(weights).values())


def ambient_canonical_bruteforce(w: Weights | Iterable[int]) -> bool:
    """Oracle for `ambient_canonical`: classify every singular stratum."""
    weights = Weights.coerce(w)
    require_well_formed(weights)
    for stratum in singular_strata(weights):
        k = stratum.indices[0]
        q = CyclicQuotientSingularity(stratum.order, runs=weights.runs_without(k))
        if not classify_quotient(q).is_canonical:
            return False
    return True


_QUOTIENT_RE = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(\s*([0-9,^\s]*?)\s*\)\s*$")


def parse_quotient(text: str) -> CyclicQuotientSingularity:
    """Parse a faithful literal such as "1/6(2,2,3)" (runs abbreviate as "1^4,b")."""
    m = _QUOTIENT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse quotient singularity from {text!r}")
    order = int(m.group(1))
    body = m.group(2)
    if not body:
        raise ValueError(f"quotient {text!r} lists no weights")
    runs = parse_runs(body)
    if (g := gcd(order, *(b for b, _ in runs))) > 1:  # then j = r/g acts as the identity
        faithful = CyclicQuotientSingularity(order // g, runs=[(b // g, c) for b, c in runs])
        raise ValueError(f"quotient {text!r} is not faithful (gcd {g}); write {faithful}")
    return CyclicQuotientSingularity(order, runs=runs)

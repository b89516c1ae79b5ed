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
that term is c * k: a bound rising with k, and the scan stops once it passes
the least total found (or r, for a verdict).  The k come in blocks of 64
doubling to 4,096, in exact integers, and a verdict-only scan also stops after
the first block holding a total below r.  Inputs where some multiplier acts as
a quasi-reflection (at most one coordinate moved) are flagged for reporting,
by a closed form in the periods r / gcd(b, r), but classified by the same rule.

`order_classes` is the one place that classifies the ambient germ of each
stratum order h (`core.strata_orders`), whose type `core.order_residues`
gives: every stratum of order h has it.  `ambient_canonical` and
`hypersurface.singularity_report` read its table, and
`ambient_canonical_bruteforce`, their oracle, classifies every singular
stratum by index.  Its verdicts and those of `hypersurface.member_canonical`
come from one bounded cache, `_germ_class`, keyed by the nonzero residues.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import add
from typing import Iterable, NamedTuple

from . import config
from .core import (
    CyclicQuotientSingularity,
    Weights,
    _order_residues,
    _strata_orders,
    parse_runs,
    singular_strata,
    well_formed,
)
from .errors import NotWellFormedError

__all__ = [
    "CyclicQuotientSingularity",
    "SingularityClass",
    "QuotientReport",
    "reid_tai_sum",
    "classify_quotient",
    "quotient_report",
    "order_classes",
    "ambient_canonical",
    "ambient_canonical_bruteforce",
    "parse_quotient",
]

# multipliers per block of the Reid-Tai scan
_BLOCK = 4096


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
        return _CLASS_NAMES[self]


_CLASS_NAMES = {
    SingularityClass.NOT_CANONICAL: "NotCanonical",
    SingularityClass.CANONICAL_NOT_TERMINAL: "CanonicalNotTerminal",
    SingularityClass.TERMINAL: "Terminal",
    SingularityClass.SMOOTH: "Smooth",
}


def _scan(s: CyclicQuotientSingularity, stop_below: bool = False) -> tuple[int, int, bool]:
    """One pass over k in [1, r//2], each read with r - k, in growing blocks.

    Returns the least total T(j) over j in [1, r-1], the least j attaining
    it, and whether some j moves at most one coordinate.  A class {rho,
    r - rho} with c1 >= c2 copies adds (c1 - c2) * ((j * rho) mod r) + c2 * r
    to T(j) (module docstring), its r-terms dropping at the multiples of
    q = r / gcd(rho, r).  Past the first block of 64, k = j * u mod r for the
    unit u of largest c = c1 - c2, so T >= base + c * k at k and r - k, `base`
    being the r-terms that never drop; the scan stops before a block whose
    start gives a bound above the least total (or above r, with `stop_below`).
    Blocks double up to `_BLOCK`, their column sums built by `map`, so memory
    is O(_BLOCK) for any r.  With `stop_below` the pass also ends after a block
    holding a total below r, and finds neither the least j nor the flag.
    """
    r = s.order
    if r > config._cap("WPH_ORDER_CAP"):
        config.require("WPH_ORDER_CAP", r, f"group order {r}")
    # grouping the runs by residue keeps the pass O(r * distinct residues)
    residues: dict[int, int] = {}
    for b, count in s.runs:
        residues[b % r] = residues.get(b % r, 0) + count
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
    # T >= base + c * k: at k = 1 in any frame, since a unit column is at least c,
    # and at every k (and r - k) in the frame of u, k = j * u mod r
    half, inverse, base = r // 2 + 1, 1, 0
    if half > 65:
        inverse, base = pow(u, -1, r), pairs - sum(p for _, p, _ in periodic)
        columns = [(step * inverse % modulus, modulus) for step, modulus in columns]
    best, best_j = r * sum(residues.values()), 0
    hi, size = 1, 64
    # a report needs the bound at most best; a verdict, at most r and best >= r
    while hi < half and base + c * hi <= (r if stop_below else best) <= best:
        lo, hi, size = hi, min(hi + size, half), min(2 * size, _BLOCK)
        low = []
        for step, modulus in columns:
            column = map(modulus.__rmod__, range(lo * step, hi * step, step))
            low = list(map(add, low, column) if low else column)
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
                ties = compress(range(lo, hi), map((sign * (total - offset)).__eq__, sums))
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


def classify_quotient(s: CyclicQuotientSingularity) -> SingularityClass:
    """Classify via the criterion: min > 1 terminal, = 1 canonical, < 1 neither.

    Returns early once a multiplier drops below 1; the exact minimum is only
    needed when all multipliers pass, to separate terminal from canonical.
    """
    if s.order == 1:
        return SingularityClass.SMOOTH
    return _class_of(_scan(s, stop_below=True)[0], s.order)


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
    if s.order == 1:
        return QuotientReport(s, SingularityClass.SMOOTH, None, None, False)
    total, at_j, reflection = _scan(s)
    return QuotientReport(
        s, _class_of(total, s.order), Fraction(total, s.order), at_j, reflection
    )


def require_well_formed(w: Weights) -> None:
    if not well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")


def order_classes(w: Weights | Iterable[int]) -> dict[int, SingularityClass]:
    """Stratum order h -> the class of every stratum of order h (module docstring),
    largest h first, so a `WPH_ORDER_CAP` breach names an order enough for all; the
    cap is checked before each read of `_germ_class`, the one zero-blind cache."""
    counts, cap, classes = Weights.coerce(w).multiplicities(), config._cap("WPH_ORDER_CAP"), {}
    for h in reversed(_strata_orders(counts)):
        if h > cap:
            config.require("WPH_ORDER_CAP", h, f"group order {h}")
        residues = _order_residues(counts, h).items()
        classes[h] = _germ_class(h, tuple(sorted(p for p in residues if p[0] and p[1] > 0)))
    return classes


@lru_cache(maxsize=4096)
def _germ_class(order: int, runs: tuple[tuple[int, int], ...]) -> SingularityClass:
    """The class of 1/order(runs), keyed by the sorted nonzero (residue, count)
    runs: a zero residue adds nothing to any Reid-Tai total.  The one cache of
    germ verdicts; key () is the all-zero germ.  Callers check the order cap."""
    return classify_quotient(CyclicQuotientSingularity(order, runs=runs or ((0, 1),)))


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
    s = CyclicQuotientSingularity(order, runs=parse_runs(body))
    if (g := gcd(order, *(b for b, _ in s.runs))) > 1:  # then j = r/g acts as the identity
        faithful = CyclicQuotientSingularity(order // g, runs=[(b // g, c) for b, c in s.runs])
        raise ValueError(f"quotient {text!r} is not faithful (gcd {g}); write {faithful}")
    return s

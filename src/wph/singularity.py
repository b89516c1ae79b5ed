"""Reid-Tai classification of cyclic quotient singularities.

A quotient 1/r(b_1, ..., b_m) is canonical if and only if

    (1/r) * sum_i ((j * b_i) mod r)  >=  1    for every j in [1, r-1],

and terminal when the inequality is strict for every j.  The scan reads the
total T(j) at j and at r - j together, so it visits only j in [1, r//2]:
(r - j) * b = -j * b mod r gives T(r - j) = r * (coordinates j moves) - T(j).
Residues b and r - b add up to r wherever they move, so each such pair folds
into one term; pairs are the normal case, since every 3-fold terminal point
is 1/r(a, -a, b) (the terminal lemma, Morrison-Stevens 1984).  There is no
coprimality restriction on j; the j come a block at a time in exact
integers, and a verdict-only scan stops after the first block holding a
total below r.  Inputs where some multiplier acts as a quasi-reflection (at
most one coordinate moved) are flagged for reporting but classified by the
same rule.

`order_classes` is the one place that classifies the ambient germ of each
stratum order h (`core.strata_orders`), whose type `core.order_residues`
gives: every stratum of order h has it.  `ambient_canonical` and
`hypersurface.singularity_report` read its table, and
`ambient_canonical_bruteforce`, their oracle, classifies every singular
stratum by index.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Iterable

from . import config
from .core import (
    CyclicQuotientSingularity,
    Weights,
    order_residues,
    parse_runs,
    singular_strata,
    strata_orders,
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
    """One pass over j in [1, r//2], `_BLOCK` at a time, each read with r - j.

    Returns the least total T(j) over j in [1, r-1], the first j attaining
    it, and whether some j moves at most one coordinate.  A class {rho,
    r - rho} with c1 >= c2 copies adds (c1 - c2) * ((j * rho) mod r) + c2 * r
    to T(j) (module docstring), its r-terms dropping at the multiples of
    q = r / gcd(rho, r).  A block's column sums are built by `map`, so memory
    is O(_BLOCK) for any r; with every residue prime to r no term drops.
    With `stop_below` the pass ends after the first block holding a total
    below r, where the verdict is already known.
    """
    r = s.order
    config.require("WPH_ORDER_CAP", r, f"group order {r}")
    # grouping the runs by residue keeps the pass O(r * distinct residues)
    residues: dict[int, int] = {}
    for b, count in s.runs:
        residues[b % r] = residues.get(b % r, 0) + count
    # T(j) = pairs + low(j) and T(r - j) = moved - high(j), where low and high
    # are the column sums less and plus the terms of q at j = 0 mod q
    columns, pairs, moved, periodic = [], 0, 0, []
    for rho, c1 in residues.items():
        if not rho:
            continue
        c2 = residues.get(r - rho, 0) if 2 * rho != r else 0
        if c2 > c1 or c2 == c1 and rho < r - rho:
            continue  # read with its mirror
        if c1 > c2:
            # cnt * ((j * rho) mod r) == (j * rho * cnt) mod (r * cnt)
            columns.append((rho * (c1 - c2), r * (c1 - c2)))
        pairs, moved = pairs + r * c2, moved + r * c1
        q = r // gcd(rho, r)
        if q < r:
            periodic.append((q, r * c2, r * c1))
    # j = 1 moves every coordinate that any j moves
    best, best_j = second, second_j = r * sum(residues.values()), 0
    reflection = pairs + moved <= r
    half = r // 2 + 1
    for lo in range(1, half, _BLOCK):
        hi = min(lo + _BLOCK, half)
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
        if least < best:
            best, best_j = least, lo + low.index(least - pairs)
        # the first least T(r - j) is at the last j holding the most
        if most <= second:
            second, second_j = most, r - hi + 1 + high[::-1].index(moved - most)
        if least < r or most < r:
            if stop_below:
                break
            if periodic and not reflection:
                # r * (coordinates j moves) = T(j) + T(r - j)
                floor = pairs + moved - r
                reflection = any(map(floor.__le__, map(sub, high, low)))
    if second < best:
        best, best_j = second, second_j
    return best, best_j, reflection


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


@dataclass(frozen=True)
class QuotientReport:
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
    largest h first, so a `WPH_ORDER_CAP` breach names an order enough for all."""
    weights = Weights.coerce(w)
    return {
        h: classify_quotient(CyclicQuotientSingularity(h, runs=order_residues(weights, h).items()))
        for h in reversed(strata_orders(weights))
    }


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
    """Parse a literal such as "1/6(2,2,3)" (runs abbreviate as "1^4,b")."""
    m = _QUOTIENT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse quotient singularity from {text!r}")
    order = int(m.group(1))
    body = m.group(2)
    if not body:
        raise ValueError(f"quotient {text!r} lists no weights")
    return CyclicQuotientSingularity(order, runs=parse_runs(body))

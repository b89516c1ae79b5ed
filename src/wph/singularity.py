"""Reid-Tai classification of cyclic quotient singularities.

A quotient 1/r(b_1, ..., b_m) is canonical if and only if

    (1/r) * sum_i ((j * b_i) mod r)  >=  1    for every j in [1, r-1],

and terminal when the inequality is strict for every j.  The loop runs over
all j, with no coprimality restriction; inputs where some multiplier acts as
a quasi-reflection (at most one coordinate moved) are flagged for reporting
but classified by the same rule.

`ambient_canonical` decides whether a well-formed weighted projective space
has only canonical singularities by classifying its coordinate points alone:
if a stratum of order h fails the criterion at multiplier j, the coordinate
point of any member weight m*h fails at multiplier m*j, so coordinate points
already witness any failure.  `ambient_canonical_bruteforce` re-derives the
same verdict from every singular stratum and serves as the oracle for that
reduction.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import config
from .core import (
    CyclicQuotientSingularity,
    Weights,
    parse_runs,
    singular_strata,
    stratum_quotient_type,
    well_formed,
)
from .errors import BudgetError, NotWellFormedError

__all__ = [
    "CyclicQuotientSingularity",
    "SingularityClass",
    "QuotientReport",
    "reid_tai_sum",
    "reid_tai_min",
    "classify_quotient",
    "quotient_report",
    "ambient_canonical",
    "ambient_canonical_bruteforce",
    "parse_quotient",
]


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
    """One pass over the multipliers j in [1, r-1] of 1/r(b).

    Returns the least total sum_i ((j * b_i) mod r), the first j attaining it,
    and whether some j moves at most one coordinate.  With `stop_below` the
    pass ends at the first total below r, where the verdict is already known.
    """
    r = s.order
    cap = config.order_cap()
    if r > cap:
        raise BudgetError(f"group order {r} exceeds cap {cap}")
    # grouping the runs by residue keeps the pass O(r * distinct residues)
    residues: dict[int, int] = {}
    for b, count in s.runs:
        residues[b % r] = residues.get(b % r, 0) + count
    counts = residues.items()
    best, best_j, reflection = r * sum(residues.values()), 0, False
    for j in range(1, r):
        total = sum(cnt * ((j * rho) % r) for rho, cnt in counts)
        if total < best:
            best, best_j = total, j
        # moving at most one coordinate forces a total below r
        if total < r:
            if stop_below:
                break
            if not reflection:
                reflection = sum(cnt for rho, cnt in counts if (j * rho) % r) <= 1
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


def reid_tai_min(s: CyclicQuotientSingularity) -> Fraction:
    """Minimum of reid_tai_sum over every multiplier j in [1, r-1]."""
    if s.order < 2:
        raise ValueError("order-1 quotients are smooth; no multipliers to scan")
    return Fraction(_scan(s)[0], s.order)


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

    def __str__(self) -> str:
        head = f"{self.singularity}: {self.sclass}"
        if self.minimum is not None:
            head += f" min={self.minimum} at j={self.at_multiplier}"
        if self.quasi_reflection:
            head += " [quasi-reflection pattern]"
        return head


def quotient_report(s: CyclicQuotientSingularity) -> QuotientReport:
    """Full (non-short-circuiting) classification with diagnostics."""
    if s.order == 1:
        return QuotientReport(s, SingularityClass.SMOOTH, None, None, False)
    total, at_j, reflection = _scan(s)
    return QuotientReport(
        s, _class_of(total, s.order), Fraction(total, s.order), at_j, reflection
    )


def _require_well_formed(w: Weights) -> None:
    if not well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")


def ambient_canonical(w: Weights | Iterable[int]) -> bool:
    """True when every coordinate point of the (well-formed) space is canonical.

    Checking coordinate points suffices for the full space; see the module
    docstring.  Points of equal weight have the same type up to the order of
    its weights, so one point per distinct value is classified.
    Non-well-formed input is rejected, not rescaled.
    """
    weights = Weights.coerce(w)
    _require_well_formed(weights)
    seen: set[int] = set()
    for start, a, _ in weights.spans():
        if a > 1 and a not in seen:
            seen.add(a)
            q = CyclicQuotientSingularity(a, runs=weights.runs_without(start))
            if not classify_quotient(q).is_canonical:
                return False
    return True


def ambient_canonical_bruteforce(w: Weights | Iterable[int]) -> bool:
    """Oracle for `ambient_canonical`: classify every singular stratum."""
    weights = Weights.coerce(w)
    _require_well_formed(weights)
    for stratum in singular_strata(weights):
        q = stratum_quotient_type(weights, stratum.indices, min(stratum.indices))
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

"""Counting monomials of given weighted degree, and plurigenera built on it.

N_w(m) is the number of exponent tuples e >= 0 with sum_i e_i * a_i = m,
i.e. the coefficient of t^m in prod_i 1/(1 - t^{a_i}).  For a quasi-smooth
well-formed hypersurface of degree d whose canonical class is O(alpha) with
alpha >= 1, the m-th plurigenus is N(m*alpha) - N(m*alpha - d).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from . import config
from .core import Weights
from .errors import BudgetError

if TYPE_CHECKING:  # pragma: no cover
    from .hypersurface import WeightedHypersurface

ENUM_MAX_DEGREE = 200
ENUM_MAX_LENGTH = 8


def _entries(w: "Weights | Iterable[int]") -> tuple[int, ...]:
    # counting works for any nonempty positive tuple, including length 1
    entries = w.entries if isinstance(w, Weights) else tuple(w)
    if not entries:
        raise ValueError("need at least one weight")
    if any(not isinstance(a, int) or isinstance(a, bool) or a < 1 for a in entries):
        raise ValueError("weights must be positive integers")
    return entries


def _raw_table(entries: tuple[int, ...], up_to: int) -> list[int]:
    config.require("WPH_TABLE_CAP", up_to + 1, f"count table of {up_to + 1} cells")
    counts = [0] * (up_to + 1)
    counts[0] = 1
    for a in entries:
        for m in range(a, up_to + 1):
            counts[m] += counts[m - a]
    return counts


def monomial_count(w: "Weights | Iterable[int]", m: int) -> int:
    """Number of monomials of weighted degree m (0 for negative m)."""
    entries = _entries(w)
    if m < 0:
        return 0
    if m == 0:
        return 1
    return _raw_table(entries, m)[m]


def monomial_count_enum(w: "Weights | Iterable[int]", m: int) -> int:
    """Independent oracle: recursive exponent enumeration, small inputs only."""
    entries = _entries(w)
    if m < 0:
        return 0
    if m > ENUM_MAX_DEGREE or len(entries) > ENUM_MAX_LENGTH:
        raise BudgetError(
            f"enumeration limited to degree {ENUM_MAX_DEGREE} and {ENUM_MAX_LENGTH} weights"
        )

    def rec(i: int, remaining: int) -> int:
        if i == len(entries) - 1:
            return 1 if remaining % entries[i] == 0 else 0
        a = entries[i]
        return sum(rec(i + 1, remaining - e * a) for e in range(remaining // a + 1))

    return rec(0, m)


def variables_present(w: "Weights | Iterable[int]", t: int) -> set[int]:
    """Indices of variables appearing in some monomial of weighted degree t.

    Variable i appears exactly when t >= a_i and degree t - a_i is realisable
    by the full weight tuple (the monomial may reuse variable i itself).
    """
    entries = _entries(w)
    if t < 0:
        raise ValueError("degree must be >= 0")
    if t == 0:
        return set()
    table = _raw_table(entries, t)
    return {i for i, a in enumerate(entries) if t >= a and table[t - a] > 0}


def variables_present_below(w: "Weights | Iterable[int]", top: int) -> list[set[int]]:
    """[variables_present(w, t) for t in range(top)], read from one count table."""
    entries = _entries(w)
    table = _raw_table(entries, max(top - 1, 0))
    return [
        {i for i, a in enumerate(entries) if t >= a and table[t - a] > 0}
        for t in range(top)
    ]


def plurigenus(x: "WeightedHypersurface", m: int) -> int:
    """Dimension of the degree-(m*alpha) graded piece minus the degree-shifted one.

    Valid for quasi-smooth, well-formed hypersurfaces with canonical class
    O(alpha), alpha >= 1; quasi-smoothness is the caller's responsibility
    (`test_every_default_member_is_quasi_smooth_and_canonical` checks it).
    """
    if m < 1:
        raise ValueError("plurigenus index must be >= 1")
    return plurigenera_table(x, m)[-1]


def plurigenera_table(x: "WeightedHypersurface", up_to: int) -> tuple[int, ...]:
    """(P_1, ..., P_up_to), sharing one count table."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if up_to == 0:
        return ()
    alpha = x.amplitude
    if alpha < 1:
        raise ValueError(f"amplitude {alpha} < 1: plurigenus formula not applicable")
    table = _raw_table(_entries(x.weights), up_to * alpha)
    out = []
    for m in range(1, up_to + 1):
        top = m * alpha
        low = top - x.degree
        out.append(table[top] - (table[low] if low >= 0 else 0))
    return tuple(out)

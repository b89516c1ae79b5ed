"""Counting monomials of given weighted degree, and plurigenera built on it.

N_w(m) is the number of exponent tuples e >= 0 with sum_i e_i * a_i = m,
i.e. the coefficient of t^m in prod_i 1/(1 - t^{a_i}).  For a quasi-smooth
well-formed hypersurface of degree d whose canonical class is O(alpha) with
alpha >= 1, the m-th plurigenus is N(m*alpha) - N(m*alpha - d).

Nothing here expands the weights: the count table divides by (1 - t^v)^c
once per run (v, c), and variable presence, which depends only on the value
a_i, is read from a reachability table, the kernel `quasi_smooth` also uses;
presence below a degree is one int mask per value, bit t for degree t.

A reachability table of a value set whose first value is a has a entries:
entry r is the least realisable degree = r mod a, or inf when there is none
(the Apery set of Nijenhuis 1979; Boecker-Liptak, Algorithmica 2007).  So t
is realisable iff t >= table[t % a], and no table grows with the degree.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import gcd, inf
from operator import mul, or_
from typing import TYPE_CHECKING, Iterable

from . import config
from .core import Weights, _checked, _tally
from .errors import BudgetError

if TYPE_CHECKING:  # pragma: no cover
    from .hypersurface import WeightedHypersurface

ENUM_MAX_DEGREE = 200
ENUM_MAX_LENGTH = 8


def _multiplicities(w: "Weights | Iterable[int]") -> dict[int, int]:
    # counting works for any nonempty positive tuple, including length 1
    if isinstance(w, Weights):
        return w.multiplicities()
    return _tally(_checked(zip(w, repeat(1)), 1, 1)[0], {})


def with_value(table: list, v: int) -> list:
    """The reachability table of a value set with v added, in O(len(table)).

    [] is the table of the empty set; its first value v gives [0, inf, ...].
    Otherwise each cycle r -> r + v mod a is walked twice, carrying the least
    degree seen plus v, so the second lap passes the cycle's minimum on to
    every entry.  The argument is never changed.
    """
    if not table:
        return [0] + [inf] * (v - 1)
    a = len(table)
    step = v % a
    if not step:
        return table  # multiples of a are realisable already
    table = table[:]
    cycles = gcd(a, step)
    for start in range(cycles):
        r, carry = start, table[start]
        for _ in range(2 * a // cycles):
            r = (r + step) % a
            carry += v
            if carry < table[r]:
                table[r] = carry
            else:
                carry = table[r]
    return table


def reaches(table: list, t: int) -> bool:
    """Whether degree t >= 0 is realisable over the table's value set."""
    return t >= table[t % len(table)]


def _raw_table(runs: Iterable[tuple[int, int]], up_to: int) -> list[int]:
    """N(0..up_to) over the runs (v, c), at O(up_to * min(c, up_to // v + 1)) a run:
    c coin-change passes, or one product along each residue class mod v with
    1/(1 - t^v)^c = sum_j C(j + c - 1, j) t^(jv), cut at j = up_to // v."""
    config.require("WPH_TABLE_CAP", up_to + 1, f"count table of {up_to + 1} cells")
    counts = [0] * (up_to + 1)
    counts[0] = 1
    for v, c in runs:
        top = up_to // v
        if c <= top:
            for _ in range(c):
                for m in range(v, up_to + 1):
                    counts[m] += counts[m - v]
            continue
        series = [1]
        for j in range(1, top + 1):
            series.append(series[-1] * (c + j - 1) // j)
        # classes r with r + v > up_to hold one cell, which the product keeps
        for r in range(min(v, up_to - v + 1)):
            line = counts[r::v]
            counts[r::v] = [sum(map(mul, series, line[i::-1])) for i in range(len(line))]
    return counts


def monomial_count(w: "Weights | Iterable[int]", m: int) -> int:
    """Number of monomials of weighted degree m (0 for negative m)."""
    runs = _multiplicities(w).items()
    if m < 0:
        return 0
    if m == 0:
        return 1
    return _raw_table(runs, m)[m]


def monomial_count_enum(w: "Weights | Iterable[int]", m: int) -> int:
    """Independent oracle: recursive exponent enumeration, small inputs only."""
    counts = _multiplicities(w)
    if m < 0:
        return 0
    if m > ENUM_MAX_DEGREE or sum(counts.values()) > ENUM_MAX_LENGTH:
        raise BudgetError(
            f"enumeration limited to degree {ENUM_MAX_DEGREE} and {ENUM_MAX_LENGTH} weights"
        )
    entries = [a for a, count in counts.items() for _ in range(count)]

    def rec(i: int, remaining: int) -> int:
        if i == len(entries) - 1:
            return 1 if remaining % entries[i] == 0 else 0
        a = entries[i]
        return sum(rec(i + 1, remaining - e * a) for e in range(remaining // a + 1))

    return rec(0, m)


def _values_up_to(w: "Weights | Iterable[int]", t: int) -> tuple[list[int], list]:
    """The distinct values <= t of w, ascending, and their reachability table.

    Larger values take no part in any degree up to t, so the table has at
    most t entries; [] when no value is that small."""
    values = sorted(v for v in _multiplicities(w) if v <= t)
    if values:
        config.require("WPH_TABLE_CAP", values[0], f"a reachability table of {values[0]} cells")
    return values, reduce(with_value, values, [])


def values_present_below(w: "Weights | Iterable[int]", top: int) -> dict[int, int]:
    """Value v < top -> int mask, bit t set iff a variable of value v appears in degree t < top.

    That is when t - v >= 0 is realisable: the mask is the realisable degrees shifted
    by v, and those are the comb of bits 0, a, 2a, ... (a the least value) shifted by
    each table entry, so no Python work is done per degree."""
    config.require("WPH_TABLE_CAP", top, f"presence in {top} degrees")
    values, table = _values_up_to(w, top - 1)
    a = len(table)
    comb = ((1 << a * (top // a + 1)) - 1) // ((1 << a) - 1) if a else 0
    reach = reduce(or_, (comb << least for least in table if least < top), 0)
    return {v: reach << v & (1 << top) - 1 for v in values}


def variables_present(w: "Weights | Iterable[int]", t: int) -> set[int]:
    """Indices of variables appearing in some monomial of weighted degree t.

    Variable i appears exactly when t >= a_i and degree t - a_i is realisable
    by the full weight tuple (the monomial may reuse variable i itself).
    """
    if t < 0:
        raise ValueError("degree must be >= 0")
    w = w if isinstance(w, Weights) else tuple(w)
    _, table = _values_up_to(w, t)
    return {i for i, a in enumerate(w) if a <= t and reaches(table, t - a)}


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
    alpha = x.amplitude
    if alpha < 1:
        raise ValueError(f"amplitude {alpha} < 1: plurigenus formula not applicable")
    table = _raw_table(x.weights.multiplicities().items(), up_to * alpha)
    out = []
    for m in range(1, up_to + 1):
        top = m * alpha
        low = top - x.degree
        out.append(table[top] - (table[low] if low >= 0 else 0))
    return tuple(out)

"""Constructors and verifiers for the explicit hypersurface families.

Each constructor builds the weighted hypersurface for one family and returns
a report whose named checks are all computed in exact arithmetic:

* ``consecutive_family(k, l)``: degree (l+3)k(k+1) hypersurface in the space
  with k+2 weights k, 2k-1 weights k+1 and l weights k(k+1); canonical
  ambient, unit amplitude, tiny closed-form volume.
* ``vanishing_witness(n)``: the consecutive family sliced so the member has
  dimension n and its first floor((n+1)/3) - 1 plurigenera vanish, with
  volume strictly below 3^(n+1)/(n-1)^n.
* ``degree_bound_witness(n)``: the slice witnessing that no pluricanonical
  map below degree k(k+1) >= n(n-3)/9 can be generically finite (the
  top-weight variables cannot appear in those degrees).
* ``ample_witness(n)``: double covers with ample canonical class whose
  pluricanonical maps below degree n+3 (n even) / n+2 (n odd) are not
  birational.
* ``volume_witness(r, s)``: a member of assigned volume r/s, built from the
  smallest b with b*r = 1 mod s and the smallest compatible a; quasi-smooth
  with at most one, terminal, singular point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import CyclicQuotientSingularity, Weights, well_formed
from .errors import ParameterError
from .hilbert import plurigenera_table, values_present_below
from .hypersurface import WeightedHypersurface
from .singularity import SingularityClass, classify_quotient, ambient_canonical


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class FamilyReport(NamedTuple):
    family: str
    parameters: dict[str, int]
    hypersurface: WeightedHypersurface
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _consecutive_weights(k: int, l: int) -> tuple[Weights, int]:
    if k < 2:
        raise ParameterError("k must be >= 2 (the weights are not well-formed below that)")
    if l < 0:
        raise ParameterError("l must be >= 0")
    runs = ((k, k + 2), (k + 1, 2 * k - 1), (k * (k + 1), l))
    return Weights(runs=runs[: 3 if l else 2]), (l + 3) * k * (k + 1)


def _consecutive_member(
    n: int, k: int, l: int
) -> tuple[WeightedHypersurface, tuple[Check, ...]]:
    """The (k, l) member as a dimension-n witness, with the four checks that
    `thm3` and `thm4` share."""
    x = WeightedHypersurface(*_consecutive_weights(k, l))
    return x, (
        Check("weights are well-formed", well_formed(x.weights)),
        Check("ambient space is canonical", ambient_canonical(x.weights)),
        Check("amplitude is 1", x.amplitude == 1),
        Check("member dimension is n", x.dimension == n, f"dimension={x.dimension}"),
    )


def consecutive_family(k: int, l: int) -> FamilyReport:
    """Family on consecutive weights k, k+1 (and their product); id "prop"."""
    x = WeightedHypersurface(*_consecutive_weights(k, l))
    closed_form = Fraction(l + 3, k ** (k + 1 + l) * (k + 1) ** (2 * k - 2 + l))
    checks = (
        Check("weights are well-formed", well_formed(x.weights)),
        Check("ambient space is canonical", ambient_canonical(x.weights)),
        Check("amplitude is 1", x.amplitude == 1, f"amplitude={x.amplitude}"),
        Check(
            "member dimension is 3k+l-1",
            x.dimension == 3 * k + l - 1,
            f"dimension={x.dimension}",
        ),
        Check(
            "volume matches the closed form",
            x.volume() == closed_form,
            f"volume={x.volume()} expected={closed_form}",
        ),
        Check("general member is quasi-smooth", x.quasi_smooth()),
    )
    return FamilyReport(
        "prop", {"k": k, "l": l, "d": x.degree}, x, checks
    )


def vanishing_witness(n: int) -> FamilyReport:
    """Dimension-n member with plurigenera 1..floor((n+1)/3)-1 all zero; id "thm3"."""
    if n < 5:
        raise ParameterError("n must be >= 5")
    k = (n + 1) // 3
    l = n + 1 - 3 * k
    x, checks = _consecutive_member(n, k, l)

    *genera, observed = plurigenera_table(x, k)
    bound = Fraction(3 ** (n + 1), (n - 1) ** n)
    vol = x.volume()
    checks += (
        Check(
            f"plurigenera P_1..P_{k - 1} vanish",
            all(p == 0 for p in genera),
            f"values={genera}",
        ),
        Check(
            "volume below 3^(n+1)/(n-1)^n",
            vol < bound,
            f"{vol} < {bound}",
        ),
    )
    notes = (f"observed P_{k} = {observed} (reported, not asserted)",)
    return FamilyReport("thm3", {"n": n, "k": k, "l": l, "d": x.degree}, x, checks, notes)


def degree_bound_witness(n: int) -> FamilyReport:
    """Dimension-n member whose maps below degree k(k+1) miss variables; id "thm4"."""
    if n < 7:
        raise ParameterError("n must be >= 7")
    k = (n - 1) // 3
    l = n + 1 - 3 * k
    assert 2 <= l <= 4
    x, checks = _consecutive_member(n, k, l)

    obstruction = k * (k + 1)
    # the weight-obstruction variables are the only run of that value; a variable
    # appears in no degree below its weight, so this holds by the weights alone
    # for every n (ROADMAP item 9 replaces it with a non-birationality check)
    absent = not values_present_below(x.weights, obstruction).get(obstruction)
    bound = Fraction(n * (n - 3), 9)
    checks += (
        Check(
            f"weight-{obstruction} variables absent below degree {obstruction}",
            absent,
            f"checked degrees 0..{obstruction - 1}",
        ),
        Check(
            "obstruction degree at least n(n-3)/9",
            Fraction(obstruction) >= bound,
            f"{obstruction} >= {bound}",
        ),
    )
    return FamilyReport(
        "thm4",
        {"n": n, "k": k, "l": l, "d": x.degree, "obstruction_degree": obstruction},
        x,
        checks,
    )


def ample_witness(n: int) -> FamilyReport:
    """Double cover with ample canonical class; maps below n+3 / n+2 not birational."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n % 2 == 0:
        d = n + 3
        weights = (1,) * n + (2, d)
    else:
        d = n + 2
        weights = (1,) * (n + 1) + (d,)
    x = WeightedHypersurface(Weights(weights), 2 * d)

    missed = [
        (i, x.weights[i])
        for i, a in enumerate(x.weights)
        if a > 1 and not x.contains_coordinate_point(i)
    ]
    singular = [i for i, a in enumerate(x.weights) if a > 1]
    all_missed = len(missed) == len(singular)
    # the top variable is the only one of weight d; it appears in no degree below
    # d, so this holds by the weights alone for every n (ROADMAP item 9 replaces it)
    top_absent = not values_present_below(x.weights, d).get(d)
    checks = (
        Check("amplitude is 1", x.amplitude == 1),
        Check("member dimension is n", x.dimension == n, f"dimension={x.dimension}"),
        Check(
            "general member misses every ambient singular point",
            all_missed,
            f"weights at missed points: {[a for _, a in missed]}",
        ),
        Check("general member is quasi-smooth", x.quasi_smooth()),
        Check(
            f"top-weight variable absent below degree {d}",
            top_absent,
            f"checked degrees 0..{d - 1}",
        ),
    )
    notes = [
        f"maps given by degrees t < {d} drop the top variable, so none is birational",
        "member is smooth: quasi-smooth and disjoint from the singular locus",
    ]
    if n == 1:
        notes.append("the member is a smooth curve of genus 2")
    return FamilyReport(
        "ample",
        {"n": n, "d": d, "member_degree": 2 * d},
        x,
        checks,
        tuple(notes),
    )


def _smallest_a(r: int, s: int, b: int) -> int:
    """Smallest a coprime to s and b giving at least max(s, 1) unit weights."""
    if r * b <= 1:
        raise ParameterError(f"b={b} gives r*b <= 1, so no a yields a unit weight")
    a = 1
    while True:
        if math.gcd(a, s) == 1 and math.gcd(a, b) == 1:
            if r * a * b + 1 - a - s - b - 2 >= max(s, 1):
                return a
        a += 1


def volume_witness(
    r: int, s: int, a: int | None = None, b: int | None = None
) -> FamilyReport:
    """Member of exact volume r/s in weights (1^m, a, s, b), degree rab; id "volume".

    The defaults pick the smallest valid parameters; overrides must keep
    b*r = 1 mod s and a coprime to both s and b.  Reports are deterministic:
    the same (r, s) always yields the same construction.  The member is
    built, checked and printed from its runs; no m-length tuple is made, and
    no cost grows with m.
    """
    if r < 1 or s < 1:
        raise ParameterError("volume must be a ratio of positive integers")
    if math.gcd(r, s) != 1:
        raise ParameterError(f"r and s must be coprime, got gcd={math.gcd(r, s)}")

    if b is None:
        b = pow(r, -1, s) or 1  # the least b >= 1 with b*r = 1 mod s (s = 1 gives 0)
        while r * b <= 1:
            # unit-weight count m = a(rb-1) - s - b - 1 cannot reach 1 for any a
            b += s
    elif (b * r) % s != 1 % s:
        raise ParameterError(f"b={b} violates b*r = 1 mod s")
    if a is None:
        a = _smallest_a(r, s, b)
    elif math.gcd(a, s) != 1 or math.gcd(a, b) != 1:
        raise ParameterError(f"a={a} must be coprime to s={s} and b={b}")
    t = (r * b - 1) // s
    m = r * a * b + 1 - a - s - b - 2
    if m < 1:
        raise ParameterError(f"parameters give {m} unit weights; need at least one")

    # built as runs, so no m-length tuple exists on this path
    weights = Weights(runs=((1, m), (a, 1), (s, 1), (b, 1)))
    degree = r * a * b
    a_index, s_index, b_index = m, m + 1, m + 2
    x = WeightedHypersurface(weights, degree)

    checks = [
        Check("amplitude is 1", x.amplitude == 1, f"amplitude={x.amplitude}"),
        Check("weights are well-formed", well_formed(x.weights)),
        Check("general member is quasi-smooth", x.quasi_smooth()),
        Check(
            "smoothing monomial has the member's degree",
            t * a * s + a == degree,
            f"s-variable^{t * a} * a-variable has degree {t * a * s + a}",
        ),
        Check(
            "volume equals r/s",
            x.volume() == Fraction(r, s),
            f"volume={x.volume()}",
        ),
    ]
    # the first m coordinates have weight 1, so only the last three can be singular
    contained = [
        i
        for i in (a_index, s_index, b_index)
        if x.weights[i] > 1 and x.contains_coordinate_point(i)
    ]
    if s > 1:
        # the smoothing monomial s^(ta) * a removes the a-direction at the point
        member_type = CyclicQuotientSingularity(s, runs=weights.runs_without(s_index, a_index))
        expected = CyclicQuotientSingularity(s, runs=((1, m), (b, 1)))
        checks += [
            Check(
                "member meets exactly the order-s coordinate point",
                contained == [s_index],
                f"contained singular points at indices {contained}",
            ),
            Check(
                "member type at the point is 1/s(1^m, b)",
                member_type == expected,
                f"type={member_type}",
            ),
            Check(
                "member point is terminal",
                classify_quotient(member_type) == SingularityClass.TERMINAL,
            ),
        ]
    else:
        checks.append(
            Check(
                "member misses every singular coordinate point",
                contained == [],
                f"contained singular points at indices {contained}",
            )
        )
    notes = (
        f"with m={m} unit weights the ambient dimension is {m + 2} "
        f"and the member dimension {m + 1}",
    )
    return FamilyReport(
        "volume",
        {"r": r, "s": s, "a": a, "b": b, "t": t, "unit_weights": m, "d": degree},
        x,
        tuple(checks),
        notes,
    )


DEFAULT_VOLUME_TARGETS: tuple[tuple[int, int], ...] = (
    (1, 2),
    (2, 3),
    (5, 7),
    (3, 1),
    (22, 7),
    (355, 113),
)


# id -> (constructor, default values of each parameter), read by `verify_all`
# and the CLI.  Each lambda resolves its constructor by module name at call
# time, so a wrapper set on the module attribute sees every call.
FAMILIES: dict[str, tuple[Callable[..., FamilyReport], dict[str, Sequence]]] = {
    "prop": (lambda k, l: consecutive_family(k, l), {"k": range(2, 7), "l": range(0, 5)}),
    "thm3": (lambda n: vanishing_witness(n), {"n": range(5, 31)}),
    "thm4": (lambda n: degree_bound_witness(n), {"n": range(7, 31)}),
    "ample": (lambda n: ample_witness(n), {"n": range(1, 21)}),
    "volume": (lambda q: volume_witness(*q), {"q": DEFAULT_VOLUME_TARGETS}),
}
FAMILY_IDS = tuple(FAMILIES)


def verify_family(family_id: str, **values: Iterable | None) -> list[FamilyReport]:
    """Reports of one family over every combination of its parameter values,
    in parameter order; a parameter left out or None takes its defaults.  An
    empty value list is a ParameterError: it would verify nothing."""
    if family_id not in FAMILIES:
        raise ParameterError(
            f"unknown family {family_id!r}; choose from {', '.join(FAMILY_IDS)}"
        )
    constructor, defaults = FAMILIES[family_id]
    grids = [tuple(defaults[k] if values.get(k) is None else values[k]) for k in defaults]
    if empty := [k for k, grid in zip(defaults, grids) if not grid]:
        raise ParameterError(f"{family_id}: no values given for {empty[0]}")
    return [constructor(*args) for args in product(*grids)]


def verify_all() -> list[FamilyReport]:
    """Every family's reports over its default values, in registry order."""
    return [r for fid in FAMILIES for r in verify_family(fid)]

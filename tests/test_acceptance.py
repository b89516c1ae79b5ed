"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines stream.
All tolerances are exact (integer / rational equality); runtime bounds are
asserted with generous margins.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from wph.core import CyclicQuotientSingularity, Weights, well_formed
from wph.families import (
    DEFAULT_VOLUME_TARGETS,
    ample_witness,
    consecutive_family,
    degree_bound_witness,
    vanishing_witness,
    volume_witness,
)
from wph.hilbert import (
    monomial_count,
    monomial_count_enum,
    plurigenera_table,
    plurigenus,
    variables_present,
)
from wph.hypersurface import WeightedHypersurface
from wph.search import search_records
from wph.singularity import (
    SingularityClass,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    quotient_report,
)


def _reduced(q: CyclicQuotientSingularity) -> CyclicQuotientSingularity:
    """The same singularity with every weight replaced by its residue mod r."""
    return CyclicQuotientSingularity(q.order, tuple(b % q.order for b in q.weights))


def _report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_min_volume_threefold_target():
    start = time.monotonic()
    x = WeightedHypersurface(Weights((4, 5, 6, 7, 23)), 46)
    analyze_ok = (
        x.volume() == Fraction(1, 420)
        and plurigenera_table(x, 4) == (0, 0, 0, 1)
    )
    records = search_records(3, 45, vanishing=3)
    target = next((r for r in records if r.weights == (4, 5, 6, 7, 23)), None)
    search_ok = (
        target is not None
        and target.degree == 46
        and target.volume == Fraction(1, 420)
        and records[0] == target
    )
    elapsed = time.monotonic() - start
    _report(
        1,
        f"volume 1/420 with P_1..P_3 = 0, P_4 = 1; search rediscovers "
        f"(4,5,6,7,23) in {elapsed:.1f}s",
        analyze_ok and search_ok and elapsed < 60,
    )


def test_criterion_2_consecutive_family_closed_form():
    start = time.monotonic()
    ok = True
    for k in range(2, 7):
        for l in range(0, 5):
            rep = consecutive_family(k, l)
            x = rep.hypersurface
            closed = Fraction(l + 3, k ** (k + 1 + l) * (k + 1) ** (2 * k - 2 + l))
            ok = ok and rep.passed
            ok = ok and x.volume() == closed
            ok = ok and x.dimension == 3 * k + l - 1
            ok = ok and x.amplitude == 1
            ok = ok and ambient_canonical(x.weights)
    elapsed = time.monotonic() - start
    _report(2, f"closed-form volumes for k in [2,6], l in [0,4] ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_3_vanishing_plurigenera_and_volume_bound():
    start = time.monotonic()
    ok = True
    for n in range(5, 31):
        rep = vanishing_witness(n)
        x = rep.hypersurface
        k = rep.parameters["k"]
        ok = ok and rep.passed
        ok = ok and all(plurigenus(x, m) == 0 for m in range(1, k))
        bound = Fraction(3 ** (n + 1), (n - 1) ** n)
        ok = ok and x.volume() * (n - 1) ** n < 3 ** (n + 1)  # cross-multiplied
        ok = ok and x.volume() < bound
    elapsed = time.monotonic() - start
    _report(3, f"P_m = 0 below floor((n+1)/3) and volume bound, n in [5,30] ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_4_obstruction_degrees():
    start = time.monotonic()
    ok = True
    for n in range(7, 31):
        rep = degree_bound_witness(n)
        x = rep.hypersurface
        k = rep.parameters["k"]
        obstruction = k * (k + 1)
        heavy = {i for i, a in enumerate(x.weights) if a == obstruction}
        ok = ok and len(heavy) >= 2
        for t in range(obstruction):
            ok = ok and heavy.isdisjoint(variables_present(x.weights, t))
        ok = ok and 9 * obstruction >= n * (n - 3)
        ok = ok and rep.passed
    boundary = degree_bound_witness(9)
    ok = ok and Fraction(boundary.parameters["obstruction_degree"]) == Fraction(9 * 6, 9)
    elapsed = time.monotonic() - start
    _report(4, f"top-weight variables absent below k(k+1) >= n(n-3)/9, n in [7,30] ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_5_ample_witnesses():
    start = time.monotonic()
    ok = True
    for n in range(1, 21):
        rep = ample_witness(n)
        x = rep.hypersurface
        obstruction = n + 3 if n % 2 == 0 else n + 2
        ok = ok and rep.passed
        ok = ok and rep.parameters["d"] == obstruction
        for i, a in enumerate(x.weights):
            if a > 1:
                ok = ok and x.degree % a == 0  # singular points missed
        top = len(x.weights) - 1
        for t in range(obstruction):
            ok = ok and top not in variables_present(x.weights, t)
    elapsed = time.monotonic() - start
    _report(5, f"ample witnesses for n in [1,20] ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_6_assigned_volumes():
    start = time.monotonic()
    ok = True
    for r, s in DEFAULT_VOLUME_TARGETS:
        rep = volume_witness(r, s)
        x = rep.hypersurface
        ok = ok and rep.passed
        ok = ok and x.volume() == Fraction(r, s)
        ok = ok and x.quasi_smooth()
        if s > 1:
            b = rep.parameters["b"]
            m = rep.parameters["unit_weights"]
            # the general member's type at the point: where a = 1 mod s the
            # default rule removes a unit coordinate instead of the a-variable,
            # the same germ; the family's own check asserts the exact runs
            member = x.member_type_at(m + 1)
            ok = ok and _reduced(member) == _reduced(CyclicQuotientSingularity(s, (1,) * m + (b,)))
            ok = ok and classify_quotient(member) == SingularityClass.TERMINAL
            # boundary: forcing the unit-weight count under s drops the class
            dropped = [
                forced
                for forced in range(1, s)
                if classify_quotient(CyclicQuotientSingularity(s, (1,) * forced + (b,)))
                < SingularityClass.TERMINAL
            ]
            ok = ok and dropped and min(dropped) == 1
    elapsed = time.monotonic() - start
    _report(6, f"assigned volumes incl. 355/113; terminal point; class drops under s ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_7_coordinate_point_reduction_oracle():
    start = time.monotonic()
    checked = 0
    ok = True
    for length in (2, 3, 4, 5):
        for entries in itertools.product(range(1, 9), repeat=length):
            w = Weights(entries)
            if not well_formed(w):
                continue
            checked += 1
            ok = ok and ambient_canonical(w) == ambient_canonical_bruteforce(w)
    rng = random.Random(97)
    randoms = 0
    while randoms < 500:
        length = rng.randint(2, 7)
        entries = tuple(rng.randint(1, 12) for _ in range(length))
        w = Weights(entries)
        if not well_formed(w):
            continue
        randoms += 1
        ok = ok and ambient_canonical(w) == ambient_canonical_bruteforce(w)
    elapsed = time.monotonic() - start
    _report(
        7,
        f"per-order verdict == all-strata oracle on {checked} exhaustive + "
        f"{randoms} random tuples ({elapsed:.1f}s)",
        ok and elapsed < 60,
    )


def test_criterion_8_counting_oracle():
    start = time.monotonic()
    ok = True
    for length in (1, 2, 3):
        for entries in itertools.product(range(1, 6), repeat=length):
            for m in range(0, 16):
                ok = ok and monomial_count(entries, m) == monomial_count_enum(entries, m)
    rng = random.Random(431)
    for _ in range(220):
        length = rng.randint(1, 6)
        entries = tuple(rng.randint(1, 12) for _ in range(length))
        m = rng.randint(0, 50)
        ok = ok and monomial_count(entries, m) == monomial_count_enum(entries, m)
        extra = rng.randint(1, 9)
        recurrence = sum(
            monomial_count(entries, m - i * extra) for i in range(m // extra + 1)
        )
        ok = ok and monomial_count(entries + (extra,), m) == recurrence
    elapsed = time.monotonic() - start
    _report(8, f"count table == enumeration oracle; append recurrence exact ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_9_reid_tai_unit_classifications():
    start = time.monotonic()
    ok = (
        classify_quotient(CyclicQuotientSingularity(2, (1, 1)))
        == SingularityClass.CANONICAL_NOT_TERMINAL
        and classify_quotient(CyclicQuotientSingularity(2, (1, 1, 1)))
        == SingularityClass.TERMINAL
        and classify_quotient(CyclicQuotientSingularity(3, (1, 1)))
        == SingularityClass.NOT_CANONICAL
    )
    for r in range(2, 51):
        ok = ok and (
            classify_quotient(CyclicQuotientSingularity(r, (1, r - 1)))
            == SingularityClass.CANONICAL_NOT_TERMINAL
        )
    rng = random.Random(2718)
    for _ in range(220):
        r = rng.randint(2, 80)
        m = rng.randint(1, 7)
        weights = tuple(rng.randint(0, 4 * r) for _ in range(m))
        g = math.gcd(r, *weights)  # drawn faithful: order and weights divided by g
        r, weights = r // g, tuple(b // g for b in weights)
        q = CyclicQuotientSingularity(r, weights)
        reference = classify_quotient(q)
        ok = ok and quotient_report(q).minimum == quotient_report(_reduced(q)).minimum
        ok = ok and classify_quotient(_reduced(q)) == reference
        perm = list(weights)
        rng.shuffle(perm)
        ok = ok and classify_quotient(CyclicQuotientSingularity(r, tuple(perm))) == reference
    elapsed = time.monotonic() - start
    _report(9, f"unit classifications and invariances ({elapsed:.1f}s)", ok and elapsed < 30)

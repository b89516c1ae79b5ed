import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import CyclicQuotientSingularity, Weights
from wph.core import well_formed
from wph.errors import BudgetError, NotWellFormedError
from wph.singularity import (
    _BLOCK,
    SingularityClass,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    parse_quotient,
    quotient_report,
    reid_tai_sum,
)


def reduced(q: CyclicQuotientSingularity) -> CyclicQuotientSingularity:
    """The same singularity with every weight replaced by its residue mod r."""
    return CyclicQuotientSingularity(q.order, tuple(b % q.order for b in q.weights))


quotients = st.builds(
    CyclicQuotientSingularity,
    st.integers(2, 40),
    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(tuple),
)
# quotient weights given as runs with counts up to 30
repeated_quotients = st.builds(
    lambda order, runs: CyclicQuotientSingularity(order, runs=runs),
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), min_size=1, max_size=4),
)


def test_reid_tai_sum_examples():
    assert reid_tai_sum(CyclicQuotientSingularity(2, (1, 1)), 1) == 1
    assert reid_tai_sum(CyclicQuotientSingularity(3, (1, 1)), 1) == Fraction(2, 3)
    assert reid_tai_sum(CyclicQuotientSingularity(2, (0, 0, 1, 1, 1)), 1) == Fraction(3, 2)


def test_reid_tai_sum_rejects_bad_multiplier():
    s = CyclicQuotientSingularity(3, (1, 2))
    for j in (0, 3, -1):
        with pytest.raises(ValueError):
            reid_tai_sum(s, j)


def test_reid_tai_min_examples():
    assert quotient_report(CyclicQuotientSingularity(2, (1, 1))).minimum == 1
    assert quotient_report(CyclicQuotientSingularity(3, (1, 2))).minimum == 1
    assert quotient_report(CyclicQuotientSingularity(2, (1, 1, 1))).minimum == Fraction(3, 2)


def test_order_budget():
    with pytest.raises(BudgetError):
        quotient_report(CyclicQuotientSingularity(2_000_000, (1,)))


class TestClassify:
    def test_examples(self):
        assert (
            classify_quotient(CyclicQuotientSingularity(2, (1, 1)))
            == SingularityClass.CANONICAL_NOT_TERMINAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(2, (1, 1, 1)))
            == SingularityClass.TERMINAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(3, (1, 1)))
            == SingularityClass.NOT_CANONICAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(1, (7,)))
            == SingularityClass.SMOOTH
        )

    @pytest.mark.parametrize("s,b", [(2, 1), (3, 2), (5, 3), (7, 4), (11, 10)])
    def test_many_units_terminal(self, s, b):
        # 1/s(1^m, b) with m >= s and gcd(b, s) = 1 is terminal
        for m in (s, s + 1, 2 * s):
            q = CyclicQuotientSingularity(s, (1,) * m + (b,))
            assert classify_quotient(q) == SingularityClass.TERMINAL

    def test_one_and_r_minus_one(self):
        for r in range(2, 51):
            q = CyclicQuotientSingularity(r, (1, r - 1))
            assert classify_quotient(q) == SingularityClass.CANONICAL_NOT_TERMINAL
            assert quotient_report(q).minimum == 1

    def test_class_ordering(self):
        assert SingularityClass.TERMINAL.is_canonical
        assert SingularityClass.SMOOTH.is_terminal
        assert not SingularityClass.NOT_CANONICAL.is_canonical
        assert (
            SingularityClass.SMOOTH
            > SingularityClass.TERMINAL
            > SingularityClass.CANONICAL_NOT_TERMINAL
            > SingularityClass.NOT_CANONICAL
        )

    @given(quotients)
    def test_consistent_with_min(self, q):
        minimum = quotient_report(q).minimum
        expected = (
            SingularityClass.TERMINAL
            if minimum > 1
            else SingularityClass.CANONICAL_NOT_TERMINAL
            if minimum == 1
            else SingularityClass.NOT_CANONICAL
        )
        assert classify_quotient(q) == expected

    @given(quotients)
    def test_permutation_and_mod_r_invariance(self, q):
        reference = classify_quotient(q)
        assert classify_quotient(reduced(q)) == reference
        shuffled = CyclicQuotientSingularity(q.order, tuple(reversed(q.weights)))
        assert classify_quotient(shuffled) == reference

    @given(quotients)
    def test_zero_residue_weight_is_inert(self, q):
        extended = CyclicQuotientSingularity(q.order, q.weights + (q.order,))
        assert quotient_report(extended).minimum == quotient_report(q).minimum
        assert classify_quotient(extended) == classify_quotient(q)

    def test_random_invariance_batch(self):
        rng = random.Random(20260809)
        for _ in range(250):
            r = rng.randint(2, 60)
            m = rng.randint(1, 7)
            weights = tuple(rng.randint(0, 3 * r) for _ in range(m))
            q = CyclicQuotientSingularity(r, weights)
            reference = classify_quotient(q)
            perm = list(weights)
            rng.shuffle(perm)
            assert classify_quotient(CyclicQuotientSingularity(r, tuple(perm))) == reference
            assert classify_quotient(reduced(q)) == reference


def test_quasi_reflection_flag():
    # order 2 acting on one coordinate only
    assert quotient_report(CyclicQuotientSingularity(2, (0, 1))).quasi_reflection
    assert not quotient_report(CyclicQuotientSingularity(2, (1, 1))).quasi_reflection
    # verdict is unchanged by the flag
    assert (
        classify_quotient(CyclicQuotientSingularity(2, (0, 1)))
        == SingularityClass.NOT_CANONICAL
    )


def assert_report_matches_plain_scan(q):
    """Compare `quotient_report` with a plain per-j scan; returns its totals."""
    residues = [[(j * b) % q.order for b in q.weights] for j in range(1, q.order)]
    totals = [sum(row) for row in residues]
    least = min(totals)
    rep = quotient_report(q)
    assert rep.minimum == Fraction(least, q.order)
    assert rep.at_multiplier == totals.index(least) + 1
    assert rep.quasi_reflection == any(
        sum(1 for x in row if x) <= 1 for row in residues
    )
    assert rep.sclass == classify_quotient(q)
    assert [reid_tai_sum(q, j) for j in range(1, q.order)] == [
        Fraction(t, q.order) for t in totals
    ]
    return totals


@given(quotients)
def test_quotient_report_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


@given(repeated_quotients)
def test_quotient_report_on_runs_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


def test_quotient_report_contents():
    rep = quotient_report(CyclicQuotientSingularity(3, (1, 1)))
    assert rep.sclass == SingularityClass.NOT_CANONICAL
    assert rep.minimum == Fraction(2, 3)
    assert rep.at_multiplier == 1
    assert not rep.quasi_reflection
    smooth = quotient_report(CyclicQuotientSingularity(1, (4,)))
    assert smooth.sclass == SingularityClass.SMOOTH
    assert smooth.minimum is None


def _next_prime(n):
    n += 1
    while any(n % f == 0 for f in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def _block(j):
    return (j - 1) // _BLOCK


# 1/(3p)(...) with p the first prime above _BLOCK: weights divisible by 3 vanish
# exactly at j = p and 2p, which lie past the first block and in different blocks
_P = _next_prime(_BLOCK)


class TestBlockEdges:
    """The blocked scan against the plain per-j scan where blocks start and end."""

    @pytest.mark.parametrize(
        "order",
        [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, _next_prime(3 * _BLOCK)],
    )
    def test_matches_plain_scan_across_blocks(self, order):
        rng = random.Random(order)
        for size in (2, 3, 5):
            weights = tuple(rng.randrange(order) for _ in range(size))
            assert_report_matches_plain_scan(CyclicQuotientSingularity(order, weights))

    def test_tied_minimum_keeps_the_first_block(self):
        # totals are r at j = p, 2p and r + (3j mod r) elsewhere
        q = CyclicQuotientSingularity(3 * _P, (1, 3 * _P - 1, 3))
        totals = assert_report_matches_plain_scan(q)
        least = min(totals)
        ties = [j for j, t in enumerate(totals, 1) if t == least]
        assert ties == [_P, 2 * _P] and 0 < _block(_P) < _block(2 * _P)
        assert quotient_report(q).at_multiplier == _P

    @pytest.mark.parametrize(
        "weights, early_below", [((3, 3, 1), True), ((3, 3 * _P - 3, 1), False)]
    )
    def test_only_quasi_reflection_lies_past_the_first_block(self, weights, early_below):
        q = CyclicQuotientSingularity(3 * _P, weights)
        totals = assert_report_matches_plain_scan(q)
        reflecting = [
            j for j in range(1, q.order)
            if sum(c for b, c in q.runs if (j * b) % q.order) <= 1
        ]
        assert reflecting == [_P, 2 * _P] and _block(_P) > 0
        # the scan tests the flag in every block holding a total below r
        assert (min(totals[:_BLOCK]) < q.order) == early_below
        assert quotient_report(q).quasi_reflection

    def test_first_total_below_r_in_a_later_block(self):
        # totals are r + j, except j at j = p, 2p: the first below r is past block one
        q = CyclicQuotientSingularity(3 * _P, (3, 3 * _P - 3, 1))
        totals = assert_report_matches_plain_scan(q)
        below = [j for j, t in enumerate(totals, 1) if t < q.order]
        assert below == [_P, 2 * _P] and _block(below[0]) > 0
        assert classify_quotient(q) == SingularityClass.NOT_CANONICAL

    def test_memory_does_not_grow_with_the_order(self):
        q = CyclicQuotientSingularity(200_003, (1, 200_002))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = quotient_report(q)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (rep.minimum, rep.at_multiplier) == (1, 1)
        # all 200,002 totals at once would take several MB
        assert peak < 1_000_000


class TestAmbient:
    def test_examples(self):
        assert ambient_canonical(Weights((1, 1, 1, 1)))
        assert not ambient_canonical(Weights((1, 1, 3)))
        assert ambient_canonical(Weights((2, 2, 2, 2, 3, 3, 3, 6)))

    def test_rejects_non_well_formed(self):
        with pytest.raises(NotWellFormedError):
            ambient_canonical(Weights((1, 2, 2)))
        with pytest.raises(NotWellFormedError):
            ambient_canonical_bruteforce(Weights((1, 2, 2)))

    def test_bruteforce_examples(self):
        assert not ambient_canonical_bruteforce(Weights((1, 1, 3)))
        assert ambient_canonical_bruteforce(Weights((2, 2, 2, 2, 3, 3, 3)))

    @given(st.lists(st.integers(1, 12), min_size=2, max_size=7).map(tuple))
    def test_coordinate_point_reduction(self, entries):
        from wph.core import well_formed

        w = Weights(entries)
        if not well_formed(w):
            return
        assert ambient_canonical(w) == ambient_canonical_bruteforce(w)

    @given(
        st.integers(0, 40),
        st.lists(st.tuples(st.integers(2, 12), st.integers(1, 2)), min_size=1, max_size=4),
    )
    def test_one_point_per_value_on_repeats(self, units, heavy):
        # a unit run, then repeated heavy values: at most 8 heavy indices, so
        # the all-strata oracle stays small
        runs = ((1, units),) + tuple(heavy) if units else tuple(heavy)
        if sum(count for _, count in runs) < 2:
            return
        w = Weights(runs=runs)
        if not well_formed(w):
            return
        assert ambient_canonical(w) == ambient_canonical_bruteforce(w)


def test_parse_and_format():
    q = parse_quotient("1/6(2,2,3)")
    assert q == CyclicQuotientSingularity(6, (2, 2, 3))
    assert str(q) == "1/6(2,2,3)"
    assert parse_quotient("1/113(1^5,106)") == CyclicQuotientSingularity(
        113, (1, 1, 1, 1, 1, 106)
    )
    with pytest.raises(ValueError):
        parse_quotient("2/3(1)")
    with pytest.raises(ValueError):
        parse_quotient("1/6()")
    for order, weights in [(0, (1, 2)), (3, ()), (3, (1, -1))]:
        with pytest.raises(ValueError):
            CyclicQuotientSingularity(order, weights)


def test_consecutive_weight_coordinate_points_canonical():
    # the three coordinate-point shapes of the consecutive-weight family
    for k in range(2, 7):
        for l in range(0, 5):
            w = (k,) * (k + 2) + (k + 1,) * (2 * k - 1) + (k * (k + 1),) * l
            first = CyclicQuotientSingularity(k, w[1:])
            second = CyclicQuotientSingularity(k + 1, w[:k + 2] + w[k + 3 :])
            assert classify_quotient(first).is_canonical
            assert classify_quotient(second).is_canonical
            if l >= 1:
                third = CyclicQuotientSingularity(k * (k + 1), w[:-1])
                assert classify_quotient(third).is_canonical

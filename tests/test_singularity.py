import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import CyclicQuotientSingularity, Weights
from wph.core import well_formed
from wph.errors import BudgetError, NotWellFormedError
from wph.singularity import (
    SingularityClass,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    parse_quotient,
    quotient_report,
    reid_tai_min,
    reid_tai_sum,
)

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
    assert reid_tai_min(CyclicQuotientSingularity(2, (1, 1))) == 1
    assert reid_tai_min(CyclicQuotientSingularity(3, (1, 2))) == 1
    assert reid_tai_min(CyclicQuotientSingularity(2, (1, 1, 1))) == Fraction(3, 2)


def test_reid_tai_min_rejects_order_one():
    with pytest.raises(ValueError):
        reid_tai_min(CyclicQuotientSingularity(1, (1, 1)))


def test_order_budget():
    with pytest.raises(BudgetError):
        reid_tai_min(CyclicQuotientSingularity(2_000_000, (1,)))


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
            assert reid_tai_min(q) == 1

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
        minimum = reid_tai_min(q)
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
        reduced = q.reduced()
        assert classify_quotient(reduced) == reference
        shuffled = CyclicQuotientSingularity(q.order, tuple(reversed(q.weights)))
        assert classify_quotient(shuffled) == reference

    @given(quotients)
    def test_zero_residue_weight_is_inert(self, q):
        extended = CyclicQuotientSingularity(q.order, q.weights + (q.order,))
        assert reid_tai_min(extended) == reid_tai_min(q)
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
            assert classify_quotient(q.reduced()) == reference


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
    assert "min=2/3" in str(rep)
    smooth = quotient_report(CyclicQuotientSingularity(1, (4,)))
    assert smooth.sclass == SingularityClass.SMOOTH
    assert smooth.minimum is None


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

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wph.config
import wph.singularity
from wph.core import CyclicQuotientSingularity, Weights, singular_strata, well_formed
from wph.errors import BudgetError, NotWellFormedError
from wph.families import volume_witness
from wph.hypersurface import WeightedHypersurface, singularity_report
from wph.singularity import SingularityClass, ambient_canonical_bruteforce, classify_quotient


def make(weights, degree):
    return WeightedHypersurface(Weights(weights), degree)


def quasi_smooth_bruteforce(weights, degree):
    """The monomial-existence criterion read literally, over every *index*
    subset I and every index e (no value-set reduction, no reachability tables)."""
    if degree in weights:
        return True  # linear cone

    def realisable(target, values):
        hit = [True] + [False] * target
        for m in range(1, target + 1):
            hit[m] = any(v <= m and hit[m - v] for v in values)
        return hit[target]

    n = len(weights)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            values = [weights[i] for i in subset]
            if realisable(degree, values):
                continue  # (a): a monomial in I has degree d
            partners = [
                e for e in range(n)
                if weights[e] <= degree and realisable(degree - weights[e], values)
            ]
            if len(partners) < size:
                return False  # (b) fails: fewer than |I| distinct z_e
    return True


class TestBasics:
    def test_amplitude_examples(self):
        assert make((2, 2, 2, 2, 3, 3, 3), 18).amplitude == 1
        assert make((1, 1, 1), 3).amplitude == 0
        assert make((4, 5, 6, 7, 23), 46).amplitude == 1

    def test_dimension(self):
        assert make((4, 5, 6, 7, 23), 46).dimension == 3
        assert make((1, 1, 3), 6).dimension == 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make((1, 1), 3)  # member would be zero-dimensional
        with pytest.raises(ValueError):
            make((1, 1, 1), 0)


class TestVolume:
    def test_examples(self):
        assert make((4, 5, 6, 7, 23), 46).volume() == Fraction(1, 420)
        assert make((2, 2, 2, 2, 3, 3, 3), 18).volume() == Fraction(1, 24)
        assert make((1, 1, 1, 1, 5, 2, 3), 15).volume() == Fraction(1, 2)

    def test_refuses_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            make((1, 1, 1), 3).volume()
        with pytest.raises(ValueError):
            make((1, 1, 1), 2).volume()

    @given(st.lists(st.integers(1, 9), min_size=3, max_size=6).map(tuple))
    def test_amplitude_one_identity(self, weights):
        x = make(weights, sum(weights) + 1)
        assert x.volume() == Fraction(x.degree, x.weights.product())

    def test_higher_amplitude_scaling(self):
        x = make((1, 1, 1, 1), 7)  # amplitude 3, dimension 2
        assert x.volume() == Fraction(3**2 * 7, 1)


class TestContainsCoordinatePoint:
    def test_examples(self):
        x15 = make((1, 1, 1, 1, 5, 2, 3), 15)
        assert x15.contains_coordinate_point(5)  # weight 2, 2 does not divide 15
        assert not x15.contains_coordinate_point(4)  # weight 5 divides 15
        assert not x15.contains_coordinate_point(0)  # weight 1 always divides

    @given(st.lists(st.integers(1, 9), min_size=3, max_size=6).map(tuple), st.integers(1, 60))
    def test_missed_point_has_pure_power(self, weights, degree):
        from wph.hilbert import variables_present

        x = make(weights, degree)
        for i, a in enumerate(weights):
            if not x.contains_coordinate_point(i):
                # the pure power 'z_i^(d/a_i)' realises degree d using variable i
                assert i in variables_present(weights, degree)


class TestQuasiSmooth:
    def test_examples(self):
        assert make((1, 1, 5), 5).quasi_smooth()  # linear cone
        assert make((1, 1, 1, 1, 5, 2, 3), 15).quasi_smooth()
        assert not make((1, 3, 3), 2).quasi_smooth()

    def test_famous_threefold(self):
        assert make((4, 5, 6, 7, 23), 46).quasi_smooth()

    def test_distinct_values_beyond_subset_cap(self):
        # 2^21 value sets would be tried; the default cap is 20
        with pytest.raises(BudgetError, match="WPH_SUBSET_CAP to at least 21"):
            make(range(2, 23), 253).quasi_smooth()
        assert make(range(2, 23), 22).quasi_smooth()  # a linear cone needs no sets

    def test_failing_pair_condition(self):
        # degree 46 but no monomial z^c * z_e for the weight-8 variable
        assert not make((4, 5, 7, 8, 21), 46).quasi_smooth()

    def test_every_weight_divides_degree(self):
        assert make((2, 2, 2, 2, 3, 3, 3, 6), 24).quasi_smooth()

    def test_huge_unit_block_is_cheap(self):
        weights = (1,) * 37409 + (1, 113, 106)
        assert make(weights, 37630).quasi_smooth()


class TestQuasiSmoothOracle:
    def test_value_set_reduction_matches_index_subsets(self):
        # exhaustive over multisets: length 3-5, weights <= 7, d in sum+1..sum+3
        checked = 0
        for length in (3, 4, 5):
            for entries in combinations_with_replacement(range(1, 8), length):
                for degree in range(sum(entries) + 1, sum(entries) + 4):
                    assert make(entries, degree).quasi_smooth() == quasi_smooth_bruteforce(
                        entries, degree
                    ), (entries, degree)
                    checked += 1
        assert checked == 3 * (84 + 210 + 462)

    def test_unsorted_and_small_degrees(self):
        # coordinate order and degrees at or below a weight (linear cones)
        rng = random.Random(53)
        for _ in range(300):
            entries = tuple(rng.randint(1, 9) for _ in range(rng.randint(3, 6)))
            degree = rng.randint(1, sum(entries) + 5)
            assert make(entries, degree).quasi_smooth() == quasi_smooth_bruteforce(
                entries, degree
            ), (entries, degree)


class TestMemberTypes:
    def test_generic_removal_matches_degree_residue(self):
        x46 = make((4, 5, 6, 7, 23), 46)
        # at the weight-6 point the lost direction has residue 46 mod 6 = 4
        assert x46.member_type_at(2) == CyclicQuotientSingularity(6, (5, 7, 23))
        # at the weight-4 point, residue 2: the weight-6 variable is removed
        assert x46.member_type_at(0) == CyclicQuotientSingularity(4, (5, 7, 23))

    def test_a_space_that_is_not_well_formed_is_named_not_its_germ(self):
        # P(2, 2, 4, 4): at point 0 the member drops a weight-2 direction, which
        # leaves 1/2(4, 4), not faithful; the fault is the space's, and it is named
        x = make((2, 2, 4, 4), 10)
        with pytest.raises(NotWellFormedError, match=r"^weights 2,2,4,4 are not well-formed$"):
            x.member_type_at(0)
        # a faithful germ is returned, well-formed space or not: P(1, 2, 2, 4) is not
        assert make((1, 2, 2, 4), 10).member_type_at(3) == CyclicQuotientSingularity(4, (1, 2))

    def test_induced_singularities_on_the_min_volume_threefold(self):
        induced = dict(induced_by_index((4, 5, 6, 7, 23), 46))
        assert set(induced) == {(0,), (1,), (2,), (3,), (0, 2)}
        assert all(
            classify_quotient(q) == SingularityClass.TERMINAL for q in induced.values()
        )
        assert make((4, 5, 6, 7, 23), 46).member_canonical()

    def test_member_not_canonical_when_induced_point_fails(self):
        # 42 mod 9 = 6; induced type at the weight-9 point is 1/9(5,7,5), min 7/9
        x = make((5, 6, 7, 9, 14), 42)
        assert x.quasi_smooth()
        assert not x.member_canonical()

    def test_missing_direction_is_not_canonical(self):
        # no weight is 11 mod 6 at the weight-6 point, none 5 mod 3 along the
        # weight-3 stratum: neither member is quasi-smooth, and neither verdict
        # is True
        for weights, degree in [((1, 1, 2, 6), 11), ((1, 3, 3), 5)]:
            assert induced_by_index(weights, degree) is None
            assert not make(weights, degree).quasi_smooth()
            assert make(weights, degree).member_canonical() is False

    def test_contained_stratum_drops_a_transverse_direction(self):
        # odd degree: the weight-2 stratum carries no degree-15 monomial, so the
        # member contains it and loses one transverse direction of residue 1
        assert make((2, 2, 5, 5), 15).quasi_smooth()
        induced = dict(induced_by_index((2, 2, 5, 5), 15))
        germ = induced[(0, 1)]
        assert germ.order == 2
        # one zero along the stratum, transverse (5,5) minus one odd entry
        assert sorted(b % 2 for b in germ.weights) == [0, 1]
        # the weight-5 stratum is cut in a divisor: transverse type unchanged
        assert induced[(2, 3)].order == 5
        assert sorted(b % 5 for b in induced[(2, 3)].weights) == [0, 2, 2]
        # the per-order germ of order 2 is the contained one: 1/2(0, 5)
        assert classify_quotient(germ) == SingularityClass.NOT_CANONICAL
        assert not make((2, 2, 5, 5), 15).member_canonical()


def canonical_by_index(weights, degree):
    """The member verdict from the per-subset germs of `induced_by_index`."""
    induced = induced_by_index(weights, degree)
    return induced is not None and all(classify_quotient(q).is_canonical for _, q in induced)


def member_type_by_index(weights, degree, point):
    """`member_type_at` read per coordinate: drop the point and the first
    other index e with a_e = d mod a_point and a_e <= d."""
    a = weights[point]
    removed = next(
        (
            e
            for e, w in enumerate(weights)
            if e != point and w % a == degree % a and w <= degree
        ),
        None,
    )
    if removed is None:
        return None
    rest = tuple(w for i, w in enumerate(weights) if i not in (point, removed))
    return CyclicQuotientSingularity(a, rest)


def induced_by_index(weights, degree):
    """(indices, member germ) along every met singular stratum, walking each
    index subset; None where a met stratum has no residue-matched direction.
    A point is met iff its weight fails to divide d; a larger stratum is met
    always, cut (a monomial over it has degree d) or contained (one
    transverse direction of residue d mod h is lost)."""
    out = []
    for stratum in singular_strata(Weights(weights)):
        indices, h = stratum.indices, stratum.order
        if len(indices) == 1:
            if degree % h == 0:
                continue  # the point is missed
            member = member_type_by_index(weights, degree, indices[0])
            if member is None:
                return None
            out.append((indices, member))
            continue
        transverse = [w for i, w in enumerate(weights) if i not in indices]
        hit = [True] + [False] * degree  # degrees realisable over the stratum
        for m in range(1, degree + 1):
            hit[m] = any(weights[i] <= m and hit[m - weights[i]] for i in indices)
        if not hit[degree]:
            pick = next((j for j, w in enumerate(transverse) if w % h == degree % h), None)
            if pick is None:
                return None
            del transverse[pick]
        germ = (0,) * (len(indices) - 1) + tuple(transverse)
        out.append((indices, CyclicQuotientSingularity(h, germ)))
    return out


# few distinct values, each repeated up to 6 times in a row, at least 3 entries
repeated_tuples = (
    st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), min_size=1, max_size=5)
    .map(lambda runs: tuple(a for a, count in runs for _ in range(count)))
    .filter(lambda entries: len(entries) >= 3)
)


# up to 4 unit weights ahead of repeated values, at most 11 entries
unit_padded_tuples = st.tuples(
    st.integers(0, 4), repeated_tuples.filter(lambda entries: len(entries) <= 7)
).map(lambda pair: (1,) * pair[0] + pair[1])


class TestMemberTypeRuns:
    @given(repeated_tuples.filter(well_formed), st.integers(1, 90))
    def test_matches_index_removal(self, entries, degree):
        # well-formed, so every germ is faithful: a common factor of the order
        # and the rest would divide all weights but the removed one
        x = make(entries, degree)
        for point in range(len(entries)):
            assert x.member_type_at(point) == member_type_by_index(entries, degree, point)

    @pytest.mark.parametrize(
        "r,s,text",
        [
            (752, 601, "1^301300,601,402"),  # a = 1 merges into the unit run
            (22, 7, "1^13,7,1"),  # b = 1: s splits the unit weights in two runs
        ],
    )
    def test_volume_members(self, r, s, text):
        rep = volume_witness(r, s)
        x = rep.hypersurface
        assert str(x.weights) == text
        entries = x.weights.entries
        s_index = rep.parameters["unit_weights"] + 1
        assert x.member_type_at(s_index) == member_type_by_index(
            entries, x.degree, s_index
        )


class TestMemberCanonicalOracle:
    """`member_canonical` (one germ per order) against the walk over every
    index subset, on quasi-smooth members, where both are meaningful; the
    spaces are well-formed, so that every index germ is faithful."""

    @given(
        repeated_tuples.filter(lambda entries: len(entries) <= 10 and well_formed(entries)),
        st.integers(1, 60),
    )
    def test_matches_index_oracle_on_repeated_tuples(self, entries, degree):
        x = make(entries, degree)
        if x.quasi_smooth():
            assert x.member_canonical() == canonical_by_index(entries, degree)

    @given(unit_padded_tuples.filter(well_formed), st.integers(1, 60))
    def test_the_walk_on_raw_counts_matches_the_index_oracle_on_any_member(self, entries, degree):
        # quasi-smooth or not, as the search asks it before `quasi_smooth`
        walk = wph.singularity.member_walk(Counter(entries))(degree, wph.config._cap("WPH_ORDER_CAP"))
        assert walk == make(entries, degree).member_canonical() == canonical_by_index(entries, degree)

    def test_matches_index_oracle_exhaustively(self):
        # well-formed multisets of length 3-5, weights <= 11; degrees
        # sum+1..sum+3 and one degree divisible by two of the weights (so some
        # h divides d)
        checked = 0
        for length in (3, 4, 5):
            for entries in combinations_with_replacement(range(1, 12), length):
                if not well_formed(entries):
                    continue
                degrees = set(range(sum(entries) + 1, sum(entries) + 4))
                degrees.add(math.lcm(entries[-2], entries[-1]))
                for degree in sorted(degrees):
                    x = make(entries, degree)
                    if x.quasi_smooth():
                        assert x.member_canonical() == canonical_by_index(
                            entries, degree
                        ), (entries, degree)
                        checked += 1
        assert checked == 3069


@pytest.fixture(scope="module")
def quasi_smooth_members():
    """Every well-formed, quasi-smooth member with 4-6 weights of sum <= 24
    and amplitude 1-4 (1,869 of them, 1,106 not member-canonical): the pool
    the germ-cache differential draws from."""
    return [
        (entries, sum(entries) + amplitude)
        for length in (4, 5, 6)
        for entries in combinations_with_replacement(range(1, 22), length)
        if sum(entries) <= 24 and well_formed(Weights(entries))
        for amplitude in (1, 2, 3, 4)
        if make(entries, sum(entries) + amplitude).quasi_smooth()
    ]


class TestGermCache:
    """`member_canonical` classifies each germ once per process."""

    @given(data=st.data())
    def test_cached_verdicts_match_uncached_ones(self, quasi_smooth_members, data):
        entries, degree = data.draw(st.sampled_from(quasi_smooth_members))
        x = make(entries, degree)
        cached = x.member_canonical()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wph.singularity, "_germ_class", wph.singularity._germ_class.__wrapped__)
            assert x.member_canonical() == cached
        assert canonical_by_index(entries, degree) == cached  # no germ cache at all

    def test_a_warm_cache_does_not_hide_a_lowered_order_cap(self, monkeypatch):
        x = make((4, 5, 6, 7, 23), 46)
        assert x.member_canonical()  # every germ of x is now cached
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        with pytest.raises(BudgetError, match="group order 7.*WPH_ORDER_CAP"):
            x.member_canonical()
        monkeypatch.delenv("WPH_ORDER_CAP")
        assert x.member_canonical()

    def test_the_order_cap_is_read_once_per_call_and_checked_cold(self, monkeypatch):
        reads = []
        cap = wph.config._cap
        monkeypatch.setattr(wph.config, "_cap", lambda name: reads.append(name) or cap(name))
        x = make((4, 5, 6, 7, 23), 46)
        wph.singularity._germ_class.cache_clear()
        assert x.member_canonical()  # cold, and the scans read no cap
        assert reads == ["WPH_ORDER_CAP"]
        reads.clear()
        hits = wph.singularity._germ_class.cache_info().hits
        assert x.member_canonical()
        assert reads == ["WPH_ORDER_CAP"] and wph.singularity._germ_class.cache_info().hits > hits + 1
        wph.singularity._germ_class.cache_clear()
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        with pytest.raises(BudgetError, match=r"^group order 7, above the cap 6 \(set WPH_ORDER_CAP"):
            x.member_canonical()


class TestSingularityReport:
    def test_x15_report(self):
        x = make((1, 1, 1, 1, 5, 2, 3), 15)
        report = singularity_report(x)
        met = [p for p in report.points if p.meets_member]
        assert [p.index for p in met] == [5]
        # 15 mod 2 = 1: the first unit coordinate is the removed direction
        assert met[0].member_type == CyclicQuotientSingularity(2, (1, 1, 1, 5, 3))
        assert met[0].member_class == SingularityClass.TERMINAL
        assert report.quasi_smooth and report.member_canonical is True

    def test_x10_report_all_points_missed(self):
        x = make((1, 1, 2, 5), 10)
        report = singularity_report(x)
        assert len(report.points) == 2
        assert not any(p.meets_member for p in report.points)
        assert all(p.member_type is None and p.member_class is None for p in report.points)
        assert not report.ambient_canonical  # the 1/5(1,1,2) point is not canonical
        assert report.member_canonical is True  # nothing met

    def test_straight_projective_space_empty(self):
        report = singularity_report(make((1, 1, 1, 1), 5))
        assert report.points == ()
        assert report.strata == ()
        assert report.ambient_canonical

    def test_requires_well_formed(self):
        with pytest.raises(NotWellFormedError):
            singularity_report(make((1, 2, 2), 6))

    def test_strata_entries(self):
        report = singularity_report(make((4, 5, 6, 7, 23), 46))
        assert [(s.indices, s.order) for s in report.strata] == [((0, 2), 2)]
        assert report.classes[report.strata[0].order] == SingularityClass.TERMINAL
        assert report.member_canonical is True

    def test_verdict_only_when_quasi_smooth(self):
        report = singularity_report(make((1, 1, 2, 6), 11))
        assert not report.quasi_smooth
        assert report.member_canonical is None
        # met points still show their germ, or None where no direction matches
        assert [(p.index, p.member_type) for p in report.points if p.meets_member] == [
            (2, CyclicQuotientSingularity(2, (1, 6))),
            (3, None),
        ]

    def test_verdict_from_a_stratum(self):
        # the points are canonical or missed; only the met [2, 3] stratum fails
        report = singularity_report(make((1, 2, 5, 5), 15))
        assert report.quasi_smooth and report.member_canonical is False
        assert all(
            p.member_class.is_canonical for p in report.points if p.meets_member
        )
        assert [s.indices for s in report.strata] == [(2, 3)]

    @given(repeated_tuples.filter(lambda e: len(e) <= 10 and well_formed(e)), st.integers(1, 60))
    def test_matches_member_canonical(self, entries, degree):
        x = make(entries, degree)
        report = singularity_report(x)
        assert report.member_canonical == (x.member_canonical() if x.quasi_smooth() else None)
        for p in report.points:
            expected = member_type_by_index(entries, degree, p.index) if p.meets_member else None
            assert p.member_type == expected
        # the report cannot contradict itself: a quasi-smooth member has a type
        # at every met point, and a canonical verdict covers every met point
        met = [p for p in report.points if p.meets_member]
        if report.quasi_smooth:
            assert all(p.member_type is not None for p in met)
        if report.member_canonical is True:
            assert all(p.member_class.is_canonical for p in met)
        # the one class per order is the class of every point and stratum of that order
        w = Weights(entries)
        located = [(p.index, p.ambient_type.order) for p in report.points]
        located += [(s.indices[0], s.order) for s in report.strata]
        assert sorted(report.classes) == sorted({order for _, order in located})
        for k, order in located:
            q = CyclicQuotientSingularity(order, runs=w.runs_without(k))
            assert report.classes[order] == classify_quotient(q), (k, order)
        assert report.ambient_canonical == ambient_canonical_bruteforce(entries)


class TestVolumeFamilyBoundary:
    def test_terminal_exactly_certified_above_s(self):
        # member type 1/s(1^m, b): m >= s forces terminal...
        for s, b in [(2, 3), (3, 2), (7, 3), (7, 1), (113, 106)]:
            q = CyclicQuotientSingularity(s, (1,) * s + (b,))
            from wph.singularity import classify_quotient

            assert classify_quotient(q) == SingularityClass.TERMINAL

    def test_class_drops_below_terminal_for_some_m_under_s(self):
        # ...and at m = 1 the multiplier j = 1 gives (1 + b mod s)/s <= 1
        from wph.singularity import classify_quotient, reid_tai_sum

        for s, b in [(2, 3), (3, 2), (7, 3), (7, 1), (113, 106)]:
            q = CyclicQuotientSingularity(s, (1, b))
            assert reid_tai_sum(q, 1) <= 1
            assert classify_quotient(q) < SingularityClass.TERMINAL

    def test_drop_not_always_at_s_minus_one(self):
        # m = s-1 can stay terminal: 1/3(1,1,2) has minimum 4/3
        from wph.singularity import classify_quotient, quotient_report

        q = CyclicQuotientSingularity(3, (1, 1, 2))
        assert quotient_report(q).minimum == Fraction(4, 3)
        assert classify_quotient(q) == SingularityClass.TERMINAL

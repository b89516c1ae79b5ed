import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import (
    CyclicQuotientSingularity,
    StratumRecord,
    Weights,
    coordinate_point_types,
    format_entries,
    parse_entries,
    singular_strata,
    stratum_quotient_type,
    well_formed,
)
from wph.errors import NotSingularError
from wph.singularity import reid_tai_min

weight_tuples = st.lists(st.integers(1, 12), min_size=2, max_size=7).map(tuple)


class TestWeights:
    def test_construction_and_accessors(self):
        w = Weights((4, 5, 6, 7, 23))
        assert len(w) == 5
        assert w[4] == 23
        assert w.total() == 45
        assert w.product() == 19320
        assert w.without(0) == (5, 6, 7, 23)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Weights((3,))
        with pytest.raises(ValueError):
            Weights((1, 0))
        with pytest.raises(ValueError):
            Weights((1, -2))

    def test_parse_round_trip(self):
        w = Weights.parse("4,5,6,7,23")
        assert w.entries == (4, 5, 6, 7, 23)
        assert str(w) == "4,5,6,7,23"
        assert Weights.parse(str(w)) == w

    def test_parse_run_compression(self):
        w = Weights.parse("1^4,5,2,3")
        assert w.entries == (1, 1, 1, 1, 5, 2, 3)
        assert str(Weights((1,) * 6 + (2,))) == "1^6,2"
        assert parse_entries(format_entries((1,) * 37410 + (113, 106))) == (1,) * 37410 + (113, 106)


class TestWellFormed:
    def test_examples(self):
        assert well_formed(Weights((1, 1, 1)))
        assert not well_formed(Weights((1, 2, 2)))
        assert well_formed(Weights((2, 2, 2, 2, 3, 3, 3, 6)))

    @given(weight_tuples)
    def test_permutation_invariant(self, entries):
        w = Weights(entries)
        assert well_formed(w) == well_formed(Weights(tuple(sorted(entries))))
        assert well_formed(w) == well_formed(Weights(tuple(reversed(entries))))

    @given(weight_tuples)
    def test_matches_naive_definition(self, entries):
        naive = all(
            math.gcd(*entries[:i], *entries[i + 1 :]) == 1 for i in range(len(entries))
        )
        assert well_formed(Weights(entries)) == naive


class TestSingularStrata:
    def test_examples(self):
        assert [(s.indices, s.order) for s in singular_strata(Weights((1, 1, 2)))] == [
            ((2,), 2)
        ]
        assert singular_strata(Weights((1, 1, 1, 1))) == []
        assert [
            (s.indices, s.order) for s in singular_strata(Weights((4, 5, 6, 7, 23)))
        ] == [((0,), 4), ((1,), 5), ((2,), 6), ((3,), 7), ((4,), 23), ((0, 2), 2)]

    @given(weight_tuples)
    def test_each_stratum_divides_and_is_exact(self, entries):
        w = Weights(entries)
        for stratum in singular_strata(w):
            assert all(w[i] % stratum.order == 0 for i in stratum.indices)
            assert math.gcd(*(w[i] for i in stratum.indices)) == stratum.order
            # adding an index whose weight the factor does not divide shrinks the gcd
            for j in range(len(w)):
                if j not in stratum.indices and w[j] % stratum.order != 0:
                    grown = math.gcd(*(w[i] for i in stratum.indices), w[j])
                    assert grown < stratum.order

    @given(weight_tuples)
    def test_complete_against_full_enumeration(self, entries):
        from itertools import combinations

        w = Weights(entries)
        expected = []
        for size in range(1, len(entries) + 1):
            for subset in combinations(range(len(entries)), size):
                h = math.gcd(*(entries[i] for i in subset))
                if h > 1:
                    expected.append((subset, h))
        assert [(s.indices, s.order) for s in singular_strata(w)] == expected

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            StratumRecord((), 2)
        with pytest.raises(ValueError):
            StratumRecord((0,), 1)


class TestStratumQuotientType:
    def test_examples(self):
        q = stratum_quotient_type(Weights((4, 5, 6, 7, 23)), {0, 2}, 0)
        assert q == CyclicQuotientSingularity(2, (5, 6, 7, 23))
        q = stratum_quotient_type(Weights((1, 1, 2)), {2}, 2)
        assert q == CyclicQuotientSingularity(2, (1, 1))
        q = stratum_quotient_type(Weights((2, 2, 2, 2, 3, 3, 3, 6)), {7}, 7)
        assert q == CyclicQuotientSingularity(6, (2, 2, 2, 2, 3, 3, 3))

    def test_errors(self):
        w = Weights((4, 5, 6, 7, 23))
        with pytest.raises(ValueError):
            stratum_quotient_type(w, {0, 2}, 1)
        with pytest.raises(NotSingularError):
            stratum_quotient_type(w, {0, 1}, 0)

    @given(weight_tuples)
    def test_omitted_index_does_not_change_reid_tai_min(self, entries):
        w = Weights(entries)
        for stratum in singular_strata(w):
            mins = {
                reid_tai_min(stratum_quotient_type(w, stratum.indices, k))
                for k in stratum.indices
            }
            assert len(mins) == 1


class TestCoordinatePointTypes:
    def test_examples(self):
        assert coordinate_point_types(Weights((1, 1, 1, 1))) == []
        assert coordinate_point_types(Weights((1, 1, 2, 5))) == [
            (2, CyclicQuotientSingularity(2, (1, 1, 5))),
            (3, CyclicQuotientSingularity(5, (1, 1, 2))),
        ]
        points = coordinate_point_types(Weights((2, 2, 2, 2, 3, 3, 3)))
        assert [k for k, _ in points] == [0, 1, 2, 3, 4, 5, 6]
        assert all(q.order == 2 for k, q in points[:4])
        assert all(q.order == 3 for k, q in points[4:])

    @given(weight_tuples)
    def test_equals_singleton_strata(self, entries):
        w = Weights(entries)
        singles = [
            (s.indices[0], stratum_quotient_type(w, s.indices, s.indices[0]))
            for s in singular_strata(w)
            if len(s.indices) == 1
        ]
        assert coordinate_point_types(w) == singles

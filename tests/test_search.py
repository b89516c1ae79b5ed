import os
from fractions import Fraction

import pytest

import wph.search
from wph.core import Weights, well_formed
from wph.errors import BudgetError, EmptySearchError
from wph.hilbert import plurigenera_table
from wph.hypersurface import WeightedHypersurface
from wph.search import (
    SearchRecord,
    enumerate_candidates,
    find_min_volume,
    search_records,
)


class TestEnumeration:
    def test_surface_example(self):
        records = list(enumerate_candidates(2, 4))
        assert [r.weights for r in records] == [(1, 1, 1, 1)]
        assert records[0].degree == 5
        assert records[0].volume == 5

    def test_amplitude_one_identity(self):
        for record in enumerate_candidates(3, 10):
            assert record.volume == Fraction(
                record.degree, Weights(record.weights).product()
            )
            assert record.degree == sum(record.weights) + 1

    def test_weights_nondecreasing_and_bounded(self):
        for record in enumerate_candidates(2, 8):
            assert list(record.weights) == sorted(record.weights)
            assert sum(record.weights) <= 8

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            list(enumerate_candidates(1, 5))

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(enumerate_candidates(2, 10_000))


class TestReverification:
    def test_records_reverify_through_the_analysis_pipeline(self):
        for record in search_records(2, 12, plurigenera_up_to=2):
            w = Weights(record.weights)
            assert well_formed(w)
            x = WeightedHypersurface(w, record.degree)
            assert x.quasi_smooth()
            assert x.member_canonical()
            assert x.volume() == record.volume
            assert plurigenera_table(x, 2) == record.plurigenera
            assert x.amplitude == record.amplitude == 1


class TestDeterminismAndParallelism:
    def test_parallel_merge_matches_serial(self):
        serial = search_records(2, 10, plurigenera_up_to=1)
        parallel = search_records(2, 10, plurigenera_up_to=1, jobs=2)
        assert serial == parallel

    def test_sorted_by_volume_then_weights(self):
        records = search_records(2, 10)
        keys = [r.sort_key for r in records]
        assert keys == sorted(keys)

    def test_repeat_runs_identical(self):
        assert search_records(2, 9) == search_records(2, 9)

    def test_worker_count_is_clamped(self, monkeypatch):
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(wph.search, "ProcessPoolExecutor", InlinePool)
        records = search_records(2, 10, plurigenera_up_to=1, jobs=10_000)
        assert records == search_records(2, 10, plurigenera_up_to=1)
        # two leading weights (1 and 2) can start at most two workers
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        assert requested == [min(2, cpus)]


class TestLiteratureAnchors:
    @pytest.mark.parametrize("max_sum", [9, 20, 40])
    def test_canonical_surfaces_with_trivial_amplitude(self, max_sum):
        # X_5 in P^3, X_6 in P(1,1,1,2), X_8 in P(1,1,1,4), X_10 in P(1,1,2,5)
        found = [(r.weights, r.degree) for r in search_records(2, max_sum)]
        assert sorted(found) == [
            ((1, 1, 1, 1), 5),
            ((1, 1, 1, 2), 6),
            ((1, 1, 1, 4), 8),
            ((1, 1, 2, 5), 10),
        ]

    @pytest.mark.parametrize("max_sum", [45, 60])
    def test_iano_fletcher_23_threefolds(self, max_sum):
        # Iano-Fletcher's list: 23 quasi-smooth canonical 3-folds with K = O(1)
        records = search_records(3, max_sum)
        assert len(records) == 23
        assert records[0].weights == (4, 5, 6, 7, 23)


class TestFindMinVolume:
    def test_min_volume_threefold_rediscovered(self):
        best = find_min_volume(3, 45, vanishing=3)
        assert best.weights == (4, 5, 6, 7, 23)
        assert best.degree == 46
        assert best.volume == Fraction(1, 420)
        assert best.plurigenera == (0, 0, 0)

    def test_surface_minimum_in_small_range(self):
        best = find_min_volume(2, 5)
        assert best.weights == (1, 1, 1, 2)
        assert best.volume == 3
        assert best.volume >= 1  # observed in this range, not asserted in general

    def test_empty_result_error(self):
        with pytest.raises(EmptySearchError):
            find_min_volume(3, 4)  # five positive weights cannot sum to 4
        with pytest.raises(EmptySearchError):
            find_min_volume(2, 8, vanishing=3)  # needs min weight >= 4, sum >= 16

    def test_vanishing_filter_requires_enough_genera(self):
        record = SearchRecord((1, 1, 1, 1), 5, 1, Fraction(5), (0,))
        with pytest.raises(ValueError):
            record.vanishing_at_least(2)

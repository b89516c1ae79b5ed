import concurrent.futures
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wph.hypersurface
import wph.search
from wph.core import Weights, well_formed
from wph.errors import BudgetError
from wph.hilbert import plurigenera_table
from wph.hypersurface import WeightedHypersurface
from wph.search import (
    SearchRecord,
    _degree_tuples,
    _nondecreasing_tuples,
    enumerate_candidates,
    search_records,
)


def _singleton_condition(weights, degree):
    """Every a_i divides d or divides d - a_j for some j: the one-value case of
    the quasi-smoothness criterion, hence necessary for `quasi_smooth` when d
    exceeds every weight (no linear cone).  The oracle of `_degree_tuples`."""
    for a in set(weights):
        r = degree % a
        if r:
            for b in weights:
                if b % a == r:  # a | d - b
                    break
            else:
                return False
    return True


def oracle_records(member_dim, max_sum, amplitude, up_to=0):
    """Every nondecreasing tuple through the full checks, with no generator
    cut: the search by its definition."""
    out = []
    for weights in _nondecreasing_tuples(member_dim + 2, max_sum, 1):
        w = Weights(weights)
        if not well_formed(w):
            continue
        x = WeightedHypersurface(w, w.total() + amplitude)
        if x.quasi_smooth() and x.member_canonical():
            genera = plurigenera_table(x, up_to)
            out.append(SearchRecord(weights, x.degree, amplitude, x.volume(), genera))
    return out


def well_formed_hypersurface(weights, degree):
    """Iano-Fletcher Thm 6.10: the ambient is well-formed and the gcd of any
    n - 1 of the n + 1 weights divides the degree."""
    n = len(weights)
    return well_formed(weights) and all(
        degree % math.gcd(*(a for k, a in enumerate(weights) if k not in pair)) == 0
        for pair in combinations(range(n), 2)
    )


SMALL_BOUNDS = {2: 30, 3: 32, 4: 26}


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

    def test_rejects_jobs_below_one(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            search_records(2, 10, jobs=0)

    def test_rejects_amplitude_below_one(self):
        with pytest.raises(ValueError, match="amplitude must be >= 1"):
            search_records(2, 12, amplitude=0)


class TestDegreeDrivenGenerator:
    @pytest.mark.parametrize("member_dim", [2, 3, 4])
    @pytest.mark.parametrize("amplitude", [1, 2, 3])
    def test_records_match_the_unfiltered_enumeration(self, member_dim, amplitude):
        max_sum = SMALL_BOUNDS[member_dim]
        assert list(enumerate_candidates(member_dim, max_sum, amplitude, 2)) == (
            oracle_records(member_dim, max_sum, amplitude, 2)
        )

    def test_huge_amplitude(self):
        records = list(enumerate_candidates(2, 12, 10**6))
        assert records == oracle_records(2, 12, 10**6)
        assert len(records) == 8

    @pytest.mark.parametrize(
        "length,max_sum,amplitude",
        [(4, 30, 1), (5, 28, 2), (6, 24, 7), (4, 30, 10**6), (6, 30, 1)],
    )
    def test_generator_equals_the_enumeration_filtered_by_the_singleton_oracle(
        self, length, max_sum, amplitude
    ):
        generated = [
            t
            for lead in range(1, max_sum // length + 1)
            for t in _degree_tuples(lead, length, max_sum, amplitude)
        ]
        expected = [
            t
            for t in _nondecreasing_tuples(length, max_sum, 1)
            if _singleton_condition(t, sum(t) + amplitude)
        ]
        assert generated == expected  # same tuples, same lexicographic order

    def test_spare_room(self):
        for spare in (0, 1, 2):
            got = list(_nondecreasing_tuples(3, 20, 2, spare))
            assert got == [
                t
                for t in _nondecreasing_tuples(3, 20, 2)
                if sum(t) + spare * t[-1] <= 20
            ]

    @given(
        st.lists(st.integers(1, 30), min_size=3, max_size=6),
        st.integers(1, 12),
    )
    def test_prefilter_rejects_only_non_quasi_smooth(self, weights, amplitude):
        degree = sum(weights) + amplitude
        if not _singleton_condition(tuple(weights), degree):
            assert not WeightedHypersurface(Weights(weights), degree).quasi_smooth()

    def test_prefilter_rejects_only_non_quasi_smooth_exhaustive(self):
        # every multiset of length 3-5 with weights <= 9, amplitudes 1-3
        rejected = 0
        for length in (3, 4, 5):
            for weights in combinations_with_replacement(range(1, 10), length):
                for amplitude in (1, 2, 3):
                    degree = sum(weights) + amplitude
                    if not _singleton_condition(weights, degree):
                        rejected += 1
                        x = WeightedHypersurface(Weights(weights), degree)
                        assert not x.quasi_smooth(), (weights, degree)
        assert rejected > 1000

    @pytest.mark.parametrize("member_dim", [2, 3, 4])
    @pytest.mark.parametrize("amplitude", [1, 2, 3])
    def test_records_are_well_formed_hypersurfaces(self, member_dim, amplitude):
        records = search_records(member_dim, SMALL_BOUNDS[member_dim], amplitude)
        assert records
        for record in records:
            assert well_formed_hypersurface(record.weights, record.degree), record


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

    def test_cold_and_warm_germ_caches_give_the_same_records(self):
        wph.hypersurface._germ_class.cache_clear()
        cold = search_records(3, 45)
        warm = search_records(3, 45)
        assert wph.hypersurface._germ_class.cache_info().hits > 0
        assert cold == warm == search_records(3, 45, jobs=2)
        assert len(cold) == 23

    def test_serial_search_leaves_the_pool_unimported(self):
        # the pool's modules cost every `import wph.cli` 30-40 ms
        code = (
            "import sys, wph.cli; wph.cli.run(['search', '--dim', '2', '--max-sum', '9']); "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')), file=sys.stderr)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wph.search.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0 and "(1,1,1,2) d=6 vol=3" in done.stdout
        assert done.stderr == "[]\n"

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

        # the pool is imported when a search asks for more than one job
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
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

    @pytest.mark.parametrize("max_sum", [45, 60, 80])
    def test_iano_fletcher_23_threefolds(self, max_sum):
        # Iano-Fletcher's list: 23 quasi-smooth canonical 3-folds with K = O(1)
        records = search_records(3, max_sum)
        assert len(records) == 23
        assert records[0].weights == (4, 5, 6, 7, 23)
        assert str(records[0]) == "(4,5,6,7,23) d=46 vol=1/420"


class TestFindMinVolume:
    def test_min_volume_threefold_rediscovered(self):
        best = search_records(3, 45, vanishing=3)[0]
        assert best.weights == (4, 5, 6, 7, 23)
        assert best.degree == 46
        assert best.volume == Fraction(1, 420)
        assert best.plurigenera == (0, 0, 0)

    def test_surface_minimum_in_small_range(self):
        best = search_records(2, 5)[0]
        assert best.weights == (1, 1, 1, 2)
        assert best.volume == 3
        assert best.volume >= 1  # observed in this range, not asserted in general

    def test_empty_result_error(self):
        assert search_records(3, 4) == []  # five positive weights cannot sum to 4
        assert search_records(2, 8, vanishing=3) == []  # needs min weight >= 4, sum >= 16

    def test_vanishing_filter_requires_enough_genera(self):
        record = SearchRecord((1, 1, 1, 1), 5, 1, Fraction(5), (0,))
        with pytest.raises(ValueError):
            record.vanishing_at_least(2)

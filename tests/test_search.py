import contextlib
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wph.hypersurface
import wph.search
from wph.core import CyclicQuotientSingularity, Weights, order_residues, strata_orders, well_formed
from wph.cli import run
from wph.errors import BudgetError
from wph.families import vanishing_witness
from wph.hilbert import plurigenera_table
from wph.hypersurface import WeightedHypersurface
from wph.singularity import classify_quotient
from wph.search import (
    SearchRecord,
    _degree_tuples,
    _divisor_table,
    _fork_map,
    _nondecreasing_tuples,
    enumerate_candidates,
    search_records,
)

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs `seconds` or longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def member_canonical_reference(weights, degree):
    """The member-germ verdict rebuilt from the public per-order helpers: each
    order h whose strata the member meets gives the germ `order_residues`
    minus one residue-d direction when h does not divide d (False when there
    is none), and every such germ must be canonical."""
    for h in strata_orders(weights):
        residues = order_residues(weights, h)
        r = degree % h
        if r:
            if residues.get(r, 0) == 0:
                return False
            residues[r] -= 1
        elif 0 not in residues:
            continue  # the one weight divisible by h: its point is missed
        germ = CyclicQuotientSingularity(h, runs=[(b, c) for b, c in residues.items() if c])
        if not classify_quotient(germ).is_canonical:
            return False
    return True


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
        [(4, 30, 1), (5, 28, 2), (6, 24, 7), (4, 30, 10**6), (6, 30, 1), (4, 36, 2)],
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
            if _singleton_condition(t, sum(t) + amplitude) and well_formed(t)
        ]
        assert generated == expected  # same tuples, same lexicographic order

    @pytest.mark.parametrize("amplitude", [1, 7, 10**6])
    def test_divisor_table_lists_each_entry_descending(self, amplitude):
        max_sum = 60
        table = _divisor_table(max_sum, amplitude)
        assert len(table) == max_sum + 1
        for k, divisors in enumerate(table):
            assert divisors == [t for t in range(max_sum, 0, -1) if (amplitude + k) % t == 0]

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
    def test_member_canonical_answers_on_every_generated_tuple(self, member_dim):
        # the search asks member canonicity before quasi-smoothness, so it must
        # answer, never raise, on members that are not quasi-smooth
        length, max_sum = member_dim + 2, SMALL_BOUNDS[member_dim]
        not_quasi_smooth = 0
        for amplitude in (1, 2, 3):
            for lead in range(1, max_sum // length + 1):
                for t in _degree_tuples(lead, length, max_sum, amplitude):
                    x = WeightedHypersurface(Weights(t), sum(t) + amplitude)
                    assert isinstance(x.member_canonical(), bool), t
                    not_quasi_smooth += not x.quasi_smooth()
        assert not_quasi_smooth > 50

    @pytest.mark.parametrize("member_dim", [2, 3, 4])
    def test_member_canonical_matches_the_per_order_reference_on_generated_tuples(
        self, member_dim
    ):
        # the search's own traffic, most of it not quasi-smooth, so beyond the
        # index-subset oracles of tests/test_hypersurface.py
        length, max_sum = member_dim + 2, 40
        verdicts = []
        for amplitude in (1, 2, 3):
            for lead in range(1, max_sum // length + 1):
                for t in _degree_tuples(lead, length, max_sum, amplitude):
                    w, degree = Weights(t), sum(t) + amplitude
                    verdict = WeightedHypersurface(w, degree).member_canonical()
                    assert verdict == member_canonical_reference(w, degree), (t, amplitude)
                    verdicts.append(verdict)
        assert len(verdicts) > 400 and 0 < sum(verdicts) < len(verdicts)

    def test_a_lowered_order_cap_still_stops_the_search(self, monkeypatch):
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        with pytest.raises(BudgetError, match="WPH_ORDER_CAP"):
            search_records(3, 45)

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

    def test_parallel_merge_matches_serial_in_dimension_four(self):
        serial = search_records(4, 40, plurigenera_up_to=1)
        assert serial == search_records(4, 40, plurigenera_up_to=1, jobs=2)
        assert len(serial) == 263

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
        # concurrent.futures and multiprocessing cost an import 20-40 ms, and
        # only a pooled search needs pickle
        code = (
            "import sys, wph.cli\n"
            "def loaded(*names):\n"
            "    print(sorted(m for m in sys.modules if m.startswith(names)), file=sys.stderr)\n"
            "loaded('concurrent', 'multiprocessing', 'pickle')\n"
            "wph.cli.run(['search', '--dim', '2', '--max-sum', '9'])\n"
            "loaded('concurrent', 'multiprocessing', 'pickle')\n"
            "wph.cli.run(['search', '--dim', '2', '--max-sum', '9', '--jobs', '2'])\n"
            "loaded('concurrent', 'multiprocessing')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wph.search.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout is then block-buffered, and
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        # a forked child never flushes the output it inherits
        assert done.returncode == 0 and done.stdout.count("(1,1,1,2) d=6 vol=3") == 2
        assert done.stderr == "[]\n[]\n[]\n"

    def test_worker_count_is_clamped(self, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            forks.append(pid)  # a child's own list is a copy
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        records = search_records(2, 10, plurigenera_up_to=1, jobs=10_000)
        assert records == search_records(2, 10, plurigenera_up_to=1)
        # two leading weights (1 and 2): this process and at most one child
        assert len(forks) == min(2, CPUS) - 1

    def test_without_fork_a_pooled_search_runs_serially(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert search_records(3, 45, jobs=2) == search_records(3, 45)

    def test_a_pooled_budget_error_is_that_of_the_first_failing_batch(self, monkeypatch, capsys):
        # leading weights 6, 7, 8, ... fail on group orders 6, 7, 8, ...
        monkeypatch.setenv("WPH_ORDER_CAP", "4")
        for jobs in (1, 2):
            with pytest.raises(BudgetError, match=r"^group order 6, above the cap 4 "):
                search_records(3, 80, vanishing=5, jobs=jobs)
        errors = []
        for jobs in ("1", "2"):
            argv = ["search", "--dim", "3", "--max-sum", "80", "--vanishing", "5", "--jobs", jobs]
            assert run(argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "group order 6," in errors[0]

    def test_no_child_outlives_a_pooled_search(self, monkeypatch):
        assert len(search_records(3, 45, jobs=2)) == 23
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setenv("WPH_ORDER_CAP", "4")
        with pytest.raises(BudgetError):
            search_records(3, 45, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(CPUS < 2, reason="a pooled search forks only with two usable CPUs")
    def test_a_child_that_dies_mid_batch_fails_the_search(self, monkeypatch):
        caller, leading_records = os.getpid(), wph.search._leading_records

        def dying(*batch):
            if os.getpid() != caller:
                os._exit(7)
            time.sleep(0.05)  # leaves the child a batch to die in
            return leading_records(*batch)

        monkeypatch.setattr(wph.search, "_leading_records", dying)
        with deadline(30), pytest.raises(RuntimeError, match=r"exited without reporting \(status 7\)"):
            search_records(3, 45, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_pool_deals_more_tokens_than_a_pipe_holds(self):
        items = list(range(20_000))  # 80,000 bytes of tokens; a pipe holds 65,536
        with deadline(60):  # more workers than CPUs, so they contend for tokens
            assert _fork_map(lambda i: i * i, items, CPUS + 2) == [i * i for i in items]

    def test_the_pool_reaps_every_child_when_one_dies_unreported(self):
        caller = os.getpid()

        def dying(i):
            if os.getpid() != caller:
                os._exit(7)
            time.sleep(0.01)
            return i

        with deadline(60), pytest.raises(RuntimeError, match=r"exited without reporting \(status 7\)"):
            _fork_map(dying, list(range(100)), 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_pool_raises_the_error_of_the_lowest_failing_item(self):
        def failing(i):
            if i in (300, 500, 700):
                raise ValueError(i)
            return i

        with deadline(60), pytest.raises(ValueError, match="^300$"):
            _fork_map(failing, list(range(1000)), 3)


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

    def test_rejects_negative_vanishing(self):
        with pytest.raises(ValueError, match="vanishing must be >= 0"):
            search_records(2, 10, vanishing=-1)

    def test_vanishing_filter_requires_enough_genera(self):
        record = SearchRecord((1, 1, 1, 1), 5, 1, Fraction(5), (0,))
        with pytest.raises(ValueError):
            record.vanishing_at_least(2)


def assert_cut_matches_the_uncut_filter(member_dim, max_sum, amplitude):
    uncut = list(enumerate_candidates(member_dim, max_sum, amplitude, 3))
    for vanishing in (1, 2, 3):
        expected = sorted(
            (r for r in uncut if r.vanishing_at_least(vanishing)), key=lambda r: r.sort_key
        )
        for jobs in (1, 2):
            got = search_records(member_dim, max_sum, amplitude, 3, vanishing, jobs)
            assert got == expected, (vanishing, jobs)
    return uncut


class TestVanishingCut:
    """A vanishing search drops each leading weight a_0 with a power of x_0 of
    degree m * amplitude < d for some m <= V (so P_m >= 1); at amplitude 1 it
    starts the leading weight at V + 1.  The record filter, run on the uncut
    enumeration, is its oracle."""

    @pytest.mark.parametrize("member_dim, max_sum", [(3, 45), (4, 36), (5, 36), (6, 38)])
    def test_records_match_the_uncut_filter(self, member_dim, max_sum):
        uncut = assert_cut_matches_the_uncut_filter(member_dim, max_sum, 1)
        assert any(r.vanishing_at_least(2) for r in uncut)

    @pytest.mark.parametrize("member_dim, max_sum", [(3, 45), (4, 36), (5, 36), (6, 38)])
    @pytest.mark.parametrize("amplitude", [2, 3])
    def test_larger_amplitudes_match_the_uncut_filter(self, member_dim, max_sum, amplitude):
        uncut = assert_cut_matches_the_uncut_filter(member_dim, max_sum, amplitude)
        assert any(r.vanishing_at_least(1) for r in uncut)

    @pytest.mark.parametrize("amplitude, first", [(2, 3), (3, 4)])
    def test_larger_amplitudes_drop_leading_weights_with_a_low_power(self, amplitude, first):
        # x_0 of weight 1 or 2 (amplitude 2), or 1, 2 or 3 (amplitude 3), has a
        # power of degree m * amplitude with m <= 2 below d
        assert wph.search._batches(4, 36, amplitude, 2, 2)[0][0] == first
        uncut = list(enumerate_candidates(4, 36, amplitude, 2))
        for vanishing in (1, 2):
            expected = sorted(
                (r for r in uncut if r.vanishing_at_least(vanishing)), key=lambda r: r.sort_key
            )
            assert expected and search_records(4, 36, amplitude, 2, vanishing) == expected

    def test_the_cut_starts_past_the_vanishing_count(self):
        assert [b[0] for b in wph.search._batches(10, 59, 1, 2, 2)] == [3, 4]
        records = search_records(10, 59, vanishing=2)
        assert len(records) == 576
        assert min(r.weights[0] for r in records) == 3

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12, 14])
    def test_the_search_meets_the_thm3_member(self, n):
        # up to the weight sum d - 1 of the member, at its own vanishing count
        x = vanishing_witness(n).hypersurface
        records = search_records(n, x.degree - 1, vanishing=(n - 2) // 3)
        mine = [r for r in records if r.weights == tuple(x.weights)]
        assert len(mine) == 1 and mine[0].volume == x.volume()
        if (n + 1) % 3 == 0:  # l = 0: the least volume found
            assert records[0] is mine[0]
        else:
            assert records[0].volume < x.volume()

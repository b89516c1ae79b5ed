import contextlib
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wph.config
import wph.search
import wph.singularity
from wph.core import CyclicQuotientSingularity, Weights, order_residues, strata_orders, well_formed
from wph.cli import run
from wph.errors import BudgetError
from wph.families import consecutive_family, vanishing_witness
from wph.hilbert import plurigenera_table
from wph.hypersurface import WeightedHypersurface
from wph.singularity import SingularityClass, classify_quotient, member_walk, reid_tai_sum
from wph.search import (
    SearchRecord,
    _degree_tuples,
    _fork_map,
    _heads,
    _leading_weights,
    _nondecreasing_tuples,
    _search_tables,
    _stripe,
    search_records,
)
from test_hypersurface import canonical_by_index, induced_by_index  # the index-subset oracles

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
    cut, sorted by (volume, weights): the search by its definition."""
    out = []
    for weights in _nondecreasing_tuples(member_dim + 2, max_sum, 1):
        w = Weights(weights)
        if not well_formed(w):
            continue
        x = WeightedHypersurface(w, w.total() + amplitude)
        if x.quasi_smooth() and x.member_canonical():
            genera = plurigenera_table(x, up_to)
            out.append(SearchRecord(weights, x.degree, amplitude, x.volume(), genera))
    return sorted(out, key=lambda r: r.sort_key)


def closed_form_reference(germ):
    """The class that T(1), T(h - 1) or the divisor bound decides for `germ` of order
    h, else None, from `reid_tai_sum` and every proper divisor e of h: a multiplier j
    with gcd(j, h) = e moves each b whose period h / gcd(b, h) does not divide e, by a
    multiple of gcd(b, h), so each total is at least the least such sum over e."""
    h = germ.order
    if min(reid_tai_sum(germ, 1), reid_tai_sum(germ, h - 1)) < 1:
        return SingularityClass.NOT_CANONICAL
    gcds = [(math.gcd(b, h), count) for b, count in germ.runs]
    bound = min(sum(g * c for g, c in gcds if e % (h // g)) for e in range(1, h) if h % e == 0)
    return SingularityClass.TERMINAL if bound > h else None


def member_canonical_reference(weights, degree, cap=math.inf):
    """The member-germ verdict rebuilt from the per-order helpers: each order h
    whose strata the member meets gives the germ `order_residues` minus one
    residue-d direction when h does not divide d (False when there is none),
    and every such germ must be canonical.  The orders ascend, and the first
    whose germ is to be classified above `cap` and that no closed form decides
    (`closed_form_reference`) is returned in place of a verdict."""
    counts = Weights(weights).multiplicities()
    for h in strata_orders(counts):
        residues = order_residues(counts, h)
        r = degree % h
        if r:
            if residues.get(r, 0) == 0:
                return False
            residues[r] -= 1
        elif residues[0] == 0:
            continue  # the one weight divisible by h: its point is missed
        germ = CyclicQuotientSingularity(h, runs=[(b, c) for b, c in residues.items() if c])
        if h > cap and (decided := closed_form_reference(germ)) is None:
            return h
        if not (classify_quotient(germ) if h <= cap else decided).is_canonical:
            return False
    return True


def generated(length, max_sum, amplitude):
    """Every tuple `_degree_tuples` yields over every head of every leading weight."""
    heads = _heads(range(1, max_sum // length + 1), length, max_sum)
    return [t for head in heads for t in _degree_tuples(head, max_sum, amplitude)]


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
        records = search_records(2, 4)
        assert records == oracle_records(2, 4, 1)
        assert [r.weights for r in records] == [(1, 1, 1, 1)]
        assert records[0].degree == 5
        assert records[0].volume == 5

    def test_amplitude_one_identity(self):
        for record in search_records(3, 10):
            assert record.volume == Fraction(
                record.degree, Weights(record.weights).product()
            )
            assert record.degree == sum(record.weights) + 1

    def test_weights_nondecreasing_and_bounded(self):
        for record in search_records(2, 8):
            assert list(record.weights) == sorted(record.weights)
            assert sum(record.weights) <= 8

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            search_records(1, 5)

    def test_budget(self):
        with pytest.raises(BudgetError):
            search_records(2, 10_000)

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
        assert search_records(member_dim, max_sum, amplitude, 2) == (
            oracle_records(member_dim, max_sum, amplitude, 2)
        )

    def test_huge_amplitude(self):
        records = search_records(2, 12, 10**6)
        assert records == oracle_records(2, 12, 10**6)
        assert len(records) == 8

    @pytest.mark.parametrize(
        "length,max_sum,amplitude",
        [
            (4, 30, 1), (5, 28, 2), (6, 24, 7), (4, 30, 10**6), (6, 30, 1), (4, 36, 2),
            # the cut holds for every amplitude > 1 - length, not only those searched
            (4, 30, 0), (5, 28, -1), (6, 24, -2),
        ],
    )
    def test_generator_equals_the_enumeration_filtered_by_the_singleton_oracle(
        self, length, max_sum, amplitude
    ):
        expected = [
            t
            for t in _nondecreasing_tuples(length, max_sum, 1)
            if _singleton_condition(t, sum(t) + amplitude) and well_formed(t)
        ]
        # same tuples, same lexicographic order
        assert generated(length, max_sum, amplitude) == expected

    @pytest.mark.parametrize("amplitude", [1, 7, 10**6, 0, -1])
    def test_bitset_tables_match_their_definitions(self, amplitude):
        max_sum = 60
        masks, classes = _search_tables(max_sum, amplitude)
        assert len(masks) == max_sum + 1
        for k, mask in enumerate(masks):
            assert mask.bit_length() <= max_sum + 1  # sized by max_sum, not the degree
            assert mask == sum(1 << w for w in range(1, max_sum + 1) if (amplitude + k) % w == 0)
        assert sorted(classes) == list(range(2, 31))  # every weight but the largest v
        for a, by_residue in classes.items():
            assert len(by_residue) == a
            for r, mask in enumerate(by_residue):
                assert mask.bit_length() <= max_sum + 1
                assert mask == sum(
                    1 << n for n in range(max_sum + 1) if (n + amplitude) % a == r
                )

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
            for t in generated(length, max_sum, amplitude):
                x = WeightedHypersurface(Weights(t), sum(t) + amplitude)
                assert isinstance(x.member_canonical(), bool), t
                not_quasi_smooth += not x.quasi_smooth()
        assert not_quasi_smooth > 50

    @pytest.mark.parametrize("member_dim", [2, 3, 4])
    def test_member_canonical_matches_the_per_order_reference_on_generated_tuples(
        self, member_dim
    ):
        # the search's own traffic, most of it not quasi-smooth, so beyond the
        # index-subset oracles of tests/test_hypersurface.py; the search runs
        # the walk on raw counts, the method runs it on `Weights`
        length, max_sum = member_dim + 2, 40
        order_cap = wph.config.DEFAULTS["WPH_ORDER_CAP"]
        verdicts = []
        for amplitude in (1, 2, 3):
            for t in generated(length, max_sum, amplitude):
                w, degree = Weights(t), sum(t) + amplitude
                verdict = member_walk(Counter(t))(degree, order_cap)
                assert verdict == WeightedHypersurface(w, degree).member_canonical(), (t, amplitude)
                assert verdict == member_canonical_reference(w, degree), (t, amplitude)
                verdicts.append(verdict)
        assert len(verdicts) > 400 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("member_dim,max_sum", [(2, 30), (3, 32), (4, 26), (5, 22)])
    def test_the_shared_head_walk_matches_the_references_on_the_search_traffic(
        self, member_dim, max_sum, monkeypatch
    ):
        # every walk the search builds, one per head, is checked on each (u, v) it
        # is asked about; a head with no order of its own, such as (1, 1, 1), has
        # every order in its tail, which a walk of the head's orders alone misses
        verdicts = {True: [], False: []}  # by whether the head has an order

        def checked_walk(counts):
            head, walk = tuple(Counter(counts).elements()), member_walk(counts)

            def checked(degree, cap, *tail):
                verdict = walk(degree, cap, *tail)
                weights = head + tail
                assert verdict == member_canonical_reference(weights, degree), weights
                assert verdict == canonical_by_index(weights, degree), weights
                verdicts[bool(strata_orders(counts))].append(verdict)
                return verdict

            return checked

        monkeypatch.setattr(wph.search, "member_walk", checked_walk)
        for amplitude in (1, 2, 3):
            search_records(member_dim, max_sum, amplitude)
        for found in verdicts.values():
            assert 0 < sum(found) < len(found)

    @pytest.mark.parametrize("cap", [4, 6])
    def test_a_lowered_cap_is_breached_where_an_ascending_walk_breaches_it(self, cap, monkeypatch):
        # the shared walk reads the head's orders up to the cap first, then the
        # rest ascending: a member failing at an order up to the cap, the tail's
        # or the head's, is False even when its head has an order above the cap
        monkeypatch.setenv("WPH_ORDER_CAP", str(cap))
        outcomes = Counter()
        for amplitude in (1, 2):
            for head in _heads(range(1, 32 // 5 + 1), 5, 32):
                walk = member_walk(Counter(head))
                for t in _degree_tuples(head, 32, amplitude):
                    degree = sum(t) + amplitude
                    try:
                        got = walk(degree, cap, *t[-2:])
                    except BudgetError as exc:
                        got = int(str(exc).split(",")[0].removeprefix("group order "))
                    expected = member_canonical_reference(t, degree, cap)
                    assert (type(got), got) == (type(expected), expected), (t, degree)
                    outcomes[expected is False and max(strata_orders(Counter(head)), default=0) > cap] += 1
        assert outcomes[True] > 0

    def test_a_lowered_order_cap_still_stops_the_search(self, monkeypatch):
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        with pytest.raises(BudgetError, match="WPH_ORDER_CAP"):
            search_records(3, 45)

    def test_the_order_cap_is_read_once_per_search(self, monkeypatch):
        search_records(3, 45)  # warm: a cold germ lookup's Reid-Tai scan reads it too
        reads = []
        cap = wph.config._cap
        monkeypatch.setattr(wph.config, "_cap", lambda name: reads.append(name) or cap(name))
        for jobs in (1, 2):  # a child inherits the caller's reading
            assert len(search_records(3, 45, jobs=jobs)) == 23
        assert reads.count("WPH_ORDER_CAP") == 2

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

    def test_dimension_four_anchor_is_unchanged_byte_for_byte(self):
        serial = search_records(4, 80)
        assert len(serial) == 564
        assert serial == search_records(4, 80, jobs=2)
        lines = "\n".join(map(str, serial)).encode()
        assert hashlib.sha256(lines).hexdigest() == (
            "211d4404ead698e0b0c876ae85c0f11651b480861c239f204f27725097dfc3a9"
        )

    def test_sorted_by_volume_then_weights(self):
        records = search_records(2, 10)
        keys = [r.sort_key for r in records]
        assert keys == sorted(keys)

    def test_repeat_runs_identical(self):
        assert search_records(2, 9) == search_records(2, 9)

    def test_cold_and_warm_germ_caches_give_the_same_records(self):
        wph.singularity._germ_class.cache_clear()
        cold = search_records(3, 45)
        warm = search_records(3, 45)
        assert wph.singularity._germ_class.cache_info().hits > 0
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
        # min(jobs, usable CPUs) processes: this one and a child per further CPU
        assert len(forks) == CPUS - 1

    def test_without_fork_a_pooled_search_runs_serially(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert search_records(3, 45, jobs=2) == search_records(3, 45)

    def test_a_pooled_budget_error_is_that_of_the_serial_search(self, monkeypatch, capsys):
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

    def test_a_warm_germ_cache_does_not_hide_a_lowered_order_cap(self, monkeypatch):
        wph.singularity._germ_class.cache_clear()
        monkeypatch.setenv("WPH_ORDER_CAP", "4")
        with pytest.raises(BudgetError) as cold:
            search_records(3, 80, vanishing=5)
        monkeypatch.delenv("WPH_ORDER_CAP")
        search_records(3, 80, vanishing=5)  # classifies every germ the search meets
        assert wph.singularity._germ_class.cache_info().currsize > 0
        monkeypatch.setenv("WPH_ORDER_CAP", "4")
        for jobs in (1, 2):
            with pytest.raises(BudgetError) as warm:
                search_records(3, 80, vanishing=5, jobs=jobs)
            assert str(warm.value) == str(cold.value)
        assert str(cold.value).startswith("group order 6, above the cap 4 ")

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
    def test_a_child_that_dies_mid_stripe_fails_the_search(self, monkeypatch):
        caller, walk = os.getpid(), wph.search.member_walk

        def dying(counts):
            if os.getpid() != caller:
                os._exit(7)
            return walk(counts)

        monkeypatch.setattr(wph.search, "member_walk", dying)
        with deadline(30), pytest.raises(RuntimeError, match=r"exited without reporting \(status 7\)"):
            search_records(3, 45, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_pool_reaps_every_child_when_one_dies_unreported(self):
        def dying(k):
            if k == 1:
                os._exit(7)
            time.sleep(60 if k else 0)  # process 2 is still running: it is killed
            return k

        with deadline(30), pytest.raises(RuntimeError, match=r"exited without reporting \(status 7\)"):
            _fork_map(dying, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_pool_returns_each_value_in_process_order(self):
        # more processes than CPUs, each pickling back more than a pipe holds
        # or an exception
        workers = CPUS + 2
        with deadline(60):
            values = _fork_map(lambda k: (k, ValueError(k)) if k == 2 else [k] * 100_000, workers)
        assert len(values) == workers and values[2][0] == 2
        assert type(values[2][1]) is ValueError and values[2][1].args == (2,)
        assert all(values[k] == [k] * 100_000 for k in range(workers) if k != 2)

    @pytest.mark.parametrize("member_dim, max_sum, vanishing", [(3, 45, 0), (4, 40, 0), (10, 59, 2)])
    def test_the_stripes_partition_the_generated_tuples(
        self, member_dim, max_sum, vanishing, monkeypatch
    ):
        # process k of N takes the heads whose index, counted once over every
        # leading weight of the search, is k mod N
        length, leads = member_dim + 2, _leading_weights(member_dim, max_sum, 1, vanishing)
        heads = list(_heads(leads, length, max_sum))
        seen, degree_tuples = [], _degree_tuples

        def recorded(head, *args):
            for t in degree_tuples(head, *args):
                seen.append(t)
                yield t

        monkeypatch.setattr(wph.search, "_degree_tuples", recorded)
        every = [t for head in heads for t in degree_tuples(head, max_sum, 1)]
        records = sorted(r.weights for r in search_records(member_dim, max_sum, vanishing=vanishing))
        assert records
        order_cap = wph.config.DEFAULTS["WPH_ORDER_CAP"]
        for workers in (1, 2, 3, 4):
            parts, kept = [], []
            for k in range(workers):
                seen.clear()
                stripe = _stripe(k, workers, leads, length, max_sum, 1, vanishing, order_cap)
                assert seen == [t for head in heads[k::workers] for t in degree_tuples(head, max_sum, 1)]
                parts += seen
                kept += [r.weights for r in stripe if r.vanishing_at_least(vanishing)]
            assert sorted(parts) == every and sorted(kept) == records, workers

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("planted", [(7, 12), (6, 13)])
    def test_failures_in_two_stripes_raise_the_earlier(self, jobs, planted, monkeypatch):
        # heads 6 and 12 are on stripe 0, the caller's, and 7 and 13 on stripe 1,
        # at 2 and at 3 processes: the earlier failure is the child's, then the caller's
        leads = _leading_weights(3, 45, 1)
        heads = list(_heads(leads, 5, 45))
        failing, degree_tuples = {heads[i]: i for i in planted}, _degree_tuples

        def planted_failure(head, *args):
            if head in failing:
                raise ValueError(f"head {failing[head]}")
            return degree_tuples(head, *args)

        monkeypatch.setattr(wph.search, "_degree_tuples", planted_failure)
        with deadline(30), pytest.raises(ValueError, match=f"^head {min(planted)}$"):
            search_records(3, 45, jobs=jobs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # each stripe stops at its own failure, whatever the usable CPUs
        stripes = [_stripe(k, jobs, leads, 5, 45, 1, 0, 10**6) for k in range(jobs)]
        failures = sorted(s[0] for s in stripes if isinstance(s, tuple))
        assert failures == sorted(planted)


class TestSearchTables:
    """The divisor masks and residue classes are built once per search, before
    any fork, and only the last search's are held."""

    @staticmethod
    def alone(runs):
        """Each search of `runs` on tables built for it alone."""
        results = []
        for args, kwargs in runs:
            _search_tables.cache_clear()
            results.append(search_records(*args, **kwargs))
        return results

    def test_the_shared_tables_cannot_leak_across_searches(self):
        runs = [
            ((3, 45), {}),
            ((2, 40), {"amplitude": 2}),
            ((3, 80), {"plurigenera_up_to": 3, "jobs": 2}),
            ((2, 12), {"amplitude": 10**6}),
            ((3, 45), {}),
        ]
        expected = self.alone(runs)
        assert expected[3] == oracle_records(2, 12, 10**6)
        assert len(expected[0]) == len(expected[2]) == 23
        for (args, kwargs), records in zip(runs, expected):
            assert search_records(*args, **kwargs) == records, (args, kwargs)
            # one search's tables at most, those of the search just run
            held = _search_tables.cache_info()
            _search_tables(args[1], kwargs.get("amplitude", 1))
            assert held.currsize == 1 and _search_tables.cache_info().hits == held.hits + 1

    def test_the_tables_follow_the_amplitude_at_one_weight_sum(self):
        runs = [((2, 40), {"amplitude": amplitude}) for amplitude in (1, 2, 3)]
        expected = self.alone(runs)
        for k in (0, 2, 1, 0):
            assert search_records(*runs[k][0], **runs[k][1]) == expected[k], runs[k]


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

    def test_reid_95_k3_surfaces(self):
        # X_d in P(a_1..a_4), d = sum of the weights, well-formed and quasi-smooth
        # (Reid 1980; Yonemura 1990; Iano-Fletcher 2000): exactly 95, the last X_66
        found = sorted(
            (sum(w), w)
            for w in generated(4, 100, 0)
            if WeightedHypersurface(w, sum(w)).quasi_smooth()
        )
        assert len(found) == 95
        assert found[-1] == (66, (5, 6, 22, 33)) and found[-2][0] < 66  # none above, to S = 100

    def test_the_95_terminal_fano_threefolds(self):
        # X_d in P(a_0..a_4), d = sum - 1, well-formed, quasi-smooth and terminal
        # (Iano-Fletcher 2000; complete by Johnson-Kollar 2001): exactly 95, the last
        # X_66; terminality from the index-subset oracle, not the library's walk
        def terminal(w, d):
            induced = induced_by_index(w, d)
            return induced is not None and all(classify_quotient(q).is_terminal for _, q in induced)

        found = sorted(
            (sum(w) - 1, w)
            for w in generated(5, 100, -1)
            if WeightedHypersurface(w, sum(w) - 1).quasi_smooth() and terminal(w, sum(w) - 1)
        )
        assert len(found) == 95
        assert found[-1] == (66, (1, 5, 6, 22, 33)) and found[-2][0] < 66  # none above, to S = 100


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
    uncut = search_records(member_dim, max_sum, amplitude, 3)
    for vanishing in (1, 2, 3):
        expected = [r for r in uncut if r.vanishing_at_least(vanishing)]
        for jobs in (1, 2):
            got = search_records(member_dim, max_sum, amplitude, 3, vanishing, jobs)
            assert got == expected, (vanishing, jobs)
    return uncut


class TestVanishingCut:
    """A vanishing search drops each leading weight a_0 with a power of x_0 of
    degree m * amplitude < d for some m <= V (so P_m >= 1); at amplitude 1 it
    starts the leading weight at V + 1.  The record filter, run on the search
    with no vanishing count (so no cut), is its oracle."""

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
        assert _leading_weights(4, 36, amplitude, 2)[0] == first
        uncut = search_records(4, 36, amplitude, 2)
        for vanishing in (1, 2):
            expected = [r for r in uncut if r.vanishing_at_least(vanishing)]
            assert expected and search_records(4, 36, amplitude, 2, vanishing) == expected

    def test_the_cut_starts_past_the_vanishing_count(self):
        assert _leading_weights(10, 59, 1, 2) == [3, 4]
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

    @pytest.mark.parametrize(
        "k, l", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)]
    )
    def test_the_search_meets_the_prop_member(self, k, l):
        # dimension 3k + l - 1, up to the member's own weight sum, with its
        # first k - 1 plurigenera vanishing (every weight is at least k)
        x = consecutive_family(k, l).hypersurface
        records = search_records(3 * k + l - 1, x.weights.total(), vanishing=k - 1)
        mine = [r for r in records if r.weights == tuple(x.weights)]
        assert len(mine) == 1 and mine[0].volume == x.volume()
        if l == 0:  # the least volume found
            assert records[0] is mine[0]
        else:
            assert records[0].volume < x.volume()

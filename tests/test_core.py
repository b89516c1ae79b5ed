import math
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import (
    CyclicQuotientSingularity,
    StratumRecord,
    Weights,
    order_residues,
    singular_strata,
    strata_orders,
    well_formed,
)
from wph.errors import BudgetError
from wph.families import Check, verify_family
from wph.hilbert import monomial_count
from wph.hypersurface import WeightedHypersurface, singularity_report
from wph.search import search_records
from wph.singularity import classify_quotient, quotient_report
from test_search import deadline

weight_tuples = st.lists(st.integers(1, 12), min_size=2, max_size=7).map(tuple)
# few distinct values, each repeated up to 9 times in a row
repeated_tuples = (
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 9)), min_size=1, max_size=6)
    .map(lambda runs: tuple(a for a, count in runs for _ in range(count)))
    .filter(lambda entries: len(entries) >= 2)
)


def faithful(order, weights=(), *, runs=None):
    """1/order(weights), or of runs, with the order and every weight divided by
    their gcd: the faithful germ that a drawn, perhaps non-faithful one stands for."""
    runs = [(b, 1) for b in weights] if runs is None else list(runs)
    g = math.gcd(order, *(b for b, _ in runs))
    return CyclicQuotientSingularity(order // g, runs=[(b // g, count) for b, count in runs])


def positive(residues):
    """The residues of positive count: the runs of an order's germ."""
    return {r: count for r, count in residues.items() if count > 0}


def point_types(entries):
    """(index, ambient type) at each coordinate point, from the singleton
    strata, with the type read off the expanded tuple by index."""
    return [
        (k, CyclicQuotientSingularity(s.order, entries[:k] + entries[k + 1 :]))
        for s in singular_strata(Weights(entries))
        if len(s.indices) == 1
        for k in s.indices
    ]


def format_naive(entries):
    """Per-coordinate renderer: runs of 4+ equal entries print as value^count."""
    parts, i = [], 0
    while i < len(entries):
        j = i
        while j < len(entries) and entries[j] == entries[i]:
            j += 1
        if j - i >= 4:
            parts.append(f"{entries[i]}^{j - i}")
        else:
            parts.extend(str(entries[i]) for _ in range(j - i))
        i = j
    return ",".join(parts)


class TestWeights:
    def test_construction_and_accessors(self):
        w = Weights((4, 5, 6, 7, 23))
        assert len(w) == 5
        assert w[4] == 23
        assert w.total() == 45
        assert w.product() == 19320
        assert w.runs_without(0) == [(5, 1), (6, 1), (7, 1), (23, 1)]

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Weights((3,))
        with pytest.raises(ValueError):
            Weights((1, 0))
        with pytest.raises(ValueError):
            Weights((1, -2))
        with pytest.raises(IndexError):
            Weights((1, 2))[2]

    @pytest.mark.parametrize("bad", [True, 2.0, "2", -1, 0])
    def test_one_validator_checks_every_weight_multiset(self, bad):
        # `core._checked` names the value; a quotient weight may be 0, no other weight
        builders = {
            "entries": lambda: Weights((1, bad)),
            "runs": lambda: Weights(runs=((1, 1), (bad, 2))),
            "quotient": lambda: CyclicQuotientSingularity(5, (1, bad)),
            "monomial_count": lambda: monomial_count((1, bad), 3),
        }
        for name, build in builders.items():
            if bad == 0 and name == "quotient":
                assert build().runs == ((1, 1), (0, 1))
                continue
            with pytest.raises(ValueError, match=rf"integers, got {re.escape(repr(bad))}$"):
                build()
        assert monomial_count((1,), 7) == 1

    def test_parse_round_trip(self):
        w = Weights.parse("4,5,6,7,23")
        assert w.entries == (4, 5, 6, 7, 23)
        assert str(w) == "4,5,6,7,23"
        assert Weights.parse(str(w)) == w

    def test_parse_run_compression(self):
        w = Weights.parse("1^4,5,2,3")
        assert w.entries == (1, 1, 1, 1, 5, 2, 3)
        assert str(Weights((1,) * 6 + (2,))) == "1^6,2"
        long = (1,) * 37410 + (113, 106)
        assert Weights.parse(str(Weights(long))).entries == long

    def test_parse_rejects_run_counts_below_one(self):
        for text in ("7^0,2,3", "1^-3,2,3,5"):
            with pytest.raises(ValueError, match="cannot parse weights.*run counts"):
                Weights.parse(text)
        with pytest.raises(ValueError):
            Weights(runs=((1, 2), (3, 0)))

    def test_parse_caps_listed_entries_before_expanding(self, monkeypatch):
        monkeypatch.setenv("WPH_TABLE_CAP", "50")
        with pytest.raises(BudgetError, match=r"53 .*WPH_TABLE_CAP to at least 53"):
            Weights.parse("1^51,2,3")
        assert len(Weights.parse("1^48,2,3")) == 50

    def test_long_runs_are_never_expanded(self):
        # a billion unit weights: every accessor below reads the runs only
        w = Weights(runs=((1, 10**9), (1, 1), (7, 1), (5, 1)))
        assert w.runs == ((1, 10**9 + 1), (7, 1), (5, 1))
        assert len(w) == 10**9 + 3
        assert w[10**9 + 1] == 7 and w[-1] == 5 and w[0] == 1
        assert str(w) == "1^1000000001,7,5"
        assert w.total() == 10**9 + 13 and w.product() == 35
        assert well_formed(w)
        assert [(s.indices, s.order) for s in singular_strata(w)] == [
            ((10**9 + 1,), 7),
            ((10**9 + 2,), 5),
        ]
        assert w.runs_without(10**9 + 1) == [(1, 10**9 + 1), (5, 1)]
        assert strata_orders(w.multiplicities()) == [5, 7]
        assert order_residues(w.multiplicities(), 7) == {0: 0, 1: 10**9 + 1, 5: 1}


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

    # runs of one value are where every subset qualifies
    @given(weight_tuples | repeated_tuples.filter(lambda e: sum(a > 1 for a in e) <= 12))
    def test_complete_against_full_enumeration(self, entries):
        from itertools import combinations

        w = Weights(entries)
        heavy = [i for i, a in enumerate(entries) if a > 1]  # gcd(1, ...) = 1
        expected = []
        for size in range(1, len(heavy) + 1):
            for subset in combinations(heavy, size):
                h = math.gcd(*(entries[i] for i in subset))
                if h > 1:
                    expected.append((subset, h))
        assert [(s.indices, s.order) for s in singular_strata(w)] == expected

    def test_lists_the_strata_not_every_subset(self):
        # twenty pairwise coprime weights: 2^20 - 1 index sets, 20 strata
        primes = [p for p in range(2, 72) if all(p % f for f in range(2, p))]
        with deadline(0.5):
            strata = singular_strata(Weights(primes))
        assert [(s.indices, s.order) for s in strata] == [((i,), p) for i, p in enumerate(primes)]

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            StratumRecord((), 2)
        with pytest.raises(ValueError):
            StratumRecord(iter(()), 2)
        with pytest.raises(ValueError):
            StratumRecord((0,), 1)
        with pytest.raises(ValueError):
            StratumRecord((0,), 0)
        assert StratumRecord(iter((4, 0, 2)), 2).indices == (0, 2, 4)
        assert StratumRecord(indices=[3, 1], order=2) == StratumRecord((1, 3), 2)


VALUES = {
    "Weights": lambda: Weights((4, 5, 6, 7, 23)),
    "CyclicQuotientSingularity": lambda: CyclicQuotientSingularity(6, (2, 2, 3)),
    "StratumRecord": lambda: StratumRecord((3, 1), 2),
    "WeightedHypersurface": lambda: WeightedHypersurface((4, 5, 6, 7, 23), 46),
}
RECORDS = {
    "Check": lambda: Check("c", True),
    "FamilyReport": lambda: verify_family("prop", k=[2], l=[2])[0],
    "SearchRecord": lambda: search_records(2, 5)[0],
    "QuotientReport": lambda: quotient_report(CyclicQuotientSingularity(6, (2, 2, 3))),
    "SingularityReport": lambda: singularity_report(WeightedHypersurface((4, 5, 6, 7, 23), 46)),
    "PointRecord": lambda: singularity_report(WeightedHypersurface((4, 5, 6, 7, 23), 46)).points[0],
}


class TestValueSemantics:
    """Value types compare by type and fields and hash by their fields; report
    records are named tuples.  Neither can be assigned to."""

    @pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
    def test_values_are_immutable_and_equal_values_hash_equally(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b and repr(a) == repr(b)

    @pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
    def test_a_value_equals_no_tuple_and_no_other_type(self, make):
        a = make()
        fields = tuple(getattr(a, name) for name in a._fields)
        assert a != fields and fields != a

        class Other(type(a)):
            pass

        other = object.__new__(Other)
        other.__dict__.update(a.__dict__)
        assert other._fields == a._fields and other == other
        assert a != other and other != a

    def test_distinct_fields_make_distinct_values(self):
        assert Weights((1, 2)) != Weights((2, 1))
        assert WeightedHypersurface((1, 1, 2), 4) != WeightedHypersurface((1, 1, 2), 6)
        assert StratumRecord((1,), 2) != StratumRecord((1,), 3)

    def test_a_member_coerces_its_weights(self):
        x = WeightedHypersurface((4, 5, 6, 7, 23), 46)
        assert type(x.weights) is Weights and x == WeightedHypersurface(Weights(x.weights), 46)

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_records_are_immutable_named_tuples(self, make):
        record = make()
        assert record == tuple(record) == make() and len(record) == len(record._fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


class TestOrderGerms:
    def test_examples(self):
        counts = Weights((4, 5, 6, 7, 23)).multiplicities()
        assert strata_orders(counts) == [2, 4, 5, 6, 7, 23]
        assert order_residues(counts, 2) == {0: 1, 1: 3}
        assert strata_orders(Weights((1, 1, 1)).multiplicities()) == []
        assert strata_orders(Weights((6, 10, 15)).multiplicities()) == [2, 3, 5, 6, 10, 15]
        assert order_residues(Weights((2, 2, 2, 2, 3, 3, 3, 6)).multiplicities(), 3) == {0: 3, 2: 4}

    def test_a_residue_zero_left_at_count_zero_is_dropped(self):
        # 4 is the one weight divisible by h = 4, so residue 0 counts 0: the
        # raw residues keep it, and every germ built from them drops it
        counts = Weights((4, 5, 6, 7, 23)).multiplicities()
        assert order_residues(counts, 4) == {0: 0, 1: 1, 2: 1, 3: 2}
        assert positive(order_residues(counts, 4)) == {1: 1, 2: 1, 3: 2}

    @given(weight_tuples)
    def test_order_residues_are_the_positive_raw_residues(self, entries):
        # the positive counts are the residues of the weights less any one on a
        # stratum of order h; residue 0 alone may count 0
        w = Weights(entries)
        for h in strata_orders(w.multiplicities()):
            raw = order_residues(w.multiplicities(), h)
            assert min(raw.values()) >= 0 and all(raw[r] for r in raw if r)
            k = next(i for i, a in enumerate(entries) if a % h == 0)
            rest = entries[:k] + entries[k + 1 :]
            assert positive(raw) == dict(Counter(a % h for a in rest))
            assert sum(raw.values()) == len(w) - 1

    @given(weight_tuples)
    def test_orders_are_the_strata_orders(self, entries):
        w = Weights(entries)
        assert strata_orders(w.multiplicities()) == sorted({s.order for s in singular_strata(w)})

    @given(weight_tuples)
    def test_every_stratum_index_matches_its_order_germ(self, entries):
        # 1/h(weights without k), for every stratum and every k on it, has the
        # class and the Reid-Tai minimum of the one germ of order h (both made
        # faithful, as a tuple that is not well-formed needs)
        w = Weights(entries)
        germs = {
            h: faithful(h, runs=positive(order_residues(w.multiplicities(), h)).items())
            for h in strata_orders(w.multiplicities())
        }
        for stratum in singular_strata(w):
            germ = germs[stratum.order]
            for k in stratum.indices:
                q = faithful(stratum.order, entries[:k] + entries[k + 1 :])
                assert classify_quotient(q) == classify_quotient(germ), (stratum, k)
                assert quotient_report(q).minimum == quotient_report(germ).minimum, (stratum, k)


class TestCoordinatePointTypes:
    def test_examples(self):
        assert point_types((1, 1, 1, 1)) == []
        assert point_types((1, 1, 2, 5)) == [
            (2, CyclicQuotientSingularity(2, (1, 1, 5))),
            (3, CyclicQuotientSingularity(5, (1, 1, 2))),
        ]
        points = point_types((2, 2, 2, 2, 3, 3, 3))
        assert [k for k, _ in points] == [0, 1, 2, 3, 4, 5, 6]
        assert all(q.order == 2 for k, q in points[:4])
        assert all(q.order == 3 for k, q in points[4:])

    @given(weight_tuples)
    def test_equals_singleton_strata(self, entries):
        # the singletons come first, one per coordinate of weight > 1, in index
        # order, with the weight as order: the report's points are read off them
        strata = singular_strata(Weights(entries))
        heavy = [(k,) for k, a in enumerate(entries) if a > 1]
        assert [s.indices for s in strata[: len(heavy)]] == heavy
        assert [s.order for s in strata[: len(heavy)]] == [entries[k] for (k,) in heavy]
        assert all(len(s.indices) > 1 for s in strata[len(heavy) :])


class TestRunsMatchEntries:
    """Each run-based kernel against its per-coordinate definition."""

    @given(repeated_tuples)
    def test_storage_and_access(self, entries):
        w = Weights(entries)
        n = len(entries)
        assert w.entries == entries and tuple(w) == entries and len(w) == n
        assert [w[i] for i in range(-n, n)] == list(entries) * 2
        assert all(a != b for (a, _), (b, _) in zip(w.runs, w.runs[1:]))
        assert Weights(runs=((a, 1) for a in entries)) == w  # split runs merge back
        assert all(
            CyclicQuotientSingularity(1, runs=w.runs_without(i)).weights
            == entries[:i] + entries[i + 1 :]
            for i in range(n)
        )
        assert w.multiplicities() == {a: entries.count(a) for a in entries}

    @given(repeated_tuples)
    def test_well_formed_matches_naive_definition(self, entries):
        naive = all(
            math.gcd(*entries[:i], *entries[i + 1 :]) == 1 for i in range(len(entries))
        )
        assert well_formed(Weights(entries)) == naive

    @given(repeated_tuples)
    def test_total_and_product(self, entries):
        w = Weights(entries)
        assert w.total() == sum(entries)
        assert w.product() == math.prod(entries)

    @given(repeated_tuples)
    def test_format_parse_round_trip(self, entries):
        text = str(Weights(entries))
        assert text == format_naive(entries)
        assert Weights.parse(text).entries == entries
        assert Weights.parse(text) == Weights(entries)

    @given(repeated_tuples)
    def test_coordinate_point_types_match_index_removal(self, entries):
        expected = [
            (k, faithful(a, entries[:k] + entries[k + 1 :]))
            for k, a in enumerate(entries)
            if a > 1
        ]
        w = Weights(entries)
        # the report's point types drop one coordinate from the runs
        got = [
            (k, faithful(a, runs=w.runs_without(k)))
            for k, a in enumerate(entries)
            if a > 1
        ]
        assert got == expected

    @given(repeated_tuples.map(lambda e: tuple(a - 1 for a in e)), st.integers(1, 13))
    def test_quotient_runs_match_entries(self, entries, order):
        q = faithful(order, entries)
        order, entries = q.order, q.weights
        assert q.weights == entries
        assert str(q) == f"1/{order}({format_naive(entries)})"
        # residues that become equal merge into one run
        residues = CyclicQuotientSingularity(order, runs=((b % order, c) for b, c in q.runs))
        assert residues == CyclicQuotientSingularity(order, (b % order for b in entries))

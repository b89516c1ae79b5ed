import math
import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import Weights
from wph.errors import BudgetError
from wph.families import ample_witness, degree_bound_witness, volume_witness
from wph.hilbert import (
    _raw_table,
    monomial_count,
    monomial_count_enum,
    plurigenera_table,
    plurigenus,
    reaches,
    values_present_below,
    variables_present,
    with_value,
)
from wph.hypersurface import WeightedHypersurface

small_weights = st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple)
# (value, count) runs with repeated values, counts on both sides of up_to // value
weight_runs = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 40)), min_size=1, max_size=4)
# few distinct values, each repeated up to 6 times in a row
repeated_tuples = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 6)), min_size=1, max_size=4
).map(lambda runs: tuple(a for a, count in runs for _ in range(count)))


def table_by_entry(entries, up_to):
    """Oracle: the coin-change table with one pass per coordinate."""
    counts = [0] * (up_to + 1)
    counts[0] = 1
    for a in entries:
        for m in range(a, up_to + 1):
            counts[m] += counts[m - a]
    return counts


def reachable_bits(values, limit):
    """Oracle: bitset of the degrees in [0, limit] realisable over `values`,
    closed under each value by doubling shifts (the kernel before tables)."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for v in values:
        shift = v
        while shift <= limit:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def quasi_smooth_by_value_bitsets(weights, d):
    """Oracle: the criterion over every value set, each with its own bitset."""
    counts = Counter(weights)
    if d in counts:
        return True
    values = sorted(counts)
    for size in range(1, len(values) + 1):
        for value_set in combinations(values, size):
            bits = reachable_bits(value_set, d)
            if (bits >> d) & 1:
                continue
            usable = sum(
                counts[u] for u in values
                if u not in value_set and u <= d and (bits >> (d - u)) & 1
            )
            if usable < sum(counts[v] for v in value_set):
                return False
    return True


def values_by_index(weights, t):
    """The values of the variables that `variables_present` finds in degree t."""
    return {weights[i] for i in variables_present(weights, t)}


def per_degree(masks, top):
    """The masks of `values_present_below` read back as one value set per degree t < top."""
    return [{v for v, mask in masks.items() if mask >> t & 1} for t in range(top)]


class TestMonomialCount:
    def test_examples(self):
        assert monomial_count((1, 1), 5) == 6
        assert monomial_count((2, 3), 6) == 2
        assert monomial_count((4, 5, 6, 7, 23), 4) == 1

    def test_edge_degrees(self):
        assert monomial_count((2, 3), -1) == 0
        assert monomial_count_enum((2, 3), -1) == 0
        assert monomial_count((2, 3), 0) == 1
        assert monomial_count((2, 3), 1) == 0

    def test_single_weight(self):
        for m in range(0, 12):
            assert monomial_count((1,), m) == 1
            assert monomial_count_enum((1,), m) == 1

    def test_accepts_weights_object(self):
        assert monomial_count(Weights((2, 3)), 6) == 2

    def test_rejects_degenerate_weights(self):
        for weights in [(0, 2), ()]:
            with pytest.raises(ValueError):
                monomial_count(weights, 3)

    def test_table_budget(self, monkeypatch):
        monkeypatch.setenv("WPH_TABLE_CAP", "10")
        with pytest.raises(BudgetError):
            monomial_count((1, 2), 100)

    def test_enum_budget(self):
        with pytest.raises(BudgetError):
            monomial_count_enum((1, 2), 201)
        with pytest.raises(BudgetError):
            monomial_count_enum((1,) * 9, 5)


class TestOracleEquivalence:
    @given(small_weights, st.integers(0, 40))
    def test_dp_equals_enumeration(self, weights, m):
        assert monomial_count(weights, m) == monomial_count_enum(weights, m)

    def test_exhaustive_small_grid(self):
        for length in (1, 2, 3):
            for weights in _tuples_up_to(length, 5):
                for m in range(0, 21):
                    assert monomial_count(weights, m) == monomial_count_enum(weights, m)

    def test_randomized_batch(self):
        rng = random.Random(1742)
        for _ in range(220):
            length = rng.randint(1, 6)
            weights = tuple(rng.randint(1, 12) for _ in range(length))
            m = rng.randint(0, 60)
            assert monomial_count(weights, m) == monomial_count_enum(weights, m)

    @given(small_weights, st.integers(1, 9), st.integers(0, 30))
    def test_append_weight_recurrence(self, weights, extra, m):
        total = sum(
            monomial_count(weights, m - i * extra) for i in range(m // extra + 1)
        )
        assert monomial_count(weights + (extra,), m) == total


class TestCountTable:
    def test_values_match_per_degree_for_family_weights(self):
        # the weights and degree ranges that the families workload checks:
        # thm4 up to n = 60 and ample up to n = 100
        members = [
            (rep.hypersurface.weights, rep.parameters["obstruction_degree"])
            for rep in map(degree_bound_witness, range(7, 61))
        ] + [
            (rep.hypersurface.weights, rep.parameters["d"])
            for rep in map(ample_witness, range(1, 101))
        ]
        for weights, top in members:
            counts = table_by_entry(tuple(weights), top - 1)
            masks = values_present_below(weights, top)
            assert top not in masks and all(mask >> top == 0 for mask in masks.values())
            for t, values in enumerate(per_degree(masks, top)):
                assert values == values_by_index(weights, t)
                assert values == {a for a in weights.multiplicities() if a <= t and counts[t - a]}

    @given(repeated_tuples, st.integers(0, 40))
    def test_values_match_per_degree_on_repeated_tuples(self, weights, top):
        counts = table_by_entry(weights, max(top - 1, 0))
        masks = values_present_below(weights, top)
        assert masks.keys() == {a for a in weights if a < top}
        for t, values in enumerate(per_degree(masks, top)):
            assert values == values_by_index(weights, t)
            assert values == {a for a in weights if a <= t and counts[t - a]}

    @given(small_weights, st.integers(0, 30))
    def test_mask_bits_match_enumeration(self, weights, top):
        # bit t of the mask of v is set iff v <= t and some monomial has degree t - v
        masks = values_present_below(weights, top)
        for v in set(weights):
            for t in range(top + 3):
                expected = t < top and v <= t and monomial_count_enum(weights, t - v) > 0
                assert bool(masks.get(v, 0) >> t & 1) == expected, (v, t)

    def test_invariants(self):
        # one table serves every degree below `top`, degree 0 has no variable,
        # and only values below `top` have a mask
        assert values_present_below((2, 3), 0) == {}
        assert values_present_below((2, 3), 1) == {}
        assert values_present_below((2, 3), 10) == {2: 0b1111110100, 3: 0b1111101000}
        assert values_present_below((1, 1, 2, 5), 3) == {1: 0b110, 2: 0b100}

    def test_monotone_under_adding_weights(self):
        base = [monomial_count((2, 5), m) for m in range(31)]
        grown = [monomial_count((2, 5, 3), m) for m in range(31)]
        assert all(g >= b for b, g in zip(base, grown))

    def test_binomial_check_on_unit_weights(self):
        for m in range(13):
            assert monomial_count((1, 1, 1, 1), m) == math.comb(m + 3, 3)


class TestRunTable:
    @given(weight_runs, st.integers(0, 120))
    def test_matches_the_per_entry_table(self, runs, up_to):
        entries = tuple(a for a, count in runs for _ in range(count))
        assert _raw_table(runs, up_to) == table_by_entry(entries, up_to)

    # the oracle visits every monomial: at most 5 weights and degree 20 keep it
    # near C(24, 4) leaves, and c > m // v still happens (v = 5, c = 5, m = 20)
    @given(weight_runs.filter(lambda runs: sum(c for _, c in runs) <= 5), st.integers(0, 20))
    def test_matches_enumeration(self, runs, m):
        entries = tuple(a for a, count in runs for _ in range(count))
        assert _raw_table(runs, m)[m] == monomial_count_enum(entries, m)

    @pytest.mark.parametrize("value", [1, 2, 3, 7])
    def test_both_sides_of_the_pass_count_switch(self, value):
        # c passes while c <= up_to // value, one series product above
        up_to = 40
        for count in range(1, up_to // value + 3):
            expected = table_by_entry((value,) * count + (5, 5), up_to)
            assert _raw_table([(value, count), (5, 2)], up_to) == expected
            assert _raw_table([(5, 2), (value, count)], up_to) == expected

    def test_runs_are_read_not_entries(self, monkeypatch):
        # P_1..P_3 of the m = 997,565 volume member: 1^997566 and two weights
        # above 3, so P_j = C(j + 997565, j)
        def refuse(self):
            raise AssertionError("expanded the weights")

        monkeypatch.setattr(Weights, "entries", property(refuse))
        x = volume_witness(2989, 425).hypersurface
        start = time.perf_counter()
        genera = plurigenera_table(x, 3)
        elapsed = time.perf_counter() - start
        assert genera == tuple(math.comb(j + 997565, j) for j in (1, 2, 3))
        assert elapsed < 0.1, elapsed
        assert monomial_count(x.weights, 2) == math.comb(997567, 2)
        assert per_degree(values_present_below(x.weights, 4), 4) == [set(), {1}, {1}, {1}]


class TestVariablesPresent:
    def test_examples(self):
        assert variables_present((1, 1, 2, 5), 4) == {0, 1, 2}
        assert variables_present((2, 2, 2, 2, 3, 3, 3, 6, 6), 5) == {0, 1, 2, 3, 4, 5, 6}
        assert variables_present((1, 1, 2, 5), 0) == set()
        with pytest.raises(ValueError, match="degree must be >= 0"):
            variables_present((2, 3), -1)

    @given(small_weights, st.integers(0, 25))
    def test_membership_matches_count_definition(self, weights, t):
        present = variables_present(weights, t)
        for i, a in enumerate(weights):
            expected = t >= a and monomial_count(weights, t - a) > 0
            assert (i in present) == expected


class TestPlurigenus:
    def test_min_volume_threefold(self):
        x = WeightedHypersurface(Weights((4, 5, 6, 7, 23)), 46)
        assert [plurigenus(x, m) for m in (1, 2, 3)] == [0, 0, 0]
        assert plurigenus(x, 4) == 1
        assert plurigenera_table(x, 4) == (0, 0, 0, 1)
        with pytest.raises(ValueError, match="plurigenus index must be >= 1"):
            plurigenus(x, 0)
        with pytest.raises(ValueError, match="up_to must be >= 0"):
            plurigenera_table(x, -1)

    def test_consecutive_family_k2(self):
        x = WeightedHypersurface(Weights((2, 2, 2, 2, 3, 3, 3)), 18)
        assert plurigenus(x, 1) == 0
        assert plurigenus(x, 2) == 4

    def test_quintic_surface_classical_values(self):
        # ordinary projective space: N(m) - N(m - d) against binomials
        x = WeightedHypersurface(Weights((1, 1, 1, 1)), 5)
        for m in range(1, 8):
            expected = math.comb(m + 3, 3) - (
                math.comb(m - 5 + 3, 3) if m - 5 >= 0 else 0
            )
            assert plurigenus(x, m) == expected
        assert plurigenus(x, 1) == 4  # geometric genus of the quintic surface

    def test_rejects_nonpositive_amplitude(self):
        cubic = WeightedHypersurface(Weights((1, 1, 1)), 3)
        with pytest.raises(ValueError):
            plurigenus(cubic, 1)
        with pytest.raises(ValueError):
            plurigenera_table(cubic, 3)

    def test_empty_table_still_checks_the_amplitude(self):
        with pytest.raises(ValueError, match=r"^amplitude -5 < 1"):
            plurigenera_table(WeightedHypersurface(Weights((1, 2, 3, 4)), 5), 0)
        assert plurigenera_table(WeightedHypersurface(Weights((1, 2, 3, 4)), 11), 0) == ()

    @given(st.lists(st.integers(1, 9), min_size=3, max_size=6).map(tuple), st.integers(1, 6))
    def test_nonnegative_and_early_table_identity(self, weights, m):
        degree = sum(weights) + 1
        x = WeightedHypersurface(Weights(weights), degree)
        value = plurigenus(x, m)
        assert value >= 0
        if m * x.amplitude < degree:
            assert value == monomial_count(weights, m * x.amplitude)

    def test_zero_below_min_weight(self):
        x = WeightedHypersurface(Weights((3, 4, 5, 7)), 20)
        assert x.amplitude == 1
        assert plurigenus(x, 1) == 0
        assert plurigenus(x, 2) == 0
        assert plurigenus(x, 3) == 1


class TestVanishingThreshold:
    def test_examples(self):
        x18 = WeightedHypersurface(Weights((2, 2, 2, 2, 3, 3, 3)), 18)
        assert plurigenera_table(x18, 2) == (0, 4)
        x46 = WeightedHypersurface(Weights((4, 5, 6, 7, 23)), 46)
        assert plurigenera_table(x46, 4) == (0, 0, 0, 1)

    def test_unit_weight_gives_zero(self):
        x = WeightedHypersurface(Weights((1, 2, 3, 5)), 12)
        assert x.amplitude == 1
        assert plurigenera_table(x, 1)[0] != 0


def _tuples_up_to(length, max_entry):
    if length == 0:
        yield ()
        return
    for first in range(1, max_entry + 1):
        for rest in _tuples_up_to(length - 1, max_entry):
            yield (first,) + rest


class TestReachabilityTable:
    # repeated values, in any order; degrees up to 10^4
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=7), st.integers(0, 10**4))
    def test_matches_the_bitset_oracle(self, values, limit):
        bits = reachable_bits(values, limit)
        for order in (values, sorted(values)):
            table = reduce(with_value, order, [])
            assert len(table) == order[0]
            assert all(reaches(table, t) == bool((bits >> t) & 1) for t in range(limit + 1))

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=5), st.integers(1, 200))
    def test_adding_a_value_leaves_the_argument_alone(self, values, v):
        table = reduce(with_value, values, [])
        before = list(table)
        with_value(table, v)
        assert table == before

    def test_entries_are_the_least_degrees_per_residue(self):
        # {5, 7}: the Apery set of 7 in the semigroup they make
        assert reduce(with_value, (5, 7), []) == [0, 21, 7, 28, 14]
        assert reduce(with_value, (4, 6), []) == [0, math.inf, 6, math.inf]
        assert reaches([0, 21, 7, 28, 14], 23) is False  # Frobenius number of {5, 7}
        assert reaches([0, 21, 7, 28, 14], 24) is True

    @given(repeated_tuples.filter(lambda w: len(w) >= 3), st.data())
    def test_quasi_smooth_matches_the_bitset_oracle(self, weights, data):
        # a random degree, a Fermat degree (every weight divides it) and a
        # Fermat degree plus a weight, so both verdicts occur at large d
        lcm = math.lcm(*weights)
        c = data.draw(st.integers(1, max(1, 10**4 // lcm)))
        shift = data.draw(st.sampled_from(weights))
        for d in (data.draw(st.integers(1, 10**4)), c * lcm, c * lcm + shift):
            x = WeightedHypersurface(Weights(weights), d)
            assert x.quasi_smooth() == quasi_smooth_by_value_bitsets(weights, d), (weights, d)

    def test_no_table_grows_with_the_degree(self):
        # every table here has at most 5 cells, whatever d is
        d = 10**12 + 1
        assert not WeightedHypersurface(Weights((2, 3, 5)), d).quasi_smooth()
        assert WeightedHypersurface(Weights((2, 3, 5)), 30 * 10**11).quasi_smooth()
        assert variables_present((2, 3, 5), d) == {0, 1, 2}

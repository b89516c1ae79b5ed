import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wph.core import Weights
from wph.errors import BudgetError
from wph.families import ample_witness, degree_bound_witness
from wph.hilbert import (
    monomial_count,
    monomial_count_enum,
    plurigenera_table,
    plurigenus,
    variables_present,
    variables_present_below,
)
from wph.hypersurface import WeightedHypersurface

small_weights = st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple)


class TestMonomialCount:
    def test_examples(self):
        assert monomial_count((1, 1), 5) == 6
        assert monomial_count((2, 3), 6) == 2
        assert monomial_count((4, 5, 6, 7, 23), 4) == 1

    def test_edge_degrees(self):
        assert monomial_count((2, 3), -1) == 0
        assert monomial_count((2, 3), 0) == 1
        assert monomial_count((2, 3), 1) == 0

    def test_single_weight(self):
        for m in range(0, 12):
            assert monomial_count((1,), m) == 1
            assert monomial_count_enum((1,), m) == 1

    def test_accepts_weights_object(self):
        assert monomial_count(Weights((2, 3)), 6) == 2

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
    def test_table_matches_per_degree_for_family_weights(self):
        # the weights and degree ranges that the thm4 and ample witnesses check
        for n in range(7, 41):
            bound, ample = degree_bound_witness(n), ample_witness(n)
            for rep, top in (
                (bound, bound.parameters["obstruction_degree"]),
                (ample, ample.parameters["d"]),
            ):
                weights = rep.hypersurface.weights
                expected = [variables_present(weights, t) for t in range(top)]
                assert variables_present_below(weights, top) == expected

    def test_invariants(self):
        # one table serves every degree below `top`, and degree 0 has no variable
        assert variables_present_below((2, 3), 0) == []
        assert variables_present_below((2, 3), 1) == [set()]
        assert len(variables_present_below((2, 3), 10)) == 10

    def test_monotone_under_adding_weights(self):
        base = [monomial_count((2, 5), m) for m in range(31)]
        grown = [monomial_count((2, 5, 3), m) for m in range(31)]
        assert all(g >= b for b, g in zip(base, grown))

    def test_binomial_check_on_unit_weights(self):
        for m in range(13):
            assert monomial_count((1, 1, 1, 1), m) == math.comb(m + 3, 3)


class TestVariablesPresent:
    def test_examples(self):
        assert variables_present((1, 1, 2, 5), 4) == {0, 1, 2}
        assert variables_present((2, 2, 2, 2, 3, 3, 3, 6, 6), 5) == {0, 1, 2, 3, 4, 5, 6}
        assert variables_present((1, 1, 2, 5), 0) == set()

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

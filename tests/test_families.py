import math
import tracemalloc
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wph.core import CyclicQuotientSingularity
from wph.errors import ParameterError
from wph.families import (
    DEFAULT_VOLUME_TARGETS,
    FAMILY_IDS,
    ample_witness,
    consecutive_family,
    degree_bound_witness,
    vanishing_witness,
    verify_all,
    verify_family,
    volume_witness,
)
from wph.hilbert import plurigenera_table, plurigenus
from wph.hypersurface import WeightedHypersurface
from wph.singularity import SingularityClass, classify_quotient


class TestConsecutiveFamily:
    def test_k2_l0(self):
        rep = consecutive_family(2, 0)
        x = rep.hypersurface
        assert x.weights.entries == (2, 2, 2, 2, 3, 3, 3)
        assert x.degree == 18
        assert x.dimension == 5
        assert x.volume() == Fraction(1, 24)
        assert rep.passed

    def test_k2_l1(self):
        rep = consecutive_family(2, 1)
        assert rep.hypersurface.degree == 24
        assert rep.hypersurface.volume() == Fraction(1, 108)
        assert rep.passed

    def test_k3_l0(self):
        rep = consecutive_family(3, 0)
        assert rep.hypersurface.weights.entries == (3,) * 5 + (4,) * 5
        assert rep.hypersurface.degree == 36
        assert rep.hypersurface.volume() == Fraction(1, 6912)
        assert rep.passed

    def test_rejects_small_k(self):
        with pytest.raises(ParameterError):
            consecutive_family(1, 0)
        with pytest.raises(ParameterError):
            consecutive_family(2, -1)

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("l", range(0, 5))
    def test_grid_all_pass_with_exact_closed_form(self, k, l):
        rep = consecutive_family(k, l)
        assert rep.passed, rep.checks
        x = rep.hypersurface
        assert x.volume() == Fraction(
            l + 3, k ** (k + 1 + l) * (k + 1) ** (2 * k - 2 + l)
        )
        assert x.dimension == 3 * k + l - 1
        assert x.amplitude == 1


class TestVanishingWitness:
    def test_n5(self):
        rep = vanishing_witness(5)
        assert rep.parameters["k"] == 2 and rep.parameters["l"] == 0
        assert rep.hypersurface.degree == 18
        assert plurigenera_table(rep.hypersurface, 2) == (0, 4)
        assert rep.hypersurface.volume() == Fraction(1, 24)
        assert Fraction(1, 24) < Fraction(729, 1024)
        assert rep.passed

    def test_n6(self):
        rep = vanishing_witness(6)
        assert rep.parameters["k"] == 2 and rep.parameters["l"] == 1
        assert rep.hypersurface.degree == 24
        assert rep.hypersurface.volume() == Fraction(1, 108)
        assert Fraction(1, 108) < Fraction(3**7, 5**6)
        assert rep.passed

    def test_n8(self):
        rep = vanishing_witness(8)
        assert rep.parameters["k"] == 3
        x = rep.hypersurface
        assert plurigenus(x, 1) == 0 and plurigenus(x, 2) == 0
        assert rep.passed

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            vanishing_witness(4)

    @pytest.mark.parametrize("n", range(5, 31))
    def test_threshold_at_least_k_minus_one(self, n):
        rep = vanishing_witness(n)
        assert rep.passed, rep.checks
        k = rep.parameters["k"]
        assert plurigenera_table(rep.hypersurface, k - 1) == (0,) * (k - 1)


class TestDegreeBoundWitness:
    def test_n7(self):
        rep = degree_bound_witness(7)
        x = rep.hypersurface
        assert x.weights.entries == (2, 2, 2, 2, 3, 3, 3, 6, 6)
        assert x.degree == 30
        assert rep.parameters["obstruction_degree"] == 6
        assert Fraction(6) >= Fraction(7 * 4, 9)
        assert rep.passed

    def test_n10(self):
        rep = degree_bound_witness(10)
        assert rep.parameters["k"] == 3
        assert rep.parameters["obstruction_degree"] == 12
        assert Fraction(12) >= Fraction(10 * 7, 9)
        assert rep.passed

    def test_n9_equality_boundary(self):
        rep = degree_bound_witness(9)
        assert rep.parameters["obstruction_degree"] == 6
        assert Fraction(6) == Fraction(9 * 6, 9)
        assert rep.passed

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            degree_bound_witness(6)

    def test_pure_bound_arithmetic_up_to_100(self):
        for n in range(7, 101):
            k = (n - 1) // 3
            assert 9 * k * (k + 1) >= n * (n - 3)


class TestAmpleWitness:
    def test_n2(self):
        rep = ample_witness(2)
        x = rep.hypersurface
        assert x.weights.entries == (1, 1, 2, 5)
        assert x.degree == 10
        from wph.hilbert import variables_present

        for t in range(5):
            assert 3 not in variables_present(x.weights, t)
        assert rep.passed

    def test_n3(self):
        rep = ample_witness(3)
        assert rep.hypersurface.weights.entries == (1, 1, 1, 1, 5)
        assert rep.hypersurface.degree == 10
        assert rep.parameters["d"] == 5
        assert rep.passed

    def test_n4(self):
        rep = ample_witness(4)
        assert rep.hypersurface.weights.entries == (1, 1, 1, 1, 2, 7)
        assert rep.hypersurface.degree == 14
        assert rep.parameters["d"] == 7
        assert rep.passed

    def test_n1_genus_two_curve(self):
        rep = ample_witness(1)
        x = rep.hypersurface
        assert x.weights.entries == (1, 1, 3)
        assert x.degree == 6
        assert x.dimension == 1
        assert x.volume() == 2  # degree of the canonical class: 2g - 2 with g = 2
        assert any("genus 2" in note for note in rep.notes)
        assert rep.passed

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ample_witness(0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_range_passes(self, n):
        rep = ample_witness(n)
        assert rep.passed, rep.checks
        expected_obstruction = n + 3 if n % 2 == 0 else n + 2
        assert rep.parameters["d"] == expected_obstruction


class TestVolumeWitness:
    def test_half(self):
        rep = volume_witness(1, 2)
        x = rep.hypersurface
        assert rep.parameters["b"] == 3 and rep.parameters["a"] == 5
        assert x.weights.entries == (1, 1, 1, 1, 5, 2, 3)
        assert x.degree == 15
        assert x.volume() == Fraction(1, 2)
        assert rep.passed

    def test_two_thirds(self):
        rep = volume_witness(2, 3)
        x = rep.hypersurface
        assert rep.parameters["b"] == 2 and rep.parameters["t"] == 1
        assert rep.parameters["a"] == 5
        assert x.weights.entries == (1,) * 9 + (5, 3, 2)
        assert x.degree == 20
        assert x.weights.total() == 19
        assert x.volume() == Fraction(2, 3)
        assert rep.passed

    def test_integer_volume(self):
        rep = volume_witness(3, 1)
        x = rep.hypersurface
        assert rep.parameters["b"] == 1 and rep.parameters["a"] == 2
        assert x.weights.entries == (1, 2, 1, 1)
        assert x.degree == 6
        assert x.volume() == 3
        assert rep.passed

    def test_member_point_terminal(self):
        rep = volume_witness(5, 7)
        x = rep.hypersurface
        m = rep.parameters["unit_weights"]
        s_index = m + 1
        member = x.member_type_at(s_index)
        assert member == CyclicQuotientSingularity(7, (1,) * m + (rep.parameters["b"],))
        assert classify_quotient(member) == SingularityClass.TERMINAL

    @given(st.integers(1, 10_000), st.integers(1, 200))
    @example(1, 1)
    @example(1, 2)
    @example(7, 1)
    @example(1, 200)
    def test_default_b_is_the_least_inverse(self, r, s):
        assume(math.gcd(r, s) == 1)
        # the former linear scan, kept as the oracle of the modular inverse
        b = next(b for b in range(1, s + 1) if (b * r) % s == 1 % s)
        while r * b <= 1:
            b += s
        assert volume_witness(r, s).parameters["b"] == b

    def test_rejects_non_coprime(self):
        with pytest.raises(ParameterError):
            volume_witness(2, 4)
        with pytest.raises(ParameterError, match="volume must be a ratio of positive integers"):
            volume_witness(0, 5)

    def test_rejects_bad_overrides(self):
        with pytest.raises(ParameterError):
            volume_witness(1, 2, b=2)  # 2*1 is not 1 mod 2
        with pytest.raises(ParameterError):
            volume_witness(1, 2, a=2, b=3)  # gcd(a, s) = 2
        with pytest.raises(ParameterError):
            volume_witness(1, 2, a=3, b=3)  # gcd(a, b) = 3
        with pytest.raises(ParameterError, match="parameters give -4 unit weights"):
            volume_witness(1, 2, a=1, b=3)  # m = a(rb - 1) - s - b - 1

    def test_rejects_b_that_admits_no_a(self):
        # r*b = 1 leaves m = -s - 2 unit weights for every a
        with pytest.raises(ParameterError):
            volume_witness(1, 5, b=1)

    def test_volume_in_dimension_above_a_billion(self):
        # the paper's "arbitrarily big dimension": for 355/113 (b = 106), a = 26577
        # is the least a coprime to s and b with m = a(rb - 1) - s - b - 1 > 10^9
        rep = volume_witness(355, 113, a=26577)
        assert rep.parameters["unit_weights"] == 1_000_065_713
        assert rep.passed, rep.checks
        x = rep.hypersurface
        assert x.dimension == 1_000_065_714
        assert x.volume() == Fraction(355, 113)

    def test_large_member_never_holds_an_m_length_tuple(self):
        # m = 997,565 unit weights; a tuple of them alone would take 8 MB
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = volume_witness(2989, 425)
            text = str(rep.hypersurface)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rep.parameters["unit_weights"] == 997_565 and rep.passed
        assert "P(1^997566,425,334)" in text
        assert peak < 2_000_000, peak

    def test_override_reproduces_other_choices(self):
        rep = volume_witness(1, 2, a=7, b=3)
        assert rep.hypersurface.volume() == Fraction(1, 2)
        assert rep.passed

    def test_idempotent(self):
        first = volume_witness(5, 7)
        second = volume_witness(5, 7)
        assert first == second

    @pytest.mark.parametrize("r,s", DEFAULT_VOLUME_TARGETS)
    def test_acceptance_targets(self, r, s):
        rep = volume_witness(r, s)
        x = rep.hypersurface
        assert rep.passed, rep.checks
        assert x.weights.total() == x.degree - 1
        assert x.volume() == Fraction(r, s)

    @pytest.mark.parametrize("r,s", DEFAULT_VOLUME_TARGETS)
    def test_volume_in_growing_dimension(self, r, s):
        # the first five valid a from the default on: every member has volume
        # r/s and passes, and the member dimension grows with a
        first = volume_witness(r, s)
        b = first.parameters["b"]
        valid = (a for a in count(first.parameters["a"]) if math.gcd(a, s) == math.gcd(a, b) == 1)
        dimensions = []
        for a in islice(valid, 5):
            rep = volume_witness(r, s, a=a)
            assert rep.passed, (a, rep.checks)
            assert rep.hypersurface.volume() == Fraction(r, s)
            dimensions.append(rep.hypersurface.dimension)
        assert all(low < high for low, high in zip(dimensions, dimensions[1:])), dimensions


class TestVerifyAll:
    def test_small_slice_passes(self):
        reports = (
            verify_family("prop", k=(2,), l=(0, 1))
            + verify_family("thm3", n=(5, 6))
            + verify_family("thm4", n=(7,))
            + verify_family("ample", n=(1, 2, 3))
            + verify_family("volume", q=((1, 2), (3, 1)))
        )
        assert all(r.passed for r in reports)
        assert len(reports) == 10

    def test_deterministic_order(self):
        slices = {
            "prop": {"k": (2,), "l": (0,)},
            "thm3": {"n": (5,)},
            "thm4": {"n": (7,)},
            "ample": {"n": (2,)},
            "volume": {"q": ((1, 2),)},
        }
        a = [r for fid in FAMILY_IDS for r in verify_family(fid, **slices[fid])]
        b = [r for fid in FAMILY_IDS for r in verify_family(fid, **slices[fid])]
        assert [r.family for r in a] == list(FAMILY_IDS)
        assert a == b

    def test_constructor_lookup(self):
        assert verify_family("prop", k=[3], l=[1]) == [consecutive_family(3, 1)]
        assert verify_family("volume", q=[(5, 7)]) == [volume_witness(5, 7)]
        with pytest.raises(ParameterError):
            verify_family("nonsense")

    def test_family_defaults_are_the_verify_all_ranges(self):
        everything = verify_all()
        by_family = [r for fid in FAMILY_IDS for r in verify_family(fid)]
        assert everything == by_family
        # a member is its weights and degree: equal to the plain hypersurface
        for r in everything:
            x = r.hypersurface
            assert x == WeightedHypersurface(x.weights, x.degree), str(x)
        assert [r.parameters["n"] for r in verify_family("thm4")] == list(range(7, 31))
        assert len(verify_family("prop")) == 25

    def test_empty_parameter_list_is_a_parameter_error(self):
        # an empty range would verify nothing and pass
        with pytest.raises(ParameterError, match="no values given for n"):
            verify_family("thm3", n=[])
        with pytest.raises(ParameterError, match="no values given for k"):
            verify_family("prop", k=range(3, 3), l=[0])

    def test_every_default_member_is_quasi_smooth_and_canonical(self):
        # the plurigenus formula the families rest on assumes both; with the
        # default caps, the thm3/thm4 members with n >= 19 and prop k = 6 have
        # 21 or more weights > 1
        members = [r.hypersurface for r in verify_all()]
        assert len(members) == 101
        for x in members:
            assert x.quasi_smooth(), x
            assert x.member_canonical(), x

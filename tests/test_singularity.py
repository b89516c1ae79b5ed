import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wph.config
import wph.singularity
from wph.core import CyclicQuotientSingularity, Weights, singular_strata
from wph.core import well_formed
from wph.errors import BudgetError, NotWellFormedError
from wph.hypersurface import WeightedHypersurface
from wph.singularity import (
    _BLOCK,
    SingularityClass,
    _class_of,
    _closed_class,
    _germ_class,
    _prime_bound,
    _scan,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    member_walk,
    order_classes,
    parse_quotient,
    quotient_report,
    reid_tai_sum,
)
from test_core import faithful
from test_hypersurface import induced_by_index, repeated_tuples, unit_padded_tuples
from test_search import closed_form_reference


def reduced(q: CyclicQuotientSingularity) -> CyclicQuotientSingularity:
    """The same singularity with every weight replaced by its residue mod r."""
    return CyclicQuotientSingularity(q.order, tuple(b % q.order for b in q.weights))


def nontrivial(germs):
    """The germs of a strategy that `faithful` left of order > 1."""
    return germs.filter(lambda q: q.order > 1)


quotients = nontrivial(st.builds(
    faithful,
    st.integers(2, 40),
    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(tuple),
))
# quotient weights given as runs with counts up to 30
repeated_quotients = nontrivial(st.builds(
    lambda order, runs: faithful(order, runs=runs),
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), min_size=1, max_size=4),
))


@st.composite
def shaped_quotients(draw):
    """Quotients of the shapes the folded scan treats apart: complementary pairs
    (b, r - b) with independent counts, r/2, residues sharing a factor with r
    (terms periodic in j) and zero residues, at orders of both parities; the
    order and the residues are then divided by their gcd, to stay faithful."""
    r = draw(st.integers(2, 300))
    runs = []
    for shape in draw(st.lists(st.sampled_from(["pair", "half", "shared", "zero", "any"]),
                               min_size=1, max_size=5)):
        count = draw(st.integers(1, 4))
        if shape == "pair":
            b = draw(st.integers(1, r - 1))
            runs += [(b, count), (r - b, draw(st.integers(1, 4)))]
        elif shape == "half":
            runs.append((r // 2, count))
        elif shape == "shared":
            f = draw(st.sampled_from([f for f in range(2, r + 1) if r % f == 0]))
            runs.append((f * draw(st.integers(1, r // f)), count))
        elif shape == "zero":
            runs.append((r * draw(st.integers(0, 2)), count))
        else:
            runs.append((draw(st.integers(0, 2 * r)), count))
    q = faithful(r, runs=runs)
    assume(q.order > 1)
    return q


@st.composite
def frame_quotients(draw):
    """Quotients past the first block of the scan (orders 129-5,000), read at
    k = j * u mod r for the unit residue u of largest folded coefficient: single
    residues with counts, +- pairs and zero residues; at composite orders, half
    the draws take every residue from multiples of a proper divisor of r, so
    that no residue is a unit and the scan keeps the plain frame, u = 1.  Only
    faithful draws are kept, since dividing by a gcd would move the order."""
    r = draw(st.integers(129, 5000))
    divisors = [f for f in range(2, r) if r % f == 0]
    plain = bool(divisors) and draw(st.booleans())

    def residue():
        if not plain:
            return draw(st.integers(1, r - 1))
        f = draw(st.sampled_from(divisors))
        return f * draw(st.integers(1, r // f - 1))

    runs = []
    for shape in draw(st.lists(st.sampled_from(["single", "pair", "zero"]),
                               min_size=1, max_size=4)):
        count, b = draw(st.integers(1, 4)), residue()
        if shape == "pair":
            runs += [(b, count), (r - b, draw(st.integers(1, 4)))]
        elif shape == "zero":
            runs.append((r * draw(st.integers(0, 2)), count))
        else:
            runs.append((b + r * draw(st.integers(0, 1)), count))
    assume(gcd(r, *(b for b, _ in runs)) == 1)
    return CyclicQuotientSingularity(r, runs=runs)


def test_reid_tai_sum_examples():
    assert reid_tai_sum(CyclicQuotientSingularity(2, (1, 1)), 1) == 1
    assert reid_tai_sum(CyclicQuotientSingularity(3, (1, 1)), 1) == Fraction(2, 3)
    assert reid_tai_sum(CyclicQuotientSingularity(2, (0, 0, 1, 1, 1)), 1) == Fraction(3, 2)


def test_reid_tai_sum_rejects_bad_multiplier():
    s = CyclicQuotientSingularity(3, (1, 2))
    for j in (0, 3, -1):
        with pytest.raises(ValueError):
            reid_tai_sum(s, j)


def test_reid_tai_min_examples():
    assert quotient_report(CyclicQuotientSingularity(2, (1, 1))).minimum == 1
    assert quotient_report(CyclicQuotientSingularity(3, (1, 2))).minimum == 1
    assert quotient_report(CyclicQuotientSingularity(2, (1, 1, 1))).minimum == Fraction(3, 2)


def test_order_budget():
    with pytest.raises(BudgetError):
        quotient_report(CyclicQuotientSingularity(2_000_000, (1,)))


class TestClassify:
    def test_examples(self):
        assert (
            classify_quotient(CyclicQuotientSingularity(2, (1, 1)))
            == SingularityClass.CANONICAL_NOT_TERMINAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(2, (1, 1, 1)))
            == SingularityClass.TERMINAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(3, (1, 1)))
            == SingularityClass.NOT_CANONICAL
        )
        assert (
            classify_quotient(CyclicQuotientSingularity(1, (7,)))
            == SingularityClass.SMOOTH
        )

    @pytest.mark.parametrize("s,b", [(2, 1), (3, 2), (5, 3), (7, 4), (11, 10)])
    def test_many_units_terminal(self, s, b):
        # 1/s(1^m, b) with m >= s and gcd(b, s) = 1 is terminal
        for m in (s, s + 1, 2 * s):
            q = CyclicQuotientSingularity(s, (1,) * m + (b,))
            assert classify_quotient(q) == SingularityClass.TERMINAL

    def test_one_and_r_minus_one(self):
        for r in range(2, 51):
            q = CyclicQuotientSingularity(r, (1, r - 1))
            assert classify_quotient(q) == SingularityClass.CANONICAL_NOT_TERMINAL
            assert quotient_report(q).minimum == 1

    def test_class_ordering(self):
        assert SingularityClass.TERMINAL.is_canonical
        assert SingularityClass.SMOOTH.is_terminal
        assert not SingularityClass.NOT_CANONICAL.is_canonical
        assert (
            SingularityClass.SMOOTH
            > SingularityClass.TERMINAL
            > SingularityClass.CANONICAL_NOT_TERMINAL
            > SingularityClass.NOT_CANONICAL
        )

    @given(quotients)
    def test_consistent_with_min(self, q):
        minimum = quotient_report(q).minimum
        expected = (
            SingularityClass.TERMINAL
            if minimum > 1
            else SingularityClass.CANONICAL_NOT_TERMINAL
            if minimum == 1
            else SingularityClass.NOT_CANONICAL
        )
        assert classify_quotient(q) == expected

    @given(quotients)
    def test_permutation_and_mod_r_invariance(self, q):
        reference = classify_quotient(q)
        assert classify_quotient(reduced(q)) == reference
        shuffled = CyclicQuotientSingularity(q.order, tuple(reversed(q.weights)))
        assert classify_quotient(shuffled) == reference

    @given(quotients)
    def test_zero_residue_weight_is_inert(self, q):
        extended = CyclicQuotientSingularity(q.order, q.weights + (q.order,))
        assert quotient_report(extended).minimum == quotient_report(q).minimum
        assert classify_quotient(extended) == classify_quotient(q)

    def test_random_invariance_batch(self):
        rng = random.Random(20260809)
        for _ in range(250):
            r = rng.randint(2, 60)
            m = rng.randint(1, 7)
            q = faithful(r, tuple(rng.randint(0, 3 * r) for _ in range(m)))
            reference = classify_quotient(q)
            perm = list(q.weights)
            rng.shuffle(perm)
            assert classify_quotient(CyclicQuotientSingularity(q.order, tuple(perm))) == reference
            assert classify_quotient(reduced(q)) == reference


def test_quasi_reflection_flag():
    # order 2 acting on one coordinate only
    assert quotient_report(CyclicQuotientSingularity(2, (0, 1))).quasi_reflection
    assert not quotient_report(CyclicQuotientSingularity(2, (1, 1))).quasi_reflection
    # verdict is unchanged by the flag
    assert (
        classify_quotient(CyclicQuotientSingularity(2, (0, 1)))
        == SingularityClass.NOT_CANONICAL
    )


def assert_report_matches_plain_scan(q):
    """Compare `quotient_report` with a plain per-j scan; returns its totals."""
    residues = [[(j * b) % q.order for b in q.weights] for j in range(1, q.order)]
    totals = [sum(row) for row in residues]
    least = min(totals)
    rep = quotient_report(q)
    assert rep.minimum == Fraction(least, q.order)
    assert rep.at_multiplier == totals.index(least) + 1
    assert rep.quasi_reflection == any(
        sum(1 for x in row if x) <= 1 for row in residues
    )
    assert rep.sclass == classify_quotient(q)
    assert [reid_tai_sum(q, j) for j in range(1, q.order)] == [
        Fraction(t, q.order) for t in totals
    ]
    return totals


@given(quotients)
def test_quotient_report_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


@given(repeated_quotients)
def test_quotient_report_on_runs_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


@given(shaped_quotients())
def test_quotient_report_on_shaped_quotients_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


@settings(max_examples=30, deadline=None)
@given(frame_quotients())
def test_quotient_report_past_the_first_block_matches_plain_scan(q):
    assert_report_matches_plain_scan(q)


def test_quotient_report_contents():
    rep = quotient_report(CyclicQuotientSingularity(3, (1, 1)))
    assert rep.sclass == SingularityClass.NOT_CANONICAL
    assert rep.minimum == Fraction(2, 3)
    assert rep.at_multiplier == 1
    assert not rep.quasi_reflection
    smooth = quotient_report(CyclicQuotientSingularity(1, (4,)))
    assert smooth.sclass == SingularityClass.SMOOTH
    assert smooth.minimum is None


def _next_prime(n):
    n += 1
    while any(n % f == 0 for f in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def _block(k):
    """The index of the scan block holding k: blocks of 64, 128, ..., `_BLOCK`,
    then `_BLOCK` each."""
    start, size, index = 1, 64, 0
    while start + size <= k:
        start, size, index = start + size, min(2 * size, _BLOCK), index + 1
    return index


# 1/(3p)(...) with p the first prime above _BLOCK: weights divisible by 3 vanish
# exactly at j = p and 2p, which lie past the first block and in different
# blocks; the only unit residue with more copies than its complement, if any,
# is 1, so the scan reads these in its plain frame, k = j
_P = _next_prime(_BLOCK)


class TestBlockEdges:
    """The blocked scan against the plain per-j scan where blocks start and end:
    the scan reads k in [1, r//2] in blocks ending at k = 64, 192, 448, 960,
    1984, 4032 and then every `_BLOCK`."""

    @pytest.mark.parametrize(
        "order",
        [
            64, 129, 130, 131, 192, 385, 387, 448, 897, 899, 3969, 3971, 8065, 8067,
            _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
            2 * _BLOCK + 2, _next_prime(3 * _BLOCK), 4 * _BLOCK + 2,
        ],
    )
    def test_matches_plain_scan_across_blocks(self, order):
        rng = random.Random(order)

        def faithful_draw(*fixed):
            """A residue mod r, drawn until it keeps the germ of `fixed` and
            itself faithful at this order."""
            b = rng.randrange(order)
            while gcd(order, *fixed, b) > 1:
                b = rng.randrange(order)
            return b

        for size in (2, 3, 5):
            weights = tuple(rng.randrange(order) for _ in range(size - 1))
            weights += (faithful_draw(*weights),)
            assert_report_matches_plain_scan(CyclicQuotientSingularity(order, weights))
        # with f the least prime factor of a composite r, residues f and r/f
        # share it with r: their terms drop at j = 0 mod r/f and mod f, on both
        # sides of a block edge
        f = next(f for f in range(2, order + 1) if order % f == 0)
        runs = ((f, 2), (order - f, 1), (order // f, 1), (faithful_draw(f, order // f), 1))
        assert_report_matches_plain_scan(CyclicQuotientSingularity(order, runs=runs))

    @pytest.mark.parametrize(
        "order, weights, at",
        [
            (7, (1, 6, 3), 5),
            (5, (2, 4, 4), 3),
            (2 * _BLOCK + 1, (1, 2 * _BLOCK, 2), _BLOCK + 1),
            (8460, (109, 6728, 6088), 4269),
        ],
    )
    def test_least_total_only_past_half_the_order(self, order, weights, at):
        # the least total lies past r/2 only: at r - 2; at r - 2 and r - 1, the
        # first coming from the larger j; at r - _BLOCK, which the scan reads at
        # k = 1 in the frame of u = 2; at r - 4191 and r - 2247, read at k = 21
        # and k = 417 in the frame of u = 109, the first from the earlier k
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        assert totals.index(min(totals)) + 1 == at > order / 2
        assert min(totals[: order // 2]) > min(totals)
        assert quotient_report(q).at_multiplier == at

    def test_tied_minimum_keeps_the_first_block(self):
        # totals are r at j = p, 2p and r + (3j mod r) elsewhere
        q = CyclicQuotientSingularity(3 * _P, (1, 3 * _P - 1, 3))
        totals = assert_report_matches_plain_scan(q)
        least = min(totals)
        ties = [j for j, t in enumerate(totals, 1) if t == least]
        assert ties == [_P, 2 * _P] and 0 < _block(_P) < _block(2 * _P)
        assert quotient_report(q).at_multiplier == _P

    @pytest.mark.parametrize(
        "weights, early_below", [((3, 3, 1), True), ((3, 3 * _P - 3, 1), False)]
    )
    def test_only_quasi_reflection_lies_past_the_first_block(self, weights, early_below):
        q = CyclicQuotientSingularity(3 * _P, weights)
        totals = assert_report_matches_plain_scan(q)
        reflecting = [
            j for j in range(1, q.order)
            if sum(c for b, c in q.runs if (j * b) % q.order) <= 1
        ]
        assert reflecting == [_P, 2 * _P] and _block(_P) > 0
        # the flag is a closed form in the periods, whether or not a total
        # below r comes before the reflecting j
        assert (min(totals[:_BLOCK]) < q.order) == early_below
        assert quotient_report(q).quasi_reflection

    def test_first_total_below_r_in_a_later_block(self):
        # totals are r + j, except j at j = p, 2p: the first below r is past block one
        q = CyclicQuotientSingularity(3 * _P, (3, 3 * _P - 3, 1))
        totals = assert_report_matches_plain_scan(q)
        below = [j for j, t in enumerate(totals, 1) if t < q.order]
        assert below == [_P, 2 * _P] and _block(below[0]) > 0
        assert classify_quotient(q) == SingularityClass.NOT_CANONICAL

    def test_memory_does_not_grow_with_the_order(self):
        q = CyclicQuotientSingularity(200_003, (1, 200_002))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = quotient_report(q)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (rep.minimum, rep.at_multiplier) == (1, 1)
        # all 200,002 totals at once would take several MB
        assert peak < 1_000_000


def _frame(q):
    """The unit u of the scan's frame k = j * u mod r: the residue prime to r
    whose count exceeds that of r - u by most, the first in run order on a tie."""
    counts = {}
    for b, count in q.runs:
        counts[b % q.order] = counts.get(b % q.order, 0) + count
    c = {rho: n - counts.get(-rho % q.order, 0) for rho, n in counts.items()
         if gcd(rho, q.order) == 1}
    return next(rho for rho in c if c[rho] == max(c.values()))


class TestUnitFrame:
    """The scan reads k = j * u mod r and stops once base + c * k exceeds the
    least total; each case pins one part of that past the first block."""

    @pytest.mark.parametrize(
        "order, weights, same_block",
        [
            (784, (198, 243), True),
            (1056, (21, 1009, 818), True),
            (756, (367, 531, 488), False),
            (1284, (171, 139, 123, 356), False),
        ],
    )
    def test_tie_whose_least_j_comes_from_a_later_k(self, order, weights, same_block):
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        ties = [j for j, t in enumerate(totals, 1) if t == min(totals)]
        u = _frame(q)
        # the scan reads j at k or, mirrored, at r - k, whichever is at most r/2;
        # an earlier tied k lies in the block of the least j, or only before it
        at = {j: min(j * u % order, -j * u % order) for j in ties}
        earlier = [_block(at[j]) for j in ties if at[j] < at[ties[0]]]
        assert earlier and (_block(at[ties[0]]) in earlier) == same_block
        assert quotient_report(q).at_multiplier == ties[0]

    @pytest.mark.parametrize(
        "order, weights", [(432, (356, 263, 165, 76)), (2290, (414, 105, 1771))]
    )
    def test_least_total_on_the_mirrored_side(self, order, weights):
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        j = totals.index(min(totals)) + 1
        k = j * _frame(q) % order
        assert k > order // 2 and _block(order - k) > 0
        assert quotient_report(q).at_multiplier == j

    @pytest.mark.parametrize(
        "order, weights",
        [(2310, (6, 10, 15, 2304, 35)), (4095, (3, 5, 4092, 1365)), (1001, (7, 11, 13, 994, 77))],
    )
    def test_no_unit_residue_keeps_the_plain_frame(self, order, weights):
        assert all(gcd(b, order) > 1 for b in weights)
        assert_report_matches_plain_scan(CyclicQuotientSingularity(order, weights))

    @pytest.mark.parametrize(
        "order, weights", [(987, (392, 784, 329, 657)), (1015, (735, 319, 290, 840))]
    )
    def test_mirrored_ties_in_the_plain_frame_keep_the_later_block(self, order, weights):
        # no unit residue: the scan reads r - j at k = j, and the least tied j,
        # past r/2, is the mirror of the largest tied k, in a later block
        assert all(gcd(b, order) > 1 for b in weights)
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        ties = [j for j, t in enumerate(totals, 1) if t == min(totals)]
        assert ties[0] > order / 2 and _block(order - ties[0]) > _block(order - ties[-1])
        assert quotient_report(q).at_multiplier == ties[0]

    @pytest.mark.parametrize("c", [1, 2, 12345, 999_982])
    def test_terminal_lemma_point_below_the_order_cap(self, c):
        # 1/r(1, -1, c) at the prime r = 999,983: the pair adds r at every j,
        # and c adds (j * c) mod r, so the least total is r + 1 at j = 1/c mod r
        r = 999_983
        rep = quotient_report(CyclicQuotientSingularity(r, (1, r - 1, c)))
        assert rep.sclass == SingularityClass.TERMINAL
        assert (rep.minimum, rep.at_multiplier) == (Fraction(r + 1, r), pow(c, -1, r))
        assert not rep.quasi_reflection
        q = CyclicQuotientSingularity(r, (1, r - 1, c))
        assert classify_quotient(q) == SingularityClass.TERMINAL


def _reach(q):
    """(u, c, base) of the scan's bound T >= base + c * k, k = j * u mod r: u is
    `_frame(q)`, c its count less that of r - u, and base is r per +- pair of
    unit residues (the pair terms that never drop)."""
    counts = {}
    for b, count in q.runs:
        counts[b % q.order] = counts.get(b % q.order, 0) + count
    u, r = _frame(q), q.order
    base = sum(r * min(n, counts.get(r - b, 0)) for b, n in counts.items()
               if gcd(b, r) == 1 and b < r - b)
    return u, counts[u] - counts.get(r - u, 0), base


def _seen_at(j, u, r):
    """The k at which the scan reads j: j * u mod r, or its mirror r - k."""
    return min(j * u % r, -j * u % r)


class TestStops:
    """Each block ends at the last k whose bound base + c * k is at most the
    least total found (r, for a verdict), and a report block with no periodic
    class and every mirrored bound above the least total sums its other
    columns only where the two largest leave room: the sieve."""

    @pytest.mark.parametrize(
        "order, weights", [(819, (506, 637, 546, 105)), (798, (577, 577, 504, 246))]
    )
    def test_least_total_tied_at_the_bound_k(self, order, weights):
        # the least j is read at k = (least - base) / c, the last k of its block,
        # after a tie read at a smaller k has made the least total the bound
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        least = min(totals)
        ties = [j for j, t in enumerate(totals, 1) if t == least]
        u, c, base = _reach(q)
        k = ties[0] * u % order
        assert k <= order // 2 and base + c * k == least and _block(k) == _block(k + 1) > 0
        assert min(_seen_at(j, u, order) for j in ties) < k
        assert quotient_report(q).at_multiplier == ties[0]

    @pytest.mark.parametrize(
        "order, weights", [(443, (274, 167, 361, 2)), (947, (341, 757, 450, 156, 712))]
    )
    def test_least_total_on_the_mirrored_side_with_no_periodic_class(self, order, weights):
        # every residue is a unit and none pairs, so each is a column; the least
        # total is read at r - k, in a block where the sieve must stand aside
        assert all(gcd(b, order) == 1 for b in weights)
        assert len({b for b in weights} | {order - b for b in weights}) == 2 * len(weights)
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        j = totals.index(min(totals)) + 1
        k = j * _frame(q) % order
        assert k > order // 2 and _block(order - k) > 0

    @pytest.mark.parametrize(
        "order, weights, same_block", [(1272, (839, 875, 1201), True), (2765, (1957, 887), False)]
    )
    def test_sieved_tie_whose_least_j_comes_from_a_larger_k(self, order, weights, same_block):
        # units only, and the first block's least total is below every mirrored
        # bound base + c * (r - k), k <= r // 2, so every later block is sieved;
        # the least j is read at a larger k than a tie of its block (three
        # columns) or of an earlier block (two columns, the two summed first)
        assert all(gcd(b, order) == 1 for b in weights)
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        least = min(totals)
        ties = [j for j, t in enumerate(totals, 1) if t == least]
        u, c, base = _reach(q)
        first = min(t for j, t in enumerate(totals, 1) if _block(_seen_at(j, u, order)) == 0)
        assert first < base + c * (order - order // 2)
        k = ties[0] * u % order
        earlier = [_block(_seen_at(j, u, order)) for j in ties if _seen_at(j, u, order) < k]
        assert k <= order // 2 and _block(k) > 0
        assert earlier and (_block(k) in earlier) == same_block
        assert quotient_report(q).at_multiplier == ties[0]

    def test_three_columns_and_a_periodic_class(self):
        # 816 shares 3 * 17 with r = 867: its terms drop at the multiples of 17,
        # which the sieve's kept k would misplace, so it stands aside
        q = CyclicQuotientSingularity(867, (409, 269, 688, 816))
        assert [gcd(b, 867) for b in q.weights] == [1, 1, 1, 51]
        totals = assert_report_matches_plain_scan(q)
        j = totals.index(min(totals)) + 1
        assert _block(_seen_at(j, _frame(q), q.order)) > 0

    @pytest.mark.parametrize(
        "order, weights",
        [(813, (512, 512, 512, 585, 318, 93)), (2709, (1676, 1676, 1676, 3, 387, 378, 3))],
    )
    def test_verdict_whose_clamp_ends_a_block_early(self, order, weights):
        # the only total at most r is r, at the one j read at k = (r - base) / c:
        # the last k of a verdict block that the bound ends before its natural end
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        u, c, base = _reach(q)
        at = [j for j, t in enumerate(totals, 1) if t <= order]
        (k,) = {j * u % order for j in at}
        assert base + c * k == order == min(totals)
        assert _block(k) == _block(k + 1) > 0 and k + 1 < order // 2 + 1
        assert classify_quotient(q) == SingularityClass.CANONICAL_NOT_TERMINAL


class TestSmallOrderFrame:
    """At every order the scan reads k = j * u mod r, so at orders up to 130 too
    the least tied j need not be the first tie read: another tie may be read at
    a smaller k, or at its own k before the least j is read at r - k."""

    @pytest.mark.parametrize(
        "order, weights, mirrored",
        [
            (5, (4, 4, 2), False),
            (27, (20, 16), False),
            (130, (20, 116, 69), False),
            (7, (4, 2, 1), True),
            (28, (8, 16, 27, 21, 12), True),
            (55, (49, 24, 51, 29, 23), True),
            (96, (38, 60, 60, 31, 27), True),
        ],
    )
    def test_least_of_several_tied_j(self, order, weights, mirrored):
        q = CyclicQuotientSingularity(order, weights)
        totals = assert_report_matches_plain_scan(q)
        ties = [j for j, t in enumerate(totals, 1) if t == min(totals)]
        u = _frame(q)
        k = ties[0] * u % order
        assert u != 1 and len(ties) > 1 and (k > order // 2) == mirrored
        if mirrored:  # another tie is read at its own k, before the mirrored totals
            assert any(j * u % order <= order // 2 for j in ties[1:])
        else:  # another tie is read at a smaller k
            assert min(_seen_at(j, u, order) for j in ties[1:]) < k
        assert quotient_report(q).at_multiplier == ties[0]


class TestAmbient:
    def test_examples(self):
        assert ambient_canonical(Weights((1, 1, 1, 1)))
        assert not ambient_canonical(Weights((1, 1, 3)))
        assert ambient_canonical(Weights((2, 2, 2, 2, 3, 3, 3, 6)))

    def test_rejects_non_well_formed(self):
        with pytest.raises(NotWellFormedError):
            ambient_canonical(Weights((1, 2, 2)))
        with pytest.raises(NotWellFormedError):
            ambient_canonical_bruteforce(Weights((1, 2, 2)))

    def test_bruteforce_examples(self):
        assert not ambient_canonical_bruteforce(Weights((1, 1, 3)))
        assert ambient_canonical_bruteforce(Weights((2, 2, 2, 2, 3, 3, 3)))

    @given(st.lists(st.integers(1, 12), min_size=2, max_size=7).map(tuple))
    def test_coordinate_point_reduction(self, entries):
        from wph.core import well_formed

        w = Weights(entries)
        if not well_formed(w):
            return
        assert ambient_canonical(w) == ambient_canonical_bruteforce(w)

    @given(
        st.integers(0, 40),
        st.lists(st.tuples(st.integers(2, 12), st.integers(1, 2)), min_size=1, max_size=4),
    )
    def test_one_point_per_value_on_repeats(self, units, heavy):
        # a unit run, then repeated heavy values: at most 8 heavy indices, so
        # the all-strata oracle stays small
        runs = ((1, units),) + tuple(heavy) if units else tuple(heavy)
        if sum(count for _, count in runs) < 2:
            return
        w = Weights(runs=runs)
        if not well_formed(w):
            return
        assert ambient_canonical(w) == ambient_canonical_bruteforce(w)


def germ_key(order: int, runs) -> tuple[tuple[int, int], ...]:
    """The key of 1/order(runs) in `_germ_class`: its nonzero residues mod the
    order with their counts, sorted."""
    residues = {}
    for b, count in runs:
        residues[b % order] = residues.get(b % order, 0) + count
    return tuple(sorted((b, count) for b, count in residues.items() if b))


class TestGermCache:
    """`_germ_class`, the one cache of germ verdicts, keyed without zero residues."""

    @given(quotients | repeated_quotients | shaped_quotients())
    def test_cached_verdict_is_the_uncached_one(self, q):
        key = germ_key(q.order, q.runs)
        cold = _germ_class(q.order, key)
        assert cold == _germ_class(q.order, key) == classify_quotient(q)
        assert cold == _germ_class.__wrapped__(q.order, key)

    @given(st.integers(2, 40), st.integers(1, 5))
    def test_an_all_zero_germ_has_the_empty_key(self, order, count):
        # zero residues only, the residue r itself among them (unreduced): no
        # faithful germ is one, but a space that is not well-formed has one
        assert germ_key(order, ((0, count), (order, 1))) == ()
        cold = _germ_class(order, ())
        assert cold == _germ_class.__wrapped__(order, ()) == SingularityClass.NOT_CANONICAL
        assert order_classes((2, 2, 2)) == {2: SingularityClass.NOT_CANONICAL}

    def test_a_warm_cache_does_not_hide_a_lowered_order_cap(self, monkeypatch):
        # orders 6 and 7: with the cap at 5 both breach, and the largest is named
        w = Weights((1, 1, 7, 6))
        assert not ambient_canonical(w)  # 1/6(1, 1, 1) is not canonical; both germs cached
        hits = _germ_class.cache_info().hits
        classes = order_classes(w)
        assert list(classes) == [7, 6] and _germ_class.cache_info().hits == hits + 2
        monkeypatch.setenv("WPH_ORDER_CAP", "5")
        for call in (order_classes, ambient_canonical):
            with pytest.raises(BudgetError, match=r"^group order 7, above the cap 5 \(set WPH_"):
                call(w)
        monkeypatch.delenv("WPH_ORDER_CAP")
        assert order_classes(w) == classes

    def test_the_walk_checks_the_cap_it_is_given(self, monkeypatch):
        # with the variable unset, its default admits order 7 but the walk's cap does not
        monkeypatch.delenv("WPH_ORDER_CAP", raising=False)
        message = r"^group order 7, above the cap 6 \(set WPH_ORDER_CAP to at least 7 "
        with pytest.raises(BudgetError, match=message):
            member_walk(Counter((4, 5, 6, 7, 23)))(46, 6)


def closed_form_germs(count, seed):
    """`count` seeded faithful germs, orders log-uniform in 2..10^4, each of one to
    five runs: +- pairs, repeated residues, residues sharing a divisor f of the order
    with counts up to 2f (so that the gcds can sum past the order, as at the `thm3`
    members' top-weight germ, at composite orders only), and unreduced residues up to
    twice the order.  A draw that is not faithful is drawn again."""
    rng, made = random.Random(seed), 0
    while made < count:
        h = round(math.exp(rng.uniform(math.log(2), math.log(10**4))))
        divisors = [f for f in range(2, h) if h % f == 0]
        runs = []
        for _ in range(rng.randint(1, 5)):
            shape = rng.choice(["pair", "repeated", "shared", "shared", "any"])
            if shape == "shared" and divisors:
                f = rng.choice(divisors)
                runs.append((f * rng.randint(1, h // f - 1), rng.randint(1, 2 * f)))
            elif shape == "pair":
                b = rng.randint(1, h - 1)
                runs += [(b, rng.randint(1, 4)), (h - b, rng.randint(1, 4))]
            elif shape == "repeated":
                runs.append((rng.randint(1, h - 1), rng.randint(1, 30)))
            else:
                runs.append((rng.randint(0, 2 * h), rng.randint(1, 3)))
        if gcd(h, *(b for b, _ in runs)) == 1:
            made += 1
            yield CyclicQuotientSingularity(h, runs=runs)


class TestClosedForms:
    """`_closed_class` decides a germ without a scan where T(1) or T(h - 1) is below
    h (NotCanonical) or the prime-divisor bound L of `_prime_bound` is above it
    (Terminal); every other germ is scanned."""

    def test_a_decided_class_is_the_scan_class_on_seeded_germs(self):
        decided = Counter()
        for q in closed_form_germs(20_000, seed=1):
            h, key = q.order, germ_key(q.order, q.runs)
            closed = _closed_class(h, key)
            if closed is not None:
                assert closed == _class_of(_scan(h, dict(key), stop_below=True)[0], h), q
            decided[closed] += 1
        # each closed form decides thousands, and most germs are left to the scan
        assert decided[SingularityClass.NOT_CANONICAL] > 1_000
        assert decided[SingularityClass.TERMINAL] > 3_000
        assert decided[None] > 10_000

    @given(quotients | repeated_quotients | shaped_quotients())
    def test_every_total_is_at_least_the_prime_bound(self, q):
        h, key = q.order, germ_key(q.order, q.runs)
        least = min(reid_tai_sum(q, j) for j in range(1, h)) * h
        assert least >= _prime_bound(h, key)
        # T(1) and T(h - 1) are the sums of reid_tai_sum, and L is the least over
        # every proper divisor, as in the reference, wherever h is fully factored
        assert _closed_class(h, key) == closed_form_reference(q)
        with mock.patch.object(wph.singularity, "_TRIAL", 2):  # odd cofactors stay whole
            assert least >= _prime_bound(h, key)

    def test_the_bound_decides_at_l_above_h_only(self):
        # each prime p | h sums the gcds it does not divide: 1/6(2^3, 3^2) has
        # L = min(3 * 2, 2 * 3) = 6 = h and T(3) = 6 (canonical only); 1/6(2^2, 3^2) has
        # L = min(3 * 2, 2 * 2) = 4 and T(4) = 4 (not canonical); 1/12(3^5, 4^5),
        # `thm3`'s at k = 3, has L = min(3 * 5, 4 * 5) = 15 > 12
        germs = {  # runs: (L, class, closed form)
            ((2, 3), (3, 2)): (6, SingularityClass.CANONICAL_NOT_TERMINAL, None),
            ((2, 2), (3, 2)): (4, SingularityClass.NOT_CANONICAL, None),
        }
        for runs, (bound, sclass, closed) in germs.items():
            assert _prime_bound(6, runs) == bound and _closed_class(6, runs) is closed
            assert classify_quotient(CyclicQuotientSingularity(6, runs=runs)) == sclass
        assert _prime_bound(12, ((3, 5), (4, 5))) == 15
        assert _closed_class(12, ((3, 5), (4, 5))) == SingularityClass.TERMINAL

    def test_above_a_lowered_cap_only_a_closed_form_answers(self, monkeypatch):
        decided = {
            CyclicQuotientSingularity(7, (1, 1, 1)): SingularityClass.NOT_CANONICAL,  # T(1) = 3
            CyclicQuotientSingularity(7, (6, 6, 6)): SingularityClass.NOT_CANONICAL,  # T(6) = 3
            CyclicQuotientSingularity(12, runs=((3, 5), (4, 5))): SingularityClass.TERMINAL,
        }
        undecided = CyclicQuotientSingularity(7, (2, 5, 6))  # T(1) = 13, T(6) = 8, L = 3
        assert classify_quotient(undecided) == SingularityClass.TERMINAL  # now cached
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        for q, sclass in decided.items():
            assert classify_quotient(q) == sclass
            with pytest.raises(BudgetError, match=rf"^group order {q.order}, above the cap 6 "):
                quotient_report(q)  # a report always scans
        message = r"^group order 7, above the cap 6 \(set WPH_ORDER_CAP to at least 7 to allow it\)$"
        with pytest.raises(BudgetError, match=message):
            classify_quotient(undecided)
        # the walk's own cap: thm3's top-weight germ above it, decided, answers
        walk = member_walk(Counter((3,) * 5 + (4,) * 5 + (12,) * 2))
        assert walk(24, 11) is True

    def test_thm3_members_answer_above_the_default_cap(self, monkeypatch):
        # the top-weight germ 1/k(k + 1)(k^(k + 2), (k + 1)^(2k - 1)) has L = k^2 + 2k
        monkeypatch.delenv("WPH_ORDER_CAP", raising=False)
        k = 3333
        runs = ((k, k + 2), (k + 1, 2 * k - 1))
        assert k * (k + 1) > wph.config._cap("WPH_ORDER_CAP")
        assert _prime_bound(k * (k + 1), runs) == k * k + 2 * k
        assert order_classes((k,) * (k + 2) + (k + 1,) * (2 * k - 1) + (k * (k + 1),) * 2) == {
            k * (k + 1): SingularityClass.TERMINAL,
            k + 1: SingularityClass.TERMINAL,
            k: SingularityClass.TERMINAL,
        }


class TestGate:
    """`_order_class` is the one gate of every verdict: it checks the cap that its
    caller read once and keys the one cache, `classify_quotient` included."""

    # X_46 in P(4, 5, 6, 7, 23) meets 1/7(2, 5, 6) at its order-7 point
    x46 = WeightedHypersurface((4, 5, 6, 7, 23), 46)
    germ = CyclicQuotientSingularity(7, (2, 5, 6))

    def test_a_quotient_and_the_member_walk_share_one_entry(self):
        _germ_class.cache_clear()
        assert self.x46.member_canonical()
        walked = _germ_class.cache_info()
        assert classify_quotient(self.germ) == SingularityClass.TERMINAL
        info = _germ_class.cache_info()
        assert (info.hits, info.misses, info.currsize) == (walked.hits + 1, walked.misses, walked.currsize)
        _germ_class.cache_clear()
        classify_quotient(self.germ)
        assert self.x46.member_canonical()
        assert _germ_class.cache_info()[1:] == walked[1:]  # misses, maxsize, currsize

    def test_a_warm_cache_does_not_hide_a_lowered_cap_from_a_quotient(self, monkeypatch):
        assert classify_quotient(self.germ) == quotient_report(self.germ).sclass
        hits = _germ_class.cache_info().hits
        assert classify_quotient(self.germ) and _germ_class.cache_info().hits == hits + 1
        monkeypatch.setenv("WPH_ORDER_CAP", "6")
        for call in (classify_quotient, quotient_report):
            with pytest.raises(BudgetError, match=r"^group order 7, above the cap 6 \(set WPH_"):
                call(self.germ)

    def test_one_cap_read_per_verdict_cold_or_warm(self, monkeypatch):
        reads, cap = [], wph.config._cap
        monkeypatch.setattr(wph.config, "_cap", lambda name: reads.append(name) or cap(name))
        q = CyclicQuotientSingularity(1009, (1, 2, 1006, 5))
        _germ_class.cache_clear()
        for _ in range(2):  # cold, then warm
            reads.clear()
            classify_quotient(q)
            assert reads == ["WPH_ORDER_CAP"]
        assert _germ_class.cache_info()[:2] == (1, 1)  # hits, misses

    @given(repeated_tuples.filter(lambda entries: len(entries) <= 10) | unit_padded_tuples)
    def test_the_bruteforce_oracle_reads_the_gate_and_needs_no_cache(self, entries):
        w = Weights(entries)
        if not well_formed(w):
            return
        verdict, passed = keys_passed(ambient_canonical_bruteforce, w)
        assert bool(passed) == bool(singular_strata(w))
        with mock.patch.object(wph.singularity, "_germ_class", _germ_class.__wrapped__):
            assert ambient_canonical_bruteforce(w) == ambient_canonical(w) == verdict


def keys_passed(call, *args):
    """`call(*args)` and every (order, key) that it passed to `_germ_class`; each
    key is checked to hold sorted residues in [1, order) with counts > 0."""
    passed, cached = [], wph.singularity._germ_class

    def recording(order, runs):
        passed.append((order, runs))
        return cached(order, runs)

    with mock.patch.object(wph.singularity, "_germ_class", recording):
        result = call(*args)
    for order, runs in passed:
        assert all(0 < b < order and count > 0 for b, count in runs), (order, runs)
        assert list(runs) == sorted(set(runs)) and len({b for b, _ in runs}) == len(runs)
    return result, passed


class TestGermKeys:
    """Every key that the walk and `order_classes` pass to `_germ_class` is the
    `germ_key` of the germ built by index, order by order: a residue 0 or a
    count <= 0 in a key would split one germ over two cache entries, which the
    verdicts alone cannot show."""

    @given(unit_padded_tuples.filter(well_formed), st.integers(1, 6))
    def test_the_walk_keys_each_met_order_by_its_index_germ(self, entries, amplitude):
        degree = sum(entries) + amplitude  # above every weight, as in the search
        cap = wph.config._cap("WPH_ORDER_CAP")
        verdict, passed = keys_passed(member_walk(Counter(entries)), degree, cap)
        induced = induced_by_index(entries, degree)
        if induced is None:  # a met stratum has no residue-d direction
            assert not verdict
            return
        by_order: dict[int, set] = {}
        for _, q in induced:
            by_order.setdefault(q.order, set()).add(germ_key(q.order, q.runs))
        for order, runs in passed:
            assert by_order.get(order) == {runs}, (entries, degree, order)

    @given(repeated_tuples.filter(lambda entries: len(entries) <= 10) | unit_padded_tuples)
    def test_order_classes_key_each_order_by_its_index_germ(self, entries):
        w = Weights(entries)
        classes, passed = keys_passed(order_classes, w)
        by_order: dict[int, set] = {}
        for stratum in singular_strata(w):
            runs = w.runs_without(stratum.indices[0])
            by_order.setdefault(stratum.order, set()).add(germ_key(stratum.order, runs))
        assert [order for order, _ in passed] == list(classes) == sorted(by_order, reverse=True)
        for order, runs in passed:
            assert by_order[order] == {runs}, (entries, order)

    def test_an_emptied_residue_d_entry_leaves_the_walk_key(self):
        # X_46 in P(4,5,6,7,23): at orders 4, 5 and 7 the member drops the only
        # weight of residue 46 mod h; order 23 divides d and one weight only
        cap = wph.config._cap("WPH_ORDER_CAP")
        verdict, passed = keys_passed(member_walk(Counter((4, 5, 6, 7, 23))), 46, cap)
        assert verdict and passed == [
            (2, ((1, 3),)),
            (4, ((1, 1), (3, 2))),
            (5, ((2, 1), (3, 1), (4, 1))),
            (6, ((1, 1), (5, 2))),
            (7, ((2, 1), (5, 1), (6, 1))),
        ]


def test_parse_and_format():
    q = parse_quotient("1/6(2,2,3)")
    assert q == CyclicQuotientSingularity(6, (2, 2, 3))
    assert str(q) == "1/6(2,2,3)"
    assert parse_quotient("1/113(1^5,106)") == CyclicQuotientSingularity(
        113, (1, 1, 1, 1, 1, 106)
    )
    with pytest.raises(ValueError):
        parse_quotient("2/3(1)")
    with pytest.raises(ValueError):
        parse_quotient("1/6()")
    for order, weights in [(0, (1, 2)), (3, ()), (3, (1, -1))]:
        with pytest.raises(ValueError):
            CyclicQuotientSingularity(order, weights)


@pytest.mark.parametrize(
    "text, faithful",
    [("1/4(2,2)", "1/2(1,1)"), ("1/4(0,2)", "1/2(0,1)"), ("1/12(3,9,6^2)", "1/4(1,3,2,2)"),
     ("1/4(0,0)", "1/1(0,0)")],
)
def test_parse_rejects_a_group_that_is_not_faithful(text, faithful):
    # j = r/g fixes every coordinate, so the scan would read T(j) = 0 as NotCanonical
    message = rf"is not faithful \(gcd \d+\); write {re.escape(faithful)}$"
    with pytest.raises(ValueError, match=message):
        parse_quotient(text)
    assert str(parse_quotient(faithful)) == faithful


def test_a_germ_that_is_not_faithful_is_not_built():
    # 1/4(2,2) would read NotCanonical at j = 2, while 1/2(1,1) is canonical;
    # the check takes one gcd over the runs, never expanding a long one
    with pytest.raises(ValueError, match=r"^1/4\(2,2\) is not faithful \(gcd 2\)$"):
        CyclicQuotientSingularity(4, (2, 2))
    with pytest.raises(ValueError, match=r"^1/6\(3\^1000000,0,0\) is not faithful \(gcd 3\)$"):
        CyclicQuotientSingularity(6, runs=((3, 10**6), (0, 2)))
    assert classify_quotient(CyclicQuotientSingularity(2, (1, 1))) == SingularityClass.CANONICAL_NOT_TERMINAL


def test_consecutive_weight_coordinate_points_canonical():
    # the three coordinate-point shapes of the consecutive-weight family
    for k in range(2, 7):
        for l in range(0, 5):
            w = (k,) * (k + 2) + (k + 1,) * (2 * k - 1) + (k * (k + 1),) * l
            first = CyclicQuotientSingularity(k, w[1:])
            second = CyclicQuotientSingularity(k + 1, w[:k + 2] + w[k + 3 :])
            assert classify_quotient(first).is_canonical
            assert classify_quotient(second).is_canonical
            if l >= 1:
                third = CyclicQuotientSingularity(k * (k + 1), w[:-1])
                assert classify_quotient(third).is_canonical

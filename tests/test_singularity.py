import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph.core import CyclicQuotientSingularity, Weights
from wph.core import well_formed
from wph.errors import BudgetError, NotWellFormedError
from wph.singularity import (
    _BLOCK,
    SingularityClass,
    _germ_class,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    order_classes,
    parse_quotient,
    quotient_report,
    reid_tai_sum,
)


def reduced(q: CyclicQuotientSingularity) -> CyclicQuotientSingularity:
    """The same singularity with every weight replaced by its residue mod r."""
    return CyclicQuotientSingularity(q.order, tuple(b % q.order for b in q.weights))


quotients = st.builds(
    CyclicQuotientSingularity,
    st.integers(2, 40),
    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(tuple),
)
# quotient weights given as runs with counts up to 30
repeated_quotients = st.builds(
    lambda order, runs: CyclicQuotientSingularity(order, runs=runs),
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), min_size=1, max_size=4),
)


@st.composite
def shaped_quotients(draw):
    """Quotients of the shapes the folded scan treats apart: complementary pairs
    (b, r - b) with independent counts, r/2, residues sharing a factor with r
    (terms periodic in j) and zero residues, at orders of both parities."""
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
    return CyclicQuotientSingularity(r, runs=runs)


@st.composite
def frame_quotients(draw):
    """Quotients past the first block of the scan (orders 129-5,000), where it
    reads k = j * u mod r for the unit residue u of largest folded coefficient:
    single residues with counts, +- pairs and zero residues; at composite orders,
    half the draws take every residue from multiples of a proper divisor of r,
    so that no residue is a unit and the scan keeps the plain frame."""
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
            weights = tuple(rng.randint(0, 3 * r) for _ in range(m))
            q = CyclicQuotientSingularity(r, weights)
            reference = classify_quotient(q)
            perm = list(weights)
            rng.shuffle(perm)
            assert classify_quotient(CyclicQuotientSingularity(r, tuple(perm))) == reference
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
    1984, 4032 and then every `_BLOCK`, and past the first it changes frame."""

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
        for size in (2, 3, 5):
            weights = tuple(rng.randrange(order) for _ in range(size))
            assert_report_matches_plain_scan(CyclicQuotientSingularity(order, weights))
        # with f the least prime factor of a composite r, residues f and r/f
        # share it with r: their terms drop at j = 0 mod r/f and mod f, on both
        # sides of a block edge
        f = next(f for f in range(2, order + 1) if order % f == 0)
        runs = ((f, 2), (order - f, 1), (order // f, 1), (rng.randrange(order), 1))
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
    whose count exceeds that of r - u by most (unique in the cases below)."""
    counts = {}
    for b, count in q.runs:
        counts[b % q.order] = counts.get(b % q.order, 0) + count
    c = {rho: n - counts.get(-rho % q.order, 0) for rho, n in counts.items()
         if gcd(rho, q.order) == 1}
    (u,) = [rho for rho in c if c[rho] == max(c.values())]
    return u


class TestUnitFrame:
    """Past the first block the scan reads k = j * u mod r and stops once
    base + c * k exceeds the least total; each case pins one part of that."""

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
        [(2310, (6, 10, 15, 2304, 35)), (4096, (2, 6, 4094, 1024)), (1001, (7, 11, 13, 994, 77))],
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


def germ_key(q: CyclicQuotientSingularity) -> tuple[tuple[int, int], ...]:
    """The key of q in `_germ_class`: its nonzero residues mod r with their counts, sorted."""
    residues = {}
    for b, count in q.runs:
        residues[b % q.order] = residues.get(b % q.order, 0) + count
    return tuple(sorted((b, count) for b, count in residues.items() if b))


# germs of zero residues only, the residue r itself among them (unreduced)
zero_germs = st.builds(
    lambda order, count: CyclicQuotientSingularity(order, runs=((0, count), (order, 1))),
    st.integers(2, 40),
    st.integers(1, 5),
)


class TestGermCache:
    """`_germ_class`, the one cache of germ verdicts, keyed without zero residues."""

    @given(quotients | repeated_quotients | shaped_quotients() | zero_germs)
    def test_cached_verdict_is_the_uncached_one(self, q):
        key = germ_key(q)
        cold = _germ_class(q.order, key)
        assert cold == _germ_class(q.order, key) == classify_quotient(q)
        assert cold == _germ_class.__wrapped__(q.order, key)

    def test_an_all_zero_germ_has_the_empty_key(self):
        q = CyclicQuotientSingularity(6, runs=((0, 3), (12, 2)))
        assert germ_key(q) == ()
        assert _germ_class(6, ()) == classify_quotient(q) == SingularityClass.NOT_CANONICAL
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

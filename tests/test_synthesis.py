"""Channel synthesis: nesting order, suffix-shared tables, duality, thresholds."""

import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import cache as memoize
from math import comb, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from becpolar.checks import REGISTRY
from becpolar.monomials import MAX_M, Monomial
from becpolar.polynomials import (
    IntPoly,
    eval_rational,
    integrate01,
    integration_weights,
    to_path_counts,
)
from becpolar.reliability import avr_closed_form, avr_closed_form_complement
from becpolar.synthesis import (
    ChannelTable,
    _chain_flip,
    _denominator,
    _flip_child,
    _flip_leaf,
    _half_enclosures,
    _suffix_walk,
    average_descent,
    average_numerators,
    channel_threshold,
    synth_all,
    synth_labels,
    synth_poly,
    threshold_floors,
)
from conftest import _excess, _label_bisection

P = IntPoly([0, 1])
ONE = IntPoly([1])


def _nested_series(z: IntPoly, times: int) -> IntPoly:
    for _ in range(times):
        z = z * z
    return z


class TestSynthPoly:
    def test_m4_label9_matches_nested_expansion(self):
        # label 9 = (1,0,0,1): expansion 1 - (1 - (1 - (1-p)^2)^4)^2
        inner = ONE - (ONE - P) * (ONE - P)     # 1 - (1-p)^2
        inner4 = _nested_series(inner, 2)       # (...)^4
        expected = ONE - (ONE - inner4) * (ONE - inner4)
        assert synth_poly(Monomial(4, 9)) == expected

    def test_m4_label6_matches_nested_expansion(self):
        # label 6 = (0,1,1,0): expansion (1 - (1 - p^2)^4)^2
        inner = ONE - _nested_series(P, 1)      # 1 - p^2
        inner4 = _nested_series(inner, 2)
        outer = ONE - inner4
        assert synth_poly(Monomial(4, 6)) == outer * outer

    def test_all_zero_label(self):
        assert synth_poly(Monomial(2, 0)) == IntPoly([0, 0, 0, 0, 1])

    def test_degree_is_two_to_m(self):
        """A series step squares the leading term and a parallel step leads
        with -lc^2, so no channel loses degree: `synth --format csv` prints
        2^m + 1 coefficients of each without padding."""
        for m in range(1, 8):
            for u in (0, 1, (1 << m) - 1):
                assert synth_poly(Monomial(m, u)).degree == 1 << m
            for poly in synth_labels(m):
                assert poly.degree == 1 << m and abs(poly.coeffs[-1]) == 1

    def test_boundary_values(self):
        for m in range(1, 6):
            for u in range(1 << m):
                z = synth_poly(Monomial(m, u))
                assert z.coeffs[0] == 0          # z(0) = 0
                assert sum(z.coeffs) == 1        # z(1) = 1


class TestSynthAll:
    def test_m1_table(self):
        table = synth_all(1)
        assert table[0] == IntPoly([0, 0, 1])
        assert table[1] == IntPoly([0, 2, -1])

    def test_m2_average_reliabilities(self):
        table = synth_all(2)
        assert [table.avr(u) for u in range(4)] == [
            Fraction(1, 5), Fraction(7, 15), Fraction(8, 15), Fraction(4, 5)]

    def test_matches_unmemoized_synthesis(self, cache):
        rng = random.Random(42)
        for m in range(1, 9):
            table = cache.table(m)
            labels = rng.sample(range(1 << m), min(1 << m, 7))
            for u in labels:
                assert table[u] == synth_poly(Monomial(m, u))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_erasure_conservation(self, m, cache):
        assert cache.check("identities/erasure-conservation", m) is None

    def test_erasure_conservation_rejects_one_wrong_count(self):
        """The check reads the path counts: one count off by one fails it."""
        table = ChannelTable(4, synth_all(4).polys)
        counts = list(table.counts[6])
        counts[5] += 1
        table.counts[6] = tuple(counts)
        check = next(c for c in REGISTRY if c.name == "identities/erasure-conservation")
        assert check.run(4, table) == "sum of N_5 is 21841, not 5*C(16,5)"

    def test_cap_enforced(self):
        # the library checks only the width; the cost cap is the CLI's
        with pytest.raises(ValueError):
            synth_all(0)
        with pytest.raises(ValueError, match="1..16"):
            synth_all(17)

    def test_path_counts_are_kept_outside_equality(self):
        table = synth_all(3)
        before = hash(table)
        assert [table.counts[u] for u in range(8)] == [
            to_path_counts(table[u], 8).counts for u in range(8)]
        assert table.counts[5] is table.counts[5]
        fresh = ChannelTable(3, table.polys)
        assert hash(table) == before == hash(fresh)
        assert table == fresh and repr(table) == repr(fresh)

    def test_avr_integrates_each_label(self):
        table = synth_all(3)
        assert [table.avr(u) for u in range(8)] == [integrate01(p) for p in table.polys]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_schoolbook_table(self, m, cache):
        # slow exact twin of the suffix-shared table: every level by the
        # schoolbook product z * z, not the packed square
        level = [P]
        for _ in range(m):
            children = []
            for z in level:  # node w has children 2w (0-bit) and 2w + 1 (1-bit)
                sq = z * z
                children += [sq, z.scale(2) - sq]
            level = children
        assert tuple(level) == cache.table(m).polys

    @pytest.mark.parametrize("m", range(1, 7))
    def test_path_count_bounds(self, m, cache):
        assert cache.check("identities/path-count-bounds", m) is None


class TestSynthLabels:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_random_subsets_match_table_rows(self, m):
        """A random half of the rows, each equal to `synth_poly` of its
        label, the one-label path of `synth --u`."""
        rng = random.Random(m)
        rows = synth_labels(m)
        assert len(rows) == 1 << m
        for u in rng.sample(range(1 << m), 1 << (m - 1)):
            assert rows[u] == synth_poly(Monomial(m, u))

    def test_caps_match_synth_all(self):
        for m in (0, -1, MAX_M + 1):
            for build in (lambda: synth_labels(m), lambda: synth_all(m),
                          lambda: average_numerators(m), lambda: Monomial(m, 0)):
                with pytest.raises(ValueError, match=f"1..{MAX_M}"):
                    build()


def _bit_strings(calls):
    """A step that records each call and makes a node's state the string of
    its bits, outermost first, so a leaf reads back its own label."""
    def children(k, w, state):
        calls.append((k, w))
        return state + "0", state + "1"
    return children


class TestSuffixWalk:
    """The contract of `_suffix_walk`, shared by the polynomial and the
    moment walks."""

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_every_label_in_label_order(self, m):
        calls = []
        leaves = _suffix_walk(m, "", _bit_strings(calls))
        assert leaves == tuple(format(u, f"0{m}b") for u in range(1 << m))
        assert len(calls) == (1 << m) - 1

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_drops_each_parent_once_its_children_exist(self, m):
        """When node w of depth k is expanded, the nodes alive below the
        root are the 2^k - w of its depth not yet expanded, w among them,
        and the 2w children of those before it."""
        class Node:
            def __init__(self, depth):
                self.depth = depth
        alive = weakref.WeakSet()

        def children(k, w, state):
            depths = [node.depth for node in alive if node.depth]
            assert sorted(depths) == [k] * ((1 << k) - w if k else 0) + [k + 1] * 2 * w, (k, w)
            pair = Node(k + 1), Node(k + 1)
            alive.update(pair)
            return pair
        assert len(_suffix_walk(m, Node(0), children)) == 1 << m


def _average_numerators_by_rows(m: int) -> tuple[tuple[int, ...], int]:
    """Slow exact twin of `average_numerators`: the moments D * integral Z^k
    of every suffix node, with a 0-bit child taking M[2k] and a 1-bit child
    (whose k-th power is Z^k (2 - Z)^k) the sum over i of the coefficients
    of (2 - x)^k times M[k + i], about n^2 / 4 big-integer products."""
    n = 1 << m
    d = lcm(*range(1, n + 2))
    level = [[d // (k + 1) for k in range(n + 1)]]
    for depth in range(1, m + 1):
        ones: list[list[int]] = [[] for _ in level]
        row = [1]  # coefficients of (2 - x)^k
        for k in range((n >> depth) + 1):
            for moments, out in zip(level, ones):
                out.append(sum(map(mul, row, moments[k:2 * k + 1])))
            row = [2 * a - b for a, b in zip(row + [0], [0] + row)]
        level = [child for moments, one in zip(level, ones)
                 for child in (moments[::2], one)]
    return tuple(moments[1] for moments in level), d


@pytest.fixture(scope="module", params=[10, 11])
def averages_beyond_tables(request):
    """Averages at an m whose table tier-1 does not build."""
    m = request.param
    nums, d = average_numerators(m)
    return m, [Fraction(x, d) for x in nums]


class TestChannelAverages:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_equal_the_integrals_of_the_table(self, m, cache):
        nums, d = average_numerators(m)
        assert [Fraction(x, d) for x in nums] == [integrate01(p) for p in cache.table(m).polys]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_numerators_are_the_integrals_times_d(self, m, cache):
        nums, d = average_numerators(m)
        assert d == lcm(*range(1, (1 << m) + 2))
        assert all(type(x) is int for x in nums)
        assert nums == tuple(d * integrate01(p) for p in cache.table(m).polys)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_equal_the_row_recursion(self, m):
        assert average_numerators(m) == _average_numerators_by_rows(m)

    def test_keeps_one_difference_row_alive(self):
        """About 0.7-0.8 MB at m = 10; every row of the difference tables kept
        would be about n^2 / 2 integers, some 100 MB."""
        tracemalloc.start()
        try:
            average_numerators(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_closed_forms_without_a_table(self, averages_beyond_tables):
        """i leading 1-bits and i leading 0-bits."""
        m, averages = averages_beyond_tables
        mask = (1 << m) - 1
        for i in range(m + 1):
            u = (1 << i) - 1
            assert averages[u] == avr_closed_form(m, i)
            assert averages[mask ^ u] == avr_closed_form_complement(m, i)

    def test_complements_sum_to_one_and_averages_differ(self, averages_beyond_tables):
        m, averages = averages_beyond_tables
        mask = (1 << m) - 1
        assert all(a + averages[mask ^ u] == 1 for u, a in enumerate(averages))
        assert len(set(averages)) == 1 << m


def _avr_top_labels(m: int) -> tuple[Fraction, Fraction]:
    """The exact averages of labels 2^(m-1) and 2^(m-1) + 1, x_(m-1) and
    x0*x_(m-1), by Wallis' integrals W(n) = integral_0^1 (1 - p^2)^n dp =
    prod_{i=1..n} 2i / (2i + 1).  With A = 2^(m-2), the complement 0 1^(m-1)
    has Z = 1 - (1 - p^2)^(2A), and 0 1^(m-2) 0 has Z = (1 - (1 - p^2)^A)^2,
    whose average is 1 - 2 W(A) + W(2A)."""
    num = den = 1
    wallis = []
    for i in range(1, (1 << (m - 1)) + 1):
        num, den = num * 2 * i, den * (2 * i + 1)
        if i in (1 << (m - 2), 1 << (m - 1)):
            wallis.append(Fraction(num, den))
    half, whole = wallis
    return whole, 2 * half - whole


class TestAverageDescent:
    """The shared descent against its twins: `_flip_child`'s difference
    table for each closed-form chain flip and each last-flip sum,
    `integration_weights` for D, `average_numerators` for every label."""

    @pytest.mark.parametrize("m", range(2, 11))
    def test_chain_flips_equal_the_difference_table(self, m):
        """Node 0^k keeps every 2^k-th root moment, D / (2^k j + 1); at
        stride 2^r the chain flip keeps every 2^r-th entry of its child."""
        d, root = integration_weights((1 << m) + 1)
        for k in range(1, m):
            flip = _flip_child(list(root[::1 << k]))
            for r in range(m - k):
                assert _chain_flip(m, k, d, r) == flip[::1 << r], (k, r)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_last_flip_sums_equal_the_difference_table(self, m):
        """The one sum gives the last entry of the flip child's table, for
        every node of the half walk that has a flip child."""
        d, root = integration_weights((1 << m) + 1)
        level = {0: list(root[::2])}  # node 0 at depth 1
        for t in range(1, m):
            nxt = {}
            for w, moments in level.items():
                flip = _flip_child(moments)
                assert _flip_leaf(moments) == flip[-1], (t, w)
                nxt[2 * w + 1 - (w & 1)], nxt[2 * w + (w & 1)] = flip, moments[::2]
            level = nxt

    @pytest.mark.parametrize("m", range(1, 14))
    def test_denominator_equals_the_lcm(self, m):
        assert _denominator(m) == lcm(*range(1, (1 << m) + 2))

    @pytest.mark.parametrize("m", range(1, 12))
    def test_equals_the_walk_on_every_label(self, m):
        """In label order, in reverse, where a chain flip read at a long
        stride comes before the shorter strides below it, and in a shuffled
        order with repeats, which descends from kept nodes in every
        pattern."""
        full, d = average_numerators(m)
        numerator, d_descent = average_descent(m)
        assert d_descent == d
        assert tuple(map(numerator, range(1 << m))) == full
        numerator, _ = average_descent(m)
        assert tuple(numerator(u) for u in reversed(range(1 << m))) == full[::-1]
        rng = random.Random(m)
        labels = [rng.randrange(1 << m) for _ in range(3 << m)]
        numerator, _ = average_descent(m)
        assert [numerator(u) for u in labels] == [full[u] for u in labels]

    @pytest.mark.parametrize("m", range(3, 12))
    def test_a_sum_then_the_flip_child_it_skipped(self, m):
        """Label 2^j takes its leaf from one sum at the node above its last
        flip and leaves the flip child unbuilt; 2^j + 1, read next, builds
        that child from the node kept above it.  Then both read again."""
        full, _ = average_numerators(m)
        for j in range(2, m - 1):
            numerator, _ = average_descent(m)
            labels = [1 << j, (1 << j) + 1, 1 << j, (1 << j) + 1]
            assert [numerator(u) for u in labels] == [full[u] for u in labels], j

    def test_builds_no_root_moments(self):
        """D comes from `_denominator`, and no read builds the 2^m + 1 root
        moments or fills `integration_weights`' cache."""
        integration_weights.cache_clear()
        numerator, _ = average_descent(9)
        nums = [numerator(u) for u in range(1 << 9)]
        assert integration_weights.cache_info().currsize == 0
        assert nums == list(average_numerators(9)[0])

    def test_drops_each_parent_of_two_computed_children(self):
        """Every label of m = 10 in label order: about 0.3 MB, most of it the
        leaves of last-flip sums, kept for the complements' second reads, and
        the nodes whose repeat child is read in place and so never computed.
        Keeping every node computed would hold the half tree, about 0.7 MB."""
        numerator, _ = average_descent(10)
        tracemalloc.start()
        try:
            for u in range(1 << 10):
                numerator(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 450_000

    @pytest.mark.parametrize("m", range(2, 12))
    def test_the_top_labels_equal_their_closed_forms(self, m):
        """The twins of the chain-flip test below, against the walk."""
        full, d = average_numerators(m)
        top = 1 << (m - 1)
        assert (Fraction(full[top], d), Fraction(full[top + 1], d)) == _avr_top_labels(m)

    @pytest.mark.parametrize("u", [1 << 13, (1 << 13) + 1])
    def test_a_chain_flip_keeps_only_the_entries_read(self, u):
        """At m = 14 label 2^13, whose complement reads the last entry of
        the 1-child of node 0, and 2^13 + 1, whose last flip sums 3 entries
        of it 11 repeats down, keep 2 and 3 of its 2^12 + 1 moments: a few
        KB, where the whole child peaks at 12.5 MiB."""
        numerator, d = average_descent(14)
        tracemalloc.start()
        try:
            x = numerator(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert Fraction(x, d) == _avr_top_labels(14)[u & 1]

    @pytest.mark.parametrize("u", [-1, 8])
    def test_refuses_a_label_out_of_range(self, u):
        numerator, _ = average_descent(3)
        with pytest.raises(ValueError, match="out of range"):
            numerator(u)


def _dual(a: IntPoly) -> IntPoly:
    """Power-basis twin of the path-count duality: 1 - a(1 - p), by Horner
    in q = 1 - p with schoolbook products."""
    acc = IntPoly()
    for c in reversed(a.coeffs):
        acc = acc * IntPoly([1, -1]) + IntPoly([c])
    return ONE - acc


class TestDuality:
    def test_series_parallel_dual(self):
        assert _dual(IntPoly([0, 0, 1])) == IntPoly([0, 2, -1])

    def test_dual_is_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
            assert _dual(_dual(a)) == a

    def test_complement_identity_m5(self, cache):
        table = cache.table(5)
        assert _dual(table[3]) == table[28]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_complement_identity_all(self, m, cache):
        """At every label, 1 - Z_u(1 - p) is Z_ubar, and the path counts of
        Z_ubar are the reversal C(n, i) - N(u)_(n-i) that the check reads."""
        table, n = cache.table(m), 1 << m
        for u in range(n):
            ubar = u ^ (n - 1)
            assert _dual(table[u]) == table[ubar], u
            reversal = [comb(n, i) - c for i, c in enumerate(reversed(table.counts[u]))]
            assert list(table.counts[ubar]) == reversal, u
        assert cache.check("identities/duality", m) is None

    @pytest.mark.parametrize("m", range(1, 8))
    def test_avr_complement_sums_to_one(self, m, cache):
        assert cache.check("identities/avr-complement", m) is None


def _sqrt_lower_bound(value: Fraction, bits: int) -> Fraction:
    """Rational lower bound of sqrt(value) accurate to 2^-bits (integer sqrt)."""
    from math import isqrt
    scale = 1 << (2 * bits)
    num = isqrt(value.numerator * scale // value.denominator)
    return Fraction(num, 1 << bits)


@memoize  # shared by the two tests that hold a twin against it at m <= 6
def _fraction_threshold(a: IntPoly, tol) -> Fraction:
    """Slow exact twin of `channel_threshold` on the channel's polynomial:
    bisection on Fractions, with a Fraction Horner at every step."""
    def value(p):
        acc = Fraction(0)
        for c in reversed(a.coeffs):
            acc = acc * p + c
        return acc - Fraction(1, 2)

    lo, hi = Fraction(0), Fraction(1)
    assert value(lo) < 0 < value(hi)
    while hi - lo > 2 * tol:
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            return mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _is_bisection_midpoint(a: IntPoly, t: Fraction, tol) -> bool:
    """Whether t is what the dyadic bisection of a (increasing on [0, 1],
    crossing 1/2 at an irrational point) to within +/- tol returns: with j
    the smallest such that 2^-j <= 2 tol, the midpoint x / 2^(j+1), x odd,
    of the one width-2^-j bracket that holds the root, so that
    a((x - 1) / 2^(j+1)) < 1/2 < a((x + 1) / 2^(j+1)), compared exactly
    with `eval_rational`, the way identities/threshold-symmetry compares."""
    j = 0
    while Fraction(1, 1 << j) > 2 * tol:
        j += 1
    den, x = 1 << (j + 1), t.numerator
    return (t.denominator == den
            and eval_rational(a, Fraction(x - 1, den)) < Fraction(1, 2)
            < eval_rational(a, Fraction(x + 1, den)))


TWIN_TOLS = [Fraction(1, 2**30), Fraction(1, 2**20), Fraction(1, 10**6), Fraction(1, 3), Fraction(1)]


class TestThreshold:
    """The slow twins of `channel_threshold` against each other, and
    thresholds against roots known in closed form."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_fraction_bisection(self, m, cache):
        for u, a in enumerate(cache.table(m).polys):
            for tol in TWIN_TOLS:
                assert _label_bisection(Monomial(m, u), tol) == _fraction_threshold(
                    a, tol), (m, u, tol)

    def test_exact_midpoint_hit(self):
        # the Fraction twin returns a midpoint as soon as it is the root
        a = IntPoly([0, 0, 2])  # 2p^2 = 1/2 at p = 1/2, the first midpoint
        for tol in TWIN_TOLS:
            assert _fraction_threshold(a, tol) == Fraction(1, 2)
        b = IntPoly([0, 0, 8])  # 8p^2 = 1/2 at p = 1/4, the second midpoint
        assert _fraction_threshold(b, Fraction(1, 2**30)) == Fraction(1, 4)

    def test_non_dyadic_and_float_tolerances(self):
        u, a = Monomial(1, 1), IntPoly([0, 2, -1])
        for tol in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 10**9), 1e-6, 0.3, 5):
            got = channel_threshold(u, tol)
            assert got == _fraction_threshold(a, tol) == _label_bisection(u, tol), tol

    def test_parallel_pair(self):
        # 2p - p^2 = 1/2 at p = 1 - sqrt(2)/2
        tol = Fraction(1, 2**30)
        root = 1 - _sqrt_lower_bound(Fraction(1, 2), 60)
        assert abs(channel_threshold(Monomial(1, 1), tol) - root) <= 2 * tol

    def test_series_pair(self):
        tol = Fraction(1, 2**30)
        root = _sqrt_lower_bound(Fraction(1, 2), 60)
        assert abs(channel_threshold(Monomial(1, 0), tol) - root) <= 2 * tol

    def test_dual_thresholds_sum_to_one(self):
        """Z_ubar(p) = 1 - Z_u(1 - p), and each threshold is irrational, so the
        brackets of u and ubar mirror each other and so do their midpoints:
        the two thresholds sum to exactly 1."""
        for m in range(1, 9):
            for u in range(1 << (m - 1)):
                f = Monomial(m, u)
                assert channel_threshold(f.complement()) == 1 - channel_threshold(f), (m, u)


LABEL_TOLS = [Fraction(1, 2**30), Fraction(1, 2**60), Fraction(1, 3 * 2**20), 1e-6, 0.75]


def _bisection_floor(m: int, u: int) -> int:
    """floor(t_u * 2^29) by `_label_bisection` to 2^-30, whose midpoint is
    (2 floor + 1) / 2^30."""
    return _label_bisection(Monomial(m, u), Fraction(1, 2**30)).numerator >> 1


class TestThresholdFloors:
    """`threshold_floors`, one pass over the listed labels' prefixes, against
    the bisection on each label's recursion, for listings in any order,
    with repeats and with complement pairs."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_every_label(self, m):
        n, rng = 1 << m, random.Random(m)
        want = [_bisection_floor(m, u) for u in range(n)]
        assert threshold_floors(m, list(range(n)), 29) == want
        shuffled = rng.choices(range(n), k=n + 3)  # repeats, both of some complement pairs
        assert threshold_floors(m, shuffled, 29) == [want[u] for u in shuffled]
        for u in rng.sample(range(n), min(n, 8)):
            assert threshold_floors(m, [u], 29) == [want[u]]
            pair = [n - 1 - u, u]
            assert threshold_floors(m, pair, 29) == [want[v] for v in pair]

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_sampled_labels(self, m):
        n, rng = 1 << m, random.Random(m)
        some = rng.sample(range(n), 10)
        labels = some + [n - 1 - u for u in some[:5]] + some[3:6]  # complement pairs and repeats
        rng.shuffle(labels)
        assert threshold_floors(m, labels, 29) == [_bisection_floor(m, u) for u in labels]


class TestChannelThreshold:
    """`channel_threshold` against its slow twins: the Fraction bisection of
    the channel polynomial at m <= 6, the bracket certificate on the
    polynomial at m = 7 and 8, and the bisection on the label's recursion
    (`_label_bisection`) at m = 6, 9, 10 and 12.  Identical `Fraction`s."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_polynomial_bisection(self, m, cache):
        for u, poly in enumerate(cache.table(m).polys):
            for tol in TWIN_TOLS + [1e-6]:
                got = channel_threshold(Monomial(m, u), tol)
                if m <= 6:
                    assert got == _fraction_threshold(poly, tol), (m, u, tol)
                else:
                    assert _is_bisection_midpoint(poly, got, tol), (m, u, tol)

    def test_every_channel_m8(self, cache):
        tol = Fraction(1, 2**30)
        for u, poly in enumerate(cache.table(8).polys):
            assert _is_bisection_midpoint(poly, channel_threshold(Monomial(8, u), tol), tol), u

    def test_every_label_m9_matches_label_bisection(self):
        for u in range(1 << 9):
            for tol in LABEL_TOLS:
                assert channel_threshold(Monomial(9, u), tol) == _label_bisection(
                    Monomial(9, u), tol), (u, tol)

    @pytest.mark.parametrize("m, count", [(10, 12), (12, 6)])
    def test_sampled_labels_match_label_bisection(self, m, count):
        rng = random.Random(m)
        mask = (1 << m) - 1
        for u in [0, mask] + rng.sample(range(1, mask), count - 2):
            for tol in LABEL_TOLS:
                assert channel_threshold(Monomial(m, u), tol) == _label_bisection(
                    Monomial(m, u), tol), (m, u, tol)

    @settings(max_examples=60, deadline=None)
    @given(u=st.integers(0, 63),
           tol=st.one_of(st.fractions(min_value=Fraction(1, 2**80), max_value=2),
                         st.floats(min_value=2.0**-70, max_value=4.0)))
    def test_any_positive_tol_matches_label_bisection(self, u, tol):
        assert channel_threshold(Monomial(6, u), tol) == _label_bisection(Monomial(6, u), tol)

    def test_m1(self):
        for tol in TWIN_TOLS:
            assert channel_threshold(Monomial(1, 0), tol) == _fraction_threshold(P * P, tol)
            assert channel_threshold(Monomial(1, 1), tol) == _fraction_threshold(
                IntPoly([0, 2, -1]), tol)
        assert channel_threshold(Monomial(1, 0)) + channel_threshold(Monomial(1, 1)) == 1

    @pytest.mark.parametrize("m, u", [(1, 0), (1, 1), (5, 22), (9, 0), (9, 511), (9, 300)])
    def test_enclosure_holds_at_every_width(self, m, u):
        """lo / 2^w <= t <= hi / 2^w, checked by the forward recursion on the
        integers: Z(lo / 2^w) <= 1/2 <= Z(hi / 2^w), as Z increases."""
        bits = [(u >> i) & 1 for i in range(m)]  # outermost first
        for w in (1, 2, 3, 5, 8, 13, 40, 100):
            lo, hi = _half_enclosures(m, {u}, w)[u]
            assert 0 <= lo <= hi <= 1 << w
            assert _excess(bits[::-1], lo, w) <= 0 <= _excess(bits[::-1], hi, w), w

    def test_precision_doubling(self, monkeypatch):
        """No label of m <= 12 needs a second pass from the starting width,
        so the doubling is shown from a width too small to decide: the first
        pass returns the enclosures of w = j + 2, scaled to its width, where
        labels 5, 17 and 300 of m = 9 are undecided, and only they run
        again, to the floors of the default start.  Label 511 takes the
        floor of its complement 0."""
        from becpolar import synthesis
        m, j, labels = 9, 30, [300, 5, 17, 0, 511, 6]
        narrow = _half_enclosures(m, set(labels), j + 2)
        undecided = {u for u, (lo, hi) in narrow.items() if lo >> 2 != hi >> 2}
        assert undecided == {5, 17, 300}
        want = threshold_floors(m, labels, j)
        calls = []

        def narrow_first(m_, todo, w):
            calls.append(set(todo))
            if len(calls) > 1:
                return _half_enclosures(m_, todo, w)
            shift = w - j - 2
            return {u: (lo << shift, hi << shift)
                    for u, (lo, hi) in _half_enclosures(m_, todo, j + 2).items()}
        monkeypatch.setattr(synthesis, "_half_enclosures", narrow_first)
        assert threshold_floors(m, labels, j) == want
        assert calls == [{300, 5, 17, 0, 6}, undecided]
        assert Fraction(2 * want[0] + 1, 1 << (j + 1)) == channel_threshold(
            Monomial(m, 300), Fraction(1, 2**31))

    def test_rejects_non_positive_tol(self):
        for tol in (Fraction(0), -1, 0.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                channel_threshold(Monomial(3, 5), tol)

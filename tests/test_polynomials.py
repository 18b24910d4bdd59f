"""Exact polynomial arithmetic, basis conversion, and the interval sign decision."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becpolar.polynomials import (
    IntPoly,
    PathCounts,
    _odd_part,
    _power_from_counts,
    _power_weights,
    eval_rational,
    integrate01,
    integration_weights,
    nonneg_on_01,
    to_path_counts,
)

P = IntPoly([0, 1])


def _parallel(z: IntPoly) -> IntPoly:
    """The parallel step as the recursion writes it: z -> 2z - z^2."""
    return z.scale(2) - z.square()

small_polys = st.lists(st.integers(-50, 50), max_size=12).map(IntPoly)


class TestRingOps:
    def test_p_times_p(self):
        assert P * P == IntPoly([0, 0, 1])

    def test_parallel_square_expansion(self):
        z = IntPoly([0, 2, -1])  # 2p - p^2
        assert z * z == IntPoly([0, 0, 4, -4, 1])

    def test_sub_self_is_zero(self):
        a = IntPoly([3, 0, -2, 7])
        assert (a - a).is_zero()
        assert (a - a) == IntPoly()

    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).degree == -1

    @given(small_polys, small_polys, small_polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_mul_commutes_and_degree(self, a, b):
        assert a * b == b * a
        if not a.is_zero() and not b.is_zero():
            assert (a * b).degree == a.degree + b.degree

    @given(small_polys)
    def test_square_matches_mul(self, a):
        assert a.square() == a * a


_huge = st.integers(-2**700, 2**700)
_sparse_polys = st.dictionaries(st.integers(0, 79), _huge.filter(bool), max_size=5).map(
    lambda d: IntPoly([d.get(i, 0) for i in range(max(d, default=-1) + 1)]))
wide_polys = st.one_of(
    st.lists(st.one_of(st.just(0), st.integers(-2**700, -1), _huge, st.integers(-2, 2)),
             max_size=80).map(IntPoly),
    _sparse_polys)


class TestKroneckerSquare:
    """`IntPoly.square` packs the coefficients into one integer; the
    schoolbook `__mul__` is its slow exact twin."""

    @settings(max_examples=300)
    @given(wide_polys)
    def test_matches_schoolbook(self, a):
        assert a.square() == a * a

    def test_zero_constants_and_negative_leading_coefficient(self):
        for coeffs in ((), (1,), (-1,), (7,), (-(2**700),), (3, 0, -5), (0, 0, 0, -1)):
            a = IntPoly(coeffs)
            assert a.square() == a * a
        assert IntPoly([-3]).square() == IntPoly([9])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_coefficients_next_to_a_slot_boundary(self, k):
        # every coefficient equal in size makes the middle one of the square
        # reach the bound len * max^2 that sizes the slots
        for top in ((1 << (8 * k - 1)) - 1, 1 << (8 * k - 1), (1 << (8 * k)) - 1):
            for length in (1, 2, 3, 4, 5, 8, 64, 80):
                for pattern in ((1,), (-1,), (1, -1), (-1, 1, 1)):
                    a = IntPoly([top * pattern[i % len(pattern)] for i in range(length)])
                    assert a.square() == a * a, (top, length, pattern)


class TestTransformSteps:
    def test_square_step_on_p(self):
        assert P.square() == IntPoly([0, 0, 1])

    def test_square_step_composed(self):
        assert IntPoly([0, 2, -1]).square() == IntPoly([0, 0, 4, -4, 1])

    def test_square_step_fixed_point_one(self):
        assert IntPoly([1]).square() == IntPoly([1])

    def test_parallel_step_on_p(self):
        assert _parallel(P) == IntPoly([0, 2, -1])

    def test_parallel_step_fixed_points(self):
        assert _parallel(IntPoly()) == IntPoly()
        assert _parallel(IntPoly([1])) == IntPoly([1])


class TestEvalIntegrate:
    def test_eval_p4_at_half(self):
        assert eval_rational(IntPoly([0, 0, 0, 0, 1]), Fraction(1, 2)) == Fraction(1, 16)

    def test_eval_parallel_at_one(self):
        assert eval_rational(IntPoly([0, 2, -1]), Fraction(1)) == 1

    def test_eval_two_step_channel_at_half(self):
        # series innermost, then parallel: 2p^2 - p^4 at 1/2 -> 7/16
        z = _parallel(P.square())
        assert z == IntPoly([0, 0, 2, 0, -1])
        assert eval_rational(z, Fraction(1, 2)) == Fraction(7, 16)

    def test_integral_p4(self):
        assert integrate01(IntPoly([0, 0, 0, 0, 1])) == Fraction(1, 5)

    def test_integral_two_step_channel(self):
        assert integrate01(IntPoly([0, 0, 2, 0, -1])) == Fraction(7, 15)

    def test_integral_zero(self):
        assert integrate01(IntPoly()) == 0

    @given(small_polys)
    def test_integral_matches_term_sum(self, a):
        assert integrate01(a) == _fraction_integral(a.coeffs)

    def test_integral_matches_term_sum_every_length(self):
        rng = random.Random(600)
        for length in range(1, 601):
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(length - 1)] + [rng.choice((-1, 1))]
            assert integrate01(IntPoly(coeffs)) == _fraction_integral(coeffs), length

    def test_weights_cache_keeps_two_lengths(self):
        """The cached weights of m = 13 take 13.1 MB, so no more than the
        last two lengths stay in memory."""
        for m in (8, 9, 10):
            denom, weights = integration_weights((1 << m) + 1)
            assert all(w * (i + 1) == denom for i, w in enumerate(weights))
        assert integration_weights.cache_info().currsize <= 2

    def test_power_weights_cache_keeps_two_points(self, cache):
        """A ranking at one point reuses its weights for every channel, while
        each threshold certificate evaluates at a point of its own, so no
        more than the last two points stay in memory."""
        table = cache.table(6)
        _power_weights.cache_clear()
        for u in range(64):
            eval_rational(table[u], Fraction(2, 7))
        info = _power_weights.cache_info()
        assert (info.misses, info.hits) == (1, 63)
        for k in range(1, 30):
            eval_rational(table[0], Fraction(k, 31))
        assert _power_weights.cache_info().currsize == 2


def _fraction_integral(coeffs) -> Fraction:
    """Slow exact twin of `integrate01`: one Fraction per term."""
    return sum((Fraction(c, i + 1) for i, c in enumerate(coeffs)), Fraction(0))


def _fraction_horner(coeffs, p: Fraction) -> Fraction:
    """Slow exact twin of the integer Horner: a Fraction at every step."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


EVAL_POINTS = [Fraction(-3, 2), Fraction(-1), Fraction(-1, 7), Fraction(0), Fraction(1, 3),
               Fraction(1, 2), Fraction(2, 7), Fraction(1), Fraction(5, 4), Fraction(7),
               Fraction(123456789, 2**61 - 1), Fraction(-(10**30) - 7, 3**50)]


class TestEvalTwins:
    """`eval_rational` against the Fraction Horner."""

    def _assert_matches(self, coeffs, p):
        assert eval_rational(IntPoly(coeffs), p) == _fraction_horner(coeffs, p)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_channel(self, m, cache):
        for poly in cache.table(m).polys:
            for p in EVAL_POINTS:
                self._assert_matches(poly.coeffs, p)

    def test_zero_and_constant_polynomials(self):
        for coeffs in ((), (0,), (1,), (-5,), (10**40,)):
            for p in EVAL_POINTS:
                self._assert_matches(IntPoly(coeffs).coeffs, p)
        assert eval_rational(IntPoly(), Fraction(2, 3)) == 0

    def test_degree_256_channels(self, cache):
        table = cache.table(8)
        points = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 2), Fraction(3),
                  Fraction(1, 2)]
        for u in range(0, 256, 15):
            for p in points:
                self._assert_matches(table[u].coeffs, p)
        for coeffs in ((), (4,), (-9,)):
            for p in points:
                self._assert_matches(coeffs, p)

    def test_random_polynomials(self):
        rng = random.Random(97)
        for _ in range(300):
            coeffs = IntPoly([rng.randint(-10**9, 10**9) for _ in range(rng.randint(0, 40))]).coeffs
            den = rng.choice((1, 2, 3, 1024, rng.randint(1, 10**25)))
            p = Fraction(rng.randint(-3 * den, 3 * den), den)
            self._assert_matches(coeffs, p)
            for fixed in EVAL_POINTS:
                self._assert_matches(coeffs, fixed)


LEMMA2_U6 = (0, 0, 0, 0, 16, 192, 1008, 3040, 5828, 7456, 6552, 4048, 1788,
             560, 120, 16, 1)
LEMMA2_U9 = (0, 0, 0, 0, 32, 320, 1456, 3984, 7042, 8400, 7000, 4176, 1804,
             560, 120, 16, 1)


def _synth(bits: int, m: int) -> IntPoly:
    z = P
    for i in range(m - 1, -1, -1):
        z = _parallel(z) if (bits >> i) & 1 else z.square()
    return z


def _from_path_counts(pc: PathCounts) -> IntPoly:
    """Round-trip twin of `to_path_counts`: expand sum_i N_i p^i (1-p)^(n-i)
    back to the power basis, with p^i (1-p)^(n-i) = sum_j C(n-i, j) (-1)^j
    p^(i+j)."""
    out = [0] * (pc.n + 1)
    for i, ni in enumerate(pc.counts):
        for j in range(pc.n - i + 1):
            out[i + j] += ni * comb(pc.n - i, j) * (-1) ** j
    return IntPoly(out)


class TestPathCounts:
    def test_degree2_channels_m4(self):
        assert to_path_counts(_synth(6, 4), 16).counts == LEMMA2_U6
        assert to_path_counts(_synth(9, 4), 16).counts == LEMMA2_U9

    def test_constant_one_gives_binomials(self):
        assert to_path_counts(IntPoly([1]), 4).counts == (1, 4, 6, 4, 1)

    def test_rejects_degree_above_n(self):
        with pytest.raises(ValueError):
            to_path_counts(IntPoly([0, 0, 1]), 1)

    def test_counts_length_validated(self):
        with pytest.raises(ValueError):
            PathCounts(3, (0, 1))

    @settings(max_examples=60)
    @given(st.lists(st.integers(-1000, 1000), max_size=65).map(IntPoly), st.data())
    def test_round_trip(self, a, data):
        n = data.draw(st.integers(max(a.degree, 0), max(a.degree, 0) + 8))
        pc = to_path_counts(a, n)
        assert _from_path_counts(pc) == a
        assert _power_from_counts(pc.counts) == a

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rebuild_matches_channel_differences(self, m, cache):
        """The inverse shift-add of every path-count difference is the
        difference of the two channel polynomials, and the expansion twin."""
        table = cache.table(m)
        n = 1 << m
        for u in range(n):
            for v in range(n):
                diff = [b - a for a, b in zip(table.counts[u], table.counts[v])]
                rebuilt = _power_from_counts(diff)
                assert rebuilt == table[v] - table[u] == _from_path_counts(PathCounts(n, diff))

    def test_integral_from_counts_identity(self, cache):
        # integral equals (1/(n+1)) sum N_i / C(n, i) for channel polynomials
        for m in range(1, 9):
            n = 1 << m
            table = cache.table(m)
            for u in range(0, n, max(1, n // 8)):
                z = table[u]
                pc = to_path_counts(z, n)
                via_counts = Fraction(1, n + 1) * sum(
                    Fraction(c, comb(n, i)) for i, c in enumerate(pc.counts))
                assert integrate01(z) == via_counts


def _answers_at_every_n(d: IntPoly, want: bool) -> None:
    """`nonneg_on_01` answers the bool `want` from d and from its counts at
    n = deg d .. deg d + 4."""
    assert nonneg_on_01(d) is want
    for n in range(max(d.degree, 0), d.degree + 5):
        assert nonneg_on_01(None, to_path_counts(d, n).counts) is want, n


class TestNonnegOn01:
    def test_identically_zero(self):
        _answers_at_every_n(IntPoly(), True)
        assert nonneg_on_01(None, [0, 0, 0]) is True

    def test_needs_d_or_counts(self):
        with pytest.raises(ValueError, match="d or its path counts"):
            nonneg_on_01(None, None)

    def test_dominance_pair_m4(self):
        d = _synth(9, 4) - _synth(6, 4)
        _answers_at_every_n(d, True)  # certified at n = deg d

    def test_incomparable_pair_m5(self):
        d = _synth(16, 5) - _synth(3, 5)
        _answers_at_every_n(d, False)
        _answers_at_every_n(-d, False)

    def test_strictly_positive_inside(self):
        assert nonneg_on_01(IntPoly([1, 1])) is True

    def test_negative_constant(self):
        assert nonneg_on_01(IntPoly([-2])) is False

    def test_touching_zero_inside_is_nonnegative(self):
        # (2p - 1)^2 touches zero at 1/2
        d = IntPoly([1, -4, 4])
        assert nonneg_on_01(d) is True
        assert nonneg_on_01(-d) is False

    def test_odd_triple_root_crosses(self):
        # (2p - 1)^3 changes sign at 1/2
        d = IntPoly([-1, 6, -12, 8])
        assert nonneg_on_01(d) is False

    def test_endpoint_roots_allowed(self):
        # p(1-p) >= 0 with roots exactly at both endpoints
        assert nonneg_on_01(IntPoly([0, 1, -1])) is True
        assert nonneg_on_01(IntPoly([0, -1, 1])) is False

    def test_high_multiplicity_endpoints(self):
        # p^3 (1-p)^2 and its negation
        d = IntPoly([0, 0, 0, 1]) * IntPoly([1, -2, 1])
        assert nonneg_on_01(d) is True
        assert nonneg_on_01(-d) is False

    def test_sign_dip_between_touch_points(self):
        # -(p - 1/4)^2 (p - 3/4)^2 is nonpositive, touching zero twice
        q = IntPoly([1, -4]) * IntPoly([3, -4])
        assert nonneg_on_01(-(q * q)) is False

    def test_factored_polynomials(self):
        # p (1-p) (2p - 1)^2: dividing out the root at 1 flips the sign
        d = IntPoly([0, 1, -1]) * IntPoly([1, -4, 4])
        assert nonneg_on_01(d) is True
        assert nonneg_on_01(-d) is False
        # d = c p^a (1-p)^b prod (q p - r)^k [(p^2 + 1)] with roots r/q in
        # (0, 1): d changes sign iff some interior root has odd total
        # multiplicity; otherwise every factor but c is nonnegative on [0, 1].
        rng = random.Random(2021)
        for _ in range(400):
            c = rng.choice([-3, -2, -1, 1, 2, 5])
            roots: Counter[Fraction] = Counter()
            for _ in range(rng.randint(0, 4)):
                q = rng.randint(2, 7)
                roots[Fraction(rng.randint(1, q - 1), q)] += rng.randint(1, 3)
            factors = [P] * rng.randint(0, 3) + [IntPoly([1, -1])] * rng.randint(0, 3)
            for r, k in roots.items():
                factors += [IntPoly([-r.numerator, r.denominator])] * k
            if rng.random() < 0.3:
                factors.append(IntPoly([1, 0, 1]))
            d = IntPoly([c])
            for factor in factors:
                d = d * factor
            if any(k % 2 for k in roots.values()):
                assert nonneg_on_01(d) is False, d
                assert nonneg_on_01(-d) is False, d
            else:
                up, down = (d, -d) if c > 0 else (-d, d)
                assert nonneg_on_01(up) is True, d
                assert nonneg_on_01(down) is False, d

    def test_fast_path_agrees_with_sturm(self):
        """Counts taken at n = deg d .. deg d + 4 give one verdict, whether
        the certificate or Sturm decides it: degree elevation lengthens
        neither zero run, so the roots read at 0 and 1 are those of d.
        d = c p^a (1-p)^b (q p - r)^k e with a, b in 2..3 and r/q in (0, 1)
        touches zero inside for even k and crosses for odd k; e is 1, p^2 + 1
        or a random polynomial.  Without the interior factor, e = 8p^2 - 8p + 3
        has counts (3, -1, 3) at its own degree, so Sturm decides at n = deg d
        and the certificate from n = deg d + 1 on."""
        positive = IntPoly([3, -8, 8])
        for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
            d = positive
            for factor in [P] * a + [IntPoly([1, -1])] * b:
                d = d * factor
            for sign, want in ((1, True), (-1, False)):
                counts = [to_path_counts(d.scale(sign), n).counts
                          for n in range(d.degree, d.degree + 5)]
                assert min(counts[0]) < 0 < max(counts[0])
                assert all(min(cs) >= 0 or max(cs) <= 0 for cs in counts[1:])
                assert all(nonneg_on_01(None, cs) is want for cs in counts), (a, b, sign)
        rng = random.Random(7)
        for trial in range(150):
            c = rng.choice([-3, -1, 1, 2])
            q = rng.randint(2, 7)
            r, k = rng.randint(1, q - 1), rng.randint(1, 3)
            d = IntPoly([c]) * (P * P * IntPoly([1, -1]) * IntPoly([1, -1]))
            for factor in [P] * rng.randint(0, 1) + [IntPoly([1, -1])] * rng.randint(0, 1) \
                    + [IntPoly([-r, q])] * k:
                d = d * factor
            extra = trial % 3
            if extra == 1:
                d = d * IntPoly([1, 0, 1])
            elif extra == 2:
                d = d * IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            verdict = nonneg_on_01(d)
            if extra < 2:
                want = k % 2 == 0 and c > 0
                assert verdict is want, d
            for n in range(max(d.degree, 1), d.degree + 5):
                assert nonneg_on_01(None, to_path_counts(d, n).counts) is verdict, (d, n)

    def test_odd_part_matches_factored_twin(self):
        """`_odd_part` of c prod (q p - r)^k (p^2 + 1)^j, k, j in 1..4, is up to
        sign the primitive product of the factors of odd total multiplicity,
        and a constant when every multiplicity is even."""
        rng = random.Random(22)
        cases = [(6, {Fraction(1, 2): 2}, 4)]
        for _ in range(300):
            roots: Counter[Fraction] = Counter()
            for _ in range(rng.randint(0, 4)):
                q = rng.randint(1, 7)
                roots[Fraction(rng.randint(-q, 2 * q), q)] += rng.randint(1, 4)
            cases.append((rng.choice([-6, -1, 1, 2, 15]), roots, rng.randint(1, 4)))
        for c, roots, j in cases:
            d, want = IntPoly([c]), IntPoly([1])
            for r, k in roots.items():
                factor = IntPoly([-r.numerator, r.denominator])
                for _ in range(k):
                    d = d * factor
                if k % 2:
                    want = want * factor
            for _ in range(j):
                d = d * IntPoly([1, 0, 1])
            if j % 2:
                want = want * IntPoly([1, 0, 1])
            odd = IntPoly(_odd_part(list(d.coeffs)))
            assert odd in (want, -want), (c, roots, j)
            if all(k % 2 == 0 for k in roots.values()) and j % 2 == 0:
                assert odd.degree == 0

    def test_matches_dense_sampling_random(self):
        rng = random.Random(1234)
        for _ in range(80):
            d = IntPoly([rng.randint(-8, 8) for _ in range(rng.randint(1, 10))])
            verdict = nonneg_on_01(d)
            if d.is_zero():
                continue
            samples = [eval_rational(d, Fraction(k, 257)) for k in range(258)]
            if verdict:
                assert all(v >= 0 for v in samples)
            else:
                # authoritative verdict says negative somewhere; sampling may
                # miss it only for sign dips between grid points
                if any(v < 0 for v in samples):
                    assert verdict is False


class TestSamplingAgreementChannels:
    """Verdicts agree with dense sampling of channel-pair differences.

    Float screen at 10^4 grid points for every pair at m <= 5; any point that
    looks negative while the verdict says nonnegative is re-checked exactly.
    """

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_channel_pairs(self, m, cache):
        table = cache.table(m)
        n = 1 << m
        grid = np.linspace(0.0, 1.0, 10_001)
        values = {}
        for u in range(n):
            cs = np.array(table[u].coeffs[::-1], dtype=float)
            values[u] = np.polyval(cs, grid)
        for u in range(n):
            for v in range(u + 1, n):
                d = table[v] - table[u]
                verdict = nonneg_on_01(d)
                diff = values[v] - values[u]
                if verdict:
                    suspect = np.nonzero(diff < -1e-9)[0]
                    for idx in suspect[:3]:
                        k = int(idx)
                        assert eval_rational(d, Fraction(k, 10_000)) >= 0
                elif nonneg_on_01(-d):
                    suspect = np.nonzero(diff > 1e-9)[0]
                    for idx in suspect[:3]:
                        k = int(idx)
                        assert eval_rational(d, Fraction(k, 10_000)) <= 0

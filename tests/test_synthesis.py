"""Channel synthesis: nesting order, suffix-shared table, duality, thresholds."""

import random
from fractions import Fraction

import pytest

from becpolar.monomials import Monomial
from becpolar.polynomials import IntPoly
from becpolar.synthesis import dual_poly, synth_all, synth_poly, threshold_estimate

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
        assert synth_poly(Monomial.from_int(9, 4)) == expected

    def test_m4_label6_matches_nested_expansion(self):
        # label 6 = (0,1,1,0): expansion (1 - (1 - p^2)^4)^2
        inner = ONE - _nested_series(P, 1)      # 1 - p^2
        inner4 = _nested_series(inner, 2)
        outer = ONE - inner4
        assert synth_poly(Monomial.from_int(6, 4)) == outer * outer

    def test_all_zero_label(self):
        assert synth_poly(Monomial.from_int(0, 2)) == IntPoly([0, 0, 0, 0, 1])

    def test_degree_is_two_to_m(self):
        for m in range(1, 7):
            for u in (0, 1, (1 << m) - 1):
                assert synth_poly(Monomial.from_int(u, m)).degree == 1 << m

    def test_boundary_values(self):
        for m in range(1, 6):
            for u in range(1 << m):
                z = synth_poly(Monomial.from_int(u, m))
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

    def test_lookup_by_monomial(self):
        table = synth_all(3)
        assert table[Monomial.from_int(5, 3)] == table[5]
        assert len(table) == 8

    def test_matches_unmemoized_synthesis(self, cache):
        rng = random.Random(42)
        for m in range(1, 9):
            table = cache.table(m)
            labels = rng.sample(range(1 << m), min(1 << m, 7))
            for u in labels:
                assert table[u] == synth_poly(Monomial.from_int(u, m))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_erasure_conservation(self, m, cache):
        assert cache.check("identities/erasure-conservation", m) is None

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            synth_all(13)
        with pytest.raises(ValueError):
            synth_all(0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_path_count_bounds(self, m, cache):
        assert cache.check("identities/path-count-bounds", m) is None


class TestDuality:
    def test_series_parallel_dual(self):
        assert dual_poly(IntPoly([0, 0, 1])) == IntPoly([0, 2, -1])

    def test_dual_is_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
            assert dual_poly(dual_poly(a)) == a

    def test_complement_identity_m5(self, cache):
        table = cache.table(5)
        assert dual_poly(table[3]) == table[28]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_complement_identity_all(self, m, cache):
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


class TestThreshold:
    def test_parallel_pair(self):
        # 2p - p^2 = 1/2 at p = 1 - sqrt(2)/2
        tol = Fraction(1, 2**30)
        root = 1 - _sqrt_lower_bound(Fraction(1, 2), 60)
        assert abs(threshold_estimate(IntPoly([0, 2, -1]), tol) - root) <= 2 * tol

    def test_series_pair(self):
        tol = Fraction(1, 2**30)
        root = _sqrt_lower_bound(Fraction(1, 2), 60)
        assert abs(threshold_estimate(IntPoly([0, 0, 1]), tol) - root) <= 2 * tol

    def test_dual_thresholds_sum_to_one(self, cache):
        tol = Fraction(1, 2**24)
        table = cache.table(4)
        for u in (1, 3, 6, 7):
            t1 = threshold_estimate(table[u], tol)
            t2 = threshold_estimate(dual_poly(table[u]), tol)
            assert abs(t1 + t2 - 1) <= 2 * tol

    def test_rejects_non_bracketing_input(self):
        with pytest.raises(ValueError):
            threshold_estimate(IntPoly([1]))  # constant 1 never crosses 1/2
        with pytest.raises(ValueError):
            threshold_estimate(IntPoly([0, 2, -1]), Fraction(0))

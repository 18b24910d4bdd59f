"""Composition graphs, the subset-enumeration oracle, and closed-form averages."""

from fractions import Fraction

import mpmath as mp
import pytest

from becpolar.monomials import Monomial
from becpolar.polynomials import integrate01, to_path_counts
from becpolar.reliability import (
    CompositionParams,
    avr_closed_form,
    avr_closed_form_complement,
    build_graph,
    gen_binomial,
    ni_inclusion_exclusion,
    oracle_path_counts,
)
from becpolar.synthesis import synth_poly

LEMMA2_U6 = (0, 0, 0, 0, 16, 192, 1008, 3040, 5828, 7456, 6552, 4048, 1788,
             560, 120, 16, 1)
LEMMA2_U9 = (0, 0, 0, 0, 32, 320, 1456, 3984, 7042, 8400, 7000, 4176, 1804,
             560, 120, 16, 1)


class TestCompositionParams:
    def test_width_length_product(self):
        for m in range(1, 8):
            for u in range(0, 1 << m, max(1, (1 << m) // 16)):
                params = CompositionParams.of(Monomial.from_int(u, m))
                assert params.n == params.w * params.l == 1 << m


class TestBuildGraph:
    def test_series_single_bit(self):
        g = build_graph(Monomial.from_int(0, 1))
        assert len(g.edges) == 2
        assert sorted(g.edges) == [(0, 2), (2, 1)]

    def test_parallel_single_bit(self):
        g = build_graph(Monomial.from_int(1, 1))
        assert g.edges == ((0, 1), (0, 1))

    def test_edge_count_is_two_to_m(self):
        for m in range(1, 7):
            for u in (0, 1, (1 << m) - 1, (1 << m) // 3):
                assert len(build_graph(Monomial.from_int(u, m)).edges) == 1 << m


class TestOracle:
    def test_single_edge(self):
        from becpolar.reliability import CompositionGraph
        base = CompositionGraph(2, ((0, 1),))
        assert oracle_path_counts(base).counts == (0, 1)

    def test_two_parallel_edges(self):
        g = build_graph(Monomial.from_int(1, 1))
        assert oracle_path_counts(g).counts == (0, 2, 1)

    def test_two_parallel_two_paths(self):
        # label (1,0): reliability 2p^2 - p^4
        g = build_graph(Monomial.from_int(1, 2))
        want = to_path_counts(synth_poly(Monomial.from_int(1, 2)), 4)
        assert oracle_path_counts(g) == want

    def test_lemma2_vectors(self):
        assert oracle_path_counts(build_graph(Monomial.from_int(6, 4))).counts == LEMMA2_U6
        assert oracle_path_counts(build_graph(Monomial.from_int(9, 4))).counts == LEMMA2_U9

    @pytest.mark.parametrize("m", range(1, 4))
    def test_matches_basis_conversion(self, m, cache):
        assert cache.check("reliability/oracle-equivalence", m) is None

    def test_edge_cap(self):
        with pytest.raises(ValueError):
            oracle_path_counts(build_graph(Monomial.from_int(0, 5)))


class TestInclusionExclusion:
    def test_m2_one_parallel_stage(self):
        assert ni_inclusion_exclusion(2, 1).counts == (0, 0, 2, 4, 1)

    def test_all_series(self):
        n = 8
        counts = ni_inclusion_exclusion(3, 0).counts
        assert counts == tuple(0 if i < n else 1 for i in range(n + 1))

    def test_all_parallel(self):
        from math import comb
        n = 8
        counts = ni_inclusion_exclusion(3, 3).counts
        # every nonempty subset connects
        assert counts == tuple(comb(n, i) if i >= 1 else 0 for i in range(n + 1))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_basis_conversion(self, m):
        for i_ones in range(m + 1):
            u = (1 << i_ones) - 1
            want = to_path_counts(synth_poly(Monomial.from_int(u, m)), 1 << m)
            assert ni_inclusion_exclusion(m, i_ones) == want

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ni_inclusion_exclusion(3, 4)


class TestGenBinomial:
    def test_fractional_upper(self):
        assert gen_binomial(Fraction(5, 2), 2) == Fraction(15, 8)

    def test_integer_case(self):
        assert gen_binomial(Fraction(5), 4) == 5

    def test_k_zero(self):
        assert gen_binomial(Fraction(7, 3), 0) == 1

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            gen_binomial(Fraction(1), -1)


class TestClosedForm:
    def test_table_anchors(self):
        assert avr_closed_form(2, 1) == Fraction(7, 15)
        assert avr_closed_form(3, 1) == Fraction(13, 45)
        assert avr_closed_form(2, 2) == Fraction(4, 5)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_exact_integration(self, m):
        for i_ones in range(m + 1):
            u = (1 << i_ones) - 1
            z = synth_poly(Monomial.from_int(u, m))
            assert avr_closed_form(m, i_ones) == integrate01(z)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_complement_sums_to_one(self, m):
        for i in range(m + 1):
            assert avr_closed_form(m, i) + avr_closed_form_complement(m, i) == 1


def _trend_binomial(m: int, denom_kind: str) -> mp.mpf:
    """C(x + 1/D, x) with x = 2^m / D for the three asymptotic denominators."""
    with mp.workdps(60):
        n = mp.mpf(2) ** m
        lg = mp.log(n, 2)
        lglg = mp.log(lg, 2)
        D = {"loglog": lglg, "log": lg, "both": lg * lglg}[denom_kind]
        x = n / D
        return mp.gamma(x + 1 / D + 1) / (mp.gamma(x + 1) * mp.gamma(1 / D + 1))


class TestAsymptoticTrends:
    """Finite-m behavior of the three generalized binomials behind the
    asymptotic reliability classes: limits 1, infinity, and 2."""

    SMALL = range(6, 13)
    TAIL = (16, 32, 64, 128)

    def test_limit_one_binomial_decreases_toward_one(self):
        values = [_trend_binomial(m, "both") for m in (*self.SMALL, *self.TAIL)]
        assert all(v > 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < mp.mpf("1.11")

    def test_limit_infinity_binomial_grows_beyond_bound(self):
        values = [_trend_binomial(m, "loglog") for m in (*self.SMALL, *self.TAIL)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 10**3  # any fixed bound is eventually passed

    def test_limit_two_binomial_increases_toward_two(self):
        values = [_trend_binomial(m, "log") for m in (*self.SMALL, *self.TAIL)]
        assert all(v < 2 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        gaps = [2 - v for v in values]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < mp.mpf("0.07")

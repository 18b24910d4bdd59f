"""Ranking criteria, information sets, incomparable pairs, histograms, beta."""

from decimal import Decimal
from fractions import Fraction

import pytest

from becpolar import golden
from becpolar.construction import (
    Criterion,
    avr_distribution,
    avr_of_pairs,
    beta_avr_conflicts,
    beta_incompatible_count,
    beta_value,
    construct,
    incomparable_pairs,
    rank,
    render_avr,
)
from becpolar.monomials import Monomial, rm_set
from becpolar.orders import leq_std


class TestRank:
    def test_average_m4_order(self, cache):
        ranking = rank(Criterion.average(), 4, cache.table(4))
        assert list(ranking.order) == [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]

    def test_average_m5_prefix(self, cache):
        ranking = rank(Criterion.average(), 5, cache.table(5))
        assert ranking.order[:17] == golden.ORDER_PREFIX_M5

    def test_average_m6_prefix(self, cache):
        ranking = rank(Criterion.average(), 6, cache.table(6))
        assert ranking.order[:36] == golden.ORDER_PREFIX_M6

    def test_pointwise_scores_exact(self, cache):
        ranking = rank(Criterion.pointwise_at(Fraction(1, 2)), 2, cache.table(2))
        assert list(ranking.scores) == [Fraction(1, 16), Fraction(7, 16),
                                        Fraction(9, 16), Fraction(15, 16)]

    def test_pointwise_requires_interior_p(self):
        with pytest.raises(ValueError):
            Criterion.pointwise_at(Fraction(1))
        with pytest.raises(ValueError):
            Criterion.pointwise_at(Fraction(0))

    def test_beta_ranking_m5_matches_average(self, cache):
        avr_order = rank(Criterion.average(), 5, cache.table(5)).order
        beta_order = rank(Criterion.beta_expansion(Decimal("1.22")), 5).order
        assert avr_order == beta_order


class TestConstruct:
    def test_pointwise_half_m2_k2(self, cache):
        got = construct(Criterion.pointwise_at(Fraction(1, 2)), 2, 2, cache.table(2))
        assert {f.to_int() for f in got} == {0, 1}

    def test_average_m5_k6_is_first_order_rm(self, cache):
        got = construct(Criterion.average(), 5, 6, cache.table(5))
        assert got == rm_set(1, 5)

    def test_k_zero(self, cache):
        assert construct(Criterion.average(), 3, 0, cache.table(3)) == set()

    def test_k_out_of_range(self, cache):
        with pytest.raises(ValueError):
            construct(Criterion.average(), 3, 9, cache.table(3))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_average_sets_downward_closed(self, m, cache):
        # every prefix of the average ranking is a decreasing set
        ranking = rank(Criterion.average(), m, cache.table(m))
        pos = {u: k for k, u in enumerate(ranking.order)}
        monos = [Monomial(m, u) for u in range(1 << m)]
        for f in monos:
            for g in monos:
                if leq_std(g, f):
                    assert pos[g.to_int()] <= pos[f.to_int()]


class TestIncomparablePairs:
    def test_m5(self, cache):
        assert incomparable_pairs(5, cache.table(5)) == golden.INCOMPARABLE_PAIRS_M5

    def test_m4_empty(self, cache):
        assert incomparable_pairs(4, cache.table(4)) == []

    def test_complement_closure_m5(self, cache):
        pairs = set(golden.INCOMPARABLE_PAIRS_M5)
        for u, v in pairs:
            mirrored = tuple(sorted((31 - u, 31 - v)))
            assert mirrored in pairs

    def test_cap(self):
        with pytest.raises(ValueError):
            incomparable_pairs(7)


class TestAvrOfPairs:
    def test_three_decimal_pairs(self, cache):
        table = cache.table(5)
        got = avr_of_pairs([(3, 16), (12, 17)], table, 3)
        assert got[0] == (Decimal("0.221"), Decimal("0.217"))  # exact 0.216528
        assert got[1] == (Decimal("0.396"), Decimal("0.383"))

    def test_four_decimal_pair(self, cache):
        got = avr_of_pairs([(7, 20), (7, 24)], cache.table(5), 4)
        assert got[0] == (Decimal("0.4712"), Decimal("0.4710"))
        assert got[1] == (Decimal("0.4712"), Decimal("0.5288"))

    def test_render_exact_boundary(self):
        assert render_avr(Fraction(1, 5), 2) == Decimal("0.20")
        assert render_avr(Fraction(1, 2**10), 3) == Decimal("0.001")


class TestDistribution:
    def test_m5_row(self, cache):
        assert avr_distribution(5, cache.table(5)) == [2, 3, 4, 4, 3, 3, 4, 4, 3, 2]

    def test_m7_first_five(self, cache):
        counts = avr_distribution(7, cache.table(7))
        assert tuple(counts[:5]) == (11, 13, 14, 13, 13)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_buckets_sum_and_mirror(self, m, cache):
        counts = avr_distribution(m, cache.table(m))
        assert sum(counts) == 1 << m
        if m >= 5:
            assert counts == counts[::-1]

    @pytest.mark.parametrize("m", range(5, 8))
    def test_no_boundary_values(self, m, cache):
        # mirror symmetry relies on no average sitting exactly on a decile edge
        for a in cache.avrs(m):
            assert (a * 10).denominator != 1


class TestBeta:
    def test_beta_value_example(self):
        got = beta_value(Monomial.from_int(0b101, 3), Decimal("1.22"))
        assert got == Decimal("2.4884")

    def test_beta_value_rejects_small_beta(self):
        with pytest.raises(ValueError):
            beta_value(Monomial.from_int(1, 2), Decimal("1"))

    def test_conflicts_empty_when_rankings_match(self, cache):
        assert beta_avr_conflicts(5, Decimal("1.22"), cache.table(5)) == []

    def test_conflicts_m6(self, cache):
        got = beta_avr_conflicts(6, Decimal("1.22"), cache.table(6))
        assert got == [(14, 40), (22, 35), (23, 49), (28, 41)]

    def test_incompatible_count_m6(self, cache):
        assert beta_incompatible_count(6, Decimal("1.22"), cache.table(6)) == 2

    def test_incompatible_count_zero_points(self, cache):
        for m, points in golden.BETA_ZERO_POINTS.items():
            for b in points:
                assert beta_incompatible_count(m, Decimal(b), cache.table(m)) == 0

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("b", ["1.1", "1.22", "1.5", "2"])
    def test_beta_respects_standard_order(self, m, b):
        beta = Decimal(b)
        monos = [Monomial(m, u) for u in range(1 << m)]
        vals = [beta_value(f, beta) for f in monos]
        for f in monos:
            for g in monos:
                if leq_std(f, g):
                    assert vals[f.to_int()] <= vals[g.to_int()]


class TestAvrInjective:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_no_duplicate_averages(self, m, cache):
        assert cache.check("tables/distinct-averages", m) is None

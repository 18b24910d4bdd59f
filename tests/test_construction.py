"""Ranking criteria, incomparable pairs, histograms, beta."""

from collections import Counter
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from math import lcm

import pytest

from becpolar import construction, golden, synthesis
from becpolar.construction import (
    Criterion,
    avr_distribution,
    best,
    beta_avr_conflicts,
    beta_incompatible_count,
    incomparable_pairs,
    rank,
    render_avr,
)
from becpolar.monomials import Monomial
from becpolar.orders import Relation, leq
from becpolar.polynomials import eval_rational
from becpolar.synthesis import average_numerators


class TestRank:
    def test_average_m4_order(self):
        ranking = rank(Criterion.average(), 4)
        assert list(ranking.order) == [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]

    def test_average_m5_prefix(self):
        ranking = rank(Criterion.average(), 5)
        assert ranking.order[:17] == golden.ORDER_PREFIX_M5

    def test_average_m6_prefix(self):
        ranking = rank(Criterion.average(), 6)
        assert ranking.order[:36] == golden.ORDER_PREFIX_M6

    def test_pointwise_scores_exact(self):
        ranking = rank(Criterion.pointwise_at(Fraction(1, 2)), 2)
        assert [ranking.score(u) for u in range(4)] == [Fraction(1, 16), Fraction(7, 16),
                                                        Fraction(9, 16), Fraction(15, 16)]

    def test_pointwise_requires_interior_p(self):
        with pytest.raises(ValueError):
            Criterion.pointwise_at(Fraction(1))
        with pytest.raises(ValueError):
            Criterion.pointwise_at(Fraction(0))

    def test_beta_ranking_m5_matches_average(self):
        avr_order = rank(Criterion.average(), 5).order
        beta_order = rank(Criterion.beta_expansion(Decimal("1.22")), 5).order
        assert avr_order == beta_order

    @pytest.mark.parametrize("m", [0, 17])
    @pytest.mark.parametrize("criterion", [
        Criterion.average(), Criterion.pointwise_at(Fraction(1, 3)),
        Criterion.beta_expansion(Decimal("1.22"))], ids=lambda c: c.label())
    def test_every_criterion_refuses_a_width_outside_1_to_16(self, criterion, m):
        with pytest.raises(ValueError, match=f"m must be in 1..16, got {m}"):
            rank(criterion, m)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_average_keys_from_the_descent_equal_the_walk(self, m, cache):
        """The descent ranking against its twin, the walk over every label:
        the same keys, denominator and order."""
        nums, d = average_numerators(m)
        ranking = cache.by_average(m)
        assert ranking.keys == nums
        assert ranking.denominator == d
        assert ranking.order == _order(nums)

    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_average_never_calls_the_walk(self, monkeypatch, m):
        """Every key is read once from one descent, and no walk runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("rank by average walked the suffix tree")
        for module in (construction, synthesis):
            monkeypatch.setattr(module, "average_numerators", refuse)
        monkeypatch.setattr(synthesis, "_suffix_walk", refuse)
        reads, descent = [], synthesis.average_descent

        def spy(m):
            numerator, d = descent(m)
            return (lambda u: reads.append(u) or numerator(u)), d
        monkeypatch.setattr(synthesis, "average_descent", spy)
        rank(Criterion.average(), m)
        assert reads == list(range(1 << m))


AVR = Criterion.average()


def _prefix(ranking, k):
    """The best k labels of a ranking, their keys and its denominator: what
    `best` returns."""
    order = ranking.order[:k]
    return order, tuple(ranking.keys[u] for u in order), ranking.denominator


class TestBestByAverage:
    """The standard-order frontier against its twin, the prefix of `rank`."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_k_equals_the_rank_prefix(self, m, cache):
        ranking = cache.by_average(m)
        for k in range((1 << m) + 1):
            assert best(AVR, m, k) == _prefix(ranking, k), k

    @pytest.mark.parametrize("m", range(8, 12))
    def test_ks_around_the_cli_switch_equal_the_rank_prefix(self, m, cache):
        """k = 2^(m-3) is the largest the CLI lists from the frontier."""
        ranking, n = cache.by_average(m), 1 << m
        for k in (1, 10, n >> 3, (n >> 3) + 1, n):
            assert best(AVR, m, k) == _prefix(ranking, k), k

    @pytest.mark.parametrize("m, k, read", [(8, 11, 15), (10, 10, 13), (12, 10, 13)])
    def test_reads_the_averages_its_docstring_counts(self, monkeypatch, m, k, read):
        """Each frontier label's average is read once, from one descent."""
        calls = []
        descent = synthesis.average_descent

        def spy(m):
            numerator, d = descent(m)
            calls.append(0)

            def counted(u):
                calls[-1] += 1
                return numerator(u)
            return counted, d
        monkeypatch.setattr(synthesis, "average_descent", spy)
        best(AVR, m, k)
        assert calls == [read]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_one_move_pairs_are_strict_standard_relations(self, m):
        """Each move goes strictly up the standard order to a larger label,
        so a label ranks after every label one move below it; and the
        moves into v number `_moves_below_count(v)`."""
        below = Counter()
        for u in range(1 << m):
            above = construction._moves_above(u, m)
            assert len(set(above)) == len(above)
            for v in above:
                f, g = Monomial(m, u), Monomial(m, v)
                assert u < v and leq(f, g, Relation.STANDARD) and not leq(g, f, Relation.STANDARD)
                below[v] += 1
        assert [below[v] for v in range(1 << m)] == [
            construction._moves_below_count(v) for v in range(1 << m)]

    @pytest.mark.parametrize("m, k", [(0, 1), (17, 1), (3, -1), (3, 9)])
    def test_refuses_a_width_or_count_out_of_range(self, m, k):
        with pytest.raises(ValueError, match="out of range|m must be in"):
            best(AVR, m, k)


POINTS = [Fraction(2, 9), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10**9 + 7),
          Fraction(999, 1000)]


class TestBestAtP:
    """The standard-order frontier at p against its twin, the prefix of
    `rank` at p, on one channel table per m."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_every_k_in_the_cli_range_equals_the_rank_prefix(self, monkeypatch, m, cache):
        """Every k <= 2^(m-3), the frontier's range in the CLI (k <= 1 at
        m < 3).  Each score of a point is computed once, for `rank`, and the
        greedy reads the same values back."""
        monkeypatch.setattr(construction, "synth_all", cache.table)
        scores = {}

        def once(poly, p):
            if (id(poly), p) not in scores:
                scores[id(poly), p] = eval_rational(poly, p)
            return scores[id(poly), p]
        monkeypatch.setattr(construction, "eval_rational", once)
        for p in POINTS:
            criterion = Criterion.pointwise_at(p)
            ranking = rank(criterion, m)
            for k in range(max((1 << m) >> 3, 1) + 1):
                assert best(criterion, m, k) == _prefix(ranking, k), (p, k)

    @pytest.mark.parametrize("m, k, read", [
        (8, 10, 11), (8, 12, 14), (8, 32, 35), (3, 1, None), (6, 8, None), (9, 64, None)])
    def test_scores_each_label_read_once(self, monkeypatch, m, k, read, cache):
        """A spy on `eval_rational`: at every point, each label the greedy
        reads is scored once, at most 1 + mk labels in all, and at m = 8,
        p = 2/9 as many as the docstring of `best` counts."""
        table = cache.table(m)
        label = {poly: u for u, poly in enumerate(table.polys)}
        scored = []

        def spy(poly, p):
            scored.append(label[poly])
            return eval_rational(poly, p)
        monkeypatch.setattr(construction, "synth_all", lambda m_: table)
        monkeypatch.setattr(construction, "eval_rational", spy)
        for p in POINTS:
            scored.clear()
            best(Criterion.pointwise_at(p), m, k)
            assert len(set(scored)) == len(scored) <= 1 + m * k, p
            if p == Fraction(2, 9) and read is not None:
                assert len(scored) == read

    def test_refuses_a_beta_criterion(self):
        with pytest.raises(ValueError, match="by average or at p"):
            best(Criterion.beta_expansion(Decimal("1.22")), 4, 2)


class TestConstruct:
    def test_pointwise_half_m2_k2(self):
        got = rank(Criterion.pointwise_at(Fraction(1, 2)), 2).order[:2]
        assert set(got) == {0, 1}

    def test_average_m5_k6_is_first_order_rm(self, cache):
        got = rank(Criterion.average(), 5).order[:6]
        assert set(got) == {0, 1, 2, 4, 8, 16}  # x^u of degree <= 1: RM(1, 5)
        assert cache.check("tables/first-order-rm", 5) is None

    @pytest.mark.parametrize("m", range(1, 7))
    def test_average_sets_downward_closed(self, m):
        # every prefix of the average ranking is a decreasing set
        ranking = rank(Criterion.average(), m)
        pos = {u: k for k, u in enumerate(ranking.order)}
        monos = [Monomial(m, u) for u in range(1 << m)]
        for f in monos:
            for g in monos:
                if leq(g, f, Relation.STANDARD):
                    assert pos[g.bits] <= pos[f.bits]


class TestIncomparablePairs:
    def test_m5(self, cache):
        assert incomparable_pairs(cache.table(5)) == golden.INCOMPARABLE_PAIRS_M5

    def test_m6(self, cache):
        assert incomparable_pairs(cache.table(6)) == golden.INCOMPARABLE_PAIRS_M6

    def test_m4_empty(self, cache):
        assert incomparable_pairs(cache.table(4)) == []

    def test_complement_closure_m5(self, cache):
        pairs = set(golden.INCOMPARABLE_PAIRS_M5)
        for u, v in pairs:
            mirrored = tuple(sorted((31 - u, 31 - v)))
            assert mirrored in pairs

    def test_cap(self, cache):
        with pytest.raises(ValueError, match="m=7 exceeds pairwise-scan cap 6"):
            incomparable_pairs(cache.table(7))


def _order(scores):
    """Labels sorted by score, ties broken by label."""
    return tuple(sorted(range(len(scores)), key=lambda u: (scores[u], u)))


def _deciles(avrs):
    return [sum(Fraction(i, 10) < a <= Fraction(i + 1, 10) for a in avrs) for i in range(10)]


def _beta_scores(m, beta=Fraction("1.22")):
    return [sum((beta**i for i in range(m) if u >> i & 1), Fraction(0)) for u in range(1 << m)]


def _conflicts(m, avrs):
    beta, n = _beta_scores(m), 1 << m
    return [(u, v) for u in range(n) for v in range(n) if avrs[u] < avrs[v] and beta[u] > beta[v]]


@pytest.mark.parametrize("call, twin", [
    (lambda m: rank(Criterion.average(), m).order, lambda m, avrs: _order(avrs)),
    (lambda m: avr_distribution(m), lambda m, avrs: _deciles(avrs)),
    (lambda m: beta_avr_conflicts(m, Decimal("1.22")), _conflicts),
    (lambda m: beta_incompatible_count(m, Decimal("1.22")),
     lambda m, avrs: Fraction(sum(a != b for a, b in zip(_order(avrs), _order(_beta_scores(m)))), 4)),
], ids=["rank", "avr_distribution", "beta_avr_conflicts", "beta_incompatible_count"])
@pytest.mark.parametrize("m", [6, 7])
def test_averages_without_a_table_equal_the_table_path(call, twin, m, cache):
    """Each statistic of the moment recursion against its twin on the
    table's integrals, in `Fraction`s."""
    assert call(m) == twin(m, cache.avrs(m))


@pytest.mark.parametrize("m", range(1, 9))
def test_average_keys_without_a_table_equal_the_table_path(m, cache):
    """The moment recursion's numerators over D = lcm(1..2^m + 1) against
    the table's integrals: the same ranking, scores and deciles."""
    moments = rank(Criterion.average(), m)
    assert moments.order == _order(cache.avrs(m))
    assert [moments.score(u) for u in range(1 << m)] == cache.avrs(m)
    assert moments.denominator == lcm(*range(1, (1 << m) + 2))
    assert avr_distribution(m) == _deciles(cache.avrs(m))


def _pair_decimals(m, pairs, places):
    """Half-up renderings of the averages of label pairs, each from its
    numerator over D, as the pair-avr-decimals check renders them."""
    numerator, d = synthesis.average_descent(m)
    return [tuple(render_avr(numerator(u), places, d) for u in pair) for pair in pairs]


class TestAvrOfPairs:
    def test_three_decimal_pairs(self):
        got = _pair_decimals(5, [(3, 16), (12, 17)], 3)
        assert got[0] == ("0.221", "0.217")  # exact 0.216528
        assert got[1] == ("0.396", "0.383")

    def test_four_decimal_pair(self):
        got = _pair_decimals(5, [(7, 20), (7, 24)], 4)
        assert got[0] == ("0.4712", "0.4710")
        assert got[1] == ("0.4712", "0.5288")

    def test_render_exact_boundary(self):
        assert render_avr(Fraction(1, 5), 2) == "0.20"
        assert render_avr(Fraction(1, 2**10), 3) == "0.001"


def _decimal_twin(x: int, d: int, places: int) -> str:
    """Slow twin of `render_avr`: x / d quantized half-up by `decimal`, under
    a context wide enough that the division cannot round onto a tie: a
    quotient that is not a tie lies at least 1 / (2 d 10^places) from one."""
    with localcontext() as ctx:
        ctx.prec = len(str(x // d)) + places + len(str(d)) + 5
        ctx.rounding = ROUND_HALF_UP
        return format((Decimal(x) / Decimal(d)).quantize(Decimal(1).scaleb(-places)), "f")


class TestRenderAvr:
    """`render_avr`, which cuts its text from one integer divmod, against
    the `Decimal` twin."""

    @pytest.mark.parametrize("x, d, places, text", [
        (1, 8, 2, "0.13"), (3, 8, 2, "0.38"), (1, 2000, 3, "0.001"), (5, 2, 0, "3"),
        (1, 2, 0, "1"), (5, 16, 3, "0.313"), (25, 4, 1, "6.3"), (1, 2 * 10**12, 12, "0.000000000001"),
    ])
    def test_exact_half_up_ties(self, x, d, places, text):
        assert render_avr(x, places, d) == _decimal_twin(x, d, places) == text

    @pytest.mark.parametrize("places", [0, 1, 2, 6, 9])
    def test_zero_and_one(self, places):
        d = lcm(*range(1, 10))
        for x in (0, d):
            assert render_avr(x, places, d) == _decimal_twin(x, d, places)
        assert render_avr(Fraction(0), places) == _decimal_twin(0, 1, places)
        assert render_avr(Fraction(1), places) == _decimal_twin(1, 1, places)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_every_average_numerator(self, m):
        nums, d = average_numerators(m)
        for places in (2, 6):
            assert [render_avr(x, places, d) for x in nums] == [
                _decimal_twin(x, d, places) for x in nums]

    @pytest.mark.parametrize("beta", ["1.37", "1.225"])
    def test_beta_keys(self, beta):
        m = 7
        ranking = rank(Criterion.beta_expansion(Decimal(beta)), m)
        d = ranking.denominator
        for places in ((m - 1) * (len(beta) - 2), 6):
            assert [render_avr(x, places, d) for x in ranking.keys] == [
                _decimal_twin(x, d, places) for x in ranking.keys]


class TestDistribution:
    def test_m5_row(self):
        assert avr_distribution(5) == [2, 3, 4, 4, 3, 3, 4, 4, 3, 2]

    def test_m7_first_five(self):
        counts = avr_distribution(7)
        assert tuple(counts[:5]) == (11, 13, 14, 13, 13)

    def test_m10_first_five_without_a_table(self):
        assert tuple(avr_distribution(10)[:5]) == golden.DISTRIBUTION_FIRST5[10]

    def test_m11_first_five_without_a_table(self):
        assert tuple(avr_distribution(11)[:5]) == golden.DISTRIBUTION_FIRST5[11]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_buckets_sum_and_mirror(self, m):
        counts = avr_distribution(m)
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
        assert rank(Criterion.beta_expansion(Decimal("1.22")), 3).score(0b101) == Fraction("2.4884")

    def test_beta_value_rejects_small_beta(self):
        with pytest.raises(ValueError):
            Criterion.beta_expansion(Decimal("1"))

    def test_beta_size_cap_is_100_digits(self):
        with pytest.raises(ValueError, match="digits"):
            Criterion.beta_expansion(Decimal("1." + "0" * 100 + "1"))
        Criterion.beta_expansion(Decimal("1." + "0" * 98 + "1"))  # 100 digits

    def test_p_size_cap_is_100_digits(self):
        """The rule of beta, on p as written num/den, for library callers."""
        with pytest.raises(ValueError, match="digits"):
            Criterion.pointwise_at(Fraction(1, 10 ** 100))
        Criterion.pointwise_at(Fraction(1, 10 ** 98))  # 100 digits

    @pytest.mark.parametrize("m", range(1, 7))
    def test_beta_order_sorts_independent_fractions(self, m):
        for hundredths in range(101, 201):
            beta = Fraction(hundredths, 100)
            scores = [sum((beta**i for i in range(m) if u >> i & 1), Fraction(0))
                      for u in range(1 << m)]
            criterion = Criterion.beta_expansion(Decimal(hundredths) / 100)
            assert rank(criterion, m).order == tuple(sorted(range(1 << m), key=scores.__getitem__))

    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_scores_built_when_read_equal_beta_scores(self, m):
        ranking = rank(Criterion.beta_expansion(Decimal("1.22")), m)
        assert ranking.denominator == 50 ** (m - 1)
        assert all(isinstance(x, int) for x in ranking.keys)
        want = [sum((Fraction("1.22") ** i for i in range(m) if u >> i & 1), Fraction(0))
                for u in range(1 << m)]
        got = [ranking.score(u) for u in range(1 << m)]
        assert got == want
        assert all(type(x) is Fraction for x in got)

    def test_average_and_pointwise_scores(self, cache):
        ranking = rank(Criterion.average(), 5)
        assert ranking.denominator == lcm(*range(1, 34))
        assert all(type(x) is int for x in ranking.keys)
        assert [ranking.score(u) for u in range(32)] == cache.avrs(5)
        ranking = rank(Criterion.pointwise_at(Fraction(1, 3)), 5)
        assert ranking.denominator == 3 ** 32
        assert all(type(x) is int for x in ranking.keys)
        assert [ranking.score(u) for u in range(32)] == [
            eval_rational(cache.table(5)[u], Fraction(1, 3)) for u in range(32)]

    def test_conflicts_empty_when_rankings_match(self):
        assert beta_avr_conflicts(5, Decimal("1.22")) == []

    def test_conflicts_m6(self):
        got = beta_avr_conflicts(6, Decimal("1.22"))
        assert got == [(14, 40), (22, 35), (23, 49), (28, 41)]

    def test_incompatible_count_m6(self):
        assert beta_incompatible_count(6, Decimal("1.22")) == 2

    def test_incompatible_count_m9_without_a_table(self):
        assert beta_incompatible_count(9, Decimal("1.22")) == golden.BETA_INCOMPATIBLE_AT_122[9] == 99

    @pytest.mark.parametrize("m, statistic, discordant", [(6, 2, 4), (7, 10, 30), (8, 36, 134)])
    def test_statistic_is_not_the_discordant_pair_count(self, m, statistic, discordant):
        # displaced positions / 4 (the paper's figure) vs exact Kendall discordances
        beta = Decimal("1.22")
        assert beta_incompatible_count(m, beta) == statistic
        assert len(beta_avr_conflicts(m, beta)) == discordant

    def test_incompatible_count_can_be_half_an_integer(self):
        # average order (0, 1, 2, 4, 3, 5, 6, 7) against beta order 0..7:
        # the complements 3 and 4 swap at the two middle positions
        assert beta_incompatible_count(3, Decimal("1.62")) == Fraction(1, 2)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_displaced_positions_mirror_under_complements(self, m):
        """Both rankings put the complement of the channel at position i at
        position 2^m - 1 - i, so the displaced positions are closed under
        that mirror, and the statistic is their count over 4, exactly."""
        n = 1 << m
        by_avr = rank(Criterion.average(), m).order
        for hundredths in range(101, 200):
            beta = Decimal(hundredths) / 100
            by_beta = rank(Criterion.beta_expansion(beta), m).order
            displaced = {i for i in range(n) if by_avr[i] != by_beta[i]}
            assert {n - 1 - i for i in displaced} == displaced, (m, beta)
            assert beta_incompatible_count(m, beta) == Fraction(len(displaced), 4)

    def test_incompatible_count_zero_points(self):
        for m, points in golden.BETA_ZERO_POINTS.items():
            for b in points:
                assert beta_incompatible_count(m, Decimal(b)) == 0

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("b", ["1.1", "1.22", "1.5", "2"])
    def test_beta_respects_standard_order(self, m, b):
        monos = [Monomial(m, u) for u in range(1 << m)]
        vals = rank(Criterion.beta_expansion(Decimal(b)), m).keys
        for f in monos:
            for g in monos:
                if leq(f, g, Relation.STANDARD):
                    assert vals[f.bits] <= vals[g.bits]


class TestAvrInjective:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_no_duplicate_averages(self, m, cache):
        assert cache.check("tables/distinct-averages", m) is None

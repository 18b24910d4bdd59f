"""Composition graphs, the subset-enumeration oracle, and closed-form averages."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from becpolar.monomials import Monomial
from becpolar.polynomials import integrate01, to_path_counts
from becpolar.reliability import (
    avr_closed_form,
    avr_closed_form_complement,
    avr_single_variable,
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


class TestBuildGraph:
    def test_series_single_bit(self):
        g = build_graph(Monomial(1, 0))
        assert len(g) == 2
        assert sorted(g) == [(0, 2), (2, 1)]

    def test_parallel_single_bit(self):
        g = build_graph(Monomial(1, 1))
        assert g == ((0, 1), (0, 1))

    def test_edge_count_is_two_to_m(self):
        for m in range(1, 7):
            for u in (0, 1, (1 << m) - 1, (1 << m) // 3):
                assert len(build_graph(Monomial(m, u))) == 1 << m
        assert len(build_graph(Monomial(16, 0b1010))) == 1 << 16


def _bfs_path_counts(edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Subset oracle twin: one breadth-first search per edge subset."""
    counts = [0] * (len(edges) + 1)
    for mask in range(1 << len(edges)):
        kept = [edge for i, edge in enumerate(edges) if mask >> i & 1]
        seen, frontier = {0}, [0]  # S is node 0, T node 1
        while frontier:
            v = frontier.pop()
            for a, b in kept:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        counts[len(kept)] += 1 in seen
    return tuple(counts)


class TestOracle:
    def test_single_edge(self):
        assert oracle_path_counts(((0, 1),)).counts == (0, 1)

    def test_two_parallel_edges(self):
        g = build_graph(Monomial(1, 1))
        assert oracle_path_counts(g).counts == (0, 2, 1)

    def test_two_parallel_two_paths(self):
        # label (1,0): reliability 2p^2 - p^4
        g = build_graph(Monomial(2, 1))
        want = to_path_counts(synth_poly(Monomial(2, 1)), 4)
        assert oracle_path_counts(g) == want

    def test_lemma2_vectors(self):
        assert oracle_path_counts(build_graph(Monomial(4, 6))).counts == LEMMA2_U6
        assert oracle_path_counts(build_graph(Monomial(4, 9))).counts == LEMMA2_U9

    @pytest.mark.parametrize("m", range(1, 4))
    def test_matches_basis_conversion(self, m, cache):
        assert cache.check("reliability/oracle-equivalence", m) is None

    def test_edge_cap(self):
        with pytest.raises(ValueError):
            oracle_path_counts(build_graph(Monomial(5, 0)))

    def test_wheatstone_bridge(self):
        # not series/parallel, and it has a cycle: 2p^2 + 2p^3 - 5p^4 + 2p^5
        bridge = ((0, 2), (0, 3), (2, 3), (2, 1), (3, 1))
        assert oracle_path_counts(bridge).counts == (0, 0, 2, 8, 5, 1)

    def test_no_edges(self):
        assert oracle_path_counts(()).counts == (0,)
        assert oracle_path_counts(((0, 0),)).counts == (0, 0)  # S only: T unreachable

    def test_matches_per_subset_search_on_random_multigraphs(self):
        rng = random.Random(2021)
        loops = unreachable = 0
        for _ in range(150):
            nodes = rng.randint(2, 6)
            edges = tuple((rng.randrange(nodes), rng.randrange(nodes))
                          for _ in range(rng.randint(0, 10)))
            want = _bfs_path_counts(edges)
            assert oracle_path_counts(edges).counts == want, edges
            loops += any(a == b for a, b in edges)
            unreachable += not any(want)
        assert loops and unreachable  # T unreachable under every subset in some draws


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
            want = to_path_counts(synth_poly(Monomial(m, u)), 1 << m)
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
            z = synth_poly(Monomial(m, u))
            assert avr_closed_form(m, i_ones) == integrate01(z)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_complement_equals_exact_integration(self, m):
        mask = (1 << m) - 1
        for i_zeros in range(m + 1):
            z = synth_poly(Monomial(m, mask ^ ((1 << i_zeros) - 1)))
            assert avr_closed_form_complement(m, i_zeros) == integrate01(z)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_complement_sums_to_one(self, m):
        for i in range(m + 1):
            assert avr_closed_form(m, i) + avr_closed_form_complement(m, i) == 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_single_variable_equals_exact_integration(self, m):
        for j in range(m):
            z = synth_poly(Monomial(m, 1 << j))
            assert avr_single_variable(m, j) == integrate01(z), j

    def test_single_variable_refuses_a_variable_out_of_range(self):
        for j in (-1, 3):
            with pytest.raises(ValueError, match="must be in 0..m-1"):
                avr_single_variable(3, j)


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

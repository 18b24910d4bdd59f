"""Order relations: anchors, poset axioms, brute-force cross-checks, posets."""

import itertools

import pytest

from becpolar.monomials import Monomial, all_monomials
from becpolar.orders import (
    Comparison,
    Relation,
    closure,
    compare,
    hasse_edges,
    interval,
    is_decreasing,
    leq_dominance,
    leq_pointwise,
    leq_std,
    leq_weak,
    mult_compatible,
)


def M(u, m):
    return Monomial.from_int(u, m)


class TestWeak:
    def test_divisor(self):
        assert leq_weak(M(0b01, 2), M(0b11, 2))

    def test_std_counterexample_pair(self):
        # x0*x2 precedes x1*x2 in the standard order but does not divide it
        assert not leq_weak(M(0b101, 3), M(0b110, 3))
        assert leq_std(M(0b101, 3), M(0b110, 3))

    def test_one_below_everything(self):
        for g in all_monomials(4):
            assert leq_weak(M(0, 4), g)

    def test_mixed_m_rejected(self):
        with pytest.raises(ValueError):
            leq_weak(M(1, 3), M(1, 4))


class TestStandard:
    def test_equal_degree(self):
        assert leq_std(M(0b0101, 4), M(0b0110, 4))       # x0x2 <= x1x2

    def test_incomparable_equal_degree(self):
        f, g = M(0b0110, 4), M(0b1001, 4)                # x1x2 vs x0x3
        assert not leq_std(f, g) and not leq_std(g, f)

    def test_lower_degree_via_divisor(self):
        assert leq_std(M(0b001, 3), M(0b110, 3))         # x0 <= x1x2

    def test_chain_of_variables(self):
        m = 5
        for i in range(m - 1):
            assert leq_std(M(1 << i, m), M(1 << (i + 1), m))

    def test_higher_degree_never_below(self):
        assert not leq_std(M(0b111, 3), M(0b110, 3))


class TestDominance:
    def test_key_pair(self):
        assert leq_dominance(M(0b0110, 4), M(0b1001, 4))  # x1x2 <=d x0x3
        assert not leq_dominance(M(0b1001, 4), M(0b0110, 4))

    def test_interleaved_pair(self):
        m = 5
        assert leq_dominance(M(0b01100, m), M(0b10010, m))  # x2x3 <=d x1x4

    def test_multiple_blocked_by_shared_variable(self):
        m = 5
        f, g = M(0b01110, m), M(0b10010, m)  # x1x2x3 vs x1x4
        assert not leq_dominance(f, g) and not leq_dominance(g, f)

    def test_reflexive(self):
        for f in all_monomials(4):
            assert leq_dominance(f, f)

    def test_refines_standard(self):
        for m in range(1, 7):
            for f in all_monomials(m):
                for g in all_monomials(m):
                    if leq_std(f, g):
                        assert leq_dominance(f, g)


def _leq_brute_divisor(f, g, equal_degree_leq):
    """Existential form: any deg(f)-subset of g's support may serve as g*."""
    sf, sg = f.support(), g.support()
    if len(sf) > len(sg):
        return f == g
    if len(sf) == len(sg):
        return equal_degree_leq(sf, sg)
    return any(equal_degree_leq(sf, list(sub))
               for sub in itertools.combinations(sg, len(sf)))


def _std_equal(sf, sg):
    return all(i <= j for i, j in zip(sf, sg))


def _dom_equal(sf, sg):
    return all(sum(sf[-l:]) <= sum(sg[-l:]) for l in range(1, len(sf) + 1))


class TestDivisorShortcut:
    """Top-variables divisor equals brute-force existence over all divisors."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_standard(self, m):
        for f in all_monomials(m):
            for g in all_monomials(m):
                assert leq_std(f, g) == _leq_brute_divisor(f, g, _std_equal)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_dominance(self, m):
        for f in all_monomials(m):
            for g in all_monomials(m):
                assert leq_dominance(f, g) == _leq_brute_divisor(f, g, _dom_equal)


class TestPosetAxioms:
    @pytest.mark.parametrize("relation", [leq_weak, leq_std, leq_dominance])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_axioms(self, relation, m):
        monos = all_monomials(m)
        n = len(monos)
        leq = [[relation(monos[a], monos[b]) for b in range(n)] for a in range(n)]
        for a in range(n):
            assert leq[a][a]
            for b in range(n):
                if a != b:
                    assert not (leq[a][b] and leq[b][a])
        for a in range(n):
            for b in range(n):
                if leq[a][b]:
                    for c in range(n):
                        if leq[b][c]:
                            assert leq[a][c]


class TestPointwise:
    def test_key_pair_less(self, cache):
        table = cache.table(4)
        verdict = leq_pointwise(M(6, 4), M(9, 4), table)
        assert verdict.result is Comparison.LESS_OR_EQUAL

    def test_incomparable_pair_m5(self, cache):
        table = cache.table(5)
        verdict = leq_pointwise(M(3, 5), M(16, 5), table)
        assert verdict.result is Comparison.INCOMPARABLE

    def test_equal(self, cache):
        table = cache.table(3)
        assert leq_pointwise(M(5, 3), M(5, 3), table).result is Comparison.EQUAL

    def test_greater(self, cache):
        table = cache.table(3)
        assert leq_pointwise(M(7, 3), M(1, 3), table).result is Comparison.GREATER_OR_EQUAL

    def test_compare_wrapper(self, cache):
        table = cache.table(4)
        assert compare(M(6, 4), M(9, 4), Relation.POINTWISE, table).result is \
            Comparison.LESS_OR_EQUAL
        assert compare(M(6, 4), M(9, 4), Relation.DOMINANCE).result is \
            Comparison.LESS_OR_EQUAL
        assert compare(M(6, 4), M(9, 4), Relation.STANDARD).result is \
            Comparison.INCOMPARABLE
        with pytest.raises(ValueError):
            compare(M(1, 4), M(2, 4), Relation.POINTWISE)


class TestImplicationChain:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_weak_std_dominance_pointwise(self, m, cache):
        assert cache.check("orders/implication-chain", m) is None


class TestMultCompatible:
    def test_example_triple(self):
        m = 5
        assert mult_compatible(M(0b00110, m), M(0b01001, m), M(0b10000, m))

    def test_rejects_dividing_variable(self):
        m = 5
        with pytest.raises(ValueError):
            mult_compatible(M(0b01100, m), M(0b10010, m), M(0b00010, m))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            mult_compatible(M(0b001, 3), M(0b011, 3), M(0b100, 3))
        with pytest.raises(ValueError):
            mult_compatible(M(0b001, 3), M(0b010, 3), M(0b110, 3))

    def test_equal_monomials(self):
        assert mult_compatible(M(0b011, 4), M(0b011, 4), M(0b100, 4))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_all_valid_triples(self, m, cache):
        assert cache.check("orders/multiplication-compat", m) is None


class TestCorollaryMultiplication:
    """Degree-2 dominance survives multiplication by interleaved variables,
    in both the dominance order and the pointwise order."""

    @pytest.mark.parametrize("m", range(4, 7))
    def test_degree2_interleaved(self, m, cache):
        table = cache.table(m)
        pairs = [(f, g) for f in all_monomials(m) for g in all_monomials(m)
                 if f.degree == 2 and g.degree == 2 and f != g
                 and leq_dominance(f, g)]
        for f, g in pairs:
            i1, i2 = f.support()
            inner = [l for l in range(i1 + 1, i2) if not (g.bits >> l) & 1
                     and not (f.bits >> l) & 1]
            for size in range(1, len(inner) + 1):
                for sub in itertools.combinations(inner, size):
                    h_bits = 0
                    for l in sub:
                        h_bits |= 1 << l
                    h = M(h_bits, m)
                    assert leq_dominance(f * h, g * h)
                    verdict = leq_pointwise(f * h, g * h, table)
                    assert verdict.result in (Comparison.LESS_OR_EQUAL, Comparison.EQUAL)


class TestDecreasingSets:
    def test_simple_decreasing(self):
        m = 3
        assert is_decreasing({M(0, m), M(1, m)}, Relation.STANDARD)

    def test_missing_smaller_variable(self):
        m = 3
        assert not is_decreasing({M(0b010, m)}, Relation.STANDARD)

    def test_dominance_only_set(self):
        # closure of x1x2 under dominance excludes x0x3
        m = 4
        cl = closure(M(0b0110, m), Relation.DOMINANCE)
        assert M(0b1001, m) not in cl
        assert is_decreasing(cl, Relation.DOMINANCE)

    def test_empty_set(self):
        assert is_decreasing(set(), Relation.STANDARD)


class TestClosureInterval:
    def test_closure_of_x0(self):
        m = 3
        assert closure(M(1, m), Relation.STANDARD) == {M(0, m), M(1, m)}

    def test_dominance_closure_contains_standard(self):
        for m in range(2, 6):
            for f in all_monomials(m):
                cl_std = closure(f, Relation.STANDARD)
                cl_dom = closure(f, Relation.DOMINANCE)
                assert cl_std <= cl_dom

    def test_dominance_closure_strictly_larger_somewhere(self):
        m = 4
        f = M(0b1001, m)  # x0x3 dominates x1x2, which the standard order misses
        assert M(0b0110, m) in closure(f, Relation.DOMINANCE)
        assert M(0b0110, m) not in closure(f, Relation.STANDARD)

    def test_interval_one_to_top_variable(self):
        for m in range(2, 7):
            iv = interval(M(0, m), M(1 << (m - 1), m), Relation.STANDARD)
            assert iv == {f for f in all_monomials(m) if f.degree <= 1}

    def test_interval_requires_comparable_endpoints(self):
        m = 4
        with pytest.raises(ValueError):
            interval(M(0b0110, m), M(0b1001, m), Relation.STANDARD)


class TestHasse:
    def test_m2_standard_chain(self):
        assert hasse_edges(2, Relation.STANDARD) == [(0, 1), (1, 2), (2, 3)]

    def test_m4_dominance_contains_key_edge(self):
        assert (6, 9) in hasse_edges(4, Relation.DOMINANCE)

    def test_m4_standard_lacks_key_edge(self):
        edges = hasse_edges(4, Relation.STANDARD)
        assert (6, 9) not in edges

    def test_dominance_comparability_superset_of_standard(self):
        m = 4
        def reach(edges):
            adj = {}
            for a, b in edges:
                adj.setdefault(a, set()).add(b)
            out = set()
            for start in range(1 << m):
                stack = [start]
                while stack:
                    x = stack.pop()
                    for y in adj.get(x, ()):
                        if (start, y) not in out:
                            out.add((start, y))
                            stack.append(y)
            return out
        assert reach(hasse_edges(m, Relation.STANDARD)) <= \
            reach(hasse_edges(m, Relation.DOMINANCE))

    def test_reduction_is_minimal_and_complete(self):
        # reachability through covering edges reconstructs the full strict order
        m = 4
        for relation, leq in ((Relation.STANDARD, leq_std),
                              (Relation.DOMINANCE, leq_dominance),
                              (Relation.WEAK, leq_weak)):
            edges = set(hasse_edges(m, relation))
            monos = all_monomials(m)
            strict = {(a, b) for a in range(1 << m) for b in range(1 << m)
                      if a != b and leq(monos[a], monos[b])}
            # completeness: transitive closure of edges = strict relation
            closure_pairs = set()
            adj = {}
            for a, b in edges:
                adj.setdefault(a, set()).add(b)
            for start in range(1 << m):
                stack = [start]
                while stack:
                    x = stack.pop()
                    for y in adj.get(x, ()):
                        if (start, y) not in closure_pairs:
                            closure_pairs.add((start, y))
                            stack.append(y)
            assert closure_pairs == strict
            # minimality: no edge is implied by two-step reachability
            for a, b in edges:
                assert not any((a, w) in strict and (w, b) in strict
                               for w in range(1 << m))

    def test_cap(self):
        with pytest.raises(ValueError):
            hasse_edges(8, Relation.STANDARD)

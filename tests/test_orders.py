"""Order relations: anchors, poset axioms, brute-force cross-checks, posets."""

import itertools
import random
from itertools import accumulate
from math import comb
from operator import le

import pytest

from becpolar import golden, orders, polynomials, synthesis
from becpolar.monomials import Monomial, all_monomials
from becpolar.orders import (
    Comparison,
    OrderVerdict,
    Relation,
    closure,
    compare,
    hasse_edges,
    interval,
    is_decreasing,
    leq,
    leq_pointwise,
    mult_compatible,
)
from becpolar.polynomials import nonneg_on_01


WEAK, STD, DOM = Relation.WEAK, Relation.STANDARD, Relation.DOMINANCE


def M(u, m):
    return Monomial(m, u)


class TestWeak:
    def test_divisor(self):
        assert leq(M(0b01, 2), M(0b11, 2), WEAK)

    def test_std_counterexample_pair(self):
        # x0*x2 precedes x1*x2 in the standard order but does not divide it
        assert not leq(M(0b101, 3), M(0b110, 3), WEAK)
        assert leq(M(0b101, 3), M(0b110, 3), STD)

    def test_one_below_everything(self):
        for g in all_monomials(4):
            assert leq(M(0, 4), g, WEAK)

    def test_mixed_m_rejected(self):
        with pytest.raises(ValueError):
            leq(M(1, 3), M(1, 4), WEAK)


class TestStandard:
    def test_equal_degree(self):
        assert leq(M(0b0101, 4), M(0b0110, 4), STD)       # x0x2 <= x1x2

    def test_incomparable_equal_degree(self):
        f, g = M(0b0110, 4), M(0b1001, 4)                # x1x2 vs x0x3
        assert not leq(f, g, STD) and not leq(g, f, STD)

    def test_lower_degree_via_divisor(self):
        assert leq(M(0b001, 3), M(0b110, 3), STD)         # x0 <= x1x2

    def test_chain_of_variables(self):
        m = 5
        for i in range(m - 1):
            assert leq(M(1 << i, m), M(1 << (i + 1), m), STD)

    def test_higher_degree_never_below(self):
        assert not leq(M(0b111, 3), M(0b110, 3), STD)


class TestDominance:
    def test_key_pair(self):
        assert leq(M(0b0110, 4), M(0b1001, 4), DOM)  # x1x2 <=d x0x3
        assert not leq(M(0b1001, 4), M(0b0110, 4), DOM)

    def test_interleaved_pair(self):
        m = 5
        assert leq(M(0b01100, m), M(0b10010, m), DOM)  # x2x3 <=d x1x4

    def test_multiple_blocked_by_shared_variable(self):
        m = 5
        f, g = M(0b01110, m), M(0b10010, m)  # x1x2x3 vs x1x4
        assert not leq(f, g, DOM) and not leq(g, f, DOM)

    def test_reflexive(self):
        for f in all_monomials(4):
            assert leq(f, f, DOM)

    def test_refines_standard(self):
        for m in range(1, 7):
            for f in all_monomials(m):
                for g in all_monomials(m):
                    if leq(f, g, STD):
                        assert leq(f, g, DOM)


class TestLeq:
    """`leq` is the yes/no side of `compare` under the three label orders."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_agrees_with_compare(self, m):
        below = (Comparison.LESS_OR_EQUAL, Comparison.EQUAL)
        monos = all_monomials(m)
        for relation in (WEAK, STD, DOM):
            for f in monos:
                for g in monos:
                    assert leq(f, g, relation) is (compare(f, g, relation).result in below)

    def test_pointwise_refused(self):
        with pytest.raises(ValueError, match="ChannelTable"):
            leq(M(1, 3), M(3, 3), Relation.POINTWISE)

    def test_mixed_m_rejected(self):
        for relation in (WEAK, STD, DOM):
            with pytest.raises(ValueError, match="variable counts differ"):
                leq(M(1, 3), M(1, 4), relation)


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
                assert leq(f, g, STD) == _leq_brute_divisor(f, g, _std_equal)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_dominance(self, m):
        for f in all_monomials(m):
            for g in all_monomials(m):
                assert leq(f, g, DOM) == _leq_brute_divisor(f, g, _dom_equal)


def _std_twin(f, g):
    """The standard order by its definition on sliced supports: f, in
    ascending order, against the divisor of g spanned by its deg(f) largest
    variables."""
    if f == g:
        return True
    sf, sg = f.support(), g.support()
    if len(sf) > len(sg):
        return False
    return all(map(le, sf, sg[len(sg) - len(sf):]))


def _dom_twin(f, g):
    """The dominance order the same way: partial sums of the largest indices
    of f and of that divisor of g."""
    if f == g:
        return True
    sf, sg = f.support(), g.support()
    if len(sf) > len(sg):
        return False
    top = sg[len(sg) - len(sf):]
    return all(map(le, accumulate(sf[::-1]), accumulate(top[::-1])))


TWINS = {Relation.WEAK: lambda f, g: set(f.support()) <= set(g.support()),
         Relation.STANDARD: _std_twin, Relation.DOMINANCE: _dom_twin}
INCOMPARABLE = {5: golden.INCOMPARABLE_PAIRS_M5, 6: golden.INCOMPARABLE_PAIRS_M6}


def _verdict(leq, f, g):
    if f == g:
        return Comparison.EQUAL
    if leq(f, g):
        return Comparison.LESS_OR_EQUAL
    if leq(g, f):
        return Comparison.GREATER_OR_EQUAL
    return Comparison.INCOMPARABLE


class TestLabelKernels:
    """The label kernels behind every order function against twins that
    build and slice supports, and the poset utilities against brute force."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_std_and_dominance_match_sliced_twins(self, m):
        monos = all_monomials(m)
        for f in monos:
            for g in monos:
                assert leq(f, g, STD) == _std_twin(f, g), (f, g)
                assert leq(f, g, DOM) == _dom_twin(f, g), (f, g)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_compare_matches_twins(self, m, cache):
        """All four relations; the pointwise twin reads the pinned
        incomparable pairs, and orders every other pair of distinct channels
        by its exact averages.  Pointwise verdicts come from the session's
        one scan of `compare`."""
        table, avrs, scan = cache.table(m), cache.avrs(m), cache.pointwise(m)
        apart = set(INCOMPARABLE.get(m, ()))

        def pointwise(f, g):
            pair = (min(f.bits, g.bits), max(f.bits, g.bits))
            return pair not in apart and avrs[f.bits] < avrs[g.bits]
        twins = {**TWINS, Relation.POINTWISE: pointwise}
        monos = all_monomials(m)
        for f in monos:
            for g in monos:
                for relation, twin in twins.items():
                    if relation is Relation.POINTWISE:
                        got = scan[f.bits, g.bits]
                    else:
                        got = compare(f, g, relation, table)
                    assert got.result is _verdict(twin, f, g), (f, g, relation)

    @pytest.mark.parametrize("relation", list(TWINS))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_closure_and_interval(self, m, relation):
        twin = TWINS[relation]
        monos = all_monomials(m)
        for g in monos:
            assert closure(g, relation) == {h for h in monos if twin(h, g)}
            for f in monos:
                if twin(f, g):
                    assert interval(f, g, relation) == {
                        h for h in monos if twin(f, h) and twin(h, g)}
                else:
                    with pytest.raises(ValueError, match="does not precede"):
                        interval(f, g, relation)

    @pytest.mark.parametrize("relation", list(TWINS))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_is_decreasing(self, m, relation):
        """Every subset at m <= 3; at m = 4, 5 the closures, each without its
        top or its bottom, unions of two closures, and random subsets."""
        twin = TWINS[relation]
        monos = all_monomials(m)
        if m <= 3:
            sets = [set(c) for k in range(len(monos) + 1)
                    for c in itertools.combinations(monos, k)]
        else:
            closures = [{h for h in monos if twin(h, g)} for g in monos]
            rng = random.Random(m)
            sets = (closures + [c - {g} for c, g in zip(closures, monos)]
                    + [c - {monos[0]} for c in closures]
                    + [a | b for a, b in itertools.combinations(closures[::3], 2)]
                    + [set(rng.sample(monos, rng.randrange(len(monos)))) for _ in range(64)])
        outcomes = set()
        for members in sets:
            want = all(h in members for g in members for h in monos if twin(h, g))
            assert is_decreasing(members, relation) is want, members
            outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("relation", list(TWINS))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_hasse_edges(self, m, relation):
        """Covering pairs: u strictly below v with no w strictly between."""
        twin = TWINS[relation]
        monos = all_monomials(m)
        n = len(monos)
        below = [[u != v and twin(monos[u], monos[v]) for v in range(n)] for u in range(n)]
        want = [(u, v) for u in range(n) for v in range(n) if below[u][v]
                and not any(below[u][w] and below[w][v] for w in range(n))]
        assert hasse_edges(m, relation) == want

    def test_mixed_m_rejected(self):
        """Equal masks of different m are refused too, not called equal."""
        for relation in TWINS:
            with pytest.raises(ValueError, match="variable counts differ"):
                compare(M(1, 3), M(1, 4), relation)
            with pytest.raises(ValueError, match="variable counts differ"):
                interval(M(0, 3), M(1, 4), relation)
            with pytest.raises(ValueError, match="variable counts differ"):
                is_decreasing({M(0, 3), M(0, 4)}, relation)


class TestOrderChainCounts:
    """The paper's claim, measured: each order of the chain weak, standard,
    dominance, pointwise compares more pairs of distinct labels than the one
    before.  A pair counts once, whichever way it is ordered."""

    COMPARED = {  # m: (weak, standard, dominance)
        1: (1, 1, 1), 2: (5, 6, 6), 3: (19, 27, 27), 4: (65, 110, 111),
        5: (211, 430, 439), 6: (665, 1652, 1710), 7: (2059, 6307, 6622)}

    @pytest.mark.parametrize("m", range(1, 8))
    def test_pairs_compared_by_the_bit_orders(self, m):
        monos = all_monomials(m)
        got = tuple(sum(compare(f, g, relation).result is not Comparison.INCOMPARABLE
                        for i, f in enumerate(monos) for g in monos[i + 1:])
                    for relation in TWINS)
        assert got == self.COMPARED[m]
        assert got[0] == 3 ** m - 2 ** m  # strict divisor pairs of m-bit masks

    @pytest.mark.parametrize("m", range(1, 7))
    def test_pointwise_compares_the_most(self, m):
        """Pointwise: every pair but the pinned incomparable ones, with no
        new scan (the pinned lists are checked against a scan elsewhere)."""
        pointwise = comb(1 << m, 2) - len(INCOMPARABLE.get(m, ()))
        assert pointwise == {1: 1, 2: 6, 3: 28, 4: 120, 5: 489, 6: 1955}[m]
        weak, std, dom = self.COMPARED[m]
        assert weak <= std <= dom <= pointwise


class TestPosetAxioms:
    @pytest.mark.parametrize("relation", [WEAK, STD, DOM],
                             ids=["leq_weak", "leq_std", "leq_dominance"])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_axioms(self, relation, m):
        monos = all_monomials(m)
        n = len(monos)
        below = [[leq(monos[a], monos[b], relation) for b in range(n)] for a in range(n)]
        for a in range(n):
            assert below[a][a]
            for b in range(n):
                if a != b:
                    assert not (below[a][b] and below[b][a])
        for a in range(n):
            for b in range(n):
                if below[a][b]:
                    for c in range(n):
                        if below[b][c]:
                            assert below[a][c]


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

    @staticmethod
    def _check_twin(cache, m, twin):
        """Every ordered pair's verdict in the session's pointwise scan is the
        one that `twin(d, diff)`, the two verdicts on d = Z_g - Z_f and on -d,
        imply."""
        table, scan = cache.table(m), cache.pointwise(m)
        monos = all_monomials(m)
        for i, f in enumerate(monos):
            for g in monos[i:]:
                d = table[g.bits] - table[f.bits]
                diff = [b - a for a, b in zip(table.counts[f.bits], table.counts[g.bits])]
                up, down = twin(d, diff)
                for (a, b), first, second in (((f, g), up, down), ((g, f), down, up)):
                    if first and second:
                        want = Comparison.EQUAL
                    elif first:
                        want = Comparison.LESS_OR_EQUAL
                    elif second:
                        want = Comparison.GREATER_OR_EQUAL
                    else:
                        want = Comparison.INCOMPARABLE
                    assert scan[a.bits, b.bits].result is want, (a, b)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_self_converting_twin(self, m, cache):
        """`nonneg_on_01` converting the difference and its negation itself,
        the slow exact twin."""
        self._check_twin(cache, m, lambda d, diff: (nonneg_on_01(d), nonneg_on_01(-d)))

    def test_certified_pairs_build_no_polynomial(self, monkeypatch, cache):
        """A pair whose path-count difference shares a sign is settled with
        no difference polynomial: the rebuild from counts raises if reached.
        An incomparable pair, (3, 16), does reach it."""
        table = cache.table(5)
        rebuilds = []

        def refuse(counts):
            rebuilds.append(counts)
            raise AssertionError("a certified pair rebuilt its difference")
        monkeypatch.setattr(polynomials, "_power_from_counts", refuse)
        assert leq_pointwise(M(0, 5), M(31, 5), table).result is Comparison.LESS_OR_EQUAL
        assert leq_pointwise(M(31, 5), M(0, 5), table).result is Comparison.GREATER_OR_EQUAL
        for f in all_monomials(5):
            for g in all_monomials(5):
                diff = [b - a for a, b in zip(table.counts[f.bits], table.counts[g.bits])]
                if min(diff) >= 0 or max(diff) <= 0:
                    leq_pointwise(f, g, table)
        assert not rebuilds
        with pytest.raises(AssertionError, match="rebuilt"):
            leq_pointwise(M(3, 5), M(16, 5), table)
        assert len(rebuilds) == 1

    def test_full_scan_converts_each_channel_once(self, monkeypatch):
        calls = []
        convert = polynomials.to_path_counts

        def counted(a, n):
            calls.append(n)
            return convert(a, n)
        for module in (polynomials, synthesis):
            monkeypatch.setattr(module, "to_path_counts", counted)
        table = synthesis.synth_all(5)
        monos = all_monomials(5)
        for f in monos:
            for g in monos:
                leq_pointwise(f, g, table)
        assert calls == [32] * 32


    def test_one_comparison_converts_only_its_two_channels(self, monkeypatch):
        """On a fresh m = 8 table one comparison converts the two channels it
        reads, of 256; converting every channel would make it about 100x
        slower."""
        converted = []
        convert = polynomials.to_path_counts

        def counted(a, n):
            converted.append(a)
            return convert(a, n)
        monkeypatch.setattr(synthesis, "to_path_counts", counted)
        table = synthesis.synth_all(8)
        assert leq_pointwise(M(6, 8), M(9, 8), table).result is Comparison.LESS_OR_EQUAL
        assert sorted(map(table.polys.index, converted)) == [6, 9]
        assert sorted(table.counts) == [6, 9]

    def test_equal_labels_decide_no_sign(self, monkeypatch, cache):
        """Equal labels are EQUAL under all four relations at m <= 5, read off
        the labels with no `nonneg_on_01` call; `test_compare_matches_twins`
        checks that no pair of distinct labels is."""
        def refuse(*args):
            raise AssertionError("an equal pair decided a sign")
        monkeypatch.setattr(orders, "nonneg_on_01", refuse)
        for m in range(1, 6):
            table = cache.table(m)
            for f in all_monomials(m):
                for relation in Relation:
                    assert compare(f, f, relation, table).result is Comparison.EQUAL

    @pytest.mark.parametrize("u, v, verdict, decisions", [
        (0, 31, Comparison.LESS_OR_EQUAL, 1), (31, 0, Comparison.GREATER_OR_EQUAL, 1),
        (3, 16, Comparison.INCOMPARABLE, 2), (16, 3, Comparison.INCOMPARABLE, 2),
        (7, 7, Comparison.EQUAL, 0)])
    def test_sign_decisions_per_pair(self, monkeypatch, cache, u, v, verdict, decisions):
        """One `nonneg_on_01` call certifies a pair either way round, since
        counts of Z_g - Z_f that are all <= 0 certify Z_f - Z_g; an
        incomparable pair takes one call per direction."""
        calls = []

        def counted(d, counts=None):
            calls.append(d)
            return nonneg_on_01(d, counts)
        monkeypatch.setattr(orders, "nonneg_on_01", counted)
        assert leq_pointwise(M(u, 5), M(v, 5), cache.table(5)).result is verdict
        assert len(calls) == decisions

    def test_verdicts_are_shared_instances(self, cache):
        """`compare` and `leq_pointwise` return one instance per result,
        4 in all, whatever the relation, and a newly built verdict equals it
        and hashes alike."""
        table = cache.table(5)
        monos = all_monomials(5)
        shared = {}
        for f in monos:
            for g in monos:
                for relation in Relation:
                    verdict = compare(f, g, relation, table)
                    assert shared.setdefault(verdict.result, verdict) is verdict
                pointwise = leq_pointwise(f, g, table)
                assert shared[pointwise.result] is pointwise
        assert len(shared) == 4
        for result, verdict in shared.items():
            fresh = OrderVerdict(result)
            assert fresh is not verdict
            assert fresh == verdict and hash(fresh) == hash(verdict)
            assert {fresh: 1}[verdict] == 1


@pytest.mark.parametrize("call", [
    lambda: closure(M(1, 3), Relation.POINTWISE),
    lambda: interval(M(0, 3), M(1, 3), Relation.POINTWISE),
    lambda: is_decreasing({M(0, 3)}, Relation.POINTWISE),
    lambda: hasse_edges(3, Relation.POINTWISE),
], ids=["closure", "interval", "is_decreasing", "hasse_edges"])
def test_pointwise_utilities_ask_for_a_table(call):
    with pytest.raises(ValueError, match="pointwise order needs a ChannelTable"):
        call()


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
                 and leq(f, g, DOM)]
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
                    assert leq(f * h, g * h, DOM)
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
        for relation in (STD, DOM, WEAK):
            edges = set(hasse_edges(m, relation))
            monos = all_monomials(m)
            strict = {(a, b) for a in range(1 << m) for b in range(1 << m)
                      if a != b and leq(monos[a], monos[b], relation)}
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
        with pytest.raises(ValueError, match="m=11 exceeds exhaustive-scan cap 10"):
            hasse_edges(11, Relation.STANDARD)

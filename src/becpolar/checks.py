"""The registry of named exact checks behind `becpolar verify` and the
acceptance suite.

Each check states one fact about the channels of an m-stage transform and is
named `suite/slug`.  `applies(m)` says at which m the fact has instances and
`examines(m)` which m the check actually examines (a few cap it to stay
desk-scale).  The body yields a one-line detail for each violation it finds;
a check passes when its body yields none.  Bodies call library functions
through their module attributes (`orders.leq_weak`), so instrumentation of a
module sees every call a check makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

from . import construction, golden, monomials, orders, polynomials, reliability, synthesis
from .monomials import Monomial
from .orders import Comparison, Relation

SUITES = ("orders", "reliability", "identities", "tables")


@dataclass(frozen=True)
class Check:
    name: str
    body: Callable[[int, synthesis.ChannelTable], Iterator[str]]
    applies: Callable[[int], bool]
    examines: Callable[[int], int]

    @property
    def suite(self) -> str:
        return self.name.split("/", 1)[0]

    def run(self, m: int, table: synthesis.ChannelTable) -> str | None:
        """First failure detail of the check at stage count m, None if it passes.

        `table` is the channel table of m; a check that examines a smaller m
        gets that m's table instead."""
        if not self.applies(m):
            raise ValueError(f"{self.name} has no instances at m={m}")
        examined = self.examines(m)
        if examined != table.m:
            table = synthesis.synth_all(examined)
        return next(self.body(examined, table), None)


REGISTRY: list[Check] = []


def _check(name: str, applies: Callable[[int], bool] = lambda m: True,
           examines: Callable[[int], int] = lambda m: m):
    def register(body):
        REGISTRY.append(Check(name, body, applies, examines))
        return body
    return register


def named(name: str) -> Check:
    """The registered check called `name`."""
    for check in REGISTRY:
        if check.name == name:
            return check
    raise KeyError(name)


def _leqs():
    return ((Relation.WEAK, orders.leq_weak), (Relation.STANDARD, orders.leq_std),
            (Relation.DOMINANCE, orders.leq_dominance))


@_check("orders/poset-axioms", examines=lambda m: min(m, 5))
def _poset_axioms(m, table):
    monos = monomials.all_monomials(m)
    for rel, leq in _leqs():
        above = {f.bits: {g.bits for g in monos if leq(f, g)} for f in monos}
        for f in monos:
            if f.bits not in above[f.bits]:
                yield f"{rel.value} not reflexive at {f}"
            for g in above[f.bits]:
                if g != f.bits and f.bits in above[g]:
                    yield f"{rel.value} not antisymmetric at {f},{Monomial(m, g)}"
                if not above[g] <= above[f.bits]:
                    yield f"{rel.value} not transitive through {f},{Monomial(m, g)}"


@_check("orders/implication-chain")
def _implication_chain(m, table):
    """weak => standard => dominance => pointwise over every ordered pair."""
    n = 1 << m
    monos = monomials.all_monomials(m)
    counts = [polynomials.to_path_counts(table[u], n).counts for u in range(n)]
    for u, f in enumerate(monos):
        for v, g in enumerate(monos):
            if u == v:
                continue
            weak, std = orders.leq_weak(f, g), orders.leq_std(f, g)
            dom = orders.leq_dominance(f, g)
            if weak and not std:
                yield f"weak !=> standard at {f},{g}"
            if std and not dom:
                yield f"standard !=> dominance at {f},{g}"
            if dom:
                diff = [b - a for a, b in zip(counts[u], counts[v])]
                verdict = polynomials.nonneg_on_01(table[v] - table[u], diff)
                if verdict is not polynomials.SignVerdict.NONNEGATIVE:
                    yield f"dominance !=> pointwise at {f},{g}"


@_check("orders/multiplication-compat")
def _multiplication_compat(m, table):
    monos = monomials.all_monomials(m)
    for f in monos:
        for g in monos:
            if f.bits < g.bits and f.degree == g.degree:
                for i in range(m):
                    h = Monomial(m, 1 << i)
                    if not (h.divides(f) or h.divides(g) or orders.mult_compatible(f, g, h)):
                        yield f"f={f} g={g} h={h}"


@_check("orders/closure-decreasing")
def _closure_decreasing(m, table):
    """Closures are decreasing sets; interval and Hasse-edge sanity."""
    monos = monomials.all_monomials(m)
    for f in monos:
        if f.degree <= 2:
            for rel in (Relation.STANDARD, Relation.DOMINANCE):
                if not orders.is_decreasing(orders.closure(f, rel), rel):
                    yield f"closure({f}, {rel.value}) not decreasing"
    top = Monomial(m, 1 << (m - 1))
    if orders.interval(Monomial(m, 0), top, Relation.STANDARD) != {
            f for f in monos if f.degree <= 1}:
        yield "interval(1, x_{m-1}) != degree<=1 monomials"
    hm = min(m, orders.HASSE_CAP)
    for rel, leq in _leqs():
        for a, b in orders.hasse_edges(hm, rel):
            if a == b or not leq(Monomial(hm, a), Monomial(hm, b)):
                yield f"{rel.value} hasse edge {a}->{b} not a strict relation"


# the subset-enumeration oracle visits 2^(2^m) subsets per channel
@_check("reliability/oracle-equivalence", examines=lambda m: min(m, 4))
def _oracle_equivalence(m, table):
    for mono in monomials.all_monomials(m):
        got = reliability.oracle_path_counts(reliability.build_graph(mono))
        want = polynomials.to_path_counts(synthesis.synth_poly(mono), 1 << m)
        if got != want:
            yield f"u={mono.bits}: {got.counts} != {want.counts}"


@_check("reliability/inclusion-exclusion")
def _inclusion_exclusion(m, table):
    for i_ones in range(m + 1):
        want = polynomials.to_path_counts(table[(1 << i_ones) - 1], 1 << m)
        if reliability.ni_inclusion_exclusion(m, i_ones) != want:
            yield f"i_ones={i_ones}"


@_check("reliability/closed-form-avr")
def _closed_form_avr(m, table):
    for i_ones in range(m + 1):
        closed = reliability.avr_closed_form(m, i_ones)
        integral = table.avr((1 << i_ones) - 1)
        if closed != integral:
            yield f"i_ones={i_ones}: {closed} != {integral}"
        if closed + reliability.avr_closed_form_complement(m, i_ones) != 1:
            yield f"complement at i={i_ones} does not sum to 1"


@_check("identities/erasure-conservation")
def _erasure_conservation(m, table):
    total = polynomials.IntPoly()
    for poly in table.polys:
        total = total + poly
    if total != polynomials.IntPoly([0, 1 << m]):
        yield f"sum of channels != {1 << m}p"


@_check("identities/duality")
def _duality(m, table):
    mask = (1 << m) - 1
    for u in range(1 << m):
        if u < u ^ mask and synthesis.dual_poly(table[u]) != table[u ^ mask]:
            yield f"u={u}"


@_check("identities/avr-complement")
def _avr_complement(m, table):
    mask = (1 << m) - 1
    for u in range(1 << m):
        if table.avr(u) + table.avr(u ^ mask) != 1:
            yield f"u={u}"


@_check("identities/path-count-bounds")
def _path_count_bounds(m, table):
    """N_n = 1, 0 <= N_i <= C(n, i), and N_i = 0 below the minimal path length."""
    n = 1 << m
    for u in range(n):
        counts = polynomials.to_path_counts(table[u], n).counts
        if counts[n] != 1:
            yield f"u={u}: N_n != 1"
        if any(not 0 <= c <= comb(n, i) for i, c in enumerate(counts)):
            yield f"u={u}: N_i outside [0, C(n,i)]"
        if any(counts[:1 << (m - Monomial(m, u).degree)]):
            yield f"u={u}: N_i nonzero below minimal path length"


@_check("identities/threshold-symmetry", applies=lambda m: m >= 2)
def _threshold_symmetry(m, table):
    tol = Fraction(1, 2**20)
    for i_ones in range(1, m):
        u = (1 << i_ones) - 1
        t1 = synthesis.threshold_estimate(table[u], tol)
        t2 = synthesis.threshold_estimate(synthesis.dual_poly(table[u]), tol)
        if abs(t1 + t2 - 1) > 2 * tol:
            yield f"u={u}: {float(t1)} + {float(t2)} != 1"


@_check("tables/avr-2dp", applies=lambda m: m in golden.AVR_2DP_ROWS)
def _avr_2dp(m, table):
    """Cited two-place averages, listed in ranked order."""
    exact = [table.avr(u) for u, _ in golden.AVR_2DP_ROWS[m]]
    for (u, cited), value in zip(golden.AVR_2DP_ROWS[m], exact):
        rendered = str(construction.render_avr(value, 2))
        pinned = golden.AVR_2DP_LOOSE.get((m, u))
        if abs(value - Fraction(cited)) >= Fraction(1, 100):
            yield f"u={u}: exact {float(value):.4f} vs cited {cited}"
        if pinned is not None and value != pinned:
            yield f"u={u}: exact value drifted"
        if pinned is None and rendered != cited:
            yield f"u={u}: rendered {rendered} != {cited}"
    if exact != sorted(exact):
        yield "rows are not listed in ranked order"


@_check("tables/degree2-path-counts", applies=lambda m: m == 4)
def _degree2_path_counts(m, table):
    for u, want in ((6, golden.PATH_COUNTS_M4_U6), (9, golden.PATH_COUNTS_M4_U9)):
        got = polynomials.to_path_counts(table[u], 1 << m).counts
        if got != want:
            yield f"u={u}: {got}"


@_check("tables/incomparable-pairs", applies=lambda m: m in (4, 5))
def _incomparable_pairs(m, table):
    pairs = construction.incomparable_pairs(m, table)
    if pairs != {4: [], 5: golden.INCOMPARABLE_PAIRS_M5}[m]:
        yield f"got {pairs}"


@_check("tables/incomparable-complement-closure",
        applies=lambda m: m <= construction.INCOMPARABLE_M_CAP)
def _incomparable_complement_closure(m, table):
    pairs = set(construction.incomparable_pairs(m, table))
    mask = (1 << m) - 1
    for u, v in pairs:
        if tuple(sorted((mask ^ v, mask ^ u))) not in pairs:
            yield f"complement of the incomparable pair ({u}, {v}) is comparable"


@_check("tables/pointwise-avr-compat", applies=lambda m: m <= construction.INCOMPARABLE_M_CAP)
def _pointwise_avr_compat(m, table):
    """A pointwise-ordered pair is ordered the same way by average.

    Pairs are taken in average order, so that `leq_pointwise` settles a pair
    ordered that way pointwise with its first sign decision."""
    monos = monomials.all_monomials(m)
    avrs = [table.avr(u) for u in range(1 << m)]
    by_avr = sorted(range(1 << m), key=avrs.__getitem__)
    for i, u in enumerate(by_avr):
        for v in by_avr[i + 1:]:
            verdict = orders.leq_pointwise(monos[u], monos[v], table).result
            if avrs[u] < avrs[v] and verdict in (Comparison.GREATER_OR_EQUAL, Comparison.EQUAL):
                yield f"({u}, {v}) is {verdict.value} pointwise but not by average"


@_check("tables/distinct-averages")
def _distinct_averages(m, table):
    avrs = [table.avr(u) for u in range(1 << m)]
    if len(set(avrs)) != len(avrs):
        yield "two channels share an average reliability"


@_check("tables/avr-ordering-prefix", applies=lambda m: m in (5, 6))
def _avr_ordering_prefix(m, table):
    want = {5: golden.ORDER_PREFIX_M5, 6: golden.ORDER_PREFIX_M6[:33]}[m]
    got = construction.rank(construction.Criterion.average(), m, table).order[:len(want)]
    if got != want:
        yield f"got {got}"


@_check("tables/pair-avr-decimals", applies=lambda m: m == 5)
def _pair_avr_decimals(m, table):
    """Cited pair decimals agree with the exact averages to one unit in the
    last cited place, and the six-place renderings stay frozen."""
    for pair, cited in golden.FIRST4_PAIR_DECIMALS:
        places = max(len(text) - 2 for text in cited)
        rendered = construction.avr_of_pairs([pair], table, places)[0]
        for u, text, got in zip(pair, cited, rendered):
            if abs(got - Decimal(text)) > Decimal(1).scaleb(-places):
                yield f"u={u}: {got} vs cited {text}"
    for u, want in golden.PAIR_AVR_6DP_M5.items():
        got = str(construction.render_avr(table.avr(u), 6))
        if got != want:
            yield f"u={u}: {got} != {want} at six places"


@_check("tables/avr-distribution")
def _avr_distribution(m, table):
    counts = construction.avr_distribution(m, table)
    ok = sum(counts) == 1 << m
    # mirror symmetry of the histogram follows from complementation only when
    # no average sits exactly on a decile edge (at m=2, 1/5 does)
    if all((table.avr(u) * 10).denominator != 1 for u in range(1 << m)):
        ok = ok and counts == counts[::-1]
    if m in golden.DISTRIBUTION_FIRST5:
        ok = ok and tuple(counts[:5]) == golden.DISTRIBUTION_FIRST5[m]
    if not ok:
        yield f"buckets {counts}"


@_check("tables/beta-incompatible", applies=lambda m: m in golden.BETA_INCOMPATIBLE_AT_122)
def _beta_incompatible(m, table):
    got = construction.beta_incompatible_count(m, Decimal("1.22"), table)
    if got != golden.BETA_INCOMPATIBLE_AT_122[m]:
        yield f"got {got}, want {golden.BETA_INCOMPATIBLE_AT_122[m]}"


@_check("tables/beta-zero-range", applies=lambda m: m in golden.BETA_ZERO_POINTS)
def _beta_zero_range(m, table):
    for beta in golden.BETA_ZERO_POINTS[m]:
        got = construction.beta_incompatible_count(m, Decimal(beta), table)
        if got != 0:
            yield f"beta={beta}: {got} disagreements"


@_check("tables/beta-avr-coincidence", applies=lambda m: m == 5)
def _beta_avr_coincidence(m, table):
    avr_rank = construction.rank(construction.Criterion.average(), m, table)
    beta_rank = construction.rank(construction.Criterion.beta_expansion(Decimal("1.22")), m)
    if avr_rank.order != beta_rank.order:
        yield "beta=1.22 and avr rankings differ"

"""The registry of named exact checks behind `becpolar verify` and the
acceptance suite.

Each check states one fact about the channels of an m-stage transform and is
named `suite/slug`.  `applies(m)` says at which m the fact has instances and
`examines(m)` which m the check actually examines (a few cap it to stay
desk-scale, and read no table).  The body yields a one-line detail for each
violation it finds; a check passes when its body yields none.  Bodies call
library functions through their module attributes (`orders.leq`), so
instrumentation of a module sees every call a check makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from operator import sub
from typing import Callable, Iterator

from . import construction, golden, monomials, orders, polynomials, reliability, synthesis
from .monomials import Monomial
from .orders import Comparison, Relation

SUITES = ("orders", "reliability", "identities", "tables")


@dataclass(frozen=True)
class Check:
    name: str
    body: Callable[[int, synthesis.ChannelTable | None], Iterator[str]]
    applies: Callable[[int], bool]
    examines: Callable[[int], int]

    @property
    def suite(self) -> str:
        return self.name.split("/", 1)[0]

    def run(self, m: int, table: synthesis.ChannelTable) -> str | None:
        """First failure detail of the check at stage count m, None if it passes.

        `table` is the channel table of m.  A check that examines a smaller m
        gets None in its place: those checks read no table, so none is built
        for them."""
        if not self.applies(m):
            raise ValueError(f"{self.name} has no instances at m={m}")
        examined = self.examines(m)
        return next(self.body(examined, table if examined == table.m else None), None)


REGISTRY: list[Check] = []


def _check(name: str, applies: Callable[[int], bool] = lambda m: True,
           examines: Callable[[int], int] = lambda m: m):
    def register(body):
        REGISTRY.append(Check(name, body, applies, examines))
        return body
    return register


_LABEL_RELATIONS = (Relation.WEAK, Relation.STANDARD, Relation.DOMINANCE)


@_check("orders/poset-axioms", examines=lambda m: min(m, 5))
def _poset_axioms(m, table):
    monos = monomials.all_monomials(m)
    for rel in _LABEL_RELATIONS:
        above = {f.bits: {g.bits for g in monos if orders.leq(f, g, rel)} for f in monos}
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
    monos = monomials.all_monomials(m)
    for f in monos:
        for g in monos:
            if f == g:
                continue
            weak, std, dom = (orders.leq(f, g, rel) for rel in _LABEL_RELATIONS)
            if weak and not std:
                yield f"weak !=> standard at {f},{g}"
            if std and not dom:
                yield f"standard !=> dominance at {f},{g}"
            if dom and orders.leq_pointwise(f, g, table).result is not Comparison.LESS_OR_EQUAL:
                yield f"dominance !=> pointwise at {f},{g}"


@_check("orders/multiplication-compat", applies=lambda m: m >= 2)
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
    for rel in _LABEL_RELATIONS:
        for a, b in orders.hasse_edges(hm, rel):
            if a == b or not orders.leq(Monomial(hm, a), Monomial(hm, b), rel):
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
        want = table.counts[(1 << i_ones) - 1]
        if reliability.ni_inclusion_exclusion(m, i_ones).counts != want:
            yield f"i_ones={i_ones}"


@_check("reliability/closed-form-avr")
def _closed_form_avr(m, table):
    """Closed forms equal the averages for i leading 1-bits, i leading 0-bits,
    each single variable x_j and the complement of each."""
    mask = (1 << m) - 1
    nums, d = synthesis.average_numerators(m)
    avr = [Fraction(x, d) for x in nums]
    for i in range(m + 1):
        u = (1 << i) - 1
        closed = reliability.avr_closed_form(m, i)
        if closed != avr[u]:
            yield f"i_ones={i}: {closed} != {avr[u]}"
        closed = reliability.avr_closed_form_complement(m, i)
        if closed != avr[mask ^ u]:
            yield f"i_zeros={i}: {closed} != {avr[mask ^ u]}"
    for j in range(m):
        u = 1 << j
        closed = reliability.avr_single_variable(m, j)
        if closed != avr[u]:
            yield f"x{j}: {closed} != {avr[u]}"
        if 1 - closed != avr[mask ^ u]:
            yield f"all but x{j}: {1 - closed} != {avr[mask ^ u]}"


@_check("identities/erasure-conservation")
def _erasure_conservation(m, table):
    """The channels sum to n p, n = 2^m, whose path counts are N_i = i C(n, i)."""
    n = 1 << m
    for i, total in enumerate(map(sum, zip(*(table.counts[u] for u in range(n))))):
        if total != i * comb(n, i):
            yield f"sum of N_{i} is {total}, not {i}*C({n},{i})"


@_check("identities/duality")
def _duality(m, table):
    """Z_ubar(p) = 1 - Z_u(1 - p), read in the path-count basis, where it is
    a reversal: N(ubar)_i = C(n, i) - N(u)_(n-i)."""
    n = 1 << m
    binomials = [comb(n, i) for i in range(n + 1)]
    for u in range(n):
        ubar = u ^ (n - 1)
        if u < ubar and table.counts[ubar] != tuple(
                map(sub, binomials, reversed(table.counts[u]))):
            yield f"u={u}"


@_check("identities/avr-complement")
def _avr_complement(m, table):
    mask = (1 << m) - 1
    nums, d = synthesis.average_numerators(m)
    for u in range(1 << m):
        if nums[u] + nums[u ^ mask] != d:
            yield f"u={u}"


@_check("identities/path-count-bounds")
def _path_count_bounds(m, table):
    """N_n = 1, 0 <= N_i <= C(n, i), and N_i = 0 below the minimal path length."""
    n = 1 << m
    for u in range(n):
        counts = table.counts[u]
        if counts[n] != 1:
            yield f"u={u}: N_n != 1"
        if any(not 0 <= c <= comb(n, i) for i, c in enumerate(counts)):
            yield f"u={u}: N_i outside [0, C(n,i)]"
        if any(counts[:1 << (m - Monomial(m, u).degree)]):
            yield f"u={u}: N_i nonzero below minimal path length"


@_check("identities/threshold-symmetry", applies=lambda m: m >= 2)
def _threshold_symmetry(m, table):
    """Thresholds to 2^-20 of i leading 1-bits and their complements: each
    pair sums to exactly 1 (the true ones do, and are irrational), and Z_u
    rises, so t = x / 2^20 is the bisection's midpoint on the table iff
    Z_u((x - 1) / 2^20) < 1/2 < Z_u((x + 1) / 2^20), compared exactly."""
    tol, den, half = Fraction(1, 2**20), 1 << 20, Fraction(1, 2)
    for i_ones in range(1, m):
        f = Monomial(m, (1 << i_ones) - 1)
        t = synthesis.channel_threshold(f, tol)
        t_bar = synthesis.channel_threshold(f.complement(), tol)
        if t_bar != 1 - t:
            yield f"u={f.bits}: {t} + {t_bar} != 1"
        for g, tg in ((f, t), (f.complement(), t_bar)):
            z, x = table[g.bits], tg.numerator
            if tg.denominator != den or not (
                    polynomials.eval_rational(z, Fraction(x - 1, den)) < half
                    < polynomials.eval_rational(z, Fraction(x + 1, den))):
                yield f"u={g.bits}: threshold {tg} is not the bisection's midpoint on the table"


@_check("tables/avr-2dp", applies=lambda m: m in golden.AVR_2DP_ROWS)
def _avr_2dp(m, table):
    """Cited two-place averages, listed in ranked order."""
    numerator, d = synthesis.average_descent(m)
    exact = [Fraction(numerator(u), d) for u, _ in golden.AVR_2DP_ROWS[m]]
    for (u, cited), value in zip(golden.AVR_2DP_ROWS[m], exact):
        rendered = construction.render_avr(value, 2)
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
        got = table.counts[u]
        if got != want:
            yield f"u={u}: {got}"


@_check("tables/incomparable-pairs", applies=lambda m: m in (4, 5, 6))
def _incomparable_pairs(m, table):
    pairs = construction.incomparable_pairs(table)
    if pairs != {4: [], 5: golden.INCOMPARABLE_PAIRS_M5, 6: golden.INCOMPARABLE_PAIRS_M6}[m]:
        yield f"got {pairs}"


@_check("tables/incomparable-complement-closure",
        applies=lambda m: m <= construction.INCOMPARABLE_M_CAP)
def _incomparable_complement_closure(m, table):
    pairs = set(construction.incomparable_pairs(table))
    mask = (1 << m) - 1
    for u, v in pairs:
        if tuple(sorted((mask ^ v, mask ^ u))) not in pairs:
            yield f"complement of the incomparable pair ({u}, {v}) is comparable"


@_check("tables/pointwise-avr-compat", applies=lambda m: m <= construction.INCOMPARABLE_M_CAP)
def _pointwise_avr_compat(m, table):
    """A pointwise-ordered pair is ordered the same way by average."""
    avrs, _ = synthesis.average_numerators(m)
    for u, v, verdict in construction.pointwise_verdicts(table):
        if avrs[u] < avrs[v] and verdict in (Comparison.GREATER_OR_EQUAL, Comparison.EQUAL):
            yield f"({u}, {v}) is {verdict.value} pointwise but not by average"


@_check("tables/moment-averages")
def _moment_averages(m, table):
    """The moment recursion's averages equal the integrals of the table, the
    one check that reads an average from its integration twin."""
    nums, d = synthesis.average_numerators(m)
    for u, x in enumerate(nums):
        if Fraction(x, d) != table.avr(u):
            yield f"u={u}: {Fraction(x, d)} != {table.avr(u)}"


@_check("tables/distinct-averages")
def _distinct_averages(m, table):
    avrs, _ = synthesis.average_numerators(m)
    if len(set(avrs)) != len(avrs):
        yield "two channels share an average reliability"


@_check("tables/avr-ordering-prefix", applies=lambda m: m in (5, 6))
def _avr_ordering_prefix(m, table):
    want = {5: golden.ORDER_PREFIX_M5, 6: golden.ORDER_PREFIX_M6[:33]}[m]
    got = construction.rank(construction.Criterion.average(), m).order[:len(want)]
    if got != want:
        yield f"got {got}"


@_check("tables/first-order-rm", applies=lambda m: m == 5)
def _first_order_rm(m, table):
    """The best m + 1 channels by average are the labels of degree <= 1, the
    monomials of the first-order Reed-Muller code RM(1, m)."""
    best = construction.rank(construction.Criterion.average(), m).order[:m + 1]
    if set(best) != {u for u in range(1 << m) if u.bit_count() <= 1}:
        yield f"best {m + 1} by average: {sorted(best)}"


@_check("tables/pair-avr-decimals", applies=lambda m: m == 5)
def _pair_avr_decimals(m, table):
    """Cited pair decimals agree with the exact averages to one unit in the
    last cited place, and the six-place renderings stay frozen."""
    numerator, d = synthesis.average_descent(m)
    for pair, cited in golden.FIRST4_PAIR_DECIMALS:
        places = max(len(text) - 2 for text in cited)
        for u, text in zip(pair, cited):
            got = construction.render_avr(numerator(u), places, d)
            if abs(Decimal(got) - Decimal(text)) > Decimal(1).scaleb(-places):
                yield f"u={u}: {got} vs cited {text}"
    for u, want in golden.PAIR_AVR_6DP_M5.items():
        got = construction.render_avr(numerator(u), 6, d)
        if got != want:
            yield f"u={u}: {got} != {want} at six places"


@_check("tables/avr-distribution")
def _avr_distribution(m, table):
    counts = construction.avr_distribution(m)
    ok = sum(counts) == 1 << m
    # mirror symmetry of the histogram follows from complementation only when
    # no average sits exactly on a decile edge (at m=2, 1/5 does)
    nums, d = synthesis.average_numerators(m)
    if all(10 * x % d for x in nums):
        ok = ok and counts == counts[::-1]
    if m in golden.DISTRIBUTION_FIRST5:
        ok = ok and tuple(counts[:5]) == golden.DISTRIBUTION_FIRST5[m]
    if not ok:
        yield f"buckets {counts}"


@_check("tables/beta-incompatible", applies=lambda m: m in golden.BETA_INCOMPATIBLE_AT_122)
def _beta_incompatible(m, table):
    got = construction.beta_incompatible_count(m, Decimal("1.22"))
    if got != golden.BETA_INCOMPATIBLE_AT_122[m]:
        yield f"got {got}, want {golden.BETA_INCOMPATIBLE_AT_122[m]}"


@_check("tables/beta-discordant-pairs", applies=lambda m: m in golden.BETA_DISCORDANT_AT_122)
def _beta_discordant_pairs(m, table):
    got = len(construction.beta_avr_conflicts(m, Decimal("1.22")))
    if got != golden.BETA_DISCORDANT_AT_122[m]:
        yield f"got {got}, want {golden.BETA_DISCORDANT_AT_122[m]}"


@_check("tables/beta-zero-range", applies=lambda m: m in golden.BETA_ZERO_POINTS)
def _beta_zero_range(m, table):
    for beta in golden.BETA_ZERO_POINTS[m]:
        got = construction.beta_incompatible_count(m, Decimal(beta))
        if got != 0:
            yield f"beta={beta}: {got} disagreements"


@_check("tables/beta-avr-coincidence", applies=lambda m: m == 5)
def _beta_avr_coincidence(m, table):
    avr_rank = construction.rank(construction.Criterion.average(), m)
    beta_rank = construction.rank(construction.Criterion.beta_expansion(Decimal("1.22")), m)
    if avr_rank.order != beta_rank.order:
        yield "beta=1.22 and avr rankings differ"

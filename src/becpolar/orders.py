"""Order relations between monomials/synthetic channels and poset utilities.

Four relations, coarsest to finest on what they can compare:

* weak:       f | g (divisibility of bitmasks).
* standard:   equal degrees compare sorted supports index by index; a lower
              degree f compares against the divisor of g spanned by its
              deg(f) largest variables.
* dominance:  equal degrees compare partial sums of the largest support
              indices (for every l, the l largest indices of f sum to at most
              those of g); lower degrees reduce to the same top-variables
              divisor.
* pointwise:  Z_f(p) <= Z_g(p) for all p in [0, 1], decided exactly from the
              sign of Z_g - Z_f on the interval.

The first three are pure bit arithmetic; the implication chain
weak => standard => dominance => pointwise is exercised exhaustively in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from operator import le, neg, sub

from .monomials import Monomial, _check_same_m, _support, all_monomials
from .polynomials import SignVerdict, nonneg_on_01
from .synthesis import ChannelTable


class Relation(enum.Enum):
    WEAK = "weak"
    STANDARD = "standard"
    DOMINANCE = "dominance"
    POINTWISE = "pointwise"


class Comparison(enum.Enum):
    LESS_OR_EQUAL = "less_or_equal"
    GREATER_OR_EQUAL = "greater_or_equal"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderVerdict:
    relation: Relation
    result: Comparison


def leq_weak(f: Monomial, g: Monomial) -> bool:
    """f precedes g in the weak order iff f divides g."""
    return f.divides(g)


def _supports_leq(f: Monomial, g: Monomial, aligned_leq) -> bool:
    """Shared frame of the standard and dominance orders: f precedes an equal
    g and never one of lower degree; otherwise `aligned_leq` decides on the
    support of f and that of the divisor of g spanned by its deg(f) largest
    variables (all of g at equal degree)."""
    _check_same_m(f, g)
    if f.bits == g.bits:
        return True
    sf, sg = _support(f.bits), _support(g.bits)
    if len(sf) > len(sg):
        return False
    return aligned_leq(sf, sg[len(sg) - len(sf):])


def leq_std(f: Monomial, g: Monomial) -> bool:
    """Standard partial order.

    Equal degree: the l-th smallest index of f is at most that of g for every
    l.  Lower degree: compare f against the top-deg(f) divisor of g, which is
    the componentwise-largest divisor and therefore decides the existential
    form of the definition.
    """
    return _supports_leq(f, g, lambda sf, sg: all(map(le, sf, sg)))


def leq_dominance(f: Monomial, g: Monomial) -> bool:
    """Dominance partial order (refines the standard order).

    Equal degree: for every l = 1..s the sum of the l largest indices of f is
    at most the corresponding sum for g.  Lower degree reduces to the
    top-deg(f) divisor of g exactly as in the standard order.
    """
    return _supports_leq(
        f, g, lambda sf, sg: all(map(le, accumulate(sf[::-1]), accumulate(sg[::-1]))))


def leq_pointwise(f: Monomial, g: Monomial, table: ChannelTable) -> OrderVerdict:
    """Compare two channels under the universal (all p in [0,1]) order.

    Both directions are decided from the difference of the two channels'
    path counts in the table (`ChannelTable.path_counts`, at n = 2^m, which
    is at least deg(Z_g - Z_f)), so no pair converts its difference, and no
    pair builds the difference polynomial: `nonneg_on_01` gets the counts
    alone and rebuilds the polynomial only when Sturm must decide.
    """
    _check_same_m(f, g)
    if table.m != f.m:
        raise ValueError(f"table is for m={table.m}, monomials have m={f.m}")
    diff = list(map(sub, table.path_counts(g), table.path_counts(f)))
    forward = nonneg_on_01(None, diff)
    if forward is SignVerdict.IDENTICALLY_ZERO:
        return OrderVerdict(Relation.POINTWISE, Comparison.EQUAL)
    if forward is SignVerdict.NONNEGATIVE:
        return OrderVerdict(Relation.POINTWISE, Comparison.LESS_OR_EQUAL)
    backward = nonneg_on_01(None, list(map(neg, diff)))
    if backward is SignVerdict.NONNEGATIVE:
        return OrderVerdict(Relation.POINTWISE, Comparison.GREATER_OR_EQUAL)
    return OrderVerdict(Relation.POINTWISE, Comparison.INCOMPARABLE)


_LEQ = {Relation.WEAK: leq_weak, Relation.STANDARD: leq_std, Relation.DOMINANCE: leq_dominance}


def _leq(relation: Relation):
    """The bit-arithmetic test of a relation; the pointwise order has none."""
    if relation is Relation.POINTWISE:
        raise ValueError("the pointwise order needs a ChannelTable (compare/leq_pointwise)")
    return _LEQ[relation]


def compare(f: Monomial, g: Monomial, relation: Relation,
            table: ChannelTable | None = None) -> OrderVerdict:
    """Full verdict for any relation; pointwise needs the channel table."""
    if relation is Relation.POINTWISE and table is not None:
        return leq_pointwise(f, g, table)
    leq = _leq(relation)
    if f.bits == g.bits:
        result = Comparison.EQUAL
    elif leq(f, g):
        result = Comparison.LESS_OR_EQUAL
    elif leq(g, f):
        result = Comparison.GREATER_OR_EQUAL
    else:
        result = Comparison.INCOMPARABLE
    return OrderVerdict(relation, result)


def mult_compatible(f: Monomial, g: Monomial, h: Monomial) -> bool:
    """Check one instance of multiplication compatibility of the dominance order.

    For equal-degree f, g and a single variable h dividing neither, comparing
    f with g must agree with comparing h*f with h*g.  Returns that agreement
    (expected True in every valid instance).
    """
    _check_same_m(f, g)
    _check_same_m(f, h)
    if f.degree != g.degree:
        raise ValueError("f and g must have equal degree")
    if h.degree != 1:
        raise ValueError("h must be a single variable")
    if h.divides(f) or h.divides(g):
        raise ValueError("h must divide neither f nor g")
    return leq_dominance(f, g) == leq_dominance(h * f, h * g)


def is_decreasing(monos: set[Monomial], relation: Relation) -> bool:
    """True iff the set is downward closed under the chosen relation."""
    leq = _leq(relation)
    if not monos:
        return True
    m = next(iter(monos)).m
    universe = all_monomials(m)
    for f in monos:
        for g in universe:
            if leq(g, f) and g not in monos:
                return False
    return True


def closure(f: Monomial, relation: Relation) -> set[Monomial]:
    """Downward closure of f: every monomial below it, f included."""
    leq = _leq(relation)
    return {h for h in all_monomials(f.m) if leq(h, f)}


def interval(f: Monomial, g: Monomial, relation: Relation) -> set[Monomial]:
    """Closed interval [f, g] under the relation; requires f below g."""
    _check_same_m(f, g)
    leq = _leq(relation)
    if not leq(f, g):
        raise ValueError(f"{f} does not precede {g} under {relation.value}")
    return {h for h in all_monomials(f.m) if leq(f, h) and leq(h, g)}


HASSE_CAP = 7


def hasse_edges(m: int, relation: Relation) -> list[tuple[int, int]]:
    """Covering relations (transitive reduction) of the order on all
    monomials, as (smaller_label, larger_label) pairs sorted ascending.

    Strictly-below and strictly-above sets are packed into int bitmasks, so
    the middle-element test per candidate edge is a single AND.
    """
    if m > HASSE_CAP:
        raise ValueError(f"m={m} exceeds exhaustive-scan cap {HASSE_CAP}")
    leq = _leq(relation)
    monos = all_monomials(m)
    n = 1 << m
    below = [0] * n  # bit u of below[v] set iff u strictly below v
    above = [0] * n  # bit w of above[u] set iff u strictly below w
    for u in range(n):
        for v in range(n):
            if u != v and leq(monos[u], monos[v]):
                below[v] |= 1 << u
                above[u] |= 1 << v
    edges = []
    for v in range(n):
        bv = below[v]
        for u in range(n):
            # covering edge: u strictly below v with nothing strictly between
            if (bv >> u) & 1 and not bv & above[u]:
                edges.append((u, v))
    edges.sort()
    return edges

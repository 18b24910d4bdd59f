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

The first three run on label ints: the weak order is a mask test, and the
standard and dominance orders each compare two per-mask tuples cached in
`monomials` (the support largest index first, and its running sums) in one
`all(map(le, ...))`.  `leq`, `compare`, `closure`, `interval`,
`is_decreasing` and `hasse_edges` run those kernels on labels, equal labels
are EQUAL under every relation, and every verdict is one of 4 shared
`OrderVerdict` instances.  The implication chain weak => standard =>
dominance => pointwise is exercised exhaustively in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import le, neg, sub

from .monomials import Monomial, _check_same_m, _support_desc, _support_sums
from .polynomials import nonneg_on_01
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
    result: Comparison


_BELOW, _ABOVE, _EQUAL, _APART = map(OrderVerdict, Comparison)
# On CPython 3.11 hashing an enum member or reading one off its class takes
# about 0.2 us: `_LEQ` is keyed by member value, and `compare` reads this.
_POINTWISE = Relation.POINTWISE


def _weak_leq(u: int, v: int) -> bool:
    return u & v == u


def _std_leq(u: int, v: int) -> bool:
    """Standard order on labels.  Equal degree: the l-th smallest index of u
    is at most that of v for every l.  Lower degree: u compares against the
    divisor of v by its deg(u) largest variables, the componentwise-largest
    divisor, which decides the existential form of the definition.  Largest
    index first, the first deg(u) indices of v span that divisor (all of v
    at equal degree), and `map` stops there; a label of higher degree is
    never below."""
    a, b = _support_desc(u), _support_desc(v)
    return len(a) <= len(b) and all(map(le, a, b))


def _dom_leq(u: int, v: int) -> bool:
    """Dominance order on labels, which refines the standard order: for
    every l the sum of the l largest indices of u is at most that of v, in
    the same frame as `_std_leq` (a lower degree reduces to the top-deg(u)
    divisor of v) on the running sums of the largest indices."""
    a, b = _support_sums(u), _support_sums(v)
    return len(a) <= len(b) and all(map(le, a, b))


_LEQ = {Relation.WEAK._value_: _weak_leq, Relation.STANDARD._value_: _std_leq,
        Relation.DOMINANCE._value_: _dom_leq}


def leq_pointwise(f: Monomial, g: Monomial, table: ChannelTable) -> OrderVerdict:
    """Compare two channels under the universal (all p in [0,1]) order.

    Equal labels are EQUAL.  Otherwise both directions are decided from the
    difference of the two channels' path counts (`ChannelTable.counts`, at
    n = 2^m >= deg(Z_g - Z_f)), so no pair converts or builds its difference
    polynomial: `nonneg_on_01` reads the roots at 0 and 1 and the sign off
    the counts alone.  A pair whose difference has one-signed counts takes
    one sign decision either way round, an incomparable pair two.
    """
    _check_same_m(f, g)
    if table.m != f.m:
        raise ValueError(f"table is for m={table.m}, monomials have m={f.m}")
    if f.bits == g.bits:
        return _EQUAL
    counts = table.counts
    diff = list(map(sub, counts[g.bits], counts[f.bits]))
    if nonneg_on_01(None, diff):
        return _BELOW
    if max(diff) <= 0:  # the counts of Z_f - Z_g are all >= 0: certified already
        return _ABOVE
    if nonneg_on_01(None, list(map(neg, diff))):
        return _ABOVE
    return _APART


def _leq(relation: Relation):
    """The label test of a relation; the pointwise order has none."""
    leq = _LEQ.get(relation._value_)
    if leq is None:
        raise ValueError("the pointwise order needs a ChannelTable (compare/leq_pointwise)")
    return leq


def leq(f: Monomial, g: Monomial, relation: Relation) -> bool:
    """f precedes g (or equals it) under the weak, standard or dominance order."""
    _check_same_m(f, g)
    return _leq(relation)(f.bits, g.bits)


def compare(f: Monomial, g: Monomial, relation: Relation,
            table: ChannelTable | None = None) -> OrderVerdict:
    """Full verdict for any relation; pointwise needs the channel table."""
    if relation is _POINTWISE and table is not None:
        return leq_pointwise(f, g, table)
    leq = _leq(relation)
    _check_same_m(f, g)
    u, v = f.bits, g.bits
    if u == v:
        return _EQUAL
    if leq(u, v):
        return _BELOW
    if leq(v, u):
        return _ABOVE
    return _APART


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
    return leq(f, g, Relation.DOMINANCE) == leq(h * f, h * g, Relation.DOMINANCE)


def is_decreasing(monos: set[Monomial], relation: Relation) -> bool:
    """True iff the set is downward closed under the chosen relation."""
    leq = _leq(relation)
    if not monos:
        return True
    first = next(iter(monos))
    for f in monos:
        _check_same_m(first, f)
    labels = {f.bits for f in monos}
    universe = range(1 << first.m)
    return all(u in labels for v in labels for u in universe if leq(u, v))


def closure(f: Monomial, relation: Relation) -> set[Monomial]:
    """Downward closure of f: every monomial below it, f included."""
    leq = _leq(relation)
    v = f.bits
    return {Monomial(f.m, u) for u in range(1 << f.m) if leq(u, v)}


def interval(f: Monomial, g: Monomial, relation: Relation) -> set[Monomial]:
    """Closed interval [f, g] under the relation; requires f below g."""
    _check_same_m(f, g)
    leq = _leq(relation)
    u, w = f.bits, g.bits
    if not leq(u, w):
        raise ValueError(f"{f} does not precede {g} under {relation.value}")
    return {Monomial(f.m, v) for v in range(1 << f.m) if leq(u, v) and leq(v, w)}


# hasse_edges took 0.02 / 0.07 / 0.04 s at m = 8, 0.08 / 0.23 / 0.26 s at
# m = 9 and 0.17 / 0.75 / 0.77 s at m = 10 (weak / standard / dominance;
# 2-core shared host, CPython 3.11): the scan reads all 4^m ordered pairs.
HASSE_CAP = 10


def hasse_edges(m: int, relation: Relation) -> list[tuple[int, int]]:
    """Covering relations (transitive reduction) of the order on all
    monomials, as (smaller_label, larger_label) pairs sorted ascending.

    Strictly-below and strictly-above sets are packed into int bitmasks, so
    the middle-element test per candidate edge is a single AND.
    """
    if m > HASSE_CAP:
        raise ValueError(f"m={m} exceeds exhaustive-scan cap {HASSE_CAP}")
    leq = _leq(relation)
    n = 1 << m
    below = [0] * n  # bit u of below[v] set iff u strictly below v
    above = [0] * n  # bit w of above[u] set iff u strictly below w
    for u in range(n):
        for v in range(n):
            if u != v and leq(u, v):
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

"""Channel ranking and information-set construction.

Three ranking criteria: exact pointwise erasure probability at a fixed
rational p, exact average reliability over p in [0, 1], and the beta-expansion
score beta(u) = sum u_i beta^i (high-precision decimal).  Also the derived
statistics: pointwise-incomparable pairs, decimal views of selected pairs,
the decile histogram of average reliabilities, and the count of channel pairs
on which the average-reliability and beta rankings disagree.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import orders
from .monomials import Monomial
from .polynomials import eval_rational, integrate01
from .synthesis import ChannelTable, synth_all

BETA_DIGITS = 50
BETA_RECHECK_DIGITS = 80
INCOMPARABLE_M_CAP = 6


@dataclass(frozen=True)
class Criterion:
    """Ranking criterion: kind is 'pointwise', 'average', or 'beta'."""

    kind: str
    p: Fraction | None = None
    beta: Decimal | None = None

    @classmethod
    def pointwise_at(cls, p: Fraction) -> "Criterion":
        if not 0 < p < 1:
            raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
        return cls("pointwise", p=p)

    @classmethod
    def average(cls) -> "Criterion":
        return cls("average")

    @classmethod
    def beta_expansion(cls, beta: Decimal) -> "Criterion":
        if not beta.is_finite() or beta <= 1:
            raise ValueError(f"beta must be a finite number above 1, got {beta}")
        return cls("beta", beta=beta)

    def label(self) -> str:
        if self.kind == "pointwise":
            return f"p={self.p}"
        if self.kind == "beta":
            return f"beta={self.beta}"
        return "avr"


@dataclass(frozen=True)
class RankedChannels:
    """All 2^m channels sorted most reliable first (ties broken by label)."""

    m: int
    criterion: Criterion
    order: tuple[int, ...]
    scores: tuple  # Fraction per channel for pointwise/average, Decimal for beta


def beta_value(u: Monomial, beta: Decimal) -> Decimal:
    """Beta-expansion score sum_{i in support} beta^i at BETA_DIGITS precision."""
    if beta <= 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    with decimal.localcontext() as ctx:
        ctx.prec = BETA_DIGITS
        acc = Decimal(0)
        for i in u.support():
            acc += beta ** i
        return +acc


def _beta_scores(m: int, beta: Decimal, digits: int) -> list[Decimal]:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        powers = [beta ** i for i in range(m)]
        return [+sum((powers[i] for i in range(m) if (u >> i) & 1), Decimal(0))
                for u in range(1 << m)]


def rank(criterion: Criterion, m: int, table: ChannelTable | None = None) -> RankedChannels:
    """Score every channel under the criterion and sort ascending (best first).

    Pointwise and average scores are exact rationals; beta scores are decimals
    at BETA_DIGITS significant digits, with near-ties recomputed at
    BETA_RECHECK_DIGITS before ordering.  Ties break by ascending label.
    """
    n = 1 << m
    if criterion.kind == "beta":
        scores = _beta_scores(m, criterion.beta, BETA_DIGITS)
        # Re-check near-ties at higher precision before trusting the sort.
        ordered = sorted(range(n), key=lambda u: (scores[u], u))
        eps = Decimal(1).scaleb(-(BETA_DIGITS - 10))
        if any(abs(scores[ordered[k + 1]] - scores[ordered[k]]) < eps
               and scores[ordered[k + 1]] != scores[ordered[k]]
               for k in range(n - 1)):
            scores = _beta_scores(m, criterion.beta, BETA_RECHECK_DIGITS)
            ordered = sorted(range(n), key=lambda u: (scores[u], u))
        return RankedChannels(m, criterion, tuple(ordered), tuple(scores))
    if table is None:
        table = synth_all(m)
    if criterion.kind == "pointwise":
        scores = [eval_rational(table[u], criterion.p) for u in range(n)]
    elif criterion.kind == "average":
        scores = [integrate01(table[u]) for u in range(n)]
    else:
        raise ValueError(f"unknown criterion kind {criterion.kind!r}")
    ordered = sorted(range(n), key=lambda u: (scores[u], u))
    return RankedChannels(m, criterion, tuple(ordered), tuple(scores))


def construct(criterion: Criterion, m: int, k: int,
              table: ChannelTable | None = None) -> set[Monomial]:
    """Information set: the k most reliable channels under the criterion."""
    if not 0 <= k <= (1 << m):
        raise ValueError(f"k={k} must be in 0..{1 << m}")
    ranking = rank(criterion, m, table)
    return {Monomial(m, u) for u in ranking.order[:k]}


def incomparable_pairs(m: int, table: ChannelTable | None = None) -> list[tuple[int, int]]:
    """All label pairs (u, v), u < v, whose channels the pointwise order
    cannot rank.  Exhaustive over all pairs; capped at m <= 6."""
    if m > INCOMPARABLE_M_CAP:
        raise ValueError(f"m={m} exceeds pairwise-scan cap {INCOMPARABLE_M_CAP}")
    if table is None:
        table = synth_all(m)
    n = 1 << m
    out = []
    for u in range(n):
        fu = Monomial(m, u)
        for v in range(u + 1, n):
            verdict = orders.leq_pointwise(fu, Monomial(m, v), table)
            if verdict.result is orders.Comparison.INCOMPARABLE:
                out.append((u, v))
    return out


def render_avr(value: Fraction, digits: int) -> Decimal:
    """Exact rational rounded half-up to the given number of decimal places.

    Integer arithmetic throughout, so arbitrarily large denominators round
    correctly.
    """
    scaled = value * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return Decimal(q).scaleb(-digits)


def avr_of_pairs(pairs: list[tuple[int, int]], table: ChannelTable,
                 digits: int = 3) -> list[tuple[Decimal, Decimal]]:
    """Decimal views (rounded half-up) of the exact average reliabilities of
    the given label pairs."""
    return [(render_avr(table.avr(u), digits), render_avr(table.avr(v), digits))
            for u, v in pairs]


def avr_distribution(m: int, table: ChannelTable | None = None) -> list[int]:
    """Histogram of average reliabilities over the deciles (i/10, (i+1)/10].

    Bucket membership is decided on exact rationals (upper-inclusive).  Every
    channel lands in a bucket because its average reliability is strictly
    positive and at most 1.
    """
    if table is None:
        table = synth_all(m)
    counts = [0] * 10
    for u in range(1 << m):
        a = table.avr(u)
        if not 0 < a <= 1:
            raise AssertionError(f"average reliability {a} outside (0, 1]")
        # smallest bucket i with a <= (i+1)/10
        i = -((-a * 10) // 1)  # ceil(a * 10)
        counts[int(i) - 1] += 1
    return counts


def beta_avr_conflicts(m: int, beta: Decimal,
                       table: ChannelTable | None = None) -> list[tuple[int, int]]:
    """Ordered pairs ranked strictly by average reliability but strictly the
    other way by beta score.  Each conflicting unordered pair appears once."""
    avr_ranking = rank(Criterion.average(), m, table)
    beta_scores = _beta_scores(m, beta, BETA_DIGITS)
    n = 1 << m
    avr = avr_ranking.scores
    return [(u, v) for u in range(n) for v in range(n)
            if avr[u] < avr[v] and beta_scores[u] > beta_scores[v]]


def beta_incompatible_count(m: int, beta: Decimal,
                            table: ChannelTable | None = None) -> int:
    """Number of channel pairs on which the beta ranking contradicts the
    average-reliability ranking.

    Counted as rank-displaced positions between the two sorted sequences:
    each conflicting pair displaces two channels, and displacements mirror
    under complementation, so the pair count is displaced / 4.  Zero iff the
    two rankings coincide.
    """
    avr_ranking = rank(Criterion.average(), m, table)
    beta_ranking = rank(Criterion.beta_expansion(beta), m)
    displaced = sum(1 for a, b in zip(avr_ranking.order, beta_ranking.order) if a != b)
    if displaced % 4 != 0:
        raise AssertionError(
            f"displaced count {displaced} not divisible by 4; "
            "complement symmetry violated?")
    return displaced // 4

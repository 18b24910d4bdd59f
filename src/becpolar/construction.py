"""Channel ranking and the statistics derived from it.

Three ranking criteria: exact pointwise erasure probability at a fixed
rational p, exact average reliability over p in [0, 1], and the beta-expansion
score beta(u) = sum u_i beta^i.  Every score is an exact `Fraction`.  Also
the derived statistics: pointwise-incomparable pairs, decimal renderings of
exact averages, the decile histogram of average reliabilities, and the
disagreement between the average-reliability and beta rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush

from . import orders, synthesis
from .monomials import all_monomials, check_m
from .polynomials import eval_rational
from .synthesis import ChannelTable, average_numerators, synth_all

INCOMPARABLE_M_CAP = 6
# Largest written size of a p or beta, digits plus the magnitude of any exponent:
# it bounds the exact ratio, so neither parsing nor scoring runs away on 1e-999999999.
NUMBER_SIZE_CAP = 100


def check_number_size(name: str, text: str) -> None:
    """Refuse a written number above NUMBER_SIZE_CAP before it is parsed.  An
    exponent is read to one digit more than the cap has, which exceeds it."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = "".join(filter(str.isdigit, exponent)).lstrip("0")[:len(str(NUMBER_SIZE_CAP)) + 1]
    if sum(map(str.isdigit, mantissa)) + int(exponent or 0) > NUMBER_SIZE_CAP:
        raise ValueError(f"{name}={text} needs more than {NUMBER_SIZE_CAP} digits written out")


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
        check_number_size("p", str(p))
        return cls("pointwise", p=p)

    @classmethod
    def average(cls) -> "Criterion":
        return cls("average")

    @classmethod
    def beta_expansion(cls, beta: Decimal) -> "Criterion":
        if not beta.is_finite() or beta <= 1:
            raise ValueError(f"beta must be a finite number above 1, got {beta}")
        check_number_size("beta", str(beta))
        return cls("beta", beta=beta)

    def label(self) -> str:
        if self.kind == "pointwise":
            return f"p={self.p}"
        if self.kind == "beta":
            return f"beta={self.beta}"
        return "avr"


@dataclass(frozen=True)
class RankedChannels:
    """All 2^m channels sorted most reliable first (ties broken by label).

    `keys` holds the exact sort key of each channel label, the integer
    numerator of its score over the common `denominator`.  A score's
    `Fraction` is built when it is read, so reading k scores of a large m
    reduces k fractions, not 2^m.
    """

    order: tuple[int, ...]
    keys: tuple[int, ...]
    denominator: int

    def score(self, u: int) -> Fraction:
        """Exact score of channel u."""
        return Fraction(self.keys[u], self.denominator)


def _beta_numerators(m: int, beta: Decimal) -> tuple[list[int], int]:
    """Beta-expansion scores sum_{i in support(u)} beta^i of every label
    u < 2^m, for a beta accepted by `Criterion.beta_expansion`, as integer
    numerators over their common denominator q^(m-1), beta = p/q."""
    p, q = Fraction(beta).as_integer_ratio()
    nums = [0]
    for i in range(m):  # labels with top bit i are those below 2^i plus beta^i
        power = p ** i * q ** (m - 1 - i)
        nums += [s + power for s in nums]
    return nums, q ** max(m - 1, 0)


def rank(criterion: Criterion, m: int) -> RankedChannels:
    """Score every channel under the criterion and sort ascending (best first).

    Every score is an exact rational, kept and sorted as an integer numerator
    over one common denominator (a `Fraction` compare multiplies), and built
    as a `Fraction` only when read (`RankedChannels.score`).  Beta scores are
    over q^(m-1), beta = p/q.  Average scores are over D = lcm(1..2^m + 1),
    read for every label from one `synthesis.average_descent`, which builds
    no polynomial; the walk of `average_numerators(m)` is its twin.
    Pointwise scores at p = a/q are over q^(2^m), evaluated on the channel
    table of m, which this builds.
    Ties break by ascending label; beta scores never tie, since two
    labels with equal scores would make the rational beta > 1 a root of a
    polynomial with coefficients in {-1, 0, 1}, whose rational roots are +-1.
    By average and at p, every prefix of the order is the twin of `best`,
    which reads only the scores of the standard-order frontier: a move up
    the standard order never lowers a score and always raises the label, so
    (score, label), the key of this sort, rises along every move.
    m must pass `check_m`, whatever the criterion.
    """
    check_m(m)
    n = 1 << m
    if criterion.kind == "beta":
        keys, den = _beta_numerators(m, criterion.beta)
    elif criterion.kind == "pointwise":
        # every score's denominator divides q^n, p = a/q, as each channel has degree n
        den = criterion.p.denominator ** n
        scores = (eval_rational(poly, criterion.p) for poly in synth_all(m).polys)
        keys = [s.numerator * (den // s.denominator) for s in scores]
    elif criterion.kind == "average":
        numerator, den = synthesis.average_descent(m)
        keys = [numerator(u) for u in range(n)]
    else:
        raise ValueError(f"unknown criterion kind {criterion.kind!r}")
    ordered = sorted(range(n), key=keys.__getitem__)  # stable: ties stay in label order
    return RankedChannels(tuple(ordered), tuple(keys), den)


def _moves_below_count(v: int) -> int:
    """How many labels lie one move below v: drop any of its variables, or
    move a variable x_j, j >= 1, to an absent x_(j-1)."""
    return v.bit_count() + (v & ~(v << 1) & ~1).bit_count()


def _moves_above(u: int, m: int) -> list[int]:
    """The labels of m one move above u: add an absent variable x_j, or move
    x_j to an absent x_(j+1).  Each is above u in the standard order and a
    larger integer, so it ranks after u by average and at every p, ties
    broken by label."""
    above = []
    for j in range(m):
        if not (u >> j) & 1:
            above.append(u | 1 << j)
        elif j + 1 < m and not (u >> (j + 1)) & 1:
            above.append(u ^ (3 << j))
    return above


def best(criterion: Criterion, m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The k best labels of m by average or by the score at p, best first,
    with their keys and denominator: `rank(criterion, m).order[:k]`, its
    keys and denominator, scoring only the labels the greedy reads.

    A move (`_moves_above`) goes up the standard order, which implies the
    pointwise order: Z_v(p) >= Z_u(p) at every p, and so at the p of the
    criterion and on average.  A move also goes to a larger label.  So the
    pair (score, label) rises along every move, every label ranks after
    those one move below it, with ties broken by label as in `rank`, and
    the next best label is always on the frontier: the labels not yet chosen
    whose every label one move below is chosen.  Each frontier label is
    scored once, when it joins, and each chosen label adds at most m, so at
    most min(2^m, 1 + mk) scores are read.

    By average, each score is read from one `synthesis.average_descent`,
    which describes its steps.  The greedy names its labels only as it
    reads them, so `cli` prices it by its own row; `synthesis.descent_tables`
    of the labels read is the plan of the tables it builds.  The best 11 of
    m = 8 read 15 averages and the best 10 of m = 10 or 12 read 13, where
    `rank` reads all 2^m from the same descent; they took 0.16, 0.20 and
    0.46 ms (0.33, 0.43 and 1.2 ms with each last flip from its difference
    table and the root's moments built).  The costliest read is the table
    of x0*x_j for the highest variable x_j chosen, so the cost steps up with
    k: the best 64 / 100 / 144 of m = 15 took 0.73 / 6.7 / 31 s.

    At p, the channel table of m is built once and each label read is one
    `eval_rational`: the best 10 / 12 / 32 of m = 8 read 11 / 14 / 35 of the
    256 scores.  m must pass `check_m`.
    """
    check_m(m)
    if not 0 <= k <= 1 << m:
        raise ValueError(f"k={k} out of range for m={m}")
    if criterion.kind == "average":
        score, den = synthesis.average_descent(m)
    elif criterion.kind == "pointwise":
        # as in `rank`: over q^(2^m), p = a/q, since every channel has degree 2^m
        p, polys = criterion.p, synth_all(m).polys
        den = p.denominator ** (1 << m)

        def score(u: int) -> int:
            s = eval_rational(polys[u], p)
            return s.numerator * (den // s.denominator)
    else:
        raise ValueError(f"the frontier ranks by average or at p, not by {criterion.kind!r}")
    chosen: dict[int, int] = {}
    waiting: dict[int, int] = {}  # label -> how many labels one move below it are not chosen
    frontier = [(score(0), 0)] if k else []
    while len(chosen) < k:
        x, u = heappop(frontier)
        chosen[u] = x
        for v in _moves_above(u, m):
            left = waiting.pop(v) if v in waiting else _moves_below_count(v)
            if left > 1:
                waiting[v] = left - 1
            else:
                heappush(frontier, (score(v), v))
    return tuple(chosen), tuple(chosen.values()), den


@lru_cache(maxsize=INCOMPARABLE_M_CAP)
def pointwise_verdicts(table: ChannelTable) -> tuple[tuple[int, int, orders.Comparison], ...]:
    """(u, v, verdict) of `leq_pointwise` for every label pair of the table,
    u before v in ascending average order: the one pairwise pointwise scan,
    kept for one table of each m that the checks scan.

    Pairs are taken in average order, the order of `rank` by average, so
    that `leq_pointwise` settles a pair ordered that way pointwise with its
    first sign decision."""
    monos = all_monomials(table.m)
    by_avr = rank(Criterion.average(), table.m).order
    return tuple((u, v, orders.leq_pointwise(monos[u], monos[v], table).result)
                 for i, u in enumerate(by_avr) for v in by_avr[i + 1:])


def incomparable_pairs(table: ChannelTable) -> list[tuple[int, int]]:
    """All label pairs (u, v), u < v, whose channels the pointwise order
    cannot rank, sorted.  Exhaustive over all pairs; capped at m <= 6."""
    if table.m > INCOMPARABLE_M_CAP:
        raise ValueError(f"m={table.m} exceeds pairwise-scan cap {INCOMPARABLE_M_CAP}")
    return sorted((min(u, v), max(u, v)) for u, v, verdict in pointwise_verdicts(table)
                  if verdict is orders.Comparison.INCOMPARABLE)


def render_avr(value: Fraction | int, digits: int, denominator: int = 1) -> str:
    """The text of a nonnegative rational value / denominator rounded half-up
    to the given number of decimal places, written out in full with no
    exponent (`format(d, "f")` of the equal `Decimal` d).

    One `divmod` of the numerator times 10^digits by the denominator gives
    the digits, and the text is cut from them, so no value is rounded a
    second time, however many digits it has, and no `Decimal` is built.  An
    integer value with its denominator renders an average numerator over D
    without a `Fraction`.
    """
    den = value.denominator * denominator
    q, r = divmod(value.numerator * 10**digits, den)
    if 2 * r >= den:
        q += 1
    if not digits:
        return str(q)
    text = str(q).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def avr_distribution(m: int) -> list[int]:
    """Histogram of average reliabilities over the deciles (i/10, (i+1)/10].

    Bucket membership is decided exactly on the integer numerators x over D
    (upper-inclusive).  Every channel lands in a bucket because its average
    reliability is strictly positive and at most 1.  The averages are those
    of `average_numerators(m)`, with its width check and no cost cap.
    """
    counts = [0] * 10
    nums, d = average_numerators(m)
    for x in nums:
        if not 0 < x <= d:
            raise AssertionError(f"average reliability {Fraction(x, d)} outside (0, 1]")
        # smallest bucket i with x / D <= (i+1)/10, i + 1 = ceil(10x / D)
        counts[-(-10 * x // d) - 1] += 1
    return counts


def beta_avr_conflicts(m: int, beta: Decimal) -> list[tuple[int, int]]:
    """Exact discordant pairs of the two rankings: ordered pairs (u, v) ranked
    strictly by average reliability as u before v and strictly the other way
    by beta score.  Each discordant unordered pair appears once.  The
    averages are the keys of `rank` by average."""
    avr = rank(Criterion.average(), m).keys
    beta_score, _ = _beta_numerators(m, Criterion.beta_expansion(beta).beta)
    n = 1 << m
    return [(u, v) for u in range(n) for v in range(n)
            if avr[u] < avr[v] and beta_score[u] > beta_score[v]]


def beta_incompatible_count(m: int, beta: Decimal) -> Fraction:
    """The paper's beta-incompatibility statistic: the number of ranking
    positions at which the beta and average-reliability orders hold different
    channels, divided by 4, as an exact `Fraction`.

    It is zero iff the two rankings coincide, but it is not the number of
    discordant pairs (for that, take `len(beta_avr_conflicts(...))`): at
    beta = 1.22 it is 2/10/36 at m = 6/7/8, against 4/30/134 discordant
    pairs.  Both rankings map the complement of the channel at position i
    to position 2^m - 1 - i, so the displaced count is even, but it need
    not be a multiple of 4: at m = 3, beta = 1.62 it is 2 (labels 3 and 4
    swap), and the statistic is 1/2.  The averages are those of `rank` by
    average.
    """
    avr_ranking = rank(Criterion.average(), m)
    beta_ranking = rank(Criterion.beta_expansion(beta), m)
    displaced = sum(1 for a, b in zip(avr_ranking.order, beta_ranking.order) if a != b)
    return Fraction(displaced, 4)

"""Erasure polynomials of synthetic BEC channels via the polarization recursion.

For a label u of m bits the channel polynomial Z_u(p) starts from z = p and
applies one step per bit, innermost bit u_{m-1} first, outermost bit u_0 last:
a 0-bit squares (series step), a 1-bit maps z to 2z - z^2 (parallel step).
This nesting order is frozen by golden tests against fully expanded m = 4
polynomials.

After k steps the state depends only on the top k bits of u, so one walk of
the labels' suffix tree, `_suffix_walk`, builds each state once for all the
labels below it: `synth_labels` on polynomials, kept by `synth_all` as a
`ChannelTable`, and `average_numerators` on moments, which gives the whole
table of exact averages with no polynomial.  `average_descent` computes the
same moments one label at a time, for the labels a caller chooses and for
every ranking by average; the walk covers whole tables only.

The same recursion, run on a number in place of a polynomial, is Arikan's
Bhattacharyya recursion Z_u(x), exact on the BEC.  Both steps are increasing
bijections of [0, 1], so `channel_threshold` finds where Z_u crosses 1/2 by
inverting them from the label alone, with integer square roots and no
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Callable, Iterable

from .monomials import Monomial, check_m
from .polynomials import IntPoly, P, integrate01, integration_weights, to_path_counts


class _LazyCounts(dict):
    """Path counts by label at n = 2^m, each channel converted on its first
    read and kept: a read of a converted channel is one dict lookup."""

    __slots__ = ("_polys", "_n")

    def __init__(self, polys: tuple[IntPoly, ...], n: int) -> None:
        super().__init__()
        self._polys = polys
        self._n = n

    def __missing__(self, u: int) -> tuple[int, ...]:
        counts = self[u] = to_path_counts(self._polys[u], self._n).counts
        return counts


@dataclass(frozen=True)
class ChannelTable:
    """All 2^m channel polynomials of one stage count m, indexed by label.

    `counts[u]` holds the path counts N_0..N_n of label u at n = 2^m
    (`to_path_counts`), converted on the first read of that channel and kept
    for the rest."""

    m: int
    polys: tuple[IntPoly, ...]
    counts: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _LazyCounts(self.polys, 1 << self.m))

    def __getitem__(self, u: int) -> IntPoly:
        return self.polys[u]

    def avr(self, u: int) -> Fraction:
        """Exact average reliability: the integral of the channel polynomial,
        the integration twin of `average_numerators`."""
        return integrate01(self.polys[u])


def synth_poly(u: Monomial) -> IntPoly:
    """Channel polynomial Z_u(p), degree 2^m, computed without memoization."""
    z = P
    for i in range(u.m - 1, -1, -1):
        sq = z.square()
        z = z.scale(2) - sq if (u.bits >> i) & 1 else sq
    return z


def _suffix_walk(m: int, root, children) -> tuple:
    """The leaves of the suffix tree of m grown from `root`, one per label of
    m, in label order.  Node w at depth k, the top k bits of a label, has
    children 2w (0-bit) and 2w + 1 (1-bit), whose states `children(k, w,
    state)` returns as a pair, and each parent is dropped once its children
    exist.  m must pass `check_m`."""
    check_m(m)
    level = [root]
    for k in range(m):
        nxt = []
        for w in range(len(level)):
            nxt += children(k, w, level[w])
            level[w] = None
        level = nxt
    return tuple(level)


def _series_parallel(k: int, w: int, z: IntPoly) -> tuple:
    """Both children from one squaring: z^2 (series) and 2z - z^2 (parallel)."""
    sq = z.square()
    return sq, z.scale(2) - sq


def synth_labels(m: int) -> tuple[IntPoly, ...]:
    """Every label's channel polynomial, in label order: the suffix walk with
    one squaring per node, 2^(m+1) - 2 results in all.  m must pass `check_m`;
    no cost cap applies, and each stage costs about ten times the last."""
    return _suffix_walk(m, P, _series_parallel)


def synth_all(m: int) -> ChannelTable:
    """Full channel table of m, from `synth_labels`."""
    return ChannelTable(m, synth_labels(m))


def _flip_child(moments: list[int]) -> list[int]:
    """The moments of the child that flips its parent's last bit: rows 0, 2,
    4, ... of the difference table of the parent's moments, at column 0,
    one row alive at a time (`average_numerators` describes the step)."""
    flip, row = [moments[0]], moments
    while len(row) > 1:
        row = list(map(sub, row, islice(row, 1, None)))
        row = list(map(sub, row, islice(row, 1, None)))
        flip.append(row[0])
    return flip


def _moment_children(k: int, w: int, moments: list[int]) -> tuple:
    """The moment step of `average_numerators`, which describes it."""
    even = moments[::2]
    if k == 0:  # the root: neither child flips a bit
        return even, even
    flip = _flip_child(moments)
    return (flip, even) if w & 1 else (even, flip)


def average_numerators(m: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the exact averages of every label of m, in
    label order, and their common denominator D = lcm(1..2^m + 1): the
    library's engine for whole tables of averages, and the slow exact twin
    of `average_descent`, which reads the labels a caller chooses and every
    ranking; `ChannelTable.avr` is its integration twin.

    The suffix walk run on moments: node w at depth d >= 1 holds the
    integers M[k] = D * integral_0^1 Y^k dp, k <= 2^(m-d), with Y = Z_w
    after a 0-bit and 1 - Z_w after a 1-bit; the root (Y = p) holds the
    weights D / (k + 1) of `integration_weights`.  The child whose bit
    repeats w's last one, and both children of the root, have Y' = Y^2 and
    take the even entries.  The other child has Y' = (1 - Y)^2 and takes
    the even rows of column 0 of the difference table of M, whose row t
    holds D * integral Y^a (1 - Y)^t dp (`_flip_child`).  Every entry is D
    times the integral of an integer polynomial of degree <= 2^m with values
    in [0, 1], so an integer in [0, D].  A leaf's numerator is M[1] after a
    0-bit and D - M[1] after a 1-bit.

    For every label, about n^2 / 2 subtractions of integers of up to 1.44 n
    bits, n = 2^m, and no products: 1.9 ms at m = 8, 7 ms at m = 9 and
    0.03 s at m = 10, then the figures of `cli.COSTS`: 0.42, 2.7 and 23.5 s
    at m = 11, 12 and 13 (2-core shared host, CPython 3.11; repeated runs
    took 2.7-3.3 s at m = 12 and 23.5-26.5 s at m = 13).  m must pass
    `check_m`; no cost cap applies.
    """
    check_m(m)
    d, root = integration_weights((1 << m) + 1)
    leaves = _suffix_walk(m, root, _moment_children)
    return tuple(d - z[1] if u & 1 else z[1] for u, z in enumerate(leaves)), d


def _chain_flip(m: int, k: int, d: int, r: int) -> list[int]:
    """Every 2^r-th moment of the 1-child of node 0^k of m, 1 <= k < m,
    over D = d, in closed form: the node r repeated bits below that child.
    The difference table of `_flip_child`, at that stride, is its twin.

    Node 0^k has Y = p^A, A = 2^k, and its 1-child keeps
    F[j] = D * integral_0^1 (1 - p^A)^(2j) dp, j <= 2^(m-k-1), which Euler's
    Beta integral gives as D * prod_{i=1..2j} A i / (A i + 1).  So
    F[j] = F[j-1] a b / ((a + 1)(b + 1)), a = A(2j - 1), b = 2Aj, and every
    division is exact, since every F[j] is an integer: one product and one
    quotient by small integers per entry, where the table subtracts rows.
    Only the entries returned are kept: the whole child of node 0 of
    m = 16 is 2^14 + 1 integers of 1.44 * 2^16 bits, about 200 MB."""
    big, skip = 1 << k, (1 << r) - 1
    x, flip = d, [d]
    for j in range(1, (1 << (m - k - 1)) + 1):
        a, b = big * (2 * j - 1), 2 * big * j
        x = x * (a * b) // ((a + 1) * (b + 1))
        if not j & skip:
            flip.append(x)
    return flip


def _flip_leaf(moments: list[int]) -> int:
    """Entry j of the flip child of a node with moments M[0..2j]: the one
    entry its leaf reads when every step below the flip repeats a bit,
    since each such step keeps the even entries.  The child has
    Y' = (1 - Y)^2, so the entry is D * integral (1 - Y)^(2j) dp =
    sum_i (-1)^i C(2j, i) M[i], summed over the pairs M[i] + M[2j - i],
    whose binomials are equal: j + 1 products, where `_flip_child`
    subtracts its way through the whole difference table, about 2 j^2
    subtractions."""
    two_j = len(moments) - 1
    j = two_j >> 1
    binom, signed = 1, [1]
    for i in range(1, j + 1):
        binom = binom * (two_j + 1 - i) // i
        signed.append(-binom if i & 1 else binom)
    middle = signed.pop()
    return middle * moments[j] + sum(map(mul, signed, map(add, moments[:j], moments[:j:-1])))


def _lcm_range(lo: int, hi: int) -> int:
    """lcm(lo..hi - 1) as a balanced tree of `lcm`s: 21 ms for 1..2^15 + 1,
    where one `lcm` over the range, whose running lcm grows at every step,
    took 0.41 s (62 ms against 1.7 s at m = 16)."""
    if hi - lo <= 16:
        return lcm(*range(lo, hi))
    mid = (lo + hi) // 2
    return lcm(_lcm_range(lo, mid), _lcm_range(mid, hi))


@cache
def _denominator(m: int) -> int:
    """D = lcm(1..2^m + 1), the common denominator of the averages of m;
    `integration_weights` is its twin.  Kept for each m: 12 KB at m = 16."""
    return _lcm_range(1, (1 << m) + 2)


def average_descent(m: int) -> tuple[Callable[[int], int], int]:
    """A function from a label of m to the integer numerator of its exact
    average, and the common denominator D = lcm(1..2^m + 1): the numerators
    of `average_numerators(m)`, its twin, computed one label at a time.
    Every ranking by average reads its labels here, all of them for
    `construction.rank` and a few for `construction.best`.

    A label of the upper half takes D - x of its complement, since
    Z_ubar(p) = 1 - Z_u(1 - p) gives avr(ubar) = 1 - avr(u), so only the
    subtree under the root's 0-child is descended.  Node 0^k there holds
    D / (2^k j + 1) and its 1-child comes in closed form (`_chain_flip`), so
    no node 0^k is built: label 0 reads D / (2^m + 1), and every other label
    starts at the 1-child of its chain of zeros, recomputed on each read, or
    below it.  Chain flips are the largest vectors of a descent, so keeping
    them costs memory: kept, they lifted the peak RSS of `rank --m 15 --by
    avr --k 64` from 34 to 47 MB and of `--k 144` from 110 to 183 MB, to
    save 5 of the 12 rebuilds in the best 11 of m = 8: 141-142 against
    150-155 us.  A chain flip keeps only the entries that the r repeated
    bits below it read, and is kept as the node r steps down if r > 0.

    Each call descends from the deepest node kept above the label's leaf to
    the parent of the label's last flip, the lowest bit that differs from
    the bit above it, and keeps every node it computes: the step of
    `average_numerators`, the even entries on a repeated bit and
    `_flip_child` on a flip.  Every step below that flip repeats a bit, so
    the leaf needs one entry of the flip child, which one sum gives
    (`_flip_leaf`) in place of the child's difference table.  The child is not built, so its parent
    stays kept until a later label needs it, and the leaf's numerator is
    kept for a second read.  A label whose last flip lies above a kept node
    reads its leaf's entry of that node.  A parent is dropped once both its
    children are computed: every leaf below it then has a kept node between
    them, which the search from the leaf up meets first.  So the best 10 of
    m = 10 or 15 need no difference table of more than 9 moments and no
    vector of more than 65.  m must pass `check_m`; a label out of range
    raises ValueError.
    """
    check_m(m)
    n = 1 << m
    d = _denominator(m)
    nodes: dict[int, list[int] | None] = {}  # node w at depth t, keyed 2^t + w: its moments, None once dropped

    def keep(key: int, moments: list[int]) -> None:
        nodes[key] = moments
        if key ^ 1 in nodes:  # both children computed: no descent reads the parent again
            nodes[key >> 1] = None

    def numerator(u: int) -> int:
        if not 0 <= u < n:
            raise ValueError(f"label {u} out of range for m={m}")
        v = min(u, n - 1 - u)
        if not v:  # label 0: Z = p^n
            return d // (n + 1) if u == v else d - d // (n + 1)
        flips = v ^ (v >> 1)
        below = m + 1 - (flips & -flips).bit_length()  # the depth of the last flip's child
        top = m + 1 - v.bit_length()  # the depth of the 1-child of the chain 0^k
        key, depth = n | v, m
        while key not in nodes and depth > top:
            key, depth = key >> 1, depth - 1
        if key in nodes:
            moments = nodes[key]
        else:  # the chain flip, at the node of the r repeated bits below it
            r = m - top - (flips & ((1 << (m - top)) - 1)).bit_length()
            moments = _chain_flip(m, top - 1, d, r)
            key, depth = ((key + 1) << r) - 1, top + r
            if r:
                keep(key, moments)
        for t in range(depth, below - 1):
            bit = (v >> (m - t - 1)) & 1
            moments = moments[::2] if bit == (v >> (m - t)) & 1 else _flip_child(moments)
            key = 2 * key + bit
            keep(key, moments)
        if depth < below:
            x = _flip_leaf(moments)
            keep(n | v, [d, x])  # the leaf's moments, for a second read
        else:
            x = moments[1 << (m - depth)]
        x = d - x if v & 1 else x
        return x if u == v else d - x

    return numerator, d


def descent_tables(m: int, labels: Iterable[int]) -> list[int]:
    """The size s of each difference table, of moments M[0..s], that
    `average_descent(m)` builds to read the averages of `labels`, in any
    order and with repeats: its plan, without the arithmetic.  A label,
    or its complement if that is lower, builds one at every flip below its
    top bit but the last, which is one sum: the flip at bit i takes the
    table of the node that keeps the label's bits above i, s = 2^(i+1),
    once for all the labels that pass it.  The chain flip of the top bit
    is in closed form and builds none."""
    mask = (1 << m) - 1
    nodes = set()
    for v in {min(u, u ^ mask) for u in labels}:
        flips = (v ^ (v >> 1)) & (mask >> (m + 1 - v.bit_length()))  # below the top bit
        flips &= flips - 1  # all but the last
        while flips:
            i = flips.bit_length() - 1
            nodes.add((i, v >> (i + 1)))
            flips ^= 1 << i
    return [2 << i for i, _ in nodes]


def _half_enclosures(m: int, labels: set[int], w: int) -> dict[int, tuple[int, int]]:
    """Integers lo <= t_u * 2^w <= hi for each label u of m in `labels`, where
    Z_u(t_u) = 1/2: one depth-first pass over the labels' bit prefixes, the
    outermost bit u_0 first, so labels that share their first k bits share
    their first k steps, each computed once.

    Inverts one step at a time from y = 1/2, the outermost first: a 0-bit
    (z^2) by y -> sqrt(y), a 1-bit (2z - z^2) by y -> 1 - sqrt(1 - y).  Each
    square root is `isqrt` rounded down for one bound and up for the other,
    so every step keeps the true value inside [lo, hi]."""
    one = 1 << w
    path = [(one >> 1, one >> 1)]  # path[k]: the enclosure after the last label's first k bits
    enclosures, last = {}, 0
    # in bit-reversed order each label follows the one it shares the most first bits with
    for u in sorted(labels, key=lambda u: f"{u:0{m}b}"[::-1]):
        diff = u ^ last
        k = (diff & -diff).bit_length() - 1 if enclosures else 0  # the first bits u shares
        del path[k + 1:]
        lo, hi = path[k]
        for i in range(k, m):
            if u >> i & 1:
                x = (one - lo) << w
                r = isqrt(x)
                lo, hi = one - r - (r * r < x), one - isqrt((one - hi) << w)
            else:
                x = hi << w
                r = isqrt(x)
                lo, hi = isqrt(lo << w), r + (r * r < x)
            path.append((lo, hi))
        enclosures[u], last = (lo, hi), u
    return enclosures


def threshold_floors(m: int, labels: list[int], j: int) -> list[int]:
    """floor(t_u * 2^j) for each label u of m in `labels`, in their order,
    where Z_u(t_u) = 1/2: the integer inversion behind `channel_threshold`,
    which describes it, run once for all the labels.

    The enclosures of `_half_enclosures` start at width w = j + 2m + 8, which
    decided every label of m <= 13 in one pass; a label whose bounds still
    disagree on the floor is run again at twice the width.  That ends, as
    t_u * 2^j is irrational.  For the same reason, when a label and its
    complement are both listed, only the one with u_0 = 0 is inverted, and
    the other takes 2^j - 1 minus its floor: Z_ubar(p) = 1 - Z_u(1 - p)
    gives t_ubar = 1 - t_u."""
    mask = (1 << m) - 1
    wanted = set(labels)
    todo = {u for u in wanted if not u & 1 or u ^ mask not in wanted}
    floors: dict[int, int] = {}
    w = j + 2 * m + 8
    while todo:
        shift = w - j
        for u, (lo, hi) in _half_enclosures(m, todo, w).items():
            if lo >> shift == hi >> shift:
                floors[u] = lo >> shift
        todo -= floors.keys()
        w *= 2
    top = (1 << j) - 1
    return [floors[u] if u in floors else top - floors[u ^ mask] for u in labels]


def channel_threshold(u: Monomial, tol: Fraction = Fraction(1, 2**30)) -> Fraction:
    """The threshold of channel u, Z_u(t) = 1/2, to within +/- tol, decided
    from the label alone: what the dyadic bisection of the polynomial
    `synth_poly(u)` on [0, 1] returns.  It is a finite-m proxy for the sharp
    transition point, which 1 - Avr estimates through the average.

    Z_u(t) = 1/2 says t = S_{u_{m-1}}(...S_{u_0}(1/2)), S_0(y) = sqrt(y) and
    S_1(y) = 1 - sqrt(1 - y), which `_half_enclosures` encloses on integers
    over 2^w.  That t is irrational, since sqrt(1/2) is and each S_b maps an
    irrational to an irrational, so the bisection never hits it: it stops
    at the first j with 2^-j <= 2 tol and returns the midpoint
    (2 floor(t 2^j) + 1) / 2^(j+1) of the one width-2^-j bracket that holds
    t, which is what this returns, from the floor of `threshold_floors` for
    the one label.  At the default tol one label took 12 us at m = 8 and
    24-25 us at m = 16, about 3 us of it the pass's bookkeeping; `rank`
    lists its labels through one `threshold_floors`, and there the best 11
    of m = 8 took 64-69 us and all 256 took 0.32-0.40 ms, against 0.11 and
    2.9-3.0 ms for one inversion per label (2-core host, CPython 3.11).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = Fraction(tol).as_integer_ratio()
    # smallest j >= 0 with 2^j >= b / (2a), that is 2^-j <= 2 tol
    j = (-(-b // (2 * a)) - 1).bit_length()
    [floor] = threshold_floors(u.m, [u.bits], j)
    return Fraction(2 * floor + 1, 1 << (j + 1))

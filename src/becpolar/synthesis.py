"""Erasure polynomials of synthetic BEC channels via the polarization recursion.

For a label u of m bits the channel polynomial Z_u(p) starts from z = p and
applies one step per bit, innermost bit u_{m-1} first, outermost bit u_0 last:
a 0-bit squares (series step), a 1-bit maps z to 2z - z^2 (parallel step).
This nesting order is frozen by golden tests against fully expanded m = 4
polynomials.

`synth_labels` builds every channel of m by sharing suffix polynomials:
after k steps the intermediate depends only on the top k bits of u, so the
polynomials are built level by level over a binary suffix tree (one squaring
per node, both children derived from it), and `synth_all` keeps them as a
`ChannelTable`.

The same recursion, run on a number in place of a polynomial, is Arikan's
Bhattacharyya recursion Z_u(x), exact on the BEC.  Both steps are increasing
bijections of [0, 1], so `channel_threshold` finds where Z_u crosses 1/2 by
inverting them from the label alone, with integer square roots and no
polynomial; `average_numerators` runs the recursion on the moments of each
channel, which gives every exact average with no polynomial either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import isqrt
from operator import sub
from typing import Iterable

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


def synth_labels(m: int) -> tuple[IntPoly, ...]:
    """Channel polynomials of every label of m, in label order, built with
    suffix sharing.

    Level k holds the polynomials reachable after k steps, indexed by the
    top k bits of u (last-consumed bit lowest): one squaring per node, both
    children derived from it, 2^(m+1) - 2 transform results in all.  m must
    pass `check_m`; no cost cap applies, and each stage costs about ten
    times the last.
    """
    check_m(m)
    level = [P]
    for _ in range(m):
        nxt: list[IntPoly] = []
        for node in range(len(level)):  # node w has children 2w (0-bit) and 2w + 1 (1-bit)
            parent, level[node] = level[node], None  # freed once both children exist
            sq = parent.square()
            nxt += (sq, parent.scale(2) - sq)  # series, parallel
        level = nxt
    return tuple(level)


def synth_all(m: int) -> ChannelTable:
    """Full channel table of m, from `synth_labels`."""
    return ChannelTable(m, synth_labels(m))


def average_numerators(m: int, labels: Iterable[int] | None = None) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the exact averages of the given labels, in the
    order given (None: every label of m, in label order), and their common
    denominator D = lcm(1..2^m + 1).  This is the library's one source of
    exact averages; `ChannelTable.avr` is its integration twin.

    Walks the suffix tree of `synth_labels`, expanding only the nodes that
    are the top bits of some requested label.  A node w at depth
    d >= 1 carries K + 1 = 2^(m-d) + 1 moments chosen by its last bit: for
    a 0-bit M[k] = D * integral_0^1 Z_w^k dp, for a 1-bit M[k] = D *
    integral_0^1 (1 - Z_w)^k dp.  The root (Z = p) has both vectors equal to
    D / (k + 1), the weights of `integration_weights`.
    A child whose bit repeats its parent's last bit is Z^2 (0-bit) or has
    1 - Z' = (1 - Z)^2 (1-bit), so it takes the parent's even-indexed
    entries with no arithmetic; both children of the root are of this kind.
    The other child takes the even-indexed entries of the parent's binomial
    transform, the first column of its difference table: row 0 is M and
    row t + 1 is row t minus itself shifted by one, so row t holds
    D * integral Z^a (1 - Z)^t (with Z and 1 - Z swapped for a 1-bit).
    Only one row is alive at a time.  Each entry of every row is D times
    the integral of a product of powers of Z and 1 - Z, both in [0, 1] with
    integer coefficients and degree at most 2^m, so it is an integer in
    [0, D].  A leaf's numerator is M[1] for a 0-bit and D - M[1] for a 1-bit.

    For every label, about n^2 / 2 subtractions of integers of up to 1.44 n
    bits, n = 2^m, and no products: 1.9 ms at m = 8, 7 ms at m = 9, 0.03 s
    at m = 10, 0.19 s at m = 11, 1.6 s at m = 12 and 12.6 s at m = 13 (one
    run each, 2-core host, CPython 3.11).  Fewer labels skip every
    difference table that no requested suffix needs.  m must pass
    `check_m`; no cost cap applies.
    """
    check_m(m)
    n = 1 << m
    order = range(n) if labels is None else list(labels)
    wanted = None if labels is None else set(order)
    if wanted and not 0 <= min(wanted) <= max(wanted) < n:
        raise ValueError(f"labels must be in 0..{n - 1} for m={m}")
    d, root = integration_weights(n + 1)
    depth1 = root[::2]  # even entries of the root's moments
    level = {0: depth1, 1: depth1}
    for k in range(2, m + 1):
        keep = None if wanted is None else {u >> (m - k) for u in wanted}
        nxt: dict[int, list[int]] = {}
        for w, moments in level.items():  # node w has children 2w (0-bit) and 2w + 1 (1-bit)
            repeat = 2 * w + (w & 1)  # the child whose bit repeats w's
            if keep is None or repeat ^ 1 in keep:
                # the other child: rows 0, 2, 4, ... of the difference
                # table, read at column 0
                flip, row = [moments[0]], moments
                while len(row) > 1:
                    row = list(map(sub, row, islice(row, 1, None)))
                    row = list(map(sub, row, islice(row, 1, None)))
                    flip.append(row[0])
                nxt[repeat ^ 1] = flip
            if keep is None or repeat in keep:
                nxt[repeat] = moments[::2]
        level = nxt
    return tuple(d - level[u][1] if u & 1 else level[u][1] for u in order), d


def _ceil_isqrt(x: int) -> int:
    r = isqrt(x)
    return r + (r * r < x)


def _half_enclosure(bits: list[int], w: int) -> tuple[int, int]:
    """Integers lo <= t * 2^w <= hi for the t with Z(t) = 1/2, where Z applies
    one step per bit of `bits`, the first bit outermost.

    Inverts one step at a time from y = 1/2, the outermost first: a 0-bit
    (z^2) by y -> sqrt(y), a 1-bit (2z - z^2) by y -> 1 - sqrt(1 - y).  Each
    square root is `isqrt` rounded down for one bound and up for the other,
    so every step keeps the true value inside [lo, hi]."""
    one = 1 << w
    lo = hi = one >> 1
    for bit in bits:
        if bit:
            lo, hi = one - _ceil_isqrt((one - lo) << w), one - isqrt((one - hi) << w)
        else:
            lo, hi = isqrt(lo << w), _ceil_isqrt(hi << w)
    return lo, hi


def _threshold_floor(bits: list[int], j: int, w: int) -> int:
    """floor(t * 2^j) for the t of `_half_enclosure(bits, w)`, w >= j: read
    from the enclosure once both of its ends agree on it, with w doubled
    until they do.  Terminates whenever t * 2^j is not an integer."""
    while True:
        lo, hi = _half_enclosure(bits, w)
        if lo >> (w - j) == hi >> (w - j):
            return lo >> (w - j)
        w *= 2


def channel_threshold(u: Monomial, tol: Fraction = Fraction(1, 2**30)) -> Fraction:
    """The threshold of channel u, Z_u(t) = 1/2, to within +/- tol, decided
    from the label alone: what the dyadic bisection of the polynomial
    `synth_poly(u)` on [0, 1] returns.  It is a finite-m proxy for the sharp
    transition point, which 1 - Avr estimates through the average.

    Z_u(t) = 1/2 says t = S_{u_{m-1}}(...S_{u_0}(1/2)), S_0(y) = sqrt(y) and
    S_1(y) = 1 - sqrt(1 - y), which `_half_enclosure` encloses on integers
    over 2^w.  That t is irrational, since sqrt(1/2) is and each S_b maps an
    irrational to an irrational, so the bisection never hits it: it stops
    at the first j with 2^-j <= 2 tol and returns the midpoint
    (2 floor(t 2^j) + 1) / 2^(j+1) of the one width-2^-j dyadic bracket that
    holds t, which is what this returns.  The enclosure starts at
    w = j + 2m + 8, which decided every label of m <= 13 in one pass.  At
    the default tol a label took 13-21 us at m = 8 and 9 and 27-44 us at
    m = 16 (2-core host, CPython 3.11).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = Fraction(tol).as_integer_ratio()
    # smallest j >= 0 with 2^j >= b / (2a), that is 2^-j <= 2 tol
    j = (-(-b // (2 * a)) - 1).bit_length()
    bits = [(u.bits >> i) & 1 for i in range(u.m)]  # outermost bit u_0 first
    lo = _threshold_floor(bits, j, j + 2 * u.m + 8)
    return Fraction(2 * lo + 1, 1 << (j + 1))

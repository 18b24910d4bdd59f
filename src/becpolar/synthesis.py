"""Erasure polynomials of synthetic BEC channels via the polarization recursion.

For a label u of m bits the channel polynomial Z_u(p) starts from z = p and
applies one step per bit, innermost bit u_{m-1} first, outermost bit u_0 last:
a 0-bit squares (series step), a 1-bit maps z to 2z - z^2 (parallel step).
This nesting order is frozen by golden tests against fully expanded m = 4
polynomials.

`synth_all` builds every channel of a given m by sharing suffix polynomials:
after k steps the intermediate depends only on the top k bits of u, so the
table is built level by level over a binary suffix tree (one squaring per
node, both children derived from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .monomials import MAX_M, Monomial
from .polynomials import IntPoly, P, horner_numerator, integrate01

SYNTH_CAP = 12


@dataclass(frozen=True)
class ChannelTable:
    """All 2^m channel polynomials of one stage count m, indexed by label."""

    m: int
    polys: tuple[IntPoly, ...]

    def __getitem__(self, key: int | Monomial) -> IntPoly:
        u = key.bits if isinstance(key, Monomial) else key
        return self.polys[u]

    def __len__(self) -> int:
        return len(self.polys)

    def avr(self, key: int | Monomial) -> Fraction:
        """Exact average reliability: integral of the channel polynomial."""
        return integrate01(self[key])


def synth_poly(u: Monomial) -> IntPoly:
    """Channel polynomial Z_u(p), degree 2^m, computed without memoization."""
    z = P
    for i in range(u.m - 1, -1, -1):
        sq = z.square()
        z = z.scale(2) - sq if (u.bits >> i) & 1 else sq
    return z


def synth_all(m: int, force: bool = False) -> ChannelTable:
    """Build the full channel table with suffix sharing.

    Level k holds the 2^k polynomials reachable after k steps, keyed by the
    top k bits of u (last-consumed bit lowest); 2^(m+1) - 2 transform results
    total, one squaring per tree node.  m above SYNTH_CAP needs force=True
    (cost grows as 8^m); no m above MAX_M, the largest label width, is built.
    """
    if not 1 <= m <= MAX_M:  # even with force=True
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    if m > SYNTH_CAP and not force:
        raise ValueError(f"m={m} exceeds cap {SYNTH_CAP}; pass force=True to override")
    level = [P]
    for _ in range(m):
        nxt: list[IntPoly] = []
        for parent in level:
            sq = parent.square()
            nxt.append(sq)                      # 0-bit child: series
            nxt.append(parent.scale(2) - sq)    # 1-bit child: parallel
        level = nxt
    return ChannelTable(m, tuple(level))


def dual_poly(a: IntPoly) -> IntPoly:
    """Complemented-label identity: returns 1 - a(1-p).

    Applying it twice is the identity, and for any channel polynomial
    dual_poly(Z_u) = Z_{complement(u)}.
    """
    # Horner in the polynomial ring with q = 1 - p.
    q = IntPoly([1, -1])
    acc = IntPoly()
    for c in reversed(a.coeffs):
        acc = acc * q + IntPoly([c])
    return IntPoly([1]) - acc


def threshold_estimate(a: IntPoly, tol: Fraction = Fraction(1, 2**30)) -> Fraction:
    """Bisection solution of a(p) = 1/2 to within +/- tol, exact arithmetic.

    Requires a channel polynomial (monotone on [0,1] with a(0) = 0, a(1) = 1);
    the bracket check rejects inputs that do not straddle 1/2.  The result is
    a finite-m proxy for the sharp-transition point; 1 - Avr approximates the
    same point through the average-reliability limit.

    The bracket is dyadic, [lo, lo + 1] / 2^j, kept as the integer lo: the
    sign of a(x / 2^j) - 1/2 is that of 2 * 2^(jn) a(x / 2^j) - 2^(jn), an
    integer from `horner_numerator` (n = deg a).  Bisection stops once the
    width 1/2^j is at most 2 * tol, which any positive tol reaches.  Apart
    from that width test, the only rational is the one returned: the
    midpoint hit exactly, or the midpoint of the last bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cs = a.coeffs
    n = a.degree
    if not (2 * horner_numerator(cs, 0, 1) - 1 < 0 < 2 * horner_numerator(cs, 1, 1) - 1):
        raise ValueError("input does not bracket 1/2 on [0, 1]; not a channel polynomial?")
    width = 2 * tol
    lo, j = 0, 0
    while Fraction(1, 1 << j) > width:
        j += 1
        lo *= 2
        mid = lo + 1
        v = 2 * horner_numerator(cs, mid, 1 << j) - (1 << (j * n))
        if v == 0:
            return Fraction(mid, 1 << j)
        if v < 0:
            lo = mid
    return Fraction(2 * lo + 1, 1 << (j + 1))

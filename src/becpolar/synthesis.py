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
from .polynomials import IntPoly, P, eval_rational, integrate01

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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    half = Fraction(1, 2)
    lo, hi = Fraction(0), Fraction(1)
    flo = eval_rational(a, lo) - half
    fhi = eval_rational(a, hi) - half
    if not (flo < 0 < fhi):
        raise ValueError("input does not bracket 1/2 on [0, 1]; not a channel polynomial?")
    while hi - lo > 2 * tol:
        mid = (lo + hi) / 2
        v = eval_rational(a, mid) - half
        if v == 0:
            return mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2

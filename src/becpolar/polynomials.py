"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

Channel polynomials produced by the series/parallel recursion always have
integer coefficients, so the workhorse type `IntPoly` stores a dense tuple of
Python ints (index i = coefficient of p^i, no trailing zeros, zero polynomial
= empty tuple).  Rationals enter only at evaluation and integration, as
`fractions.Fraction`.

The module also provides the change of basis to path-count (Bernstein-style)
coefficients and an exact sign decision on [0, 1] built from square-free
decomposition plus Sturm sequences.  Sturm chains are run on primitive integer
polynomials: each pseudo-remainder is divided by its content, and signs are
corrected so every element equals the rational Sturm element up to a positive
factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence


class IntPoly:
    """Dense integer-coefficient polynomial; immutable value semantics."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def scale(self, k: int) -> "IntPoly":
        return IntPoly([k * c for c in self.coeffs])

    def square(self) -> "IntPoly":
        """Schoolbook square using the symmetric half of the product grid."""
        a = self.coeffs
        if not a:
            return IntPoly()
        out = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            out[2 * i] += ai * ai
            twice = 2 * ai
            for j in range(i + 1, len(a)):
                if a[j]:
                    out[i + j] += twice * a[j]
        return IntPoly(out)

    def __call__(self, p: Fraction) -> Fraction:
        return eval_rational(self, p)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


ZERO = IntPoly()
ONE = IntPoly([1])
P = IntPoly([0, 1])


def square_step(z: IntPoly) -> IntPoly:
    """Erasure polynomial of two copies in series: z -> z^2."""
    return z.square()


def parallel_step(z: IntPoly) -> IntPoly:
    """Erasure polynomial of two copies in parallel: z -> 1 - (1-z)^2 = 2z - z^2."""
    return z.scale(2) - z.square()


def eval_rational(a: IntPoly, p: Fraction) -> Fraction:
    """Exact Horner evaluation at a rational point."""
    return _horner(a.coeffs, p)


def _horner(coeffs: Sequence[int], p: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def integrate01(a: IntPoly) -> Fraction:
    """Exact integral of a over [0, 1]: sum of coeff[i] / (i + 1)."""
    if a.is_zero():
        return Fraction(0)
    # Single common denominator avoids one gcd reduction per term.
    denom = lcm(*range(1, len(a.coeffs) + 1))
    num = sum(c * (denom // (i + 1)) for i, c in enumerate(a.coeffs))
    return Fraction(num, denom)


@dataclass(frozen=True)
class PathCounts:
    """Coefficients N_0..N_n of a polynomial in the basis p^i (1-p)^(n-i).

    For a channel polynomial of a size-n composition, N_i counts the i-device
    subsets that connect source to sink, whence 0 <= N_i <= C(n, i).
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise ValueError(f"need {self.n + 1} counts, got {len(self.counts)}")


def to_path_counts(a: IntPoly, n: int) -> PathCounts:
    """Rewrite a(p) = sum_i N_i p^i (1-p)^(n-i); requires deg a <= n.

    N_i = sum_{k<=i} coeff[k] * C(n-k, i-k), from p^k = p^k (p + (1-p))^(n-k).
    """
    if a.degree > n:
        raise ValueError(f"degree {a.degree} exceeds basis size {n}")
    cs = a.coeffs
    counts = tuple(
        sum(cs[k] * comb(n - k, i - k) for k in range(min(i, len(cs) - 1) + 1))
        for i in range(n + 1)
    )
    return PathCounts(n, counts)


def from_path_counts(pc: PathCounts) -> IntPoly:
    """Expand sum_i N_i p^i (1-p)^(n-i) back to the power basis."""
    n = pc.n
    out = [0] * (n + 1)
    for i, ni in enumerate(pc.counts):
        if ni:
            # p^i (1-p)^(n-i) = sum_j C(n-i, j) (-1)^j p^(i+j)
            for j in range(n - i + 1):
                out[i + j] += ni * comb(n - i, j) * (-1 if j & 1 else 1)
    return IntPoly(out)


class SignVerdict(enum.Enum):
    NONNEGATIVE = "nonnegative"
    CROSSES_ZERO = "crosses_zero"
    IDENTICALLY_ZERO = "identically_zero"


def nonneg_on_01(d: IntPoly, path_counts: Sequence[int] | None = None) -> SignVerdict:
    """Exact decision whether d(p) >= 0 for every p in [0, 1].

    Fast path: if all coefficients of d in the p^i (1-p)^(n-i) basis share a
    sign, that sign is the sign of d on (0, 1).  Otherwise: take the product
    of the odd-multiplicity square-free factors of d (only these change sign),
    drop its roots at the endpoints (allowed), and count its roots in (0, 1)
    with a Sturm sequence.  Any such root means d changes sign.  With none, d
    keeps one sign between even-order touch points, so d is sampled at a
    rational point in each root-free subinterval found by bisection isolation.

    `path_counts` optionally supplies precomputed basis coefficients of d at
    n = deg d (callers comparing many channel pairs difference them cheaply).
    """
    if d.is_zero():
        return SignVerdict.IDENTICALLY_ZERO
    n = max(d.degree, 1)
    counts = tuple(path_counts) if path_counts is not None else to_path_counts(d, n).counts
    if all(c >= 0 for c in counts):
        return SignVerdict.NONNEGATIVE
    if all(c <= 0 for c in counts):
        return SignVerdict.CROSSES_ZERO
    f = _primitive(list(d.coeffs))
    odd = ONE
    for factor, mult in _squarefree_decomposition(f):
        if mult % 2 == 1:
            odd = odd * IntPoly(factor)
    odd = _strip_endpoint_roots(list(odd.coeffs))
    if len(odd) >= 2 and _count_roots_open01(odd) > 0:
        return SignVerdict.CROSSES_ZERO
    sf = _strip_endpoint_roots(_squarefree_part(f))
    for point in _root_free_samples(sf):
        value = eval_rational(d, point)
        if value < 0:
            return SignVerdict.CROSSES_ZERO
        assert value > 0, "sample point unexpectedly hit a root"
    return SignVerdict.NONNEGATIVE


# ---------------------------------------------------------------------------
# Integer Sturm machinery.  Raw polynomials below are plain lists of ints in
# ascending degree order with no trailing zeros.
# ---------------------------------------------------------------------------


def _raw_sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g or 1


def _primitive(a: list[int]) -> list[int]:
    g = _content(a)
    return [c // g for c in a]


def _rem_signed(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b, equal to rem(a, b) up to a positive factor.

    Each elimination step multiplies the relation by lc(b); an odd number of
    steps with negative lc(b) flips the sign, which is corrected here so that
    sign-variation counts downstream stay faithful to the rational chain.
    """
    r = list(a)
    db = len(b) - 1
    lcb = b[-1]
    steps = 0
    while r and len(r) - 1 >= db:
        lead = r[-1]
        k = len(r) - 1 - db
        r = [lcb * c for c in r]
        for j, bj in enumerate(b):
            r[k + j] -= lead * bj
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if lcb < 0 and steps % 2 == 1:
        r = [-c for c in r]
    return r


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient (Euclid on remainders)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _rem_signed(a, b)
        a, b = b, (_primitive(r) if r else [])
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    if not a:
        return []
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = [Fraction(c) for c in a]
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] / lb
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
    if any(x != 0 for x in r):
        raise ArithmeticError("inexact polynomial division")
    if any(x.denominator != 1 for x in q):
        raise ArithmeticError("non-integer quotient")
    return [int(x) for x in q]


def _squarefree_part(f: list[int]) -> list[int]:
    g = _poly_gcd(f, _derivative(f))
    if len(g) == 1:
        return _primitive(f)
    return _primitive(_divexact(_primitive(f), g))


def _squarefree_decomposition(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm: f = content * prod factor^mult with square-free,
    pairwise-coprime factors."""
    f = _primitive(f)
    fp = _derivative(f)
    a0 = _poly_gcd(f, fp)
    if len(a0) == 1:
        return [(f, 1)]
    b = _divexact(f, a0)
    d = _raw_sub(_divexact(fp, a0), _derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _divexact(b, a)
        d = _raw_sub(_divexact(d, a), _derivative(b))
        i += 1
    return out


def _strip_endpoint_roots(f: list[int]) -> list[int]:
    """Remove all roots at p = 0 and p = 1 (exact deflation)."""
    while f and f[0] == 0:
        f = f[1:]
    while f and sum(f) == 0:
        # synthetic division by (p - 1)
        q = [0] * (len(f) - 1)
        acc = 0
        for k in range(len(f) - 1, 0, -1):
            acc += f[k]
            q[k - 1] = acc
        f = q
    return f


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm chain of a square-free primitive polynomial."""
    chain = [f, _primitive(_derivative(f))]
    while len(chain[-1]) > 1:
        r = _rem_signed(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(values: Iterable) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def _count_roots_between(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi]; endpoints must not be roots of chain[0]."""
    vlo = _variations(_horner(c, lo) for c in chain)
    vhi = _variations(_horner(c, hi) for c in chain)
    return vlo - vhi


def _count_roots_open01(f: list[int]) -> int:
    """Distinct roots of square-free f in (0, 1); needs f(0) != 0, f(1) != 0."""
    chain = _sturm_chain(f)
    v0 = _variations(c[0] for c in chain)
    v1 = _variations(sum(c) for c in chain)
    return v0 - v1


def _nonroot_point(f: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    """A rational point in (lo, hi) that is not a root of f."""
    denom = 2
    while True:
        for k in range(1, denom):
            p = lo + (hi - lo) * Fraction(k, denom)
            if _horner(f, p) != 0:
                return p
        denom += 1


def _isolate_roots_open01(f: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the roots of square-free f in (0, 1).

    Interval endpoints are never roots of f; bisection midpoints landing on a
    root are nudged to a nearby non-root rational.
    """
    if len(f) < 2:
        return []
    chain = _sturm_chain(f)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(0), Fraction(1), _count_roots_between(chain, Fraction(0), Fraction(1)))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = _nonroot_point(f, lo, hi)
        kl = _count_roots_between(chain, lo, mid)
        stack.append((lo, mid, kl))
        stack.append((mid, hi, k - kl))
    out.sort()
    return out


def _root_free_samples(sf: list[int]) -> list[Fraction]:
    """One interior sample point per root-free gap of (0, 1) w.r.t. roots of sf."""
    if len(sf) < 2:
        return [Fraction(1, 2)]
    boundaries = [Fraction(0)]
    for lo, hi in _isolate_roots_open01(sf):
        boundaries.extend((lo, hi))
    boundaries.append(Fraction(1))
    samples = []
    for a, b in zip(boundaries[::2], boundaries[1::2]):
        if a < b:
            samples.append(_nonroot_point(sf, a, b))
    return samples or [_nonroot_point(sf, Fraction(0), Fraction(1))]

"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

Channel polynomials produced by the series/parallel recursion always have
integer coefficients, so the workhorse type `IntPoly` stores a dense tuple of
Python ints (index i = coefficient of p^i, no trailing zeros, zero polynomial
= empty tuple).  Squaring, the one product the recursion needs, is Kronecker
substitution: the coefficients are packed into the bytes of one integer,
which CPython squares (Karatsuba), and read back slot by slot.  Rationals
enter only at evaluation and integration, as `fractions.Fraction`, and each
is built once, at the end: evaluation at num/den and integration are each a
dot product of the coefficients with cached integer weights over one common
denominator.

The module also provides the change of basis to path-count (Bernstein-style)
coefficients and an exact yes/no decision whether a polynomial is >= 0 on
[0, 1], read off the counts (`nonneg_on_01(None, counts)`).  A one-signed
certificate settles it with no polynomial.  Otherwise the zero runs at the
two ends of the counts are the roots at 0 and 1; the polynomial is rebuilt
from the nonzero span by the inverse shift-add, which needs additions only;
a gcd recursion keeps its odd-multiplicity factors, whose Sturm count finds
any sign change inside; and with none, the first nonzero count gives the
sign.  Sturm chains are run
on primitive integer polynomials: each pseudo-remainder is divided by its
content, and signs are corrected so every element equals the rational Sturm
element up to a positive factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import mul, sub
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
        """Exact square by Kronecker substitution: one integer product.

        Each coefficient takes a slot of nb bytes, wide enough that every
        coefficient c of the square has |c| < 2^(8 nb - 1), since |c| is at
        most len * max|a_i|^2.  The positive and the negative coefficients
        are packed as two integers, whose difference A is a evaluated at
        X = 2^(8 nb); A^2 then holds each coefficient of a^2 in its own slot.
        Adding 2^(8 nb - 1) to every slot makes each one nonnegative and below
        X, so no borrow crosses a slot and each reads back alone.  Packing and
        unpacking are linear in the byte count; the one product runs in C.
        """
        a = self.coeffs
        if not a:
            return IntPoly()
        top = max(map(abs, a))
        nb = (len(a) * top * top).bit_length() // 8 + 1
        zero = bytes(nb)
        pos = int.from_bytes(b"".join(c.to_bytes(nb, "little") if c > 0 else zero
                                      for c in a), "little")
        neg = int.from_bytes(b"".join((-c).to_bytes(nb, "little") if c < 0 else zero
                                      for c in a), "little")
        slots = 2 * len(a) - 1
        half = 1 << (8 * nb - 1)
        bias = int.from_bytes((bytes(nb - 1) + b"\x80") * slots, "little")
        data = ((pos - neg) ** 2 + bias).to_bytes(nb * slots, "little")
        view = memoryview(data)
        return IntPoly([int.from_bytes(view[i:i + nb], "little") - half
                        for i in range(0, nb * slots, nb)])

    def __call__(self, p: Fraction) -> Fraction:
        return eval_rational(self, p)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


P = IntPoly([0, 1])


@lru_cache(maxsize=2)
def _power_weights(num: int, den: int, n: int) -> tuple[int, ...]:
    """num^i den^(n-i) for i = 0..n: den^n a(num/den) is the dot product of
    a's coefficients with them, for any a of degree n."""
    nums = [1]
    dens = [1]
    for _ in range(n):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    return tuple(map(mul, nums, reversed(dens)))


def eval_rational(a: IntPoly, p: Fraction) -> Fraction:
    """Exact value a(p) at a rational point: den^n a(num/den) as a dot product
    of the coefficients with cached power weights (n = deg a), then one
    `Fraction` (one gcd) for the result."""
    num, den = p.numerator, p.denominator
    n = max(a.degree, 0)
    return Fraction(sum(map(mul, a.coeffs, _power_weights(num, den, n))), den ** n)


@lru_cache(maxsize=2)
def integration_weights(length: int) -> tuple[int, tuple[int, ...]]:
    """lcm(1..length) and its quotients by 1..length: integrating
    coefficients 0..length-1 over [0, 1] is a dot product with the quotients
    over the lcm.  At length 2^m + 1 the quotients are the root moments of
    `synthesis.average_numerators`, and about 2^m times smaller than the
    channel table whose rows they integrate.  Only the last two lengths are
    kept: the rows of m = 13 alone take 13.1 MB."""
    denom = lcm(*range(1, length + 1))
    return denom, tuple(denom // (i + 1) for i in range(length))


def integrate01(a: IntPoly) -> Fraction:
    """Exact integral of a over [0, 1]: sum of coeff[i] / (i + 1)."""
    if a.is_zero():
        return Fraction(0)
    denom, weights = integration_weights(len(a.coeffs))
    return Fraction(sum(map(mul, a.coeffs, weights)), denom)


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


def _power_from_counts(counts: Sequence[int]) -> IntPoly:
    """The power-basis polynomial sum_i N_i p^i (1-p)^(n-i), n = len(counts) - 1,
    by the inverse shift-add, in additions alone: R_0 = N_0 and
    R_j = (1 - p) R_(j-1) + N_j p^j, whose coefficients are those of R_(j-1)
    with N_j appended, minus those of R_(j-1) shifted up by one; d = R_n."""
    r = [counts[0]]
    for c in counts[1:]:
        r = list(map(sub, r + [c], [0] + r))
    return IntPoly(r)


def nonneg_on_01(d: IntPoly | None, path_counts: Sequence[int] | None = None) -> bool:
    """Exact decision whether d(p) >= 0 for every p in [0, 1]; True for d = 0.

    Certificate: if the coefficients of d in the p^i (1-p)^(n-i) basis share
    a sign, so does d on (0, 1): one `min` finds nonnegative coefficients
    (all zero included), otherwise one `max` nonpositive ones.  If neither
    holds, runs of a zero counts first and b last mean d = p^a (1-p)^b f
    with f(0), f(1) != 0, and f is rebuilt from the nonzero span of the
    counts alone (`_power_from_counts`, additions only), whatever n the
    counts were taken at.  d changes sign in (0, 1) iff the odd part of f
    (`_odd_part`) has a root there, which a Sturm count finds.  With none, d
    keeps one sign on (0, 1), which near 0 is that of its first nonzero count.

    `path_counts` optionally supplies the basis coefficients of d at any
    n >= deg d; degree elevation keeps a one-signed certificate valid and
    lengthens neither zero run.  With them d is not read, and may be None.
    Without them, d is converted at n = max(deg d, 1).
    """
    if path_counts is None:
        if d is None:
            raise ValueError("nonneg_on_01 needs d or its path counts")
        path_counts = to_path_counts(d, max(d.degree, 1)).counts
    if min(path_counts) >= 0:
        return True
    if max(path_counts) <= 0:
        return False
    lo = next(i for i, c in enumerate(path_counts) if c)
    hi = len(path_counts) - next(i for i, c in enumerate(reversed(path_counts)) if c)
    odd = _odd_part(_power_from_counts(path_counts[lo:hi]).coeffs)
    crosses = len(odd) > 1 and _count_roots_open01(odd) > 0
    return not crosses and path_counts[lo] > 0


# ---------------------------------------------------------------------------
# Integer Sturm machinery.  Raw polynomials below are plain sequences of ints
# (lists, or `IntPoly.coeffs` tuples) in ascending degree order with no
# trailing zeros.
# ---------------------------------------------------------------------------


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a: list[int]) -> list[int]:
    g = reduce(gcd, a, 0) or 1
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
    """Exact quotient a / b; raises if the division leaves a remainder.

    Integer long division: by Gauss's lemma the quotient by a primitive
    divisor is integral, so every step divides exactly.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c, rem = divmod(r[k + len(b) - 1], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _odd_part(f: Sequence[int]) -> list[int]:
    """Primitive product, up to sign, of the odd-multiplicity factors of f:
    with g = gcd(f, f'), f / g holds every factor once, and the odd part of g
    those of even multiplicity."""
    f = _primitive(f)
    g = _poly_gcd(f, _derivative(f))
    return f if len(g) == 1 else _divexact(_divexact(f, g), _odd_part(g))


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


def _count_roots_open01(f: list[int]) -> int:
    """Distinct roots of square-free f in (0, 1); needs f(0) != 0, f(1) != 0."""
    chain = _sturm_chain(f)
    return _variations(c[0] for c in chain) - _variations(sum(c) for c in chain)

"""Bitmask monomials over x_0..x_{m-1}.

A monomial x^u in m variables is stored as the integer u whose bit i is the
exponent of x_i (the ring is idempotent, so exponents are 0/1).  Bit 0 is the
least significant bit.  The same bitmask names the synthetic channel obtained
by applying one polarization step per bit, so `Monomial` doubles as a channel
label throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

MAX_M = 16


def check_m(m: int) -> None:
    """Refuse a stage count before any work: m must be in 1..MAX_M, the
    largest label width.  What an m costs is the caller's to weigh."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial in m binary variables, encoded as an m-bit mask."""

    m: int
    bits: int

    def __post_init__(self) -> None:
        check_m(self.m)
        if not 0 <= self.bits < (1 << self.m):
            raise ValueError(f"bits {self.bits} out of range for m={self.m}")

    @property
    def degree(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        """Sorted indices of the variables dividing this monomial."""
        return list(_support(self.bits))

    def complement(self) -> "Monomial":
        """Flip every exponent; satisfies u + u_bar = 2^m - 1."""
        return Monomial(self.m, self.bits ^ ((1 << self.m) - 1))

    def divides(self, other: "Monomial") -> bool:
        """True iff every variable of self appears in other."""
        _check_same_m(self, other)
        return self.bits & other.bits == self.bits

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_same_m(self, other)
        return Monomial(self.m, self.bits | other.bits)

    def __str__(self) -> str:
        return monomial_text(self.bits)


def monomial_text(bits: int) -> str:
    """The monomial of a mask as text, its variables ascending: x0*x2 for 5,
    and 1 for the empty mask."""
    return "*".join([f"x{i}" for i in _support(bits)]) or "1"


@cache
def _support(bits: int) -> tuple[int, ...]:
    """Sorted indices of the set bits of a mask, kept per mask (at most
    2^MAX_M of them)."""
    return tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1)


@cache
def _support_desc(bits: int) -> tuple[int, ...]:
    """The support listed largest index first, kept per mask: the key of the
    standard order, which reads the supports of the same few labels again
    and again."""
    return _support(bits)[::-1]


@cache
def _support_sums(bits: int) -> tuple[int, ...]:
    """Running sums of `_support_desc`, kept per mask: entry l - 1 is the sum
    of the l largest indices, the key of the dominance order."""
    return tuple(accumulate(_support_desc(bits)))


def _check_same_m(f: Monomial, g: Monomial) -> None:
    if f.m != g.m:
        raise ValueError(f"variable counts differ: {f.m} != {g.m}")


def all_monomials(m: int) -> list[Monomial]:
    """Every monomial in m variables, ascending by integer label."""
    return [Monomial(m, u) for u in range(1 << m)]

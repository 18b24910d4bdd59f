"""Shared fixtures: channel tables and average reliabilities are expensive at
large m, so they are built once per session and shared across test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from becpolar import checks, construction, orders, synthesis
from becpolar.monomials import Monomial, all_monomials


def named(name: str) -> checks.Check:
    """The registered check called `name`."""
    for check in checks.REGISTRY:
        if check.name == name:
            return check
    raise KeyError(name)


def _excess(inner_first: list[int], x: int, j: int) -> int:
    """An integer with the sign of Z(x / 2^j) - 1/2, Z taking one step per
    bit, the first bit innermost.  With z = N / 2^E from N = x and E = j, a
    0-bit maps N to N^2 and a 1-bit (2z - z^2) maps N to 2^(E+1) N - N^2,
    and E doubles at every step."""
    n, e = x, j
    for bit in inner_first:
        sq = n * n
        n = (n << (e + 1)) - sq if bit else sq
        e *= 2
    return 2 * n - (1 << e)


def _label_bisection(u: Monomial, tol) -> Fraction:
    """Slow exact twin of `synthesis.channel_threshold`: dyadic bisection for
    Z_u(t) = 1/2 to within +/- tol, each step running the label's recursion
    on the midpoint (`_excess`).  The bracket [lo, lo + 1] / 2^j is kept as
    the integer lo and halved until its width 2^-j is at most 2 tol; the
    result is the midpoint of the last bracket.  No midpoint is ever the
    root, which is irrational."""
    inner_first = [(u.bits >> i) & 1 for i in range(u.m - 1, -1, -1)]
    lo, j = 0, 0
    while Fraction(1, 1 << j) > 2 * tol:
        j += 1
        lo *= 2
        v = _excess(inner_first, lo + 1, j)
        assert v != 0, (u, lo + 1, j)
        if v < 0:
            lo += 1
    return Fraction(2 * lo + 1, 1 << (j + 1))


class ChannelCache:
    def __init__(self) -> None:
        self._tables: dict[int, synthesis.ChannelTable] = {}
        self._avrs: dict[int, list[Fraction]] = {}
        self._by_average: dict[int, construction.RankedChannels] = {}
        self._pointwise: dict[int, dict[tuple[int, int], orders.OrderVerdict]] = {}

    def table(self, m: int) -> synthesis.ChannelTable:
        if m not in self._tables:
            self._tables[m] = synthesis.synth_all(m)
        return self._tables[m]

    def check(self, name: str, m: int) -> str | None:
        """Failure detail of the registered check `name` at m, None if it passes."""
        return named(name).run(m, self.table(m))

    def avrs(self, m: int) -> list[Fraction]:
        if m not in self._avrs:
            table = self.table(m)
            self._avrs[m] = [table.avr(u) for u in range(1 << m)]
        return self._avrs[m]

    def by_average(self, m: int) -> construction.RankedChannels:
        """`rank` by average of m, ranked once per session: at m = 11 it
        takes a few tenths of a second."""
        if m not in self._by_average:
            self._by_average[m] = construction.rank(construction.Criterion.average(), m)
        return self._by_average[m]

    def pointwise(self, m: int) -> dict[tuple[int, int], orders.OrderVerdict]:
        """`compare(f, g, Relation.POINTWISE, table)` of every ordered label
        pair (u, v) of m, scanned once per session: at m = 6 one scan takes
        seconds, and several tests hold it against their own twins."""
        if m not in self._pointwise:
            table, monos = self.table(m), all_monomials(m)
            self._pointwise[m] = {
                (f.bits, g.bits): orders.compare(f, g, orders.Relation.POINTWISE, table)
                for f in monos for g in monos}
        return self._pointwise[m]


@pytest.fixture(scope="session")
def cache() -> ChannelCache:
    return ChannelCache()

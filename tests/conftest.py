"""Shared fixtures: channel tables and average reliabilities are expensive at
large m, so they are built once per session and shared across test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from becpolar import checks, orders, synthesis
from becpolar.monomials import all_monomials


def named(name: str) -> checks.Check:
    """The registered check called `name`."""
    for check in checks.REGISTRY:
        if check.name == name:
            return check
    raise KeyError(name)


class ChannelCache:
    def __init__(self) -> None:
        self._tables: dict[int, synthesis.ChannelTable] = {}
        self._avrs: dict[int, list[Fraction]] = {}
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

"""Shared fixtures: channel tables and average reliabilities are expensive at
large m, so they are built once per session and shared across test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from becpolar import checks, synthesis


class ChannelCache:
    def __init__(self) -> None:
        self._tables: dict[int, synthesis.ChannelTable] = {}
        self._avrs: dict[int, list[Fraction]] = {}

    def table(self, m: int) -> synthesis.ChannelTable:
        if m not in self._tables:
            self._tables[m] = synthesis.synth_all(m)
        return self._tables[m]

    def check(self, name: str, m: int) -> str | None:
        """Failure detail of the registered check `name` at m, None if it passes."""
        return checks.named(name).run(m, self.table(m))

    def avrs(self, m: int) -> list[Fraction]:
        if m not in self._avrs:
            table = self.table(m)
            self._avrs[m] = [table.avr(u) for u in range(1 << m)]
        return self._avrs[m]


@pytest.fixture(scope="session")
def cache() -> ChannelCache:
    return ChannelCache()

"""Span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of the becpolar modules in each
module namespace that binds it.  `construction` and `synthesis` import
`eval_rational`, `integrate01` and `synth_all` by name, so patching the
defining module alone would miss their calls.  A span is named after the
function's defining module (`polynomials.eval_rational`), whichever namespace
the call went through.  `monomials` gets no span: its constructors run inside
every other layer, so their cost shows in the callers' self time, as does the
cost of class methods such as `IntPoly.square`.  Functions reached through a
private table (`orders._LEQ`) are not wrapped either.

Spans of one task are kept as [name, start, end, parent, note] records and
folded into per-name totals when the task ends, so memory holds one task's
spans at a time.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

from checks import path_counts_share_sign

PACKAGE = "becpolar"
UNTRACED = {"becpolar.monomials"}


def _note_path_counts(args, kwargs, result):
    return path_counts_share_sign(result.counts)


def _note_nonneg(args, kwargs, result):
    """Certified when the supplied path counts share a sign; None when the
    call converts d itself (its `to_path_counts` child then decides)."""
    counts = args[1] if len(args) > 1 else kwargs.get("path_counts")
    return None if counts is None else path_counts_share_sign(counts)


class Tracer:
    """Wraps becpolar's public functions and accumulates per-span totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        # name -> [calls, outermost inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.sign_decisions = 0
        self.certified = 0
        self.largest_table = None
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._notes = {
            "polynomials.to_path_counts": _note_path_counts,
            "polynomials.nonneg_on_01": _note_nonneg,
            "synthesis.synth_all": self._keep_table,
        }

    def _keep_table(self, args, kwargs, result):
        if self.largest_table is None or result.m > self.largest_table.m:
            self.largest_table = result

    def _wrap(self, fn, name: str):
        note = self._notes.get(name)

        def traced(*args, **kwargs):
            spans = self.spans
            record = [name, 0.0, 0.0, self.current, None]
            self.current = len(spans)
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.current = record[3]
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith(PACKAGE + ".") or home in UNTRACED:
                    continue
                if value not in wrappers:
                    name = f"{home[len(PACKAGE) + 1:]}.{value.__name__}"
                    wrappers[value] = self._wrap(value, name)
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def end_task(self) -> None:
        """Fold the finished task's spans into the totals and drop them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        child_certified: dict[int, bool] = {}
        for i in range(len(spans) - 1, -1, -1):  # children close before parents
            name, start, end, parent, note = spans[i]
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
                if name == "polynomials.to_path_counts":
                    child_certified[parent] = note
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[2] += duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost span of this name
                total[1] += duration
            if name == "polynomials.nonneg_on_01":
                self.sign_decisions += 1
                certified = note if note is not None else child_certified.get(i, True)
                self.certified += bool(certified)
        spans.clear()
        self.current = -1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, layer: str) -> float:
        """Summed self time of every span of one module."""
        return sum((t[2] for name, t in self.totals.items()
                    if name.split(".", 1)[0] == layer), 0.0)

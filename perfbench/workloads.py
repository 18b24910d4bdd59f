"""The benchmark's four workloads.

Each workload turns the seed into cycles of tasks.  A cycle has a fixed mix
(the seed picks the values and the order inside it), and the timed phase runs
whole cycles, so the work per second does not depend on the seed or on where
the time ran out.  becpolar sees only the generated argv or labels: CLI tasks
call `becpolar.cli.main(argv)` in-process with stdout captured, and `pairs`
calls `becpolar.orders.compare` as a library user would.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from becpolar import cli, orders, synthesis
from becpolar.monomials import Monomial

import checks


def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


@dataclass
class State:
    """A workload's inputs for one seed: cycles are generated on demand."""

    seed: int
    workload: "Workload"
    table: synthesis.ChannelTable | None = None
    monos: list[Monomial] = field(default_factory=list)
    _cycles: dict[int, list] = field(default_factory=dict)

    def cycle(self, index: int) -> list:
        if index not in self._cycles:
            rng = random.Random(f"{self.workload.name}:{self.seed}:{index}")
            self._cycles[index] = self.workload.make_cycle(rng, self)
        return self._cycles[index]


class Workload:
    """Inputs, task execution, output checks and reported properties."""

    name = ""
    why = ""

    def setup(self, seed: int) -> State:
        state = State(seed, self)
        state.cycle(0)
        return state

    def make_cycle(self, rng: random.Random, state: State) -> list:
        raise NotImplementedError

    def run(self, state: State, task):
        return run_cli(task)

    def check(self, state: State, tasks: list, outputs: list,
              twins: checks.Twins) -> list[str | None]:
        """One failure reason per task, None where the output is right.
        Identical output for an identical task is checked once."""
        verdicts: dict[tuple, str | None] = {}
        reasons = []
        for task, output in zip(tasks, outputs):
            if output is None:  # the task raised; the runner keeps its traceback
                reasons.append("no output")
                continue
            key = (task, output)
            if key not in verdicts:
                try:
                    self.check_one(task, output, twins)
                    verdicts[key] = None
                except checks.CheckError as exc:
                    verdicts[key] = str(exc)
            reasons.append(verdicts[key])
        return reasons

    def check_one(self, task, output, twins: checks.Twins) -> None:
        raise NotImplementedError

    def properties(self, state: State, tasks: list, twins: checks.Twins) -> dict:
        return {"mix": dict(sorted(Counter(" ".join(t[:3]) for t in tasks).items()))}


class Tables(Workload):
    name = "tables"
    why = ("distribution and avrplot at m = 8, 9: synthesis and exact integration, "
           "no rational evaluation and no sign decision")
    SMALL, LARGE = 8, 9
    COMMANDS = {"distribution": (), "avrplot": ("--out", "-")}

    def make_cycle(self, rng, state):
        # each command three times at m = 8 and once at m = 9: the m = 9
        # tasks take most of the time, and the median latency falls well
        # inside the cluster of many short m = 8 tasks, not between clusters
        tasks = [(command, "--m", str(m)) + extra
                 for command, extra in sorted(self.COMMANDS.items())
                 for m in (self.SMALL,) * 3 + (self.LARGE,)]
        rng.shuffle(tasks)
        return tasks

    def check_one(self, task, output, twins):
        rc, text = output
        if task[0] == "distribution":
            checks.check_distribution(rc, text, int(task[2]))
        else:
            checks.check_avrplot(rc, text, int(task[2]))


class Rank(Workload):
    name = "rank"
    why = ("rank --m 8 by p=a/b, avr or beta with k in the tens: exact Fraction "
           "evaluation and threshold bisection")
    M = 8
    KS = (10, 11, 12)  # close, so each criterion's latencies form one cluster

    def make_cycle(self, rng, state):
        b = rng.randint(2, 9)
        a = rng.choice([a for a in range(1, b) if gcd(a, b) == 1])
        beta = rng.randint(101, 199)
        criteria = [f"p={a}/{b}", "avr", f"beta={beta // 100}.{beta % 100:02d}"]
        tasks = [("rank", "--m", str(self.M), "--by", by, "--k", str(k), "--format", "json")
                 for by, k in zip(criteria, rng.sample(self.KS, len(self.KS)))]
        rng.shuffle(tasks)
        return tasks

    def check_one(self, task, output, twins):
        rc, text = output
        checks.check_rank(rc, text, int(task[2]), task[4], int(task[6]), twins)

    def properties(self, state, tasks, twins):
        kinds = Counter(t[4].split("=")[0] for t in tasks)
        return {"criterion mix": dict(sorted(kinds.items())),
                "mean k": sum(int(t[6]) for t in tasks) / max(len(tasks), 1)}


class Pairs(Workload):
    name = "pairs"
    why = ("all 2016 label pairs at m = 6 under the four orders: path-count "
           "certificates, square-free and Sturm sign decisions")
    M = 6
    RELATIONS = (orders.Relation.WEAK, orders.Relation.STANDARD,
                 orders.Relation.DOMINANCE, orders.Relation.POINTWISE)

    def setup(self, seed):
        state = State(seed, self, table=synthesis.synth_all(self.M),
                      monos=[Monomial(self.M, u) for u in range(1 << self.M)])
        state.cycle(0)
        return state

    def make_cycle(self, rng, state):
        n = 1 << self.M
        tasks = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(tasks)
        return tasks

    def run(self, state, task):
        f, g = state.monos[task[0]], state.monos[task[1]]
        return tuple(orders.compare(f, g, r, state.table).result.value
                     for r in self.RELATIONS)

    def check_one(self, task, output, twins):
        checks.check_pair(task[0], task[1], output, self.M, twins)

    def check(self, state, tasks, outputs, twins):
        reasons = super().check(state, tasks, outputs, twins)
        seen: dict[tuple[int, int], set] = {}
        for task, output in zip(tasks, outputs):
            if output is not None:
                seen.setdefault(task, set()).add(output)
        incomparable = {t for t, outs in seen.items()
                        if len(outs) == 1 and next(iter(outs))[3] == checks.INCOMPARABLE}
        open_pairs = checks.check_complement_closure(incomparable, self.M)
        for i, task in enumerate(tasks):
            if reasons[i] is None and len(seen.get(task, ())) > 1:
                reasons[i] = f"verdicts for {task} differ between passes"
            elif reasons[i] is None and task in open_pairs:
                reasons[i] = f"{task} is incomparable but its complement pair is not"
        return reasons

    def properties(self, state, tasks, twins):
        counts = twins.counts(self.M)
        pairs = set(tasks)
        certified = sum(
            checks.path_counts_share_sign([b - a for a, b in zip(counts[u], counts[v])])
            for u, v in pairs)
        return {"distinct pairs": len(pairs),
                "certificate share": certified / max(len(pairs), 1)}


class Verify(Workload):
    name = "verify"
    why = ("verify --m 7 for each suite plus synth --m 7: the oracles, bulk "
           "path-count conversion and dual_poly")
    M = 7
    # runs of each suite per cycle: `identities` is the middle task by
    # latency, so three of it put the median inside a cluster of them
    SUITES = {"orders": 1, "reliability": 1, "identities": 3, "tables": 1}

    def make_cycle(self, rng, state):
        m = str(self.M)
        tasks = [("verify", "--m", m, "--suite", s)
                 for s, runs in self.SUITES.items() for _ in range(runs)]
        tasks.append(("synth", "--m", m, "--format", "json"))
        rng.shuffle(tasks)
        return tasks

    def check_one(self, task, output, twins):
        rc, text = output
        if task[0] == "synth":
            checks.check_synth(rc, text, self.M, twins)
        else:
            checks.check_verify(rc, text)

    def properties(self, state, tasks, twins):
        return {"mix": dict(sorted(Counter(t[-1] if t[0] == "verify" else "synth"
                                           for t in tasks).items()))}


WORKLOADS = {w.name: w for w in (Tables(), Rank(), Pairs(), Verify())}

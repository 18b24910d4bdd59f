"""becpolar benchmark runner.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one client, one thread: a closed loop runs whole cycles of tasks
(see workloads.py) until about `--seconds` have passed, timing each task.
Nothing queues, so there is no waiting-time metric.  After the timed phase
every output is checked against an exact twin (checks.py); a failed check
counts in `failed_frac` and does not stop the run.  `--workload all` runs
each workload in its own process and prints every report.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics.  With `--trace 1` every cycle runs twice, untraced and
traced (spans.py), in alternating order: the JSON then holds the per-layer
metrics of the traced cycles, and `trace_overhead_frac` compares the task
time of the traced and untraced runs of the same cycles.

Every time below is in seconds at the idle host's speed: a fixed reference
computation is timed in bursts between tasks and, on a timer, inside them,
and each stretch of measured time between two bursts is scaled by the
reference time on either side of it (speed.py).  The
shared host this runs on changes speed by up to 1.6x, in phases of a fraction
of a second to minutes; unscaled, that swamps the program's own changes.

End-to-end metrics (human report above the JSON line carries sample counts):
  setup_s      median over SETUP_SAMPLES fresh processes of the time from
               process start to the first task ready: import, inputs from the
               seed, and any table the workload takes as input
  tasks_per_s  tasks with a correct output per second of task time
  task_p50_s   median task latency
  peak_rss_mb  ru_maxrss of this process after the timed phase
Reported but not gated (failed_frac is 0 when the program is right, and the
tail has enough samples only on `pairs`):
  failed_frac  tasks that raised or failed their check, over tasks attempted
  task_tail_s  highest percentile with ten samples beyond it, when >= p90
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
WORKLOAD_NAMES = ("tables", "rank", "pairs", "verify")
END_TO_END = {"tasks_per_s": "1/s", "task_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "synthesis.synth_all.s": "s",
    "synthesis.synth_all.calls": "count",
    "synthesis.table_coeff_bits": "bit",
    "synthesis.threshold_estimate.s": "s",
    "synthesis.threshold_estimate.calls": "count",
    "synthesis.dual_poly.s": "s",
    "polynomials.eval_rational.s": "s",
    "polynomials.eval_rational.calls": "count",
    "polynomials.integrate01.s": "s",
    "polynomials.integrate01.calls": "count",
    "polynomials.to_path_counts.s": "s",
    "polynomials.to_path_counts.calls": "count",
    "polynomials.nonneg_on_01.s": "s",
    "polynomials.nonneg_on_01.calls": "count",
    "polynomials.nonneg_on_01.certified_frac": "fraction",
    "orders.compare.s": "s",
    "orders.compare.calls": "count",
    "orders.leq_pointwise.s": "s",
    "orders.leq_pointwise.calls": "count",
    "orders.sign_decisions_per_pointwise": "ratio",
    "construction.rank.s": "s",
    "construction.rank.calls": "count",
    "construction.avr_distribution.s": "s",
    "construction.beta_incompatible_count.s": "s",
    "reliability.oracle_path_counts.s": "s",
    "reliability.ni_inclusion_exclusion.s": "s",
    "reliability.avr_closed_form.s": "s",
    "cli.main.self_s": "s",
    "synthesis.self_s": "s",
    "polynomials.self_s": "s",
    "orders.self_s": "s",
    "construction.self_s": "s",
    "reliability.self_s": "s",
    "trace_overhead_frac": "fraction",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import becpolar from this checkout's src/, never from elsewhere."""
    if not (SRC / "becpolar" / "__init__.py").is_file():
        raise ImportError(f"no becpolar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import becpolar
    if Path(becpolar.__file__).resolve().parent != SRC / "becpolar":
        raise ImportError(f"imported becpolar from {becpolar.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Time fresh processes from spawn until their first task is ready,
    with a host-speed sample before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    speed = Speed()
    spans = []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            spans.append((start, perf_counter()))
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
    speed.sample()
    return [speed.scaled(start, end) for start, end in spans]


@dataclass
class Phase:
    """Tasks run with tracing either off or on, in run order."""

    tasks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # filled in by `scale`
    wall: float = 0.0
    cycles: int = 0

    def run_cycle(self, workload, state, index: int, speed: Speed, tracer=None) -> None:
        cycle = state.cycle(index)  # generated outside the clock
        # traced cycles take bursts between tasks only, so their spans hold none
        probing = speed.probing() if tracer is None else contextlib.nullcontext()
        start = perf_counter()
        with probing:
            for task in cycle:
                speed.sample_if_due()
                t0 = perf_counter()
                try:
                    output, error = workload.run(state, task), None
                except Exception:  # a failing task is counted, the run goes on
                    output, error = None, traceback.format_exc(limit=-3)
                self.spans.append((t0, perf_counter()))
                if tracer is not None:
                    tracer.end_task()
                self.tasks.append(task)
                self.outputs.append(output)
                self.errors.append(error)
        self.wall += perf_counter() - start
        self.cycles += 1

    def scale(self, speed: Speed) -> None:
        """Task latencies at the idle host's speed."""
        self.latencies = [speed.scaled(start, end) for start, end in self.spans]


def timed_phase(workload, state, seconds: float, tracer=None) -> tuple[Phase, Phase, Speed]:
    """Run whole cycles until the nearest cycle boundary to `seconds`.

    With a tracer, every cycle runs twice, untraced and traced, in alternating
    order, so both see the same inputs and the same machine conditions."""
    plain, traced = Phase(), Phase()
    speed = Speed()
    index = 0
    elapsed = 0.0
    while index == 0 or elapsed + elapsed / index / 2 < seconds:
        if tracer is None:
            plain.run_cycle(workload, state, index, speed)
        else:
            for trace_on in (False, True) if index % 2 == 0 else (True, False):
                if trace_on:
                    tracer.install()
                    try:
                        traced.run_cycle(workload, state, index, speed, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    plain.run_cycle(workload, state, index, speed)
        index += 1
        elapsed = plain.wall + traced.wall
    speed.sample()
    plain.scale(speed)
    traced.scale(speed)
    return plain, traced, speed


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond
    it, or None below p90."""
    n = len(latencies)
    if n < 100:
        return None
    return 100 * (n - 10) / n, sorted(latencies)[n - 11]


def table_coeff_bits(table) -> int:
    return sum(c.bit_length() for poly in table.polys for c in poly.coeffs)


def layer_metrics(tracer, state, overhead: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = tracer.calls(name[:-len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = tracer.self_seconds(name.split(".", 1)[0])
        elif name.endswith(".s"):
            values[name] = tracer.seconds(name[:-len(".s")])
    tables = [t for t in (tracer.largest_table, state.table) if t is not None]
    values["synthesis.table_coeff_bits"] = (
        table_coeff_bits(max(tables, key=lambda t: t.m)) if tables else 0)
    values["polynomials.nonneg_on_01.certified_frac"] = (
        tracer.certified / tracer.sign_decisions if tracer.sign_decisions else 0.0)
    pointwise = tracer.calls("orders.leq_pointwise")
    values["orders.sign_decisions_per_pointwise"] = (
        tracer.calls("polynomials.nonneg_on_01") / pointwise if pointwise else 0.0)
    values["trace_overhead_frac"] = overhead
    return values


def run(args: argparse.Namespace) -> int:
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_samples = measure_setup(args)

    import checks
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    plain, traced, speed = timed_phase(workload, state, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tasks, outputs, latencies, errors = (a + b for a, b in zip(
        (plain.tasks, plain.outputs, plain.latencies, plain.errors),
        (traced.tasks, traced.outputs, traced.latencies, traced.errors)))
    wall, cycles = plain.wall + traced.wall, plain.cycles + traced.cycles
    task_time = sum(latencies)

    twins = checks.Twins()
    reasons = workload.check(state, tasks, outputs, twins)
    reasons = [error or reason for error, reason in zip(errors, reasons)]
    failures = [(task, reason) for task, reason in zip(tasks, reasons) if reason]
    attempted, failed = len(tasks), len(failures)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {workload.why}")
    print(f"  properties: {workload.properties(state, tasks, twins)}")
    for task, reason in failures[:5]:
        print(f"  FAILED {task}: {reason.strip().splitlines()[-1]}")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "tasks_per_s": (attempted - failed) / task_time,
        "task_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setup_samples)} set-ups")
    print(f"  tasks_per_s  {metrics['tasks_per_s']:.4f} 1/s  {attempted - failed} correct "
          f"tasks in {task_time:.2f} s ({cycles} cycles, {wall:.2f} s of wall time)")
    print(f"  task_p50_s   {metrics['task_p50_s']:.6f} s    n={attempted}")
    tail_at = tail(latencies)
    if tail_at:
        print(f"  task_tail_s  {tail_at[1]:.6f} s    p{tail_at[0]:.2f}, n={attempted}, "
              "10 beyond")
    else:
        print(f"  task_tail_s  omitted     n={attempted}: fewer than ten samples beyond p90")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  host speed   reference {1000 * statistics.median(speed.seconds):.2f} ms median "
          f"of {len(speed.seconds)} bursts (idle {1000 * NOMINAL_S:.2f} ms)")
    print(f"  failed_frac  {failed / attempted:.4f}      {failed}/{attempted}")

    if args.trace:
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1
        values = layer_metrics(tracer, state, overhead)
        print(f"  traced cycles {traced.wall:.2f} s, {len(traced.tasks)} tasks "
              f"({traced.cycles} cycles); per-layer seconds below are over them")
        for name, value in values.items():
            print(f"  {name:42s} {value:.6g} {PER_LAYER[name]}")
        reported = {name: {"value": value, "unit": PER_LAYER[name]}
                    for name, value in values.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary.append((name, result))
    for name, result in summary:
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items()))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

"""The linkrev benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/bench.py --workload chain-void --seed 1 --seconds 24 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 24

Everything runs in one process with no threads.  The package is imported
from the ``src`` directory next to this one; without it the command exits
with code 2 and prints no result.

A run:

1. sets up at least ``SETUP_REPEATS`` times and for at least
   ``SETUP_SECONDS`` (a fresh import of the package plus building the
   workload's inputs) and reports the median as ``setup_s``;
2. runs one warm-up operation, untimed;
3. repeats whole passes over the workload's operations until ``--seconds``
   have gone by, timing a fixed calibration loop between operations.  Two
   counters on coarse public calls (``Simulation.step`` and
   ``enumerate_all_schedules``) record the work done;
4. with ``--trace 0``, reruns under tracemalloc the ``MEMORY_OPS``
   operations of the first pass that did the most work (steps plus
   transitions; a run's memory grows with its work), because tracemalloc
   slows these workloads 4-5x, and reports the end-to-end metrics;
5. with ``--trace 1``, builds the inputs again and makes one more pass with
   every layer wrapped (see tracer.py), and reports the per-layer metrics
   of that traced build and pass.  No end-to-end metric comes from it.

Times are reported at the reference speed: every operation's time is
scaled by ``REFERENCE_SECONDS`` over the median time of the
``CALIBRATION_WINDOW`` samples nearest to it of a fixed calibration loop,
timed every ``CALIBRATION_INTERVAL`` seconds between operations.  On a
shared 2-vCPU Xeon VM the CPU's speed was seen to drop by a third to a
half for seconds to minutes at a time, which no number of passes in one
run can average out; the calibration loop slows down with it, and it is
the benchmark's own code, so no change to the package moves it.  Scaling
each operation by the speed measured around it, rather than the whole run
by its median speed, cut the spread of scaled times between runs by about
a fifth there.  The raw seconds and the scales are printed next to the
scaled times.

Every operation's output is checked (see workloads.py).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import heapq
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

from tracer import Target, Tracer, median_or_zero
from workloads import LADDER, OK, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
MEMORY_OPS = 3
#: Seconds the calibration loop takes at the reference speed: its median
#: time in a quiet spell on the 2-vCPU Xeon VM this benchmark was defined on.
REFERENCE_SECONDS = 0.026
CALIBRATION_INTERVAL = 0.5
CALIBRATION_WINDOW = 7
#: op_ms_tail is the highest of these with at least ten ops of a pass beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "work_per_s": "1/s",
    "peak_mem_mb": "MB",
    "ok_share": "ratio",
}


# --- work counters and layer targets ----------------------------------------


def _observe_step(tracer: Tracer, args: tuple, record, seconds: float | None) -> None:
    tracer.facts["steps"] += 1
    tracer.facts["updates"] += len(record.updated)
    tracer.facts["reversals"] += len(record.reversed_edges)
    if seconds is not None:
        tracer.samples["step"].append(seconds)
        tracer.samples[f"step.n{args[0].n}"].append(seconds)


def _observe_enumeration(tracer: Tracer, args: tuple, result, seconds: float | None) -> None:
    tracer.facts["states_explored"] += result.states_explored
    tracer.facts["transitions"] += result.transitions


def _observe_generated(tracer: Tracer, args: tuple, result, seconds: float | None) -> None:
    tracer.facts["generate.scenarios"] += 1


def _observe_exhaustive(tracer: Tracer, args: tuple, item, seconds: float | None) -> None:
    if item is None:  # the enumeration ran through every edge mask
        n = args[0]
        tracer.facts["generate.masks"] += 2 ** (n * (n + 1) // 2)
    else:
        tracer.facts["generate.scenarios"] += 1
        tracer.facts["generate.void_scenarios"] += 1


def _observe_jsonl(tracer: Tracer, args: tuple, text: str, seconds: float | None) -> None:
    tracer.facts["jsonl_bytes"] += len(text.encode("utf-8"))


WORK_TARGETS = (
    Target("sim", "Simulation.step", "count", _observe_step),
    Target("verify", "enumerate_all_schedules", "count", _observe_enumeration),
)

LAYER_TARGETS = (
    Target("scenario", "Scenario.create"),
    Target("generate", "random_void_scenario", observe=_observe_generated),
    Target("generate", "random_partition_scenario", observe=_observe_generated),
    Target("generate", "exhaustive_void_scenarios", "generator", _observe_exhaustive),
    Target("model", "routing_dag"),
    Target("model", "orientation_flips"),
    Target("model", "stuck_set"),
    Target("model", "link_points_from", "count"),
    Target("model", "is_destination_oriented", "count"),
    Target("schemes", "apply_update"),
    Target("schemes", "initial_states"),
    Target("sim", "run_scenario"),
    Target("sim", "Simulation.__init__"),
    Target("sim", "Simulation.run"),
    Target("sim", "Simulation.step", observe=_observe_step),
    Target("sim", "Simulation.stuck_nodes"),
    Target("sim", "Simulation.apply_event"),
    Target("sim", "Simulation.awake_topology"),
    Target("sim", "hello_round", "count"),
    Target("traceio", "trace_to_jsonl", observe=_observe_jsonl),
    Target("verify", "standard_battery"),
    Target("verify", "check_step_invariants"),
    Target("verify", "check_reversal_semantics"),
    Target("verify", "check_initial_greedy_stability"),
    Target("verify", "check_determinism"),
    Target("verify", "check_scheme_equivalence"),
    Target("verify", "check_order_invariance"),
    Target("verify", "enumerate_all_schedules", observe=_observe_enumeration),
)


# --- calibration --------------------------------------------------------------


def calibration_loop() -> None:
    """Fixed interpreter work: dict, tuple, str and sort, as the package does."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(50_000):
        key = (i, i * 7 % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    sorted(counts.items())


class Calibration:
    """Times the calibration loop whenever ``CALIBRATION_INTERVAL`` has passed."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each sample, increasing
        self.samples: list[float] = []
        self.last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL:
            start = time.perf_counter()
            calibration_loop()
            self.last = time.perf_counter()
            self.at.append((start + self.last) / 2)
            self.samples.append(self.last - start)

    def scale_at(self, moment: float) -> float:
        """Reference speed over the speed measured nearest to ``moment``."""
        i = bisect.bisect(self.at, moment)
        lo = max(0, min(i - CALIBRATION_WINDOW // 2, len(self.samples) - CALIBRATION_WINDOW))
        return REFERENCE_SECONDS / statistics.median(self.samples[lo:lo + CALIBRATION_WINDOW])

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, seconds)`` span's seconds at the reference speed."""
        return [seconds * self.scale_at(start + seconds / 2) for start, seconds in spans]


# --- set-up -------------------------------------------------------------------


class LibraryMissing(Exception):
    pass


def import_library() -> ModuleType:
    """Import the package afresh from the checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "linkrev" or m.startswith("linkrev.")]:
        del sys.modules[name]
    try:
        lib = importlib.import_module("linkrev")
        importlib.import_module("linkrev.generate")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import linkrev from {SRC}: {exc}") from None
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"linkrev was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: Workload, seed: int, tiny: bool) -> tuple[ModuleType, object, float]:
    start = time.perf_counter()
    lib = import_library()
    inputs = workload.build(lib, seed, tiny)
    return lib, inputs, time.perf_counter() - start


# --- passes -------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    #: (start, seconds) of each op, then of the input generation before it.
    spans: list[tuple[float, float]] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    heaviest: list = field(default_factory=list)  # heap of (work, key, -seq, op)
    notes: Counter = field(default_factory=Counter)
    error: str | None = None

    @property
    def failed(self) -> int:
        return sum(count for (outcome, _), count in self.outcomes.items() if outcome != OK)


def outcome_of(op: Op) -> tuple[str, object]:
    try:
        result = op.run()
    except Exception as exc:  # a crash is an outcome to count, not a benchmark error
        return f"crash: {type(exc).__name__}", None
    return "", result


def record(pass_: Pass, op: Op, outcome: str, result: object) -> None:
    if not outcome:
        outcome = op.check(result, pass_.notes)
    pass_.outcomes[(outcome, op.key.rpartition("/")[2])] += 1


def work_done(work: Tracer) -> float:
    return work.facts["steps"] + work.facts["transitions"]


def run_pass(
    workload: Workload, lib: ModuleType, inputs, work: Tracer,
    calibration: Calibration | None = None,
) -> Pass:
    """One pass over every operation.

    The pass's wall time is the program's time: each operation plus the
    lazy input generation before it.  The benchmark's own checks of the
    outputs are not counted.
    """
    pass_ = Pass()
    ops = workload.ops(lib, inputs)
    seq = 0
    while True:
        t0 = time.perf_counter()
        try:
            op = next(ops, None)
        except Exception as exc:
            pass_.error = f"{type(exc).__name__}: {exc}"
            break
        if op is None:
            break
        before = work_done(work)
        t1 = time.perf_counter()
        outcome, result = outcome_of(op)
        t2 = time.perf_counter()
        pass_.wall += t2 - t0
        pass_.op_seconds.append(t2 - t1)
        pass_.spans.append((t1, t2 - t1))
        pass_.spans.append((t0, t1 - t0))
        seq += 1
        # Ties in work go by key, so every seed's memory pass meets the same ops.
        entry = (work_done(work) - before, op.key, -seq, op)
        if len(pass_.heaviest) < MEMORY_OPS:
            heapq.heappush(pass_.heaviest, entry)
        else:
            heapq.heappushpop(pass_.heaviest, entry)
        record(pass_, op, outcome, result)
        if calibration is not None:
            calibration.tick()
    return pass_


def warm_up(workload: Workload, lib: ModuleType, inputs) -> Pass:
    pass_ = Pass()
    ops = workload.ops(lib, inputs)
    op = next(ops)
    outcome, result = outcome_of(op)
    record(pass_, op, outcome, result)
    ops.close()
    return pass_


def memory_pass(ops: list[Op]) -> tuple[int, Pass]:
    """Peak traced bytes of any one of the given operations.

    A collection before each op makes the collector's own timing, and so
    the garbage an op's peak includes, the same whatever ran before it.
    """
    pass_ = Pass()
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            outcome, result = outcome_of(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            record(pass_, op, outcome, result)
            del result
    finally:
        tracemalloc.stop()
    return peak, pass_


# --- metrics ------------------------------------------------------------------


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail_percentile(ops_per_pass: int) -> float:
    for p in TAIL_PERCENTILES:
        if ops_per_pass * (1 - p / 100) >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "generate.s":
        return "s"
    if "_us" in name:
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_step", "coverage")):
        return "ratio"
    return "count"


def layer_metrics(
    tracer: Tracer, traced_total: float, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    stats = tracer.span_stats()
    facts = tracer.facts

    def calls(label: str) -> int:
        return tracer.counts[label] if label in tracer.counts else stats.get(label, (0,))[0]

    def inclusive(label: str) -> float:
        return stats.get(label, (0, 0.0))[1]

    def own(label: str) -> float:
        return stats.get(label, (0, 0.0, 0.0))[2]

    steps = facts["steps"]
    masks = facts["generate.masks"]
    values = {
        "model.routing_dag_calls": calls("model.routing_dag"),
        "model.routing_dag_s": inclusive("model.routing_dag"),
        "model.link_points_from_calls": calls("model.link_points_from"),
        "model.orientation_flips_s": inclusive("model.orientation_flips"),
        "model.is_destination_oriented_calls": calls("model.is_destination_oriented"),
        "sim.init_s": inclusive("sim.Simulation.__init__"),
        "sim.stuck_nodes_calls": calls("sim.Simulation.stuck_nodes"),
        "sim.stuck_nodes_self_s": own("sim.Simulation.stuck_nodes"),
        "sim.stuck_nodes_per_step": calls("sim.Simulation.stuck_nodes") / steps if steps else 0.0,
        "sim.hello_round_calls": calls("sim.hello_round"),
        "sim.step_self_s": own("sim.Simulation.step"),
        "sim.step_us_p50": median_or_zero(tracer.samples["step"]) * 1e6,
    }
    for n in LADDER:
        values[f"sim.step_us.n{n}"] = median_or_zero(tracer.samples[f"step.n{n}"]) * 1e6
    values.update({
        "sim.apply_event_calls": calls("sim.Simulation.apply_event"),
        "sim.apply_event_s": inclusive("sim.Simulation.apply_event"),
        "sim.awake_topology_s": inclusive("sim.Simulation.awake_topology"),
        "sim.steps": steps,
        "sim.updates": facts["updates"],
        "sim.reversals": facts["reversals"],
        "schemes.apply_update_calls": calls("schemes.apply_update"),
        "schemes.apply_update_s": inclusive("schemes.apply_update"),
        "scenario.create_calls": calls("scenario.Scenario.create"),
        "scenario.create_s": inclusive("scenario.Scenario.create"),
        "generate.s": tracer.layer_seconds("generate"),
        "generate.scenarios": facts["generate.scenarios"],
        "generate.accept_ratio": facts["generate.void_scenarios"] / masks if masks else 0.0,
        "traceio.jsonl_s": inclusive("traceio.trace_to_jsonl"),
        "traceio.jsonl_bytes": facts["jsonl_bytes"],
        "verify.step_invariants_s": inclusive("verify.check_step_invariants"),
        "verify.reversal_semantics_s": inclusive("verify.check_reversal_semantics"),
        "verify.greedy_stability_s": inclusive("verify.check_initial_greedy_stability"),
        "verify.determinism_s": inclusive("verify.check_determinism"),
        "verify.equivalence_s": inclusive("verify.check_scheme_equivalence"),
        "verify.enumerate_s": inclusive("verify.enumerate_all_schedules"),
        "verify.states_explored": facts["states_explored"],
        "verify.transitions": facts["transitions"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": tracer.root_seconds() / traced_total if traced_total else 0.0,
    })
    return values


# --- reporting ----------------------------------------------------------------


def commit_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<38} {value:>14.6g} {unit:<6} {note}".rstrip())


def show_outcomes(passes: list[Pass]) -> None:
    """Operations per outcome class, then each failure by scheme."""
    totals: Counter = Counter()
    for pass_ in passes:
        totals.update(pass_.outcomes)
    by_class: Counter = Counter()
    for (outcome, _), count in totals.items():
        by_class[outcome.partition(":")[0]] += count
    for cls in sorted(by_class):
        print(f"outcome {cls}: {by_class[cls]}")
    for (outcome, scheme), count in sorted(totals.items()):
        if outcome != OK:
            print(f"  {outcome} [{scheme}]: {count}")


def show_spans(tracer: Tracer) -> None:
    for label in tracer.absent:
        print(f"absent: {label}")
    print(f"{'span':<40} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
    for label, (n, incl, own) in sorted(tracer.span_stats().items(), key=lambda kv: -kv[1][1]):
        print(f"{label:<40} {n:>9} {incl:>9.4f} {own:>9.4f}")
    for label, n in tracer.counts.items():
        print(f"{label:<40} {n:>9} {'counted':>9}")


# --- the run ------------------------------------------------------------------


def end_to_end(
    setup_s: float, timed: list[Pass], work: Tracer, peak: int, memory_ops: int,
    calibration: Calibration,
) -> dict:
    """Times at the reference speed, as medians over the run's passes.

    Every pass does the same operations in the same order, so each
    operation's time, and the input generation before it, is its median
    over the passes; ``wall_s`` is the sum of those medians, a pass with
    the short bursts of a shared host's noise taken out.  The work of one
    pass is the work counted over all of them divided by their number.
    """
    scaled = (calibration.scaled(p.spans) for p in timed)
    spans = [statistics.median(times) for times in zip(*scaled)]
    wall_s = sum(spans)
    ops_seconds = sorted(spans[::2])  # without the input generation
    attempted = sum(len(p.op_seconds) for p in timed)
    failed = sum(p.failed for p in timed)
    steps, transitions = (work.facts[k] / len(timed) for k in ("steps", "transitions"))
    pct = tail_percentile(len(ops_seconds))
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_ms_p50": statistics.median(ops_seconds) * 1e3,
        "op_ms_tail": nearest_rank(ops_seconds, pct) * 1e3,
        "work_per_s": (steps + transitions) / wall_s,
        "peak_mem_mb": peak / 1e6,
        "ok_share": (attempted - failed) / attempted,
    }
    beyond = len(ops_seconds) - math.ceil(pct / 100 * len(ops_seconds))
    raw = sorted(p.wall for p in timed)
    notes = {
        "wall_s": f"medians over {len(timed)} passes; raw walls {raw[0]:.4g}..{raw[-1]:.4g} s, "
                  f"scales {min(map(calibration.scale_at, calibration.at)):.3f}.."
                  f"{max(map(calibration.scale_at, calibration.at)):.3f}",
        "op_ms_p50": f"of each op's median over {len(timed)} passes",
        "op_ms_tail": f"p{pct:g} over {len(ops_seconds)} ops, {beyond} beyond it",
        "work_per_s": "simulated steps plus enumerated transitions",
        "peak_mem_mb": f"tracemalloc peak of the {memory_ops} ops with the most work",
    }
    for name, value in values.items():
        show(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
    show("steps_per_s", steps / wall_s, "1/s", f"{steps:.0f} simulated steps a pass")
    show("transitions_per_s", transitions / wall_s, "1/s",
         f"{transitions:.0f} enumerated transitions a pass")
    show("failed_share", failed / attempted, "ratio", f"{failed} of {attempted} ops")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints its report and returns the result object.

    ``tiny`` shrinks every workload to a few operations, for the smoke test.
    """
    workload = WORKLOADS[name]
    print(f"workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"python={platform.python_version()} nproc={cpu_count()} commit={commit_hash()}")
    print(f"why: {workload.why}")

    calibration = Calibration()
    setup_times: list[tuple[float, float]] = []  # (start, seconds)
    while len(setup_times) < SETUP_REPEATS or sum(s for _, s in setup_times) < SETUP_SECONDS:
        calibration.tick()
        start = time.perf_counter()
        lib, inputs, seconds_taken = set_up(workload, seed, tiny)
        setup_times.append((start, seconds_taken))

    checked = [warm_up(workload, lib, inputs)]
    timed: list[Pass] = []
    with Tracer(WORK_TARGETS) as work:
        start = time.perf_counter()
        while not timed or (time.perf_counter() - start < seconds and not timed[-1].error):
            timed.append(run_pass(workload, lib, inputs, work, calibration))
    checked += timed

    if trace:
        with Tracer(LAYER_TARGETS) as tracer:
            start = time.perf_counter()
            traced_inputs = workload.build(lib, seed, tiny)
            build_s = time.perf_counter() - start
            traced = run_pass(workload, lib, traced_inputs, tracer)
        checked.append(traced)
        show_spans(tracer)
        untraced_wall = statistics.median(p.wall for p in timed)
        values = layer_metrics(tracer, build_s + traced.wall, traced.wall, untraced_wall)
        for metric, value in values.items():
            show(metric, value, unit_of(metric))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        heaviest = [op for *_, op in sorted(timed[0].heaviest, reverse=True)]
        peak, memory = memory_pass(heaviest)
        checked.append(memory)
        print(f"setup: median {statistics.median(s for _, s in setup_times):.4g} s raw over "
              f"{len(setup_times)} set-ups; {len(calibration.samples)} calibration samples")
        setup_s = statistics.median(calibration.scaled(setup_times))
        metrics = end_to_end(setup_s, timed, work, peak, len(heaviest), calibration)

    show_outcomes(timed)
    reports = timed[0].notes
    if reports:
        print(f"checked {reports['reports']} reports across {reports['scenarios']} scenarios per pass")
    errors = [p.error for p in checked if p.error]
    for error in errors:
        print(f"pass error: {error}")
    unexpected = sum(p.failed for p in checked)
    correct = not errors and (workload.known_failures or unexpected == 0)
    return {
        "correct": correct,
        "attempted": sum(len(p.op_seconds) for p in timed),
        "failed": sum(p.failed for p in timed),
        "metrics": metrics,
    }


def measure_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced; metric names gain a workload prefix."""
    runs = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed, seconds, trace)
            print(json.dumps(result))
            runs.append((name, trace, result))
    return {
        "correct": all(r["correct"] for _, _, r in runs),
        "attempted": sum(r["attempted"] for _, trace, r in runs if not trace),
        "failed": sum(r["failed"] for _, trace, r in runs if not trace),
        "metrics": {f"{name}/{k}": v for name, _, r in runs for k, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            result = measure_all(args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

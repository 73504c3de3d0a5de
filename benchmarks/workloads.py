"""The benchmark's workloads.

Each workload builds its inputs from the workload seed (the program only
receives the generated scenarios) and then yields operations.  An
operation makes the same library calls as the CLI command it stands for,
and comes with a check of its output that returns ``"ok"`` or a failure
class.  Checks are written here, independently of the package, wherever
that is practical.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

OK = "ok"

SCHEMES = (
    "gb-full", "gb-partial", "no-full", "two-bit-full",
    "one-bit-full", "no-partial", "two-bit-partial", "baseline-increment",
)
CORE_SCHEMES = SCHEMES[:7]
FULL_FAMILY = ("gb-full", "no-full", "two-bit-full", "one-bit-full")

#: Update counts and JSONL sha256 digests of every chain-void run, recorded
#: at the commit that introduced this benchmark.  Event-free traces must
#: stay byte-identical, so later kernel changes are checked here.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    #: Returns "ok" or a failure class; may tally counts in the pass's notes.
    check: Callable[[object, Counter], str]


class WorkloadError(Exception):
    """A whole-pass check failed, such as the number of generated scenarios."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[ModuleType, int, bool], object]
    ops: Callable[[ModuleType, object], Iterator[Op]]
    #: The workload runs known defects: failed operations are counted, not
    #: treated as a broken benchmark.
    known_failures: bool = False


def schedule_for(lib: ModuleType, scenario) -> object:
    """The schedule `linkrev run` uses by default: single, scenario seed or 0."""
    return lib.Schedule.single_random(scenario.seed or 0)


# --- chain-void ---------------------------------------------------------------

#: Chain sizes; all stay below n≈57, where Scenario.create raises
#: OverflowRiskError.
LADDER = (8, 16, 24)
SHAPES = ("monotone", "zigzag")


def chain_scenario(lib: ModuleType, n: int, shape: str):
    """Deep-void chain: edges D-n and i-(i+1).

    Monotone heights 1..n leave node 1 at the bottom of a void as deep as
    the chain, the full-reversal worst case.  Zigzag heights 1,2,1,2,...
    make every other node a sink, the partial-reversal worst case: at n=30
    `no-partial` takes n(n-1)/2 updates there and n-1 on the monotone chain.
    """
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    if shape == "monotone":
        heights = list(range(1, n + 1))
    else:
        heights = [1 if i % 2 else 2 for i in range(1, n + 1)]
    return lib.Scenario.create(n, edges, heights=heights, name=f"chain-{shape}-{n}")


def monotone_updates(n: int, scheme: str) -> int:
    if scheme in FULL_FAMILY:
        return n * (n - 1) // 2
    if scheme == "baseline-increment":
        return n * (n - 1)
    return n - 1


def replayed_arcs(trace) -> tuple[dict[tuple[int, int], tuple[int, int]], int]:
    """Final orientation rebuilt from the initial arcs and each step's flips."""
    arcs = {(min(a, b), max(a, b)): (a, b) for a, b in trace.initial_arcs}
    flips = 0
    for record in trace.steps:
        for edge in record.reversed_edges:
            source, target = arcs[tuple(edge)]
            arcs[tuple(edge)] = (target, source)
            flips += 1
    return arcs, flips


def destination_oriented(arcs, nodes) -> bool:
    """Every node has a directed path to the destination 0."""
    into: dict[int, list[int]] = defaultdict(list)
    for source, target in arcs:
        into[target].append(source)
    seen, stack = {0}, [0]
    while stack:
        for source in into[stack.pop()]:
            if source not in seen:
                seen.add(source)
                stack.append(source)
    return set(nodes) <= seen


def build_chain_void(lib: ModuleType, seed: int, tiny: bool):
    sizes = LADDER[:1] if tiny else LADDER
    cases = [
        (chain_scenario(lib, n, shape), shape, lib.SchemeId(scheme))
        for n in sizes for shape in SHAPES for scheme in SCHEMES
    ]
    # The chains are fixed worst cases; the seed only orders the operations.
    random.Random(seed).shuffle(cases)
    return cases


def chain_check(scenario, shape: str, scheme: str) -> Callable[[object, Counter], str]:
    n = scenario.n
    expected = EXPECTED["chain-void"][f"{shape}-{n}-{scheme}"]
    updates = monotone_updates(n, scheme) if shape == "monotone" else expected["updates"]

    def check(result, notes: Counter) -> str:
        trace, jsonl = result
        if trace.outcome.value != "converged":
            return f"wrong-outcome: {trace.outcome.value}"
        if trace.total_updates != updates:
            return f"wrong-updates: {trace.total_updates}, expected {updates}"
        arcs, flips = replayed_arcs(trace)
        if flips != trace.total_reversals:
            return f"wrong-reversals: {flips} replayed, {trace.total_reversals} reported"
        if not destination_oriented(arcs.values(), range(1, n + 1)):
            return "not-oriented"
        if hashlib.sha256(jsonl.encode("utf-8")).hexdigest() != expected["sha256"]:
            return "trace-changed"
        return OK

    return check


def chain_void_ops(lib: ModuleType, cases) -> Iterator[Op]:
    """One op is `linkrev run --trace-out`: one run plus its JSONL export."""
    for scenario, shape, scheme in cases:

        def run(scenario=scenario, scheme=scheme):
            trace = lib.run_scenario(scenario, scheme, schedule_for(lib, scenario))
            return trace, lib.trace_to_jsonl(trace)

        yield Op(f"{scenario.name}/{scheme.value}", run, chain_check(scenario, shape, scheme.value))


# --- verify-random ------------------------------------------------------------

RANDOM_SCENARIOS = 216  # sizes cycle through 4..12, the acceptance corpus range


def build_verify_random(lib: ModuleType, seed: int, tiny: bool):
    # The scenarios are a fixed corpus and the seed drives the battery's
    # schedules: with scenarios drawn from the seed, the slowest batteries
    # moved op_ms_tail by more than a quarter between seeds.
    count = 2 if tiny else RANDOM_SCENARIOS
    return seed, [lib.generate.random_void_scenario(4 + k % 9, k) for k in range(count)]


def reports_check(scenario) -> Callable[[object, Counter], str]:
    """Counts come from the returned reports, not from the CLI summary line."""

    def check(reports, notes: Counter) -> str:
        reports = reports if isinstance(reports, list) else [reports]
        ids = {r.scenario_id for r in reports}
        notes["reports"] += len(reports)
        notes["scenarios"] += len(ids)
        if ids != {scenario.scenario_id()}:
            return f"wrong-scenarios: {sorted(ids)}"
        failed = [r for r in reports if not r.passed and not r.informational]
        return f"check-failed: {failed[0].line()}" if failed else OK

    return check


def verify_random_ops(lib: ModuleType, inputs) -> Iterator[Op]:
    """One op is one scenario's `verify --random` battery over the 7 core schemes."""
    seed, scenarios = inputs
    schemes = tuple(lib.SchemeId(name) for name in CORE_SCHEMES)
    for scenario in scenarios:

        def run(scenario=scenario):
            return lib.standard_battery(scenario, schemes, seed=seed)

        yield Op(f"{scenario.name}/core", run, reports_check(scenario))


# --- exhaustive ---------------------------------------------------------------

#: `verify --exhaustive 5 --scheme no-full` takes 12-16 s on a 2-vCPU Xeon
#: VM, so a 14 s run would time a single pass; n=4 over the 7 core schemes
#: (the CLI's default `--scheme all`) takes about 1.3 s there.
EXHAUSTIVE_N = 4
#: Void scenarios exhaustive_void_scenarios(n) yields.
VOID_SCENARIOS = {3: 30, 4: 664, 5: 25_680}


def build_exhaustive(lib: ModuleType, seed: int, tiny: bool):
    # The space is enumerated exhaustively, so the seed has nothing to pick.
    return 3 if tiny else EXHAUSTIVE_N


def exhaustive_ops(lib: ModuleType, n: int) -> Iterator[Op]:
    """`verify --exhaustive N`: one op is one order-invariance check of one scheme.

    Scenarios are generated lazily between operations, as the CLI does, so
    generation counts in the pass's wall time but not in any op's time.
    """
    schemes = tuple(lib.SchemeId(name) for name in CORE_SCHEMES)
    made = 0
    for scenario in lib.generate.exhaustive_void_scenarios(n):
        made += 1
        for scheme in schemes:

            def run(scenario=scenario, scheme=scheme):
                return lib.check_order_invariance(scenario, scheme)

            yield Op(f"{scenario.name}/{scheme.value}", run, reports_check(scenario))
    if made != VOID_SCENARIOS[n]:
        raise WorkloadError(f"generated {made} void scenarios at n={n}, expected {VOID_SCENARIOS[n]}")


# --- events -------------------------------------------------------------------

SWEEP_CHAINS = (5, 8)
SLEEP_AT = (1, 2)
SLEEP_DURATIONS = range(1, 12)
SWEEP_SEED = 1
#: Partition scenarios, all at n=10: the finite-state schemes run to the
#: 4n² step budget there (about 60 ms a run), so they make up the op tail.
PARTITION_SCENARIOS = 10
PARTITION_N = 10


def connected_after_events(scenario) -> bool:
    """Connectivity once every queued event has fired: removals stay, sleepers wake."""
    gone_nodes = {ev.node for ev in scenario.events if ev.kind == "remove-node"}
    gone_edges = {
        (min(ev.edge), max(ev.edge)) for ev in scenario.events if ev.kind == "remove-link"
    }
    links = [
        (a, b) for a, b in scenario.edges
        if (a, b) not in gone_edges and a not in gone_nodes and b not in gone_nodes
    ]
    both_ways = links + [(b, a) for a, b in links]
    nodes = [i for i in range(1, scenario.n + 1) if i not in gone_nodes]
    return destination_oriented(both_ways, nodes)


def build_events(lib: ModuleType, seed: int, tiny: bool):
    chains = SWEEP_CHAINS[:1] if tiny else SWEEP_CHAINS
    durations = SLEEP_DURATIONS[:2] if tiny else SLEEP_DURATIONS
    scenarios = []
    for n in chains:
        edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
        for at in SLEEP_AT:
            for node in range(1, n + 1):
                for duration in durations:
                    event = lib.SimEvent(at_step=at, kind="sleep", node=node, duration=duration)
                    scenarios.append(lib.Scenario.create(
                        n, edges, heights=range(1, n + 1), events=[event], seed=SWEEP_SEED,
                        name=f"sleep-n{n}-at{at}-node{node}-for{duration}",
                    ))
    # Fixed scenarios, schedules included; the seed only orders the
    # operations.  The budget runs of the partition scenarios make up the
    # op tail: with their schedules drawn from the seed, op_ms_tail spread
    # 0.15-0.27 (interquartile range over median) across ten seeds.
    for k in range(1 if tiny else PARTITION_SCENARIOS):
        scenarios.append(lib.generate.random_partition_scenario(PARTITION_N, k))
    cases = [(scenario, connected_after_events(scenario)) for scenario in scenarios]
    random.Random(seed).shuffle(cases)
    return cases


def outcome_check(connected: bool) -> Callable[[object, Counter], str]:
    """Sort a finished run into ok, false certificate or wrong outcome."""

    def check(trace, notes: Counter) -> str:
        outcome = trace.outcome.value
        if outcome == ("converged" if connected else "partitioned"):
            return OK
        if outcome == "partitioned":
            return "false-certificate"
        return f"wrong-outcome: {outcome}"

    return check


def events_ops(lib: ModuleType, cases) -> Iterator[Op]:
    """One op is one `linkrev run` of an event scenario under `single_random`."""
    for scenario, connected in cases:
        for name in SCHEMES:
            scheme = lib.SchemeId(name)

            def run(scenario=scenario, scheme=scheme):
                return lib.run_scenario(scenario, scheme, schedule_for(lib, scenario))

            yield Op(f"{scenario.name}/{name}", run, outcome_check(connected))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-void",
            "deep-void chains drive full and partial reversal to their quadratic "
            "worst case, so the per-step kernel does nearly all the work",
            build_chain_void, chain_void_ops,
        ),
        Workload(
            "verify-random",
            "the property battery over random void scenarios: the verifier "
            "dominates, over many short runs where per-run set-up counts",
            build_verify_random, verify_random_ops,
        ),
        Workload(
            "exhaustive",
            "every schedule on every void topology at n=4: generation and schedule "
            "enumeration, no simulator; the bypass for sim changes",
            build_exhaustive, exhaustive_ops,
        ),
        Workload(
            "events",
            "sleep sweeps and partitions exercise the event layer and partition "
            "certificates; the only workload with known failures, counted by class",
            build_events, events_ops, known_failures=True,
        ),
    )
}

"""Trace verification: invariants, reversal semantics, schedule invariance.

Checks consume recorded traces rather than re-deriving them, so a corrupted
or hand-edited trace is caught.  Failing reports carry a replayable
counterexample: the serialized scenario, the schedule, and the step index.

check_step_invariants orients the whole graph once per (scenario, scheme),
at step 0, and judges that start once: acyclicity, the stuck/oriented
agreement and the scheme's invariants over every node and link.  The start
and its verdict are cached in Scenario._replay_starts, which only this
module fills and which never reads the simulator's Scenario._starts, so the
replay stays the kernel's oracle.  Each trace's recorded initial digest is
still compared with the start, and each trace is replayed from a copy of
the start's states, arcs, labels and out-neighbors: its recorded new states
go into one state dict, and only the links of each step's updaters U are
re-oriented, O(sum of deg U) a step, with no routing_dag per step.
check_reversal_semantics makes a node's reversed-toward set only when a
link is first reversed toward it, not one set per node for every trace.
Destination orientation, wherever a check asks for it, reads the
topology's reachability memo, model.destination_reach, as the simulator's
cross-check and check_initial_greedy_stability do.

check_determinism(first) reruns a recorded trace once and compares the
JSONL, and check_scheme_equivalence(reference, shadow, gating) replays a
recorded reference trace's update sets under the shadow scheme, as the
fixed schedule Schedule.fixed([rec.updated for rec in reference.steps]) of
one Simulation, and compares each of its step records with the
reference's.  standard_battery runs Schedule.subset_random(seed) once per
scheme and hands that one trace to both, so the equivalence families reuse
the determinism check's first run; when that run overflows, each pair it
anchors gets an informational report that it was skipped.

standard_battery judges each distinct trace once.  A scheme's two checked
runs, Schedule.single_random(seed) and Schedule.subset_random(seed + 1),
record the same run whenever no step offers a choice, as on most small
voids.  When the second trace equals the first in every field but the
schedule, and every report on the first passed, the second gets those
reports again.  The termination, step, reversal and greedy verdicts read
the trace but not its schedule, and a passing report holds no schedule,
so the reused reports are the ones a second judgement would make.  A
failing report is never reused: its counterexample names its own
schedule.  Both runs are still made.  At most one checked trace is alive
while a check runs, and none during the scheme's anchor run.

enumerate_all_schedules, behind check_order_invariance, finds the stuck
nodes of each state vector with the model's hello probe, probe_stuck, the
one the simulator's hello_round runs, and builds a routing_dag only for a
terminal vector, whose digest and reach set are kept on the topology for
every scheme run on it.  It branches over one stuck node at a time: stuck
nodes are sinks, so no two are adjacent, and a step by several of them is
the same as their one-node steps in any order.  It explores event-free
scenarios only: one with scripted events raises ValueError.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import NamedTuple

from .errors import ExplosionGuardError, LinkrevError, OverflowRiskError, ScheduleError
from .model import (
    DESTINATION,
    Arcs,
    HeightAssignment,
    Topology,
    arc_label,
    arcs_digest,
    destination_reach,
    is_destination_oriented,
    orientation_predicate,
    probe_stuck,
    routing_dag,
)
from .scenario import Scenario, serialize_scenario
from .schemes import (
    CORE_SCHEMES,
    SPECS,
    SchemeId,
    SchemeSpec,
    State,
    apply_update,
    closed_form_height,
    initial_states,
)
from .sim import Outcome, Schedule, Simulation, StepRecord, Trace, run_scenario
from .traceio import trace_to_jsonl


@dataclass(frozen=True)
class Counterexample:
    """Everything needed to replay a failing run."""

    scenario_text: str
    schedule: Schedule | None  # None only when no run shows the fault
    step: int | None
    message: str


class CheckReport(NamedTuple):
    """The verdict of one check on one scenario and scheme."""

    check: str
    scenario_id: str
    scheme: str
    passed: bool
    informational: bool = False
    detail: str = ""
    counterexample: Counterexample | None = None

    def line(self) -> str:
        status = "INFO" if self.informational else ("PASS" if self.passed else "FAIL")
        text = f"{status} {self.check} scheme={self.scheme} scenario={self.scenario_id}"
        if self.detail:
            text += f" :: {self.detail}"
        return text


def _report(
    check: str,
    scenario: Scenario,
    scheme: SchemeId | str,
    failures: list[str],
    schedule: Schedule | None = None,
    step: int | None = None,
    detail: str = "",
    informational: bool = False,
) -> CheckReport:
    scheme_name = scheme.value if isinstance(scheme, SchemeId) else scheme
    if failures and not informational:
        message = failures[0]
        example = Counterexample(
            scenario_text=serialize_scenario(scenario),
            schedule=schedule,
            step=step,
            message=message,
        )
        return CheckReport(
            check, scenario.scenario_id(), scheme_name, passed=False,
            detail=message, counterexample=example,
        )
    return CheckReport(
        check, scenario.scenario_id(), scheme_name, passed=True,
        informational=informational,
        detail=detail if not failures else failures[0],
    )


def _require_plain_trace(trace: Trace) -> None:
    if trace.events_applied:
        raise ValueError("this check assumes an event-free trace")


def _replayed_orientations(trace: Trace) -> Iterator[tuple[StepRecord, dict, set]]:
    """Yield each step's record, its arcs by canonical edge, and its reversed edges.

    The orientation is rebuilt from the initial arcs and each step's
    reversed edges, at a cost of O(flips) a step; the arcs dict is updated
    in place and keeps the canonical edge order.  Reversed edges that are
    not links are yielded but flip nothing.
    """
    arcs = {((s, d) if s < d else (d, s)): (s, d) for s, d in trace.initial_arcs}
    for rec in trace.steps:
        flipped = set(rec.reversed_edges)
        for e in flipped & arcs.keys():
            s, d = arcs[e]
            arcs[e] = (d, s)
        yield rec, arcs, flipped


def _monotone_failure(spec: SchemeSpec, old: State, new: State) -> str | None:
    if spec.sort_key is None:
        return spec.advance_failure(old, new)
    if not spec.sort_key(new) > spec.sort_key(old):
        return f"state of node {old.node} did not strictly increase: {old} -> {new}"
    return None


def _closes_cycle(out: Mapping[int, Iterable[int]], heads: Iterable[int]) -> bool:
    """True if a directed cycle can be reached from one of the heads.

    out maps each node to its out-neighbors.  When the orientation was
    acyclic before some arcs flipped, every new cycle runs through a
    flipped arc and so through its head: a depth-first search from the
    heads of the flipped arcs finds it, at the cost of the part of the
    graph they reach.  Step 0 has no earlier orientation, so it searches
    from every node, which finds any cycle.
    """
    done: set[int] = set()
    for head in heads:
        if head in done:
            continue
        path = {head}
        stack = [(head, iter(out[head]))]
        while stack:
            node, rest = stack[-1]
            for nxt in rest:
                if nxt in path:
                    return True
                if nxt not in done:
                    path.add(nxt)
                    stack.append((nxt, iter(out[nxt])))
                    break
            else:
                stack.pop()
                path.discard(node)
                done.add(node)
    return False


class _ReplayStart(NamedTuple):
    """A scheme's step 0 as the step check derives it, kept in Scenario._replay_starts.

    It is derived from the scheme's initial states alone and never read
    from the simulator's Scenario._starts, whose faults the check exists
    to catch.  arcs is the orientation those states induce, routing_dag's
    tuple, and labels, out, stuck and digest are read off it.  failures is
    the step-0 verdict: acyclicity, the stuck/oriented agreement and the
    scheme's invariants over every node and link, for the scenario's node
    count.  Never mutated.
    """

    states: Mapping[int, State]
    arcs: Arcs
    labels: tuple[str, ...]
    out: Mapping[int, tuple[int, ...]]
    stuck: tuple[int, ...]
    digest: str
    failures: tuple[str, ...]


def _start_failures(start: _ReplayStart, scenario: Scenario, scheme: SchemeId, n: int) -> list[str]:
    """The step-0 failures of a start: its orientation, every node and every link."""
    topo = scenario.topology
    failures: list[str] = []
    if _closes_cycle(start.out, topo.nodes):
        failures.append("step 0: orientation has a cycle")
    if not start.stuck and not is_destination_oriented(start.arcs, topo):
        failures.append("step 0: stuck set emptiness disagrees with orientation")
    failures += _scheme_failures(
        "step 0", SPECS[scheme], start.states, topo.nodes, topo.edges, n, scenario.heights
    )
    return failures


def _replay_start(scenario: Scenario, scheme: SchemeId) -> _ReplayStart:
    """The scheme's step 0 on the scenario, derived and judged once, then cached.

    Schemes whose initial states induce the same arcs share one copy of
    the orientation, its labels, out-neighbors, stuck set and digest.
    """
    starts = scenario._replay_starts
    start = starts.get(scheme)
    if start is None:
        topo = scenario.topology
        states = initial_states(scheme, topo, scenario.heights)
        arcs = routing_dag(states, topo, scheme, scenario.heights)
        shared = next((o for o in starts.values() if o.arcs == arcs), None)
        if shared is None:
            out: dict[int, list[int]] = {i: [] for i in (DESTINATION, *topo.nodes)}
            for s, d in arcs:
                out[s].append(d)
            labels = tuple(starmap(arc_label, arcs))
            start = _ReplayStart(
                states, arcs, labels, {i: tuple(js) for i, js in out.items()},
                tuple(i for i in topo.nodes if not out[i]), arcs_digest(labels), (),
            )
        else:
            start = shared._replace(states=states)
        verdict = _start_failures(start, scenario, scheme, scenario.n)
        start = starts[scheme] = start._replace(failures=tuple(verdict))
    return start


class _StateReplay:
    """The recorded states and the orientation they induce, patched step by step.

    The states are written into one dict in place.  The arcs (in canonical
    edge order), their digest labels, each node's out-neighbors and the
    sorted stuck set are kept, and after each step only the links of the
    nodes whose states were written are re-oriented: O(sum of their
    degrees) a step.  The replay is kept apart from Simulation's kernel on
    purpose, since the check exists to catch that kernel's faults; it
    shares only the compiled predicate, which defines the orientation.  It
    starts from the scheme's cached _ReplayStart and copies only what it
    mutates; the link lists are the topology's.
    """

    def __init__(self, scenario: Scenario, scheme: SchemeId, start: _ReplayStart):
        topo = scenario.topology
        self.states = dict(start.states)
        self._points_from = orientation_predicate(scheme, scenario.heights)
        self._edges = topo.edges
        self._links = topo.ordinary_links
        self._adjacency = topo._adjacency
        self.arcs = list(start.arcs)
        self._labels = list(start.labels)
        self.out = {i: set(js) for i, js in start.out.items()}
        self.stuck = start.stuck

    def digest(self) -> str:
        return arcs_digest(self._labels)

    def apply(
        self, new_states: Sequence[State]
    ) -> tuple[list[tuple[int, int]], list[int], tuple[tuple[int, int], ...]]:
        """Write the new states and re-orient their links.

        Returns the re-oriented links, the heads of the arcs that flipped
        and whose tails keep an in-arc, and the flipped links, each in
        canonical edge order.  A new cycle runs through a flipped arc, and
        a tail with no in-arc lies on no cycle, so only those heads need a
        cycle search.  After a full-reversal update there are none.
        """
        states, points_from, edges = self.states, self._points_from, self._edges
        arcs, labels, out = self.arcs, self._labels, self.out
        for s in new_states:
            states[s.node] = s
        touched = sorted({k for s in new_states for k in self._links[s.node]})
        turned, flipped = [], []
        for k in touched:
            a, b = edges[k]
            arc = (a, b) if points_from(states[a], states[b]) else (b, a)
            was = arcs[k]
            if arc != was:
                arcs[k] = arc
                labels[k] = arc_label(*arc)
                out[was[0]].discard(was[1])
                out[arc[0]].add(arc[1])
                turned.append(arc)
                flipped.append(edges[k])
        # Only the endpoints of a flipped link changed their out-degree.
        ends = {i for edge in flipped for i in edge}
        if ends:
            kept = {i for i in self.stuck if i not in ends}
            self.stuck = tuple(sorted(kept | {i for i in ends if not out[i]}))
        # Every link of a tail is oriented, so it keeps an in-arc when some
        # of its links are not out-arcs.
        adjacency = self._adjacency
        heads = [h for t, h in turned if len(out[t]) < len(adjacency[t])]
        return [edges[k] for k in touched], heads, tuple(flipped)


def _scheme_failures(
    tag: str,
    spec: SchemeSpec,
    states: Mapping[int, State],
    nodes: Iterable[int],
    edges: Iterable[tuple[int, int]],
    n: int,
    heights: HeightAssignment,
) -> list[str]:
    """Counter, phase and level invariants of the given nodes and links."""
    failures: list[str] = []
    max_height = heights.max_height
    if spec.counted:
        for i in nodes:
            s = states[i]
            h0 = heights.of(i)
            if s.updates > n:
                failures.append(f"{tag}: node {i} update count {s.updates} exceeds n={n}")
            if s.height != closed_form_height(spec.scheme, s.updates, h0, max_height):
                failures.append(f"{tag}: node {i} height {s.height} off closed form")
            if not spec.in_band(s.updates, s.height, max_height):
                failures.append(f"{tag}: node {i} height {s.height} outside its band")
    link_failures = spec.link_failures
    if link_failures is not None:
        for a, b in edges:
            if a != DESTINATION:
                for problem in link_failures(states[a], states[b]):
                    failures.append(f"{tag}: {problem}")
    return failures


def _replay_failures(
    trace: Trace, scenario: Scenario, scheme: SchemeId
) -> tuple[list[str], int | None]:
    """The failures of the first step that has any, and that step's index."""
    topo = scenario.topology
    heights = scenario.heights
    spec = SPECS[scheme]
    start = _replay_start(scenario, scheme)
    failures: list[str] = []
    if start.digest != trace.initial_digest:
        failures.append("initial digest does not match the scenario")
    # The cached verdict is for the scenario's node count, which every
    # Simulation records as the trace's.
    if trace.n == scenario.n:
        failures += start.failures
    else:
        failures += _start_failures(start, scenario, scheme, trace.n)
    if failures:
        return failures, 0

    replay = _StateReplay(scenario, scheme, start)
    states = replay.states
    for rec in trace.steps:
        tag = f"step {rec.index}"
        before = [states[s.node] for s in rec.new_states]
        prev_stuck = replay.stuck
        links, heads, flipped = replay.apply(rec.new_states)
        if set(rec.updated) - set(rec.stuck):
            failures.append(f"{tag}: updated nodes {rec.updated} not all stuck")
        if tuple(rec.stuck) != prev_stuck:
            failures.append(
                f"{tag}: recorded stuck set {list(rec.stuck)} is not the stuck set "
                f"{list(prev_stuck)} before the step"
            )
        for old, s in zip(before, rec.new_states):
            problem = _monotone_failure(spec, old, s)
            if problem:
                failures.append(f"{tag}: {problem}")
        if replay.digest() != rec.dag_digest:
            failures.append(f"{tag}: recorded digest {rec.dag_digest} does not match states")
        if tuple(rec.reversed_edges) != flipped:
            failures.append(f"{tag}: recorded reversed edges do not match states")
        if heads and _closes_cycle(replay.out, heads):
            failures.append(f"{tag}: orientation has a cycle")
        if not replay.stuck and not is_destination_oriented(replay.arcs, topo):
            failures.append(f"{tag}: stuck set emptiness disagrees with orientation")
        updaters = sorted({s.node for s in rec.new_states})
        failures += _scheme_failures(tag, spec, states, updaters, links, trace.n, heights)
        if failures:
            return failures, rec.index
    return [], None


def check_step_invariants(trace: Trace, scenario: Scenario, scheme: SchemeId) -> CheckReport:
    """Per-step structural invariants of the recorded run.

    Covers: recorded stuck sets, reversed edges and DAG digests against
    the orientation the recorded states induce, acyclicity, the
    stuck/oriented equivalence, strictly advancing updater states,
    closed-form heights and height bands for the counted schemes, update
    counts bounded by the node count, and neighbor adjacency of counters,
    levels and phases.

    Step 0 checks the whole initial orientation and every node and link.
    Each recorded step is then replayed at O(sum of deg U) for its
    updaters U, since nothing else changed: the updaters' links are
    re-oriented, only the flipped arcs whose tails keep an in-arc are
    searched for a new cycle, only the updaters and their links are
    checked against the scheme's invariants, and destination orientation
    is computed only when the stuck set is empty (a stuck node has no
    path out).
    """
    _require_plain_trace(trace)
    failures, fail_step = _replay_failures(trace, scenario, scheme)

    if not failures and SPECS[scheme].counted and trace.steps:
        final = {s.node: s for s in trace.final_states}
        for i, count in trace.update_counts.items():
            if i in final and final[i].updates != count:
                failures.append(f"final update counter of node {i} disagrees with the trace totals")

    return _report(
        "step-invariants", scenario, scheme, failures,
        schedule=trace.schedule, step=fail_step,
        detail=f"{len(trace.steps)} steps clean",
    )


def check_reversal_semantics(trace: Trace, scenario: Scenario, scheme: SchemeId) -> CheckReport:
    """Full schemes: an update turns every incident link outgoing.

    Partial schemes: an update reverses exactly the links not reversed
    toward the node since its previous update; when every link was already
    reversed, the counted and two-bit partial schemes take one silent
    update followed by a full one (the node stays stuck in between), while
    the neighbor-aware partial scheme resolves it in a single update.
    """
    _require_plain_trace(trace)
    spec = SPECS[scheme]
    if spec.reversal is None:
        raise ValueError(f"reversal semantics are undefined for {scheme}")
    topo = scenario.topology
    full = spec.reversal == "full"
    failures: list[str] = []
    fail_step: int | None = None

    # A node's entry is made when a link is first reversed toward it.
    reversed_toward: dict[int, set[int]] = {}
    pending_second: dict[int, int] = {}
    silent_updates = 0

    def outgoing(arcs: Mapping, u: int) -> set[int]:
        return {j for j in topo.neighbors(u) if arcs[(u, j) if u < j else (j, u)][0] == u}

    for rec, arcs_now, flipped in _replayed_orientations(trace):
        unknown = flipped - arcs_now.keys()
        if unknown:
            failures.append(f"step {rec.index}: reversed edges {sorted(unknown)} are not links")
            fail_step = rec.index
            break
        updated = set(rec.updated)

        for e in sorted(flipped):
            # Every flipped edge is a link, so a pair: exactly one end must have updated.
            if (e[0] in updated) == (e[1] in updated):
                failures.append(f"step {rec.index}: link {e} flipped without a unique updater")

        for u in rec.updated:
            if full:
                if outgoing(arcs_now, u) != set(topo.neighbors(u)):
                    nbrs = {j for j in topo.neighbors(u) if j != DESTINATION}
                    failures.append(
                        f"step {rec.index}: node {u} updated but links "
                        f"{sorted(nbrs - outgoing(arcs_now, u))} still point in"
                    )
            else:
                nbrs = {j for j in topo.neighbors(u) if j != DESTINATION}
                flipped_at_u = {a + b - u for a, b in flipped if u in (a, b)}
                expected = nbrs.difference(reversed_toward.get(u, ()))
                if spec.neighbor_aware and not expected:
                    expected = nbrs  # the neighbor-aware rule clears an all-reversed node at once
                if flipped_at_u != expected:
                    failures.append(
                        f"step {rec.index}: node {u} reversed {sorted(flipped_at_u)}, expected {sorted(expected)}"
                    )
                if not expected:
                    pending_second[u] = rec.index
                    silent_updates += 1
                else:
                    pending_second.pop(u, None)
                reversed_toward.pop(u, None)

        for a, b in flipped:
            source = arcs_now[(a, b)][0]
            other = a + b - source
            if source in updated and other != DESTINATION and topo.has_node(other):
                reversed_toward.setdefault(other, set()).add(source)

        for u, since in pending_second.items():
            if u not in updated and outgoing(arcs_now, u):
                failures.append(
                    f"step {rec.index}: node {u} should stay stuck between its paired updates (silent at {since})"
                )

        if failures:
            fail_step = rec.index
            break

    if not failures and trace.outcome is Outcome.CONVERGED and pending_second:
        failures.append(
            f"nodes {sorted(pending_second)} did a silent update but never completed the pair"
        )

    detail = f"{len(trace.steps)} steps clean"
    if spec.reversal == "partial":
        detail += f", {silent_updates} silent first halves"
    return _report(
        "reversal-semantics", scenario, scheme, failures,
        schedule=trace.schedule, step=fail_step, detail=detail,
    )


def check_initial_greedy_stability(trace: Trace, scenario: Scenario) -> CheckReport:
    """Only nodes with no initial directed path to the destination update."""
    _require_plain_trace(trace)
    updaters = {i for rec in trace.steps for i in rec.updated}
    offenders = sorted(updaters & destination_reach(trace.initial_arcs, scenario.topology))
    failures = (
        [f"nodes {offenders} had an initial greedy path yet updated"] if offenders else []
    )
    return _report(
        "initial-greedy-stability", scenario, trace.scheme, failures,
        schedule=trace.schedule,
        detail=f"{len(updaters)} updaters, all initially disconnected from the destination",
    )


#: Step-equivalent families replayed against each other by stuck-node identity.
EQUIVALENCE_PAIRS: tuple[tuple[SchemeId, SchemeId, bool], ...] = (
    (SchemeId.NO_FULL, SchemeId.GB_FULL, True),
    (SchemeId.NO_FULL, SchemeId.TWO_BIT_FULL, True),
    (SchemeId.NO_FULL, SchemeId.ONE_BIT_FULL, True),
    (SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL, True),
    (SchemeId.NO_PARTIAL, SchemeId.GB_PARTIAL, False),
)


def _lockstep_divergence(sim: Simulation, rec: StepRecord) -> str | None:
    """Advance the shadow sim through the reference's step rec; say how they differ.

    The shadow's schedule replays the reference's picks, so its next step
    updates rec.updated.  The shadow's record must match rec in its stuck
    set, in the digest of the orientation after the step and in the
    reversed links.
    """
    srec = mismatch = None
    try:
        srec = sim.advance()
    except ScheduleError as exc:
        mismatch = f"schedule replay mismatch: {exc}"
    except LinkrevError as exc:
        return f"shadow run raised {type(exc).__name__}: {exc}"
    stuck = sim.stuck_nodes() if srec is None else srec.stuck
    if stuck != rec.stuck:
        return f"stuck sets {list(stuck)} vs {list(rec.stuck)}"
    if mismatch is not None:
        return mismatch
    if srec is None:
        return f"shadow run ended {sim.outcome}"
    if srec.dag_digest != rec.dag_digest or srec.reversed_edges != rec.reversed_edges:
        return "orientations diverge"
    return None


def _lockstep_replay(reference: Trace, shadow: SchemeId) -> tuple[str | None, int | None]:
    """Replay a converged reference run's update sets under the shadow scheme.

    Returns the first divergence and the index of its step, or None and
    None when the shadow kept lockstep and converged with the reference.
    """
    # After the last step the exhausted schedule raises if the shadow is still stuck.
    replay = Schedule.fixed(
        [rec.updated for rec in reference.steps], label=f"replay-of-{reference.scheme.value}"
    )
    sim = Simulation(reference.scenario, shadow, replay)
    for rec in reference.steps:
        found = _lockstep_divergence(sim, rec)
        if found is not None:
            return f"step {rec.index}: {found}", rec.index
    try:
        sim.advance()
    except ScheduleError:
        return "shadow run still stuck after replaying every step", None
    except LinkrevError as exc:
        return f"shadow run raised {type(exc).__name__} after replaying every step: {exc}", None
    if sim.outcome is not Outcome.CONVERGED:
        return f"shadow run ended {sim.outcome} after replaying every step", None
    return None, None


def check_scheme_equivalence(
    reference: Trace,
    shadow: SchemeId,
    gating: bool = True,
) -> CheckReport:
    """Replay the reference run's update sets under the shadow scheme.

    The shadow runs through the same scripted events, and at each step it
    updates exactly the nodes the reference chose.  Equivalent schemes
    must produce identical stuck sets and orientations at every step: the
    shadow's step records must match the reference's recorded ones in
    their stuck sets, digests and reversed links.
    A reference updater that the shadow cannot update, being not stuck or
    with no awake neighbor, is a replay mismatch and fails the check.  A
    reference run that did not converge anchors no replay and fails it too.
    With gating=False the comparison is informational: a scheme-divergence
    report that states the divergence, or the missing anchor, and never fails.
    """
    scheme = reference.scheme
    failures: list[str] = []
    fail_step: int | None = None
    if reference.outcome is not Outcome.CONVERGED:
        failures.append(f"reference run ended {reference.outcome} and cannot anchor a replay")
    else:
        divergence, fail_step = _lockstep_replay(reference, shadow)
        if divergence is not None:
            failures.append(f"vs {scheme.value}: {divergence}")
    return _report(
        "scheme-equivalence" if gating else "scheme-divergence",
        reference.scenario, shadow, failures,
        schedule=reference.schedule, step=fail_step,
        detail=f"lockstep with {scheme.value} across {len(reference.steps)} steps",
        informational=not gating,
    )


def check_determinism(first: Trace) -> CheckReport:
    """A fresh rerun of a recorded run must serialize byte-identically.

    The rerun takes step 0 from the start the scenario caches, not from a
    second derivation of it.
    """
    rerun = run_scenario(first.scenario, first.scheme, first.schedule, first.step_limit)
    text, again = trace_to_jsonl(first), trace_to_jsonl(rerun)
    failures = [] if text == again else ["reruns differ"]
    return _report(
        "determinism", first.scenario, first.scheme, failures,
        schedule=first.schedule, detail=f"{len(text.splitlines())} identical records",
    )


# --- exhaustive schedule enumeration ----------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    scheme: SchemeId
    final_digests: tuple[str, ...]
    states_explored: int
    transitions: int
    all_destination_oriented: bool
    witnesses: Mapping[str, Schedule]

    @property
    def singleton(self) -> bool:
        return len(self.final_digests) == 1


def _final_facts(arcs: Arcs, topo: Topology) -> tuple[str, bool]:
    """The digest of a final orientation's arcs and whether they are destination-oriented.

    Both depend on the arcs and the topology alone, so the topology keeps
    them for all the schemes run on it: the digests here, the reach sets
    in destination_reach's memo.  The enumeration passes routing_dag's
    tuple straight in and binds it nowhere else, so the arcs of a terminal
    whose orientation the memo already holds are freed at once.
    """
    digests = topo._final_digests
    digest = digests.get(arcs)
    if digest is None:
        digest = digests[arcs] = arcs_digest(starmap(arc_label, arcs))
    return digest, is_destination_oriented(arcs, topo)


def enumerate_all_schedules(
    scenario: Scenario, scheme: SchemeId, max_states: int = 10**6
) -> EnumerationResult:
    """Explore every schedule, memoizing on the global state vector.

    Each step branches over the stuck nodes of a vector, one at a time: the
    child replaces node i's state with its update.  A stuck node is a sink,
    so no two stuck nodes are adjacent, and an update reads only the
    node's own state and its neighbors' states.  A step by a set of stuck
    nodes is therefore the same as its one-node steps taken in any order,
    and single nodes reach every vector that subsets do.  transitions
    counts the (vector, stuck node) pairs, and each witness step names one
    node.  A state vector is indexed by node id, with None in slot 0 for
    the destination, so it is its own state mapping; the first one is
    built from the scheme's initial states.  Its stuck set is found by the
    hello probe, probe_stuck, over the topology's probe table, the one
    stuck detection the simulator's hello_round runs too.  A routing_dag is
    built only for a terminal vector, one with no stuck node, for its
    digest and its destination orientation.  Scripted events are outside
    the enumeration: a scenario with any raises ValueError.  Raises
    ExplosionGuardError when more than max_states distinct state vectors
    appear.
    """
    if scenario.events:
        raise ValueError("the schedule enumeration assumes an event-free scenario")
    topo = scenario.topology
    heights = scenario.heights
    spec = SPECS[scheme]
    table = topo.probe_table
    # A stuck node is never linked to the destination, so its row of the
    # probe table lists exactly the neighbor states a neighbor-aware rule reads.
    neighbors = dict(table) if spec.neighbor_aware else None
    points_from = orientation_predicate(scheme, heights)

    init = (None, *starmap(spec.initial, enumerate(heights.values, start=1)))
    parents: dict[tuple, tuple | None] = {init: None}
    frontier = [init]
    finals: dict[str, tuple] = {}
    oriented_all = True
    transitions = 0

    while frontier:
        vec = frontier.pop()
        stuck = probe_stuck(table, vec, points_from)
        if not stuck:
            digest, oriented = _final_facts(routing_dag(vec, topo, scheme, heights), topo)
            if digest not in finals:
                finals[digest] = vec
                oriented_all = oriented_all and oriented
            continue
        transitions += len(stuck)
        for i in stuck:
            neighbor_states = [vec[j] for j in neighbors[i]] if neighbors is not None else None
            child = (*vec[:i], apply_update(scheme, vec[i], neighbor_states, heights), *vec[i + 1:])
            if child not in parents:
                if len(parents) >= max_states:
                    raise ExplosionGuardError(
                        f"enumeration exceeded {max_states} states for {scheme} on {scenario.scenario_id()}",
                        len(parents), len(frontier),
                    )
                parents[child] = (vec, (i,))
                frontier.append(child)

    witnesses = {}
    for digest, vec in finals.items():
        chain: list[tuple[int, ...]] = []
        cursor = vec
        while parents[cursor] is not None:
            parent, chosen = parents[cursor]
            chain.append(chosen)
            cursor = parent
        chain.reverse()
        # Each step is one node of a stuck set.
        witnesses[digest] = Schedule("fixed", steps=tuple(chain), label=f"witness-{digest[:6]}")

    return EnumerationResult(
        scheme=scheme,
        final_digests=tuple(sorted(finals)),
        states_explored=len(parents),
        transitions=transitions,
        all_destination_oriented=oriented_all,
        witnesses=witnesses,
    )


def check_order_invariance(scenario: Scenario, scheme: SchemeId) -> CheckReport:
    """Every schedule must reach the same final destination-oriented DAG.

    A failing report's counterexample is the witness schedule of the final
    DAG that shows the first failure: the second final DAG when there are
    several, else the only one, which is not oriented.
    """
    result = enumerate_all_schedules(scenario, scheme)
    digests = result.final_digests
    failures: list[str] = []
    if not result.singleton:
        failures.append(f"reached {len(digests)} distinct final DAGs")
    if not result.all_destination_oriented:
        failures.append("reached a final DAG that is not oriented")
    witness = None
    if failures and digests:
        witness = result.witnesses[digests[1] if len(digests) > 1 else digests[0]]
    return _report(
        "order-invariance", scenario, scheme, failures,
        schedule=witness, step=len(witness.steps) if witness else None,
        detail=f"{result.states_explored} states",
    )


def _skipped_for_events(trace: Trace, scenario: Scenario, scheme: SchemeId) -> list[CheckReport]:
    """Informational reports for the event-free checks a run with events skips."""
    skipped = ["step-invariants", "reversal-semantics", "initial-greedy-stability"]
    if SPECS[scheme].reversal is None:
        skipped.remove("reversal-semantics")
    events = "; ".join(f"step {step}: {text}" for step, text in trace.events_applied)
    return [
        _report(
            check, scenario, scheme, [], schedule=trace.schedule,
            detail=f"skipped: it assumes an event-free trace, and the run applied {events}",
            informational=True,
        )
        for check in skipped
    ]


def _raised(
    check: str, scenario: Scenario, scheme: SchemeId, schedule: Schedule, exc: Exception
) -> CheckReport:
    """The failing report of a check whose run raised exc."""
    failure = f"run raised {type(exc).__name__}: {exc}"
    return _report(check, scenario, scheme, [failure], schedule=schedule)


#: Every field of a Trace but its schedule.
_run_fields = itemgetter(*(i for i, name in enumerate(Trace._fields) if name != "schedule"))


def _same_run(first: Trace, second: Trace) -> bool:
    """True if two traces record the same run: equal in every field but the schedule."""
    return _run_fields(first) == _run_fields(second)


def _judge_run(trace: Trace, scenario: Scenario, scheme: SchemeId) -> list[CheckReport]:
    """The termination report of a checked run, then the per-trace checks' reports on it."""
    converged = trace.outcome is Outcome.CONVERGED
    reports = [
        _report(
            "termination", scenario, scheme,
            [] if converged else [f"run ended {trace.outcome} after {len(trace.steps)} steps"],
            schedule=trace.schedule,
            detail=f"{len(trace.steps)} steps, {trace.total_updates} updates",
        )
    ]
    if not converged:
        return reports
    if trace.events_applied:
        return reports + _skipped_for_events(trace, scenario, scheme)
    reports.append(check_step_invariants(trace, scenario, scheme))
    if SPECS[scheme].reversal is not None:
        reports.append(check_reversal_semantics(trace, scenario, scheme))
    reports.append(check_initial_greedy_stability(trace, scenario))
    return reports


def _judge_checked_runs(
    scenario: Scenario, scheme: SchemeId, schedules: Sequence[Schedule]
) -> list[CheckReport]:
    """The reports on a scheme's checked runs, each distinct trace judged once.

    A run that records the same run as the one before it, and follows
    reports that all passed, gets those reports again.  A trace that is
    judged anew releases the kept one first, so at most one trace is alive
    while a check runs.
    """
    reports: list[CheckReport] = []
    kept: tuple[Trace, list[CheckReport]] | None = None
    for schedule in schedules:
        try:
            trace = run_scenario(scenario, scheme, schedule)
        except OverflowRiskError as exc:
            reports.append(_raised("termination", scenario, scheme, schedule, exc))
            continue
        if kept is not None and _same_run(kept[0], trace):
            reports += kept[1]
            continue
        kept = None
        judged = _judge_run(trace, scenario, scheme)
        reports += judged
        if all(r.passed for r in judged):
            kept = trace, judged
    return reports


def _judge_anchor_run(
    scenario: Scenario, scheme: SchemeId, anchor: Schedule, wanted: Collection[SchemeId],
    equivalence: dict[tuple[SchemeId, SchemeId, bool], CheckReport],
) -> CheckReport:
    """The determinism report of a scheme's anchor run.

    The same run anchors every equivalence pair whose reference is the
    scheme and whose shadow is wanted; each such pair's report goes into
    equivalence.
    """
    pairs = [pair for pair in EQUIVALENCE_PAIRS if pair[0] is scheme and pair[1] in wanted]
    try:
        trace = run_scenario(scenario, scheme, anchor)
    except OverflowRiskError as exc:
        skipped = f"vs {scheme.value}: skipped: the reference run raised OverflowRiskError: {exc}"
        for pair in pairs:
            check = "scheme-equivalence" if pair[2] else "scheme-divergence"
            equivalence[pair] = _report(check, scenario, pair[1], [], detail=skipped, informational=True)
        return _raised("determinism", scenario, scheme, anchor, exc)
    determinism = check_determinism(trace)
    for pair in pairs:
        equivalence[pair] = check_scheme_equivalence(trace, pair[1], pair[2])
    return determinism


def standard_battery(
    scenario: Scenario,
    schemes: Sequence[SchemeId] = CORE_SCHEMES,
    seed: int = 0,
) -> list[CheckReport]:
    """The per-scenario checks run by the command line verifier.

    The step-invariant, reversal-semantics and initial-greedy-stability
    checks assume an event-free trace; for a run that applied events each
    yields an informational report that names the events instead.  A run
    that raises OverflowRiskError fails the check it was made for,
    termination or determinism, and the battery goes on without it; when
    that run is the reference of equivalence pairs, each pair gets an
    informational report that says it was skipped and why.

    Each scheme's two checked runs are both made, but each distinct trace
    is judged once (see the module docstring): a second run that records
    the same run as the first reuses the first's reports when all passed.
    No trace outlives the helper that judges it, so at most one is alive
    while a check runs.
    """
    reports: list[CheckReport] = []
    wanted = set(schemes)
    equivalence: dict[tuple[SchemeId, SchemeId, bool], CheckReport] = {}
    # Schedules are immutable, so every scheme shares one of each.
    checked = (Schedule.single_random(seed), Schedule.subset_random(seed + 1))
    anchor = Schedule.subset_random(seed)
    for scheme in schemes:
        reports += _judge_checked_runs(scenario, scheme, checked)
        # The equivalence reports wait for the end, in EQUIVALENCE_PAIRS order.
        reports.append(_judge_anchor_run(scenario, scheme, anchor, wanted, equivalence))
    reports.extend(equivalence[pair] for pair in EQUIVALENCE_PAIRS if pair in equivalence)
    return reports

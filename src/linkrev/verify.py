"""Trace verification: invariants, reversal semantics, schedule invariance.

Checks consume recorded traces rather than re-deriving them, so a corrupted
or hand-edited trace is caught.  Failing reports carry a replayable
counterexample: the serialized scenario, the schedule, and the step index.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import ExplosionGuardError, ScheduleError
from .model import (
    DESTINATION,
    CORE_SCHEMES,
    COUNTER_SCHEMES,
    FULL_REVERSAL_SCHEMES,
    PARTIAL_REVERSAL_SCHEMES,
    PHASE_MODULUS,
    RoutingDag,
    SchemeId,
    State,
    Topology,
    is_acyclic,
    is_destination_oriented,
    orientation_predicate,
    routing_dag,
    sort_key,
    stuck_set,
)
from .scenario import Scenario, serialize_scenario
from .schemes import closed_form_height, initial_states, threshold, apply_update, RULES
from .sim import Outcome, Schedule, Simulation, Trace, run_scenario
from .traceio import trace_to_jsonl


@dataclass(frozen=True)
class Counterexample:
    """Everything needed to replay a failing run."""

    scenario_text: str
    schedule: Schedule
    step: int | None
    message: str


@dataclass(frozen=True)
class CheckReport:
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
            schedule=schedule or Schedule.single_random(0),
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


def _require_plain_trace(trace: Trace, need_arcs: bool = False) -> None:
    if trace.events_applied:
        raise ValueError("this check assumes an event-free trace")
    if need_arcs and any(rec.arcs is None for rec in trace.steps):
        raise ValueError("this check needs per-step orientations; run with record_arcs=True")


def _timeline(trace: Trace, scenario: Scenario, scheme: SchemeId):
    """Reconstruct the full state vector after each recorded step."""
    states = initial_states(scheme, scenario.topology, scenario.heights)
    yield 0, dict(states), None
    for rec in trace.steps:
        states = {**states, **{s.node: s for s in rec.new_states}}
        yield rec.index, dict(states), rec


def _monotone_failure(scheme: SchemeId, old: State, new: State) -> str | None:
    if scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL):
        if new.phase != (old.phase + 1) % PHASE_MODULUS:
            return f"phase of node {old.node} moved {old.phase}->{new.phase}, not one step"
        return None
    if scheme is SchemeId.ONE_BIT_FULL:
        if new.flag != old.flag ^ 1:
            return f"flag of node {old.node} did not toggle ({old.flag}->{new.flag})"
        return None
    if not sort_key(new, scheme) > sort_key(old, scheme):
        return f"state of node {old.node} did not strictly increase: {old} -> {new}"
    return None


def check_step_invariants(trace: Trace, scenario: Scenario, scheme: SchemeId) -> CheckReport:
    """Per-step structural invariants of the recorded run.

    Covers: recorded DAG digests, acyclicity, the stuck/oriented
    equivalence, strictly advancing updater states, closed-form heights
    and height bands for the counted schemes, update counts bounded by
    the node count, and neighbor adjacency of counters, levels and phases.
    """
    _require_plain_trace(trace)
    topo = scenario.topology
    heights = scenario.heights
    max_height = heights.max_height
    failures: list[str] = []
    fail_step: int | None = None
    prev_states: dict[int, State] | None = None

    for index, states, rec in _timeline(trace, scenario, scheme):
        dag = routing_dag(states, topo, scheme, heights)
        tag = f"step {index}"
        if rec is not None:
            if set(rec.updated) - set(rec.stuck):
                failures.append(f"{tag}: updated nodes {rec.updated} not all stuck")
            for s in rec.new_states:
                problem = _monotone_failure(scheme, prev_states[s.node], s)
                if problem:
                    failures.append(f"{tag}: {problem}")
            if dag.digest() != rec.dag_digest:
                failures.append(f"{tag}: recorded digest {rec.dag_digest} does not match states")
            if rec.arcs is not None and rec.arcs != dag.arcs:
                failures.append(f"{tag}: recorded orientation does not match states")
        elif dag.digest() != trace.initial_digest:
            failures.append("initial digest does not match the scenario")

        if not is_acyclic(dag):
            failures.append(f"{tag}: orientation has a cycle")
        oriented = is_destination_oriented(dag, topo)
        if bool(stuck_set(dag, topo)) == oriented:
            failures.append(f"{tag}: stuck set emptiness disagrees with orientation")

        if scheme in COUNTER_SCHEMES:
            for i, s in states.items():
                h0 = heights.of(i)
                if s.updates > trace.n:
                    failures.append(f"{tag}: node {i} update count {s.updates} exceeds n={trace.n}")
                if s.height != closed_form_height(scheme, s.updates, h0, max_height):
                    failures.append(f"{tag}: node {i} height {s.height} off closed form")
                if scheme is SchemeId.NO_FULL:
                    if not (s.updates * max_height < s.height <= (s.updates + 1) * max_height):
                        failures.append(f"{tag}: node {i} height {s.height} outside its band")
                elif s.updates >= 1 and not (
                    threshold(s.updates - 1, max_height) < s.height < threshold(s.updates, max_height)
                ):
                    failures.append(f"{tag}: node {i} height {s.height} outside its band")
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                ta, tb = states[a].updates, states[b].updates
                if abs(ta - tb) > 1:
                    failures.append(f"{tag}: update counts of {a},{b} differ by {abs(ta - tb)}")
                if ta > tb and not states[a].height > states[b].height:
                    failures.append(f"{tag}: node {a} updated more but is not higher than {b}")
                if tb > ta and not states[b].height > states[a].height:
                    failures.append(f"{tag}: node {b} updated more but is not higher than {a}")
        elif scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL):
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                if (states[a].phase - states[b].phase) % PHASE_MODULUS == 2:
                    failures.append(f"{tag}: phases of neighbors {a},{b} drifted two apart")
        elif scheme is SchemeId.GB_PARTIAL:
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                if abs(states[a].level - states[b].level) > 1:
                    failures.append(f"{tag}: levels of neighbors {a},{b} drifted apart")

        if failures:
            fail_step = index
            break
        prev_states = states

    if not failures and scheme in COUNTER_SCHEMES and trace.steps:
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
    _require_plain_trace(trace, need_arcs=True)
    if scheme not in FULL_REVERSAL_SCHEMES and scheme not in PARTIAL_REVERSAL_SCHEMES:
        raise ValueError(f"reversal semantics are undefined for {scheme}")
    topo = scenario.topology
    failures: list[str] = []
    fail_step: int | None = None

    arcs_prev = {(min(s, d), max(s, d)): (s, d) for s, d in trace.initial_arcs}
    reversed_toward: dict[int, set[int]] = {i: set() for i in topo.nodes}
    pending_second: dict[int, int] = {}
    silent_updates = 0

    for rec in trace.steps:
        arcs_now = {(min(s, d), max(s, d)): (s, d) for s, d in rec.arcs}
        flipped = {e for e, arc in arcs_now.items() if arcs_prev[e] != arc}
        updated = set(rec.updated)

        for e in flipped:
            touched = [x for x in e if x in updated]
            if len(touched) != 1:
                failures.append(f"step {rec.index}: link {e} flipped without a unique updater")

        for u in rec.updated:
            nbrs = {j for j in topo.neighbors(u) if j != DESTINATION}
            flipped_at_u = {a + b - u for a, b in flipped if u in (a, b)}
            if scheme in FULL_REVERSAL_SCHEMES:
                outgoing = {d for s, d in arcs_now.values() if s == u}
                if outgoing != set(topo.neighbors(u)):
                    failures.append(
                        f"step {rec.index}: node {u} updated but links {sorted(nbrs - outgoing)} still point in"
                    )
            else:
                expected = nbrs - reversed_toward[u]
                if scheme is SchemeId.GB_PARTIAL and not expected:
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
                reversed_toward[u] = set()

        for a, b in flipped:
            source = arcs_now[(a, b)][0]
            other = a + b - source
            if source in updated and other != DESTINATION and other in reversed_toward:
                reversed_toward[other].add(source)

        for u, since in pending_second.items():
            if u not in updated and any(s == u for s, _ in arcs_now.values()):
                failures.append(
                    f"step {rec.index}: node {u} should stay stuck between its paired updates (silent at {since})"
                )

        if failures:
            fail_step = rec.index
            break
        arcs_prev = arcs_now

    if not failures and trace.outcome is Outcome.CONVERGED and pending_second:
        failures.append(
            f"nodes {sorted(pending_second)} did a silent update but never completed the pair"
        )

    detail = f"{len(trace.steps)} steps clean"
    if scheme in PARTIAL_REVERSAL_SCHEMES:
        detail += f", {silent_updates} silent first halves"
    return _report(
        "reversal-semantics", scenario, scheme, failures,
        schedule=trace.schedule, step=fail_step, detail=detail,
    )


def check_initial_greedy_stability(trace: Trace, scenario: Scenario) -> CheckReport:
    """Only nodes with no initial directed path to the destination update."""
    _require_plain_trace(trace)
    initial = RoutingDag(trace.initial_arcs)
    reverse: dict[int, list[int]] = {}
    for s, d in initial.arcs:
        reverse.setdefault(d, []).append(s)
    reach = {DESTINATION}
    stack = [DESTINATION]
    while stack:
        i = stack.pop()
        for j in reverse.get(i, ()):
            if j not in reach:
                reach.add(j)
                stack.append(j)
    updaters = {i for rec in trace.steps for i in rec.updated}
    offenders = sorted(updaters & (reach - {DESTINATION}))
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


def check_scheme_equivalence(
    scenario: Scenario,
    schedule: Schedule,
    reference: SchemeId,
    shadow: SchemeId,
    gating: bool = True,
) -> CheckReport:
    """Replay the reference run's update sets under the shadow scheme.

    Equivalent schemes must produce identical stuck sets and orientations
    at every step.  A shadow node that is not stuck when scheduled is a
    replay mismatch and fails the check.  With gating=False the comparison
    is informational: divergence is reported, not failed.
    """
    ref = run_scenario(scenario, reference, schedule, record_arcs=True)
    failures: list[str] = []
    fail_step: int | None = None
    if ref.outcome is not Outcome.CONVERGED:
        failures.append(f"reference run ended {ref.outcome} and cannot anchor a replay")
        return _report("scheme-equivalence", scenario, shadow, failures, schedule=schedule)

    replay = Schedule.fixed(
        [rec.updated for rec in ref.steps], label=f"replay-of-{reference.value}"
    )
    sim = Simulation(scenario, shadow, replay, step_limit=len(ref.steps) + 1, record_arcs=True)
    divergence: str | None = None
    for rec in ref.steps:
        stuck = sim.stuck_nodes()
        if stuck != rec.stuck:
            divergence = f"step {rec.index}: stuck sets {list(stuck)} vs {list(rec.stuck)}"
            fail_step = rec.index
            break
        try:
            srec = sim.step()
        except ScheduleError as exc:
            divergence = f"step {rec.index}: schedule replay mismatch: {exc}"
            fail_step = rec.index
            break
        if srec.arcs != rec.arcs:
            divergence = f"step {rec.index}: orientations diverge"
            fail_step = rec.index
            break
    if divergence is None and sim.stuck_nodes():
        divergence = "shadow run still stuck after replaying every step"

    if divergence is not None:
        if not gating:
            return _report(
                "scheme-divergence", scenario, shadow, [],
                detail=f"vs {reference.value}: {divergence}", informational=True,
            )
        failures.append(f"vs {reference.value}: {divergence}")
    return _report(
        "scheme-equivalence" if gating else "scheme-divergence",
        scenario, shadow, failures,
        schedule=schedule, step=fail_step,
        detail=f"lockstep with {reference.value} across {len(ref.steps)} steps",
        informational=not gating,
    )


def check_determinism(scenario: Scenario, scheme: SchemeId, schedule: Schedule) -> CheckReport:
    """Two fresh runs with identical inputs must serialize byte-identically."""
    first = trace_to_jsonl(run_scenario(scenario, scheme, schedule))
    second = trace_to_jsonl(run_scenario(scenario, scheme, schedule))
    failures = [] if first == second else ["reruns differ"]
    return _report(
        "determinism", scenario, scheme, failures,
        schedule=schedule, detail=f"{len(first.splitlines())} identical records",
    )


# --- exhaustive schedule enumeration ----------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    scheme: SchemeId
    branching: str
    final_digests: tuple[str, ...]
    final_arcs: Mapping[str, tuple[tuple[int, int], ...]]
    states_explored: int
    transitions: int
    all_destination_oriented: bool
    witnesses: Mapping[str, Schedule]

    @property
    def singleton(self) -> bool:
        return len(self.final_digests) == 1


def _nonempty_subsets(items: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    for mask in range(1, 1 << len(items)):
        yield tuple(i for bit, i in enumerate(items) if mask >> bit & 1)


def enumerate_all_schedules(
    scenario: Scenario,
    scheme: SchemeId,
    branching: str = "subset",
    max_states: int = 10**6,
    traversal: str = "dfs",
) -> EnumerationResult:
    """Explore every schedule, memoizing on the global state vector.

    branching="single" updates one stuck node per step; "subset" branches
    over every nonempty subset of the stuck set (and therefore visits a
    superset of the single-node runs).  Raises ExplosionGuardError when
    more than max_states distinct state vectors appear.
    """
    if branching not in ("single", "subset"):
        raise ValueError(f"unknown branching {branching!r}")
    topo = scenario.topology
    heights = scenario.heights
    nodes = topo.nodes
    node_index = {i: k for k, i in enumerate(nodes)}
    plain_neighbors = {
        i: tuple(j for j in topo.neighbors(i) if j != DESTINATION) for i in nodes
    }
    dest_adjacent = frozenset(j for j in topo.neighbors(DESTINATION))
    aware = RULES[scheme].neighbor_aware
    points_from = orientation_predicate(scheme, heights)

    init = tuple(initial_states(scheme, topo, heights)[i] for i in nodes)
    parents: dict[tuple, tuple | None] = {init: None}
    frontier = [init]
    finals: dict[str, tuple] = {}
    final_arcs: dict[str, tuple[tuple[int, int], ...]] = {}
    oriented_all = True
    transitions = 0

    while frontier:
        vec = frontier.pop() if traversal == "dfs" else frontier.pop(0)
        found = []
        for i in nodes:
            if i in dest_adjacent:
                continue
            own = vec[node_index[i]]
            for j in plain_neighbors[i]:
                if points_from(own, vec[node_index[j]]):
                    break
            else:
                found.append(i)
        stuck = tuple(found)
        if not stuck:
            states = dict(zip(nodes, vec))
            dag = routing_dag(states, topo, scheme, heights)
            digest = dag.digest()
            if digest not in finals:
                finals[digest] = vec
                final_arcs[digest] = dag.arcs
                oriented_all = oriented_all and is_destination_oriented(dag, topo)
            continue
        options = (
            tuple((i,) for i in stuck) if branching == "single" else tuple(_nonempty_subsets(stuck))
        )
        for chosen in options:
            fresh = list(vec)
            for i in chosen:
                own = vec[node_index[i]]
                neighbor_states = (
                    [vec[node_index[j]] for j in plain_neighbors[i]] if aware else None
                )
                fresh[node_index[i]] = apply_update(scheme, own, neighbor_states, heights)
            child = tuple(fresh)
            transitions += 1
            if child not in parents:
                if len(parents) >= max_states:
                    raise ExplosionGuardError(
                        f"enumeration exceeded {max_states} states for {scheme} on {scenario.scenario_id()}"
                    )
                parents[child] = (vec, chosen)
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
        witnesses[digest] = Schedule.fixed(chain, label=f"witness-{digest[:6]}")

    return EnumerationResult(
        scheme=scheme,
        branching=branching,
        final_digests=tuple(sorted(finals)),
        final_arcs=final_arcs,
        states_explored=len(parents),
        transitions=transitions,
        all_destination_oriented=oriented_all,
        witnesses=witnesses,
    )


def check_order_invariance(
    scenario: Scenario,
    scheme: SchemeId,
    max_states: int = 10**6,
    informational: bool = False,
) -> CheckReport:
    """Every schedule must reach the same final destination-oriented DAG."""
    failures: list[str] = []
    details = []
    for branching in ("single", "subset"):
        result = enumerate_all_schedules(scenario, scheme, branching, max_states)
        details.append(f"{branching}: {result.states_explored} states")
        if not result.singleton:
            failures.append(
                f"{branching} branching reached {len(result.final_digests)} distinct final DAGs"
            )
        if not result.all_destination_oriented:
            failures.append(f"{branching} branching reached a final DAG that is not oriented")
    return _report(
        "order-invariance", scenario, scheme, failures,
        detail="; ".join(details), informational=informational,
    )


def standard_battery(
    scenario: Scenario,
    schemes: Sequence[SchemeId] = CORE_SCHEMES,
    seed: int = 0,
) -> list[CheckReport]:
    """The per-scenario checks run by the command line verifier."""
    reports: list[CheckReport] = []
    for scheme in schemes:
        for schedule in (Schedule.single_random(seed), Schedule.subset_random(seed + 1)):
            trace = run_scenario(scenario, scheme, schedule)
            converged = trace.outcome is Outcome.CONVERGED
            reports.append(
                _report(
                    "termination", scenario, scheme,
                    [] if converged else [f"run ended {trace.outcome} after {len(trace.steps)} steps"],
                    schedule=schedule,
                    detail=f"{len(trace.steps)} steps, {trace.total_updates} updates",
                )
            )
            if not converged:
                continue
            reports.append(check_step_invariants(trace, scenario, scheme))
            if scheme is not SchemeId.BASELINE_INCREMENT:
                reports.append(check_reversal_semantics(trace, scenario, scheme))
            reports.append(check_initial_greedy_stability(trace, scenario))
        reports.append(check_determinism(scenario, scheme, Schedule.subset_random(seed)))
    wanted = set(schemes)
    for reference, shadow, gating in EQUIVALENCE_PAIRS:
        if reference in wanted and shadow in wanted:
            reports.append(
                check_scheme_equivalence(
                    scenario, Schedule.subset_random(seed), reference, shadow, gating
                )
            )
    return reports

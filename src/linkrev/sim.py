"""Deterministic round-based simulator for the reversal schemes.

Each step: scripted events due at the step are applied, stuck nodes are
detected through hello/ack probing on the awake part of the graph, the
schedule picks a nonempty subset of them, and the chosen nodes update
simultaneously against a snapshot of the pre-step states.  New states
become visible to neighbors from the next step on.  Stuck nodes are never
adjacent (each link has an outgoing endpoint), so simultaneous updates in
one step cannot observe each other, but the snapshot discipline is kept
explicit anyway.

A run ends Converged when no node is stuck and no scripted event remains,
StepLimit when the step budget is exhausted on a connected graph, and
Partitioned when the awake graph is disconnected: for the counter-carrying
schemes the certificate is a stuck node whose update count has reached the
node count (impossible on a connected graph); for the finite-state schemes
partition is reported when the step budget runs out while the awake graph
is disconnected.

The step kernel is incremental.  A Simulation keeps the current arcs of the
awake graph in canonical edge order, each awake node's out-degree, the
stuck set, and the awake set and topology.  An update changes only the
updater's own state, so after a step only the links of the updaters U can
flip: they alone are re-oriented, through one orientation predicate
compiled for the scheme and heights, which costs O(sum of deg U) instead
of an orientation pass over every link.  A topology event rebuilds all of
it from scratch with routing_dag, lazily at the next stuck query.  An edge
is reported reversed when it was in the previously recorded orientation
and now points the other way.

Cross-checks kept on the incremental path:

- After each step, hello_round probes every node whose own state or a
  neighbor's state changed (U and its awake neighbors) and must agree with
  the maintained stuck set; no other node's probe inputs changed.  After
  each rebuild every awake node is probed.
- Whenever the stuck set is empty on a connected awake graph, the
  maintained orientation must be destination-oriented.  While the stuck
  set is nonempty that follows from the probes, since a stuck node has no
  outgoing link.
"""

from __future__ import annotations

import heapq
import os
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AdditionForbiddenError,
    EmptyNeighborhoodError,
    EmptyStuckSetError,
    EventError,
    ScheduleError,
)
from .model import (
    DESTINATION,
    COUNTER_SCHEMES,
    HeightAssignment,
    RoutingDag,
    SchemeId,
    State,
    Topology,
    is_destination_oriented,
    orientation_predicate,
    routing_dag,
)
from .scenario import Scenario, SimEvent
from .schemes import RULES, apply_update, initial_states

STEP_LIMIT_ENV = "LINKREV_STEP_LIMIT"


def default_step_limit(n: int) -> int:
    """4*N*N unless overridden through the environment."""
    override = os.environ.get(STEP_LIMIT_ENV)
    if override:
        return int(override)
    return 4 * n * n


class Outcome(str, Enum):
    CONVERGED = "converged"
    STEP_LIMIT = "step-limit"
    PARTITIONED = "partitioned"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Schedule:
    """Adversary policy choosing which stuck nodes update each step."""

    kind: str  # "single-random" | "subset-random" | "fixed"
    seed: int | None = None
    steps: tuple[tuple[int, ...], ...] | None = None
    label: str | None = None

    @classmethod
    def single_random(cls, seed: int) -> Schedule:
        return cls(kind="single-random", seed=seed)

    @classmethod
    def subset_random(cls, seed: int) -> Schedule:
        return cls(kind="subset-random", seed=seed)

    @classmethod
    def fixed(cls, steps: Sequence[Sequence[int]], label: str | None = None) -> Schedule:
        frozen = tuple(tuple(sorted(step)) for step in steps)
        for step in frozen:
            if not step:
                raise ScheduleError("a fixed schedule step cannot be empty")
        return cls(kind="fixed", steps=frozen, label=label)

    def describe(self) -> str:
        if self.kind == "fixed":
            tag = f"[{self.label}]" if self.label else ""
            return f"fixed{tag}({len(self.steps or ())} steps)"
        return f"{self.kind}(seed={self.seed})"

    def selector(self) -> _Selector:
        return _Selector(self)


class _Selector:
    """Stateful per-run view of a schedule."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self._rng = random.Random(schedule.seed) if schedule.kind != "fixed" else None

    def select(self, stuck: tuple[int, ...], index: int) -> tuple[int, ...]:
        kind = self.schedule.kind
        if kind == "single-random":
            return (self._rng.choice(stuck),)
        if kind == "subset-random":
            mask = self._rng.randrange(1, 1 << len(stuck))
            return tuple(i for bit, i in enumerate(stuck) if mask >> bit & 1)
        steps = self.schedule.steps or ()
        if index > len(steps):
            raise ScheduleError(
                f"fixed schedule exhausted after {len(steps)} steps but the network is still stuck"
            )
        chosen = steps[index - 1]
        extras = set(chosen) - set(stuck)
        if extras:
            raise ScheduleError(
                f"fixed schedule step {index} selects {sorted(extras)} which are not stuck"
            )
        return chosen


@dataclass(frozen=True)
class StepRecord:
    """What happened in one simulation step."""

    index: int
    stuck: tuple[int, ...]
    updated: tuple[int, ...]
    new_states: tuple[State, ...]
    dag_digest: str
    reversed_edges: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class Trace:
    """Full record of a run; deterministic for a given scenario and schedule."""

    scheme: SchemeId
    n: int
    schedule: Schedule
    step_limit: int
    initial_arcs: tuple[tuple[int, int], ...]
    initial_digest: str
    steps: tuple[StepRecord, ...]
    outcome: Outcome
    certificate: str | None
    update_counts: Mapping[int, int]
    total_updates: int
    total_reversals: int
    final_digest: str
    final_states: tuple[State, ...]
    events_applied: tuple[tuple[int, str], ...]

    @property
    def converged(self) -> bool:
        return self.outcome is Outcome.CONVERGED


def hello_round(
    i: int,
    states: Mapping[int, State],
    topo: Topology,
    awake: frozenset[int],
    scheme: SchemeId,
    heights: HeightAssignment,
) -> bool:
    """True if node i finds itself stuck: no awake forwarding neighbor acks.

    Sleeping neighbors never answer, so their states are not consulted at
    all; the destination is always awake.
    """
    if i not in awake:
        raise ValueError(f"node {i} is not awake")
    points_from = orientation_predicate(scheme, heights)
    own = states[i]
    for j in topo.neighbors(i):
        if j == DESTINATION:
            return False
        if j in awake and points_from(own, states[j]):
            return False
    return True


class Simulation:
    """Mutable run state; use run() for the whole trajectory or step() manually."""

    def __init__(
        self,
        scenario: Scenario,
        scheme: SchemeId,
        schedule: Schedule | None = None,
        step_limit: int | None = None,
        record_arcs: bool = True,
    ):
        self.scenario = scenario
        self.scheme = scheme
        self.heights = scenario.heights
        self.n = scenario.n
        self.schedule = schedule or Schedule.single_random(scenario.seed or 0)
        self._selector = self.schedule.selector()
        self.step_limit = step_limit if step_limit is not None else default_step_limit(scenario.n)
        self.record_arcs = record_arcs

        self.live: Topology = scenario.topology
        self.sleeping: dict[int, bool] = {}
        self.states: dict[int, State] = initial_states(scheme, self.live, self.heights)
        self.steps: list[StepRecord] = []
        self.events_applied: list[tuple[int, str]] = []
        self.update_counts: dict[int, int] = {i: 0 for i in self.live.nodes}
        self.total_reversals = 0

        self._queue: list[tuple[int, int, SimEvent]] = []
        self._queue_seq = 0
        for ev in scenario.events:
            self._push_event(ev)

        self._points_from = orientation_predicate(scheme, self.heights)
        self._set_awake()
        self._reorient_all()
        self.initial_arcs = tuple(self._arcs)
        self.initial_digest = RoutingDag(self.initial_arcs).digest()
        # Edge index and arcs of the last recorded orientation.
        self._recorded = (self._edge_index, self.initial_arcs)

    # -- topology bookkeeping ------------------------------------------------

    def _push_event(self, ev: SimEvent) -> None:
        heapq.heappush(self._queue, (ev.at_step, self._queue_seq, ev))
        self._queue_seq += 1

    def _set_awake(self) -> None:
        """Cache the awake set and topology; the orientation is rebuilt on next use."""
        self._awake = frozenset(i for i in self.live.nodes if i not in self.sleeping)
        self._awake_topo = (
            self.live.without(drop_nodes=self.sleeping) if self.sleeping else self.live
        )
        self._stale = True

    @property
    def awake(self) -> frozenset[int]:
        return self._awake

    def awake_topology(self) -> Topology:
        return self._awake_topo

    def apply_event(self, ev: SimEvent) -> None:
        """Apply one topology event immediately."""
        if ev.kind.startswith("add-"):
            raise AdditionForbiddenError("topology additions are not modeled")
        if ev.kind == "remove-node":
            if not self.live.has_node(ev.node) or ev.node == DESTINATION:
                raise EventError(f"cannot remove node {ev.node}")
            self.live = self.live.without(drop_nodes=(ev.node,))
            self.states.pop(ev.node, None)
            self.sleeping.pop(ev.node, None)
        elif ev.kind == "remove-link":
            if ev.edge not in set(self.live.edges):
                raise EventError(f"cannot remove missing link {ev.edge}")
            self.live = self.live.without(drop_edges=(ev.edge,))
        elif ev.kind == "sleep":
            if not self.live.has_node(ev.node) or ev.node == DESTINATION:
                raise EventError(f"cannot put node {ev.node} to sleep")
            self.sleeping[ev.node] = True
            wake = SimEvent(at_step=ev.at_step + ev.duration, kind="wake", node=ev.node)
            self._push_event(wake)
        elif ev.kind == "wake":
            self.sleeping.pop(ev.node, None)
        else:
            raise EventError(f"unknown event kind {ev.kind!r}")
        self._set_awake()
        self.events_applied.append((ev.at_step, ev.describe()))

    def _apply_due_events(self) -> None:
        due_step = len(self.steps) + 1
        while self._queue and self._queue[0][0] <= due_step:
            _, _, ev = heapq.heappop(self._queue)
            self.apply_event(ev)

    def _fast_forward_events(self) -> None:
        # Converged but events still scheduled: time passes quietly until the
        # next event fires.  Step indices keep counting update steps only.
        if not self._queue:
            return
        next_step = self._queue[0][0]
        while self._queue and self._queue[0][0] == next_step:
            _, _, ev = heapq.heappop(self._queue)
            self.apply_event(ev)

    # -- orientation and stuck detection -------------------------------------

    def _reorient_all(self) -> None:
        """Orient every awake link from scratch; re-derive out-degrees and the stuck set."""
        topo = self._awake_topo
        dag = routing_dag(self.states, topo, self.scheme, self.heights)
        self._edge_index = {e: k for k, e in enumerate(topo.edges)}
        self._arcs = list(dag.arcs)
        self._out_degree = dict.fromkeys(topo.nodes, 0)
        for s, _ in dag.arcs:
            if s != DESTINATION:
                self._out_degree[s] += 1
        self._stuck = {i for i, degree in self._out_degree.items() if degree == 0}
        self._stuck_view = tuple(sorted(self._stuck))
        self._stale = False
        self._cross_check(topo.nodes)

    def _reorient_updaters(self, updated: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Re-orient the links of the updated nodes, the only ones that can flip.

        Returns the edges that were in the last recorded orientation and now
        point the other way, in canonical edge order.
        """
        # Stays set if the predicate raises, so the next query rebuilds.
        self._stale = True
        states, points_from = self.states, self._points_from
        arcs, index, out_degree = self._arcs, self._edge_index, self._out_degree
        recorded_index, recorded_arcs = self._recorded
        changed = set(updated)
        flipped = []
        # Updaters were stuck, and stuck nodes are never adjacent, so each
        # link below is visited once.
        for u in updated:
            own = states[u]
            for j in self._awake_topo.neighbors(u):
                if j == DESTINATION:
                    continue  # links into the destination never flip
                changed.add(j)
                edge = (u, j) if u < j else (j, u)
                arc = (u, j) if points_from(own, states[j]) else (j, u)
                k = index[edge]
                if arcs[k] != arc:
                    arcs[k] = arc
                    out_degree[arc[0]] += 1
                    out_degree[arc[1]] -= 1
                was = recorded_index.get(edge)
                if was is not None and recorded_arcs[was] != arc:
                    flipped.append(edge)
        for i in changed:
            if out_degree[i]:
                self._stuck.discard(i)
            else:
                self._stuck.add(i)
        self._stuck_view = tuple(sorted(self._stuck))
        self._stale = False
        self._cross_check(changed)
        return tuple(sorted(flipped))

    def _cross_check(self, probed: Iterable[int]) -> None:
        """Hello probes of the given nodes must agree with the maintained stuck set."""
        for i in probed:
            by_probe = hello_round(i, self.states, self.live, self._awake, self.scheme, self.heights)
            assert by_probe == (i in self._stuck), (
                f"probe of node {i} disagrees with orientation view {list(self._stuck_view)}"
            )
        if not self._stuck and self._awake_topo.is_connected:
            assert is_destination_oriented(RoutingDag(tuple(self._arcs)), self._awake_topo), (
                "empty stuck set must coincide with destination orientation"
            )

    def stuck_nodes(self) -> tuple[int, ...]:
        """Sorted stuck set of the awake graph, maintained step by step."""
        if self._stale:
            self._reorient_all()
        return self._stuck_view

    # -- stepping ------------------------------------------------------------

    def _eligible(self, stuck: tuple[int, ...]) -> tuple[int, ...]:
        """Stuck nodes that can actually update now.

        The neighbor-aware rules need at least one awake neighbor to read;
        a stuck node isolated from every awake neighbor stays stuck but
        cannot be scheduled.  Oblivious rules are always eligible.
        """
        if not RULES[self.scheme].neighbor_aware:
            return stuck
        awake = self._awake
        return tuple(
            i
            for i in stuck
            if any(j != DESTINATION and j in awake for j in self.live.neighbors(i))
        )

    def step(self) -> StepRecord:
        """Run one update step; raises EmptyStuckSetError when already oriented."""
        stuck = self.stuck_nodes()
        if not stuck:
            raise EmptyStuckSetError("no node is stuck; nothing to schedule")
        eligible = self._eligible(stuck)
        if not eligible:
            raise EmptyNeighborhoodError(
                f"stuck nodes {list(stuck)} have no awake neighbor to read"
            )
        index = len(self.steps) + 1
        chosen = tuple(sorted(self._selector.select(eligible, index)))
        if not chosen or set(chosen) - set(eligible):
            raise ScheduleError(f"schedule returned an invalid subset {chosen}")

        snapshot = self.states
        fresh: dict[int, State] = {}
        awake = self._awake
        for i in chosen:
            own = snapshot[i]
            if RULES[self.scheme].neighbor_aware:
                # A stuck node is never destination-adjacent, so the snapshot
                # below only ever contains ordinary neighbor states.
                neighbor_states = [
                    snapshot[j]
                    for j in self.live.neighbors(i)
                    if j != DESTINATION and j in awake
                ]
                fresh[i] = apply_update(self.scheme, own, neighbor_states, self.heights)
            else:
                fresh[i] = apply_update(self.scheme, own, None, self.heights)
        self.states = {**snapshot, **fresh}
        for i in chosen:
            self.update_counts[i] += 1

        flipped = self._reorient_updaters(chosen)
        self.total_reversals += len(flipped)
        arcs = tuple(self._arcs)
        record = StepRecord(
            index=index,
            stuck=stuck,
            updated=chosen,
            new_states=tuple(fresh[i] for i in chosen),
            dag_digest=RoutingDag(arcs).digest(),
            reversed_edges=flipped,
            arcs=arcs if self.record_arcs else None,
        )
        self.steps.append(record)
        self._recorded = (self._edge_index, arcs)
        return record

    def _partition_certificate(self, stuck: tuple[int, ...]) -> str | None:
        if self.scheme not in COUNTER_SCHEMES:
            return None
        for i in stuck:
            if self.states[i].updates >= self.n:
                return (
                    f"node {i} is stuck at update count {self.states[i].updates}; "
                    f"another update would exceed the node count {self.n}, "
                    "impossible on a connected graph"
                )
        return None

    def run(self) -> Trace:
        """Iterate until convergence, partition evidence, or the step budget."""
        outcome: Outcome
        certificate: str | None = None
        while True:
            self._apply_due_events()
            stuck = self.stuck_nodes()
            if not stuck:
                if self._queue:
                    self._fast_forward_events()
                    continue
                outcome = Outcome.CONVERGED
                break
            certificate = self._partition_certificate(stuck)
            if certificate is not None:
                outcome = Outcome.PARTITIONED
                break
            if not self._eligible(stuck):
                if self._queue:
                    # Isolation caused by sleep is transient: let the clock
                    # jump to the next scripted wake or removal.
                    self._fast_forward_events()
                    continue
                outcome = Outcome.PARTITIONED
                certificate = (
                    f"stuck nodes {list(stuck)} have no awake neighbor left to "
                    "read, which cannot happen on a connected graph"
                )
                break
            if len(self.steps) >= self.step_limit:
                if not self.awake_topology().is_connected:
                    outcome = Outcome.PARTITIONED
                    certificate = (
                        f"step budget {self.step_limit} exhausted while the awake "
                        "graph is disconnected"
                    )
                else:
                    outcome = Outcome.STEP_LIMIT
                break
            self.step()
        return self._finalize(outcome, certificate)

    def _finalize(self, outcome: Outcome, certificate: str | None) -> Trace:
        final = RoutingDag(tuple(self._arcs))
        return Trace(
            scheme=self.scheme,
            n=self.n,
            schedule=self.schedule,
            step_limit=self.step_limit,
            initial_arcs=self.initial_arcs,
            initial_digest=self.initial_digest,
            steps=tuple(self.steps),
            outcome=outcome,
            certificate=certificate,
            update_counts=dict(self.update_counts),
            total_updates=sum(self.update_counts.values()),
            total_reversals=self.total_reversals,
            final_digest=final.digest(),
            final_states=tuple(self.states[i] for i in sorted(self.states)),
            events_applied=tuple(self.events_applied),
        )


def run_scenario(
    scenario: Scenario,
    scheme: SchemeId,
    schedule: Schedule | None = None,
    step_limit: int | None = None,
    record_arcs: bool = True,
) -> Trace:
    """Convenience wrapper: build a Simulation and run it to completion."""
    sim = Simulation(scenario, scheme, schedule, step_limit, record_arcs)
    return sim.run()

"""Deterministic round-based simulator for the reversal schemes.

Each step: scripted events due at the step are applied, stuck nodes are
detected through hello/ack probing on the awake part of the graph, the
schedule picks a nonempty subset of them, and the chosen nodes update
simultaneously.  Every chosen node's new state is computed from the
pre-step states before any of them is written, and the new states become
visible to neighbors from the next step on.  Stuck nodes are never
adjacent (each link has an outgoing endpoint), so simultaneous updates in
one step cannot observe each other, but the compute-then-write order is
kept explicit anyway.  The new states are written into Simulation.states
in place, at a cost of O(|U|) a step rather than a copy of every state: a
caller that keeps a reference to Simulation.states across a step sees it
change, and one that needs the states of an earlier step copies them.

The schedule is the only source of a step's updaters: Schedule.pick
chooses them, and it alone tests a fixed step against the nodes that can
update.  A recorded run's picks replay as
Schedule.fixed([rec.updated for rec in trace.steps]).

A random schedule's generator, random.Random(schedule.seed), is seeded at
the first step whose eligible set holds two or more nodes, not when the
Simulation is built: most runs on small voids only ever have one node to
pick, and they never build one.  A step with one eligible node picks it
and counts the draw it deferred.  The first step with a choice seeds the
generator and replays the deferred draws through Schedule.pick on a
one-node tuple before it picks.  The replay is needed because a one-node
draw still consumes the stream (_randbelow(1) draws bits until it gets a
0), so skipping it would change every later pick.  A fixed schedule has
no generator.

A run ends Converged when no node is stuck and no scripted event remains,
StepLimit when the step budget is exhausted on a connected graph, and
Partitioned when the awake graph is disconnected: for the counter-carrying
schemes the certificate is a stuck node whose update count has reached the
node count (impossible on a connected graph); for the finite-state schemes
partition is reported when the step budget runs out while the awake graph
is disconnected and the live graph, after its permanent removals, is too.
Every sleeper's wake is queued, so sleep alone never certifies a
partition: a budget that runs out while only sleepers keep the awake graph
apart ends StepLimit.

The step kernel is incremental.  A Simulation keeps the current arcs of the
awake graph in canonical edge order with the digest label of each arc,
each awake node's out-degree, the stuck set, and the awake topology: the
live topology without its sleeping nodes, the one view of the awake graph
that the probes, the eligibility test, the update rule and the orientation
all read.  An update changes only the updater's own state, so after a step
only the links of the updaters U can flip: they alone are re-oriented,
through one orientation predicate compiled for the scheme and heights,
which costs O(sum of deg U) instead of an orientation pass over every
link.  Neither a step nor a rebuild builds an arc or a label: each link's
two arcs and their digest labels are a row of the topology's arc_table,
(edge, reversed edge, "a>b", "b>a"), and the kept arcs and labels are
picked from it.  A flipped arc's label is patched beside it, so a step's
digest is one join and one hash of the kept labels, with no copy of the
arcs.  A topology event rebuilds all of it from scratch with routing_dag,
lazily at the next stuck query.  Topology.without memoizes its views, so
every run of a scenario shares one awake topology per set of sleepers and
removals, with its adjacency, edge index, link lists, arc table, probe
table and reach memo.  A Simulation binds the scheme's update rule and the
maximum initial height once, and each step calls the rule directly.  A turn
of advance() and its step read the maintained stuck view unless a rebuild
is due, apply events only when the head of the queue is due, and filter
the eligible nodes only when some are isolated.  An edge is reported reversed
when it was in the previously recorded orientation and now points the
other way.  Events change no node's state, so an edge that survives them
keeps its orientation: only the edge set of the last record is kept, and
it changes only at a rebuild.

A run's finish reuses what it holds: the Trace's final digest is the one
the run computed last, the last step record's or the start's, unless a
rebuild followed it, which drops it; the final states are read in the live
topology's node order, which is sorted.  So a run pays for its steps, not
for a second hash of its orientation or a sort of its states.  A Trace,
like a StepRecord (below), is a NamedTuple.

A StepRecord is a NamedTuple, immutable and about a third as costly to
build as a frozen dataclass, and it holds O(1) data per step in the number
of links: the stuck
set before the step, the updaters and their new states, the digest of the
orientation after the step, and the reversed edges.  It holds no copy of
the orientation, which would make a run's trace grow as steps x links
(cubic in n on a deep-void chain).  Every orientation follows from
Trace.initial_arcs and the reversed edges of an event-free run, and from a
deterministic rerun of any run; Simulation.arcs is the current one.  A
caller that needs every orientation drives a rerun one turn at a time
through Simulation.advance(), as run() does, and reads Simulation.arcs
after each step.
Records share immutable tuples where they can: the reversed edges are the
topology's own edge tuples, and the stuck set is the previous record's
tuple whenever it did not change.

Cross-checks kept on the incremental path:

- After each step, one call of the model's hello probe, probe_stuck,
  probes every node whose own state or a neighbor's state changed (U and
  its awake neighbors) and must agree with the maintained stuck set; no
  other node's probe inputs changed.  Its rows are the (node, awake
  neighbors) of those nodes with no link to the destination, and the
  others must not be in the stuck set.  The check is fused into the
  re-orientation: the rows are gathered, and the changed nodes left stuck
  counted, in the same pass that updates the stuck set, and the probe
  agrees iff it finds that many nodes, all in the stuck set.  Only a
  mismatch walks the changed nodes again, to name the first that
  disagrees.  After each rebuild that follows an event every awake node is
  probed, in one call over the awake topology's probe_table.  hello_round
  runs the same probe for one node.
- The full probe of step 0 runs once per (scenario, scheme), in the first
  Simulation of the pair, which caches that start on the Scenario: events
  start at step 1, so every run of the pair starts there.  The scenario's
  schemes share one copy of its arcs, labels, out-degrees, stuck set and
  digest, and the edge index is the Topology's.  Each Simulation copies
  what a run mutates (states, arcs, labels, out-degrees, stuck set).  The
  verifier's step check derives its own start and never reads this cache.
- Whenever the stuck set is empty on a connected awake graph, the
  maintained orientation must be destination-oriented.  While the stuck
  set is nonempty that follows from the probes, since a stuck node has no
  outgoing link.  The search is memoized on the awake topology by the
  arcs (model.destination_reach): the runs of a scenario end in few
  orientations.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .errors import (
    AdditionForbiddenError,
    EmptyNeighborhoodError,
    EmptyStuckSetError,
    EventError,
    ScheduleError,
)
from .model import (
    DESTINATION,
    HeightAssignment,
    Topology,
    _canonical_edge,
    arcs_digest,
    is_destination_oriented,
    orientation_predicate,
    probe_stuck,
    routing_dag,
)
from .scenario import Scenario, SimEvent
from .schemes import SPECS, SchemeId, State, initial_states

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

    def __post_init__(self) -> None:
        # Kept to a few comparisons: the schedule enumeration builds one
        # fixed witness per terminal orientation.
        kind = self.kind
        if kind == "fixed":
            if type(self.steps) is not tuple:
                raise ScheduleError("a fixed schedule needs a tuple of steps")
        elif kind == "single-random" or kind == "subset-random":
            if not isinstance(self.seed, int):
                raise ScheduleError(f"a {kind} schedule needs an int seed, got {self.seed!r}")
        else:
            raise ScheduleError(f"unknown schedule kind {kind!r}")

    @classmethod
    def single_random(cls, seed: int) -> Schedule:
        return cls(kind="single-random", seed=seed)

    @classmethod
    def subset_random(cls, seed: int) -> Schedule:
        return cls(kind="subset-random", seed=seed)

    @classmethod
    def fixed(cls, steps: Sequence[Sequence[int]], label: str | None = None) -> Schedule:
        frozen = tuple(tuple(sorted(step)) for step in steps)
        for index, step in enumerate(frozen, start=1):
            if not step:
                raise ScheduleError("a fixed schedule step cannot be empty")
            if len({*step}) < len(step):
                raise ScheduleError(f"fixed schedule step {index} names a node twice: {list(step)}")
        return cls(kind="fixed", steps=frozen, label=label)

    def describe(self) -> str:
        if self.kind == "fixed":
            tag = f"[{self.label}]" if self.label else ""
            return f"fixed{tag}({len(self.steps)} steps)"
        return f"{self.kind}(seed={self.seed})"

    def pick(
        self, rng: random.Random | None, eligible: tuple[int, ...], index: int
    ) -> tuple[int, ...]:
        """The updaters of step index: a sorted, nonempty, repeat-free subset of eligible.

        eligible is sorted; rng is the run's generator, None for a fixed
        schedule, whose steps are already sorted and free of repeats.  A
        random pick draws from rng even when eligible is one node: both
        choice and randrange call _randbelow(1), which draws bits until it
        gets a 0.  So a run that defers its one-node picks (Simulation.step)
        must replay them through this method before its first real choice.
        """
        if self.kind == "single-random":
            return (rng.choice(eligible),)
        if self.kind == "subset-random":
            mask = rng.randrange(1, 1 << len(eligible))
            return tuple(i for bit, i in enumerate(eligible) if mask >> bit & 1)
        steps = self.steps
        if index > len(steps):
            raise ScheduleError(
                f"fixed schedule exhausted after {len(steps)} steps but the network is still stuck"
            )
        chosen = steps[index - 1]
        extras = set(chosen).difference(eligible)
        if extras:
            raise ScheduleError(
                f"fixed schedule step {index} selects {sorted(extras)} which are not stuck "
                "or with no awake neighbor"
            )
        return chosen


class StepRecord(NamedTuple):
    """What happened in one simulation step."""

    index: int
    stuck: tuple[int, ...]
    updated: tuple[int, ...]
    new_states: tuple[State, ...]
    dag_digest: str
    reversed_edges: tuple[tuple[int, int], ...]


class Trace(NamedTuple):
    """Full record of a run; deterministic for a given scenario and schedule."""

    scenario: Scenario
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
    awake: Topology,
    scheme: SchemeId,
    heights: HeightAssignment,
) -> bool:
    """True if node i finds itself stuck: no forwarding neighbor acks.

    awake is the awake topology.  Sleeping nodes are not in it, so they
    never answer and their states are not consulted at all; the
    destination is always awake, and a node linked to it is never stuck.
    Any other node runs the model's probe, probe_stuck.  Probing a node
    that is not in the awake topology raises UnknownNodeError.
    """
    neighbors = awake.neighbors(i)
    if DESTINATION in neighbors:
        return False
    return bool(probe_stuck(((i, neighbors),), states, orientation_predicate(scheme, heights)))


@dataclass(frozen=True, slots=True)
class _Start:
    """A scheme's step 0 on a scenario, kept in Scenario._starts and never mutated.

    Every field but states is shared by all the scenario's schemes.
    """

    states: Mapping[int, State]
    arcs: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    out_degree: Mapping[int, int]
    stuck_view: tuple[int, ...]
    digest: str


class Simulation:
    """Mutable run state; use run() for the whole trajectory or step() manually."""

    # CPython shares the keys of instance dicts only up to 30 attributes;
    # past that every instance carries a full dict of its own.
    __slots__ = (
        "scenario", "scheme", "_spec", "heights", "n", "schedule", "_rng", "_deferred",
        "step_limit", "live", "sleeping", "states", "steps", "events_applied", "update_counts",
        "total_reversals", "outcome", "certificate", "_queue", "_queue_seq",
        "_points_from", "_awake_topo", "_isolated", "_stale", "_arcs", "_arc_labels",
        "_out_degree", "_stuck", "_stuck_view", "initial_arcs", "initial_digest",
        "_recorded_index", "_update", "_max_height", "_digest",
    )

    def __init__(
        self,
        scenario: Scenario,
        scheme: SchemeId,
        schedule: Schedule | None = None,
        step_limit: int | None = None,
    ):
        self.scenario = scenario
        self.scheme = scheme
        self._spec = spec = SPECS[scheme]
        self.heights = heights = scenario.heights
        self.n = n = scenario.n
        self.schedule = schedule = schedule or Schedule.single_random(scenario.seed or 0)
        # A random schedule's generator is seeded at its first real choice.
        self._rng = None
        self._deferred = 0 if schedule.kind != "fixed" else None
        if step_limit is None:
            step_limit = 4 * n * n
        if step_limit < 0:
            raise ValueError(f"step limit must not be negative, got {step_limit}")
        self.step_limit = step_limit

        self.live: Topology = scenario.topology
        self.sleeping: set[int] = set()
        self.steps: list[StepRecord] = []
        self.events_applied: list[tuple[int, str]] = []
        self.update_counts: dict[int, int] = dict.fromkeys(self.live.nodes, 0)
        self.total_reversals = 0
        self.outcome: Outcome | None = None
        self.certificate: str | None = None

        self._queue: list[tuple[int, int, SimEvent]] = []
        self._queue_seq = 0
        for ev in scenario.events:
            self._push_event(ev)

        self._points_from = orientation_predicate(scheme, heights)
        self._update, self._max_height = spec.update, heights.max_height
        # A scenario is connected, so no node starts without an awake neighbor.
        self._awake_topo, self._isolated = self.live, frozenset()
        # Events start at step 1, so step 0 is the same for every run of the
        # scheme on this scenario: copy what a run mutates, share the rest.
        start = scenario._starts.get(scheme) or self._build_start()
        self.states: dict[int, State] = dict(start.states)
        self._arcs = list(start.arcs)
        self._arc_labels = list(start.labels)
        self._out_degree = dict(start.out_degree)
        self._stuck = set(start.stuck_view)
        self._stuck_view = start.stuck_view
        self._stale = False
        self.initial_arcs = start.arcs
        self.initial_digest = self._digest = start.digest
        # Edge index of the last recorded orientation.
        self._recorded_index = self.live.edge_index

    # -- topology bookkeeping ------------------------------------------------

    def _push_event(self, ev: SimEvent) -> None:
        heapq.heappush(self._queue, (ev.at_step, self._queue_seq, ev))
        self._queue_seq += 1

    def _set_awake(self) -> None:
        """Cache the awake topology, the live one without its sleeping nodes.

        The orientation is rebuilt from it on next use.  A neighbor-aware
        rule reads its neighbors' states, so under one the awake nodes
        with no awake neighbor are kept as isolated: they cannot update.
        """
        topo = self.live.without(drop_nodes=self.sleeping) if self.sleeping else self.live
        self._awake_topo, self._stale = topo, True
        if self._spec.neighbor_aware:
            self._isolated = frozenset(i for i in topo.nodes if not topo.neighbors(i))

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
            self.sleeping.discard(ev.node)
        elif ev.kind == "remove-link":
            if _canonical_edge(*ev.edge) not in self.live.edge_index:
                raise EventError(f"cannot remove missing link {ev.edge}")
            self.live = self.live.without(drop_edges=(ev.edge,))
        elif ev.kind == "sleep":
            if not self.live.has_node(ev.node) or ev.node == DESTINATION:
                raise EventError(f"cannot put node {ev.node} to sleep")
            self.sleeping.add(ev.node)
            wake = SimEvent(at_step=ev.at_step + ev.duration, kind="wake", node=ev.node)
            self._push_event(wake)
        elif ev.kind == "wake":
            self.sleeping.discard(ev.node)
        else:
            raise EventError(f"unknown event kind {ev.kind!r}")
        self._set_awake()
        self.events_applied.append((ev.at_step, ev.describe()))

    def _apply_events_until(self, step: int) -> None:
        """Apply every queued event due at or before the given step, in order."""
        while self._queue and self._queue[0][0] <= step:
            _, _, ev = heapq.heappop(self._queue)
            self.apply_event(ev)

    # -- orientation and stuck detection -------------------------------------

    def _build_start(self) -> _Start:
        """Orient and probe this scheme's step 0 and cache it on the scenario.

        Every scheme's initial states orient each link by the initial
        (height, id) order, so the schemes of a scenario share one
        orientation; each scheme's first build asserts it before sharing.
        """
        self.states = initial_states(self.scheme, self.live, self.heights)
        self._reorient_all()
        starts = self.scenario._starts
        shared = next(iter(starts.values()), None)
        if shared is None:
            start = _Start(
                self.states, tuple(self._arcs), tuple(self._arc_labels), self._out_degree,
                self._stuck_view, arcs_digest(self._arc_labels),
            )
        else:
            assert shared.arcs == tuple(self._arcs), (
                f"{self.scheme} starts from another orientation than {next(iter(starts))}"
            )
            start = replace(shared, states=self.states)
        starts[self.scheme] = start
        return start

    def _reorient_all(self) -> None:
        """Orient every awake link from scratch; re-derive out-degrees and the stuck set."""
        topo = self._awake_topo
        oriented = routing_dag(self.states, topo, self.scheme, self.heights)
        self._arcs = arcs = []
        self._arc_labels = labels = []
        self._out_degree = out_degree = dict.fromkeys(topo.nodes, 0)
        for (s, _), (edge, back, forward_label, back_label) in zip(oriented, topo.arc_table):
            if s == edge[0]:
                arcs.append(edge)
                labels.append(forward_label)
            else:
                arcs.append(back)
                labels.append(back_label)
            if s != DESTINATION:
                out_degree[s] += 1
        self._stuck = stuck = {i for i, degree in out_degree.items() if degree == 0}
        self._stuck_view = tuple(sorted(stuck))
        self._stale = False
        self._digest = None
        by_probe = probe_stuck(topo.probe_table, self.states, self._points_from)
        if len(by_probe) != len(stuck) or not stuck.issuperset(by_probe):
            self._cross_check(topo.nodes, by_probe)
        if not stuck:
            self._check_oriented()

    def _reorient_updaters(self, updated: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Re-orient the links of the updated nodes, the only ones that can flip.

        Returns the edges that were in the last recorded orientation and now
        point the other way, in canonical edge order.  Such an edge points
        the same way as at that record until this step flips it, since only
        updates change states.
        """
        # Stays set if the predicate raises, so the next query rebuilds.
        self._stale = True
        states, points_from = self.states, self._points_from
        awake, arcs, labels = self._awake_topo, self._arcs, self._arc_labels
        table, links = awake.arc_table, awake.ordinary_links
        out_degree, stuck = self._out_degree, self._stuck
        # With no rebuild since the last record, every awake edge was in it.
        recorded = None if self._recorded_index is awake.edge_index else self._recorded_index
        changed = set(updated)
        flipped = []
        # Updaters were stuck, and stuck nodes are never adjacent, so each
        # link below is visited once.  Links into the destination never flip.
        for u in updated:
            own = states[u]
            for k in links[u]:
                edge, back, forward_label, back_label = table[k]
                a, j = edge
                if a != u:
                    j = a
                changed.add(j)
                # u -> j is the forward arc exactly when u is the edge's first end.
                if points_from(own, states[j]) == (a == u):
                    arc, label = edge, forward_label
                else:
                    arc, label = back, back_label
                if arcs[k] != arc:
                    arcs[k] = arc
                    labels[k] = label
                    out_degree[arc[0]] += 1
                    out_degree[arc[1]] -= 1
                    if recorded is None or edge in recorded:
                        flipped.append(edge)
        # The hello probe of the changed nodes, U and its awake neighbors, is
        # built while the stuck set is updated: rows for the nodes with no
        # link to the destination, and a count of the changed nodes left stuck.
        adjacency = awake._adjacency
        rows = []
        moved = False
        left_stuck = 0
        for i in changed:
            if out_degree[i]:
                if i in stuck:
                    stuck.discard(i)
                    moved = True
            else:
                left_stuck += 1
                if i not in stuck:
                    stuck.add(i)
                    moved = True
            neighbors = adjacency[i]
            if DESTINATION not in neighbors:
                rows.append((i, neighbors))
        if moved:
            self._stuck_view = tuple(sorted(stuck))
        self._stale = False
        # The probe's stuck nodes all lie among the changed ones, so it agrees
        # with the stuck set iff it finds as many as were left stuck, all in it.
        by_probe = probe_stuck(rows, states, points_from)
        if len(by_probe) != left_stuck or not stuck.issuperset(by_probe):
            self._cross_check(changed, by_probe)
        if not stuck:
            self._check_oriented()
        return tuple(flipped) if len(flipped) < 2 else tuple(sorted(flipped))

    def _cross_check(self, probed: Collection[int], by_probe: Collection[int]) -> None:
        """Name the first probed node whose hello probe disagrees with the maintained stuck set.

        by_probe is the stuck nodes that one probe of the probed nodes found;
        the callers check it first and call here only on a mismatch.
        """
        found, stuck = set(by_probe), self._stuck
        for i in probed:
            assert (i in found) == (i in stuck), (
                f"probe of node {i} disagrees with orientation view {list(self._stuck_view)}"
            )

    def _check_oriented(self) -> None:
        """An empty stuck set on a connected awake graph must mean a destination-oriented one."""
        if self._awake_topo.is_connected:
            assert is_destination_oriented(self._arcs, self._awake_topo), (
                "empty stuck set must coincide with destination orientation"
            )

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Current orientation of the awake graph, in canonical edge order."""
        if self._stale:
            self._reorient_all()
        return tuple(self._arcs)

    def stuck_nodes(self) -> tuple[int, ...]:
        """Sorted stuck set of the awake graph, maintained step by step."""
        if self._stale:
            self._reorient_all()
        return self._stuck_view

    # -- stepping ------------------------------------------------------------

    def _eligible(self, stuck: tuple[int, ...]) -> tuple[int, ...]:
        """Stuck nodes that can update now, in sorted order: all but the isolated ones.

        A neighbor-aware rule needs an awake neighbor to read, and a stuck
        node is never linked to the destination, so it has none exactly when
        it is isolated.  Only neighbor-aware runs track isolated nodes, and
        the kernel calls here only when there are some.
        """
        isolated = self._isolated
        if not isolated:
            return stuck
        return tuple(i for i in stuck if i not in isolated)

    def _seed_rng(self) -> None:
        """Seed the random schedule's generator and replay the one-node draws deferred so far."""
        schedule = self.schedule
        self._rng = rng = random.Random(schedule.seed)
        for _ in range(self._deferred):
            schedule.pick(rng, (DESTINATION,), 0)
        self._deferred = None

    def step(self) -> StepRecord:
        """Run one update step; raises EmptyStuckSetError when already oriented.

        The schedule picks the updaters among the eligible stuck nodes; a
        fixed step that names another node raises ScheduleError.
        """
        stuck = self.stuck_nodes() if self._stale else self._stuck_view
        if not stuck:
            raise EmptyStuckSetError("no node is stuck; nothing to schedule")
        eligible = self._eligible(stuck) if self._isolated else stuck
        if not eligible:
            raise EmptyNeighborhoodError(
                f"stuck nodes {list(stuck)} have no awake neighbor to read"
            )
        index = len(self.steps) + 1
        deferred = self._deferred
        if deferred is not None and len(eligible) == 1:
            # Nothing to choose: the draw waits until a step offers a choice.
            self._deferred = deferred + 1
            chosen = eligible
        else:
            if deferred is not None:
                self._seed_rng()
            chosen = self.schedule.pick(self._rng, eligible, index)

        states, update, max_height = self.states, self._update, self._max_height
        if self._spec.neighbor_aware:
            # A stuck node is never destination-adjacent, so only ordinary
            # neighbor states are read here.
            neighbors = self._awake_topo.neighbors
            new_states = tuple([
                update(states[i], [states[j] for j in neighbors(i) if j != DESTINATION], max_height)
                for i in chosen
            ])
        elif len(chosen) == 1:
            new_states = (update(states[chosen[0]], None, max_height),)
        else:
            new_states = tuple([update(states[i], None, max_height) for i in chosen])
        # Written only now, so every update above read the pre-step states.
        counts = self.update_counts
        for state in new_states:
            states[state.node] = state
            counts[state.node] += 1

        flipped = self._reorient_updaters(chosen)
        self.total_reversals += len(flipped)
        self._digest = digest = arcs_digest(self._arc_labels)
        record = StepRecord(index, stuck, chosen, new_states, digest, flipped)
        self.steps.append(record)
        self._recorded_index = self._awake_topo.edge_index
        return record

    def _partition_certificate(self, stuck: tuple[int, ...]) -> str | None:
        """The counter certificate of a counted scheme: a stuck node at update count n."""
        for i in stuck:
            if self.states[i].updates >= self.n:
                return (
                    f"node {i} is stuck at update count {self.states[i].updates}; "
                    f"another update would exceed the node count {self.n}, "
                    "impossible on a connected graph"
                )
        return None

    def advance(self) -> StepRecord | None:
        """One turn of run(): apply due events, then take a step or end the run.

        Returns the step's record, or None once the run has ended; outcome
        and certificate then say how.
        """
        queue = self._queue
        while True:
            if queue and queue[0][0] <= len(self.steps) + 1:
                self._apply_events_until(len(self.steps) + 1)
            stuck = self.stuck_nodes() if self._stale else self._stuck_view
            if not stuck:
                if queue:
                    # Converged but events still scheduled: time passes
                    # quietly until the next event fires.  Step indices
                    # keep counting update steps only.
                    self._apply_events_until(queue[0][0])
                    continue
                return self._end(Outcome.CONVERGED)
            if self._spec.counted:
                certificate = self._partition_certificate(stuck)
                if certificate is not None:
                    return self._end(Outcome.PARTITIONED, certificate)
            if self._isolated and not self._eligible(stuck):
                if queue:
                    # Isolation caused by sleep is transient: let the clock
                    # jump to the next scripted wake or removal.
                    self._apply_events_until(queue[0][0])
                    continue
                return self._end(
                    Outcome.PARTITIONED,
                    f"stuck nodes {list(stuck)} have no awake neighbor left to "
                    "read, which cannot happen on a connected graph",
                )
            if len(self.steps) >= self.step_limit:
                # A sleeper's wake is always queued, so only a removal can
                # keep the graph apart for good.
                if not self.awake_topology().is_connected and not self.live.is_connected:
                    return self._end(
                        Outcome.PARTITIONED,
                        f"step budget {self.step_limit} exhausted while the awake "
                        "graph is disconnected",
                    )
                return self._end(Outcome.STEP_LIMIT)
            return self.step()

    def _end(self, outcome: Outcome, certificate: str | None = None) -> None:
        self.outcome, self.certificate = outcome, certificate

    def run(self) -> Trace:
        """Iterate until convergence, partition evidence, or the step budget."""
        while self.advance() is not None:
            pass
        return self._finalize()

    def _finalize(self) -> Trace:
        """The run's Trace; the final digest is the last one computed, unless a rebuild followed it."""
        digest = self._digest
        if digest is None:
            digest = arcs_digest(self._arc_labels)
        states = self.states
        return Trace(
            scenario=self.scenario,
            scheme=self.scheme,
            n=self.n,
            schedule=self.schedule,
            step_limit=self.step_limit,
            initial_arcs=self.initial_arcs,
            initial_digest=self.initial_digest,
            steps=tuple(self.steps),
            outcome=self.outcome,
            certificate=self.certificate,
            update_counts=dict(self.update_counts),
            total_updates=sum(self.update_counts.values()),
            total_reversals=self.total_reversals,
            final_digest=digest,
            # The live nodes are sorted, and they are exactly the nodes with a state.
            final_states=tuple([states[i] for i in self.live.nodes]),
            events_applied=tuple(self.events_applied),
        )


def run_scenario(
    scenario: Scenario,
    scheme: SchemeId,
    schedule: Schedule | None = None,
    step_limit: int | None = None,
) -> Trace:
    """Convenience wrapper: build a Simulation and run it to completion."""
    sim = Simulation(scenario, scheme, schedule, step_limit)
    return sim.run()

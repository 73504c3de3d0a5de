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
and counts the draw it deferred, before and after the seeding alike.  A
step with a choice seeds the generator if it has none yet and replays the
deferred draws through Schedule.pick on a one-node tuple before it picks.
The replay is needed because a one-node draw still consumes the stream
(_randbelow(1) draws bits until it gets a 0), so skipping it would change
every later pick.  So the 4n² budget steps of a stranded node draw
nothing.  A fixed schedule has no generator.

A run ends Converged when no node is stuck and no scripted event remains,
StepLimit when the step budget is exhausted on a connected graph, and
Partitioned when the awake graph is disconnected: for the counter-carrying
schemes the certificate is a stuck node whose update count has reached the
node count (impossible on a connected graph); for the finite-state schemes
partition is reported when the step budget runs out while the awake graph
is disconnected and the live graph, after its permanent removals, is too.
Every sleeper's wake is queued, so sleep alone never certifies a
partition: a budget that runs out while only sleepers keep the awake graph
apart ends StepLimit.  Only an update raises a count, so the counter
certificate is armed by the first update that brings a count to n, and a
turn asks for it, a scan of the stuck set, only once it is armed: the same
text at the same step as a scan on every turn, without the scan on the
turns where it cannot fire.

The step kernel is incremental.  A Simulation keeps the current arcs of
the awake graph in canonical edge order, each awake node's out-degree, the
stuck set, and the awake topology: the live topology without its sleeping
nodes, the one view of the awake graph that the probes, the eligibility
test, the update rule and the orientation all read.  An update changes
only the updater's own state, so after a step only the links of the
updaters U can flip: they alone are re-oriented, through one orientation
predicate compiled for the scheme and heights, which costs O(sum of deg U)
instead of an orientation pass over every link.  Neither a step nor a
rebuild builds an arc: each link's two arcs are a row of the topology's
arc_table, (edge, reversed edge), and the kept arcs are picked from it.
A step reads an updater u's links from the topology's link_rows, one row
per link of u: its position, the neighbor j, and the arcs u -> j and
j -> u, the arc table's own objects.  So it orients a link without testing
which end u is, and it compares a kept arc with the one the predicate
picks by identity; only a flip names its edge, the arc from the lower id.
A topology event rebuilds all of it from scratch with routing_dag, lazily
at the next stuck query.  Topology.without memoizes its views, so every
run of a scenario shares one awake topology per set of sleepers and
removals, with its adjacency, edge index, link lists, arc table, link
rows, probe table, closed rows and reach memo.  A Simulation binds the
scheme's update rule, whether the rule reads neighbors, whether the scheme
counts updates, and the maximum initial height once, and each step calls
the rule directly.
The sorted stuck view is patched where nodes enter or leave it, each
placed by bisection, not sorted again.  A turn of advance() and its step
read the maintained stuck view unless a rebuild is due, apply events only
when the head of the queue is due, and filter the eligible nodes only when
some are isolated.  An edge is reported reversed when it was in the
previously recorded orientation and now points the other way.  Events
change no node's state, so an edge that survives them keeps its
orientation: only the edge set of the last record is kept, and it changes
only at a rebuild.

The simulator hashes nothing.  An orientation's digest is derived data:
it is a function of Trace.initial_arcs, the reversed edges of the records
so far and the events applied, and the trace writer derives it
(traceio.orientation_digests) when a trace is exported.  The start's
digest, Trace.initial_digest, is derived from initial_arcs alone.  Each
applied event is logged with the number of step records made before it
(Trace.event_log), since a run that converges with events still queued
applies them before the step their own index names; the (step, text)
pairs of Trace.events_applied are read off that log.

A run's finish reuses what it holds: the final states are read in the
live topology's node order, which is sorted.  A Trace, like a StepRecord
(below), is a NamedTuple, and _finalize builds it positionally through
tuple.__new__, as step() builds a record.  A run's zero update counts are
copied from the cached start, like its states.

A StepRecord is a NamedTuple, immutable and about a third as costly to
build as a frozen dataclass; step() builds it through tuple.__new__, as
the NamedTuple's generated __new__ does, without that frame.  It holds
O(1) data per step in the number of links: the stuck set before the step,
the updaters and their new states, and the reversed edges.  It holds no
copy of the orientation, which would make a run's trace grow as steps x
links (cubic in n on a deep-void chain).  Every orientation follows from
Trace.initial_arcs and the reversed edges of an event-free run, and from a
deterministic rerun of any run; Simulation.arcs is the current one.  A
caller that needs every orientation drives a rerun one turn at a time
through Simulation.advance(), as run() does, and reads Simulation.arcs
after each step.
Records share immutable values where they can: the reversed edges are the
topology's own edge tuples, and the stuck set is the previous record's
tuple whenever it did not change.

Cross-checks kept on the incremental path:

- After each step, one call of the model's hello probe, probe_stuck,
  probes every node whose own state or a neighbor's state changed (U and
  its awake neighbors) and must agree with the maintained stuck set; no
  other node's probe inputs changed.  Its rows are those nodes' rows of
  the awake topology's probe_table, (node, awake neighbors); a node linked
  to the destination has none and must not be in the stuck set.  The
  changed nodes and their rows come from the awake topology's closed_rows:
  a step with one updater reads both from the updater's closed row as they
  stand, and a step with several unions their rows, each node once, since
  updaters can share a neighbor.  The check is fused into the
  re-orientation: the changed nodes left stuck are counted in the same
  pass that updates the stuck set, and the probe agrees iff it finds that
  many nodes, all in the stuck set.  Only a mismatch walks the changed
  nodes again, to name the first that disagrees.  After each rebuild that
  follows an event every awake node is probed, in one call over the awake
  topology's probe_table.  Sleeping nodes are not in the awake topology,
  so they never answer a probe.
- The full probe of step 0 runs once per (scenario, scheme), in the first
  Simulation of the pair, which caches that start on the Scenario: events
  start at step 1, so every run of the pair starts there.  The scenario's
  schemes share one copy of its arcs, out-degrees and stuck set, and the
  edge index is the Topology's.  Each Simulation copies what a run
  mutates (states, arcs, out-degrees, stuck set).  The
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
from bisect import bisect_left, insort
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
    Topology,
    _canonical_edge,
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
        # Kept to a few comparisons: every lockstep replay of the
        # equivalence check builds one.
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
    reversed_edges: tuple[tuple[int, int], ...]


_new_tuple = tuple.__new__


class Trace(NamedTuple):
    """Full record of a run; deterministic for a given scenario and schedule.

    event_log holds each applied event, wakes included, with the number of
    step records the run had made when it applied it.
    """

    scenario: Scenario
    scheme: SchemeId
    schedule: Schedule
    step_limit: int
    initial_arcs: tuple[tuple[int, int], ...]
    steps: tuple[StepRecord, ...]
    outcome: Outcome
    certificate: str | None
    update_counts: Mapping[int, int]
    total_updates: int
    total_reversals: int
    final_states: tuple[State, ...]
    event_log: tuple[tuple[int, SimEvent], ...]

    @property
    def converged(self) -> bool:
        return self.outcome is Outcome.CONVERGED

    @property
    def events_applied(self) -> tuple[tuple[int, str], ...]:
        """Each applied event's step and text, in order, as the export writes them."""
        return tuple([(ev.at_step, ev.describe()) for _, ev in self.event_log])

    @property
    def initial_digest(self) -> str:
        """The initial orientation's digest, as the export's totals line writes it.

        Derived from initial_arcs by the trace writer, which holds the
        orientation text and its hashing (traceio imports this module).
        """
        from .traceio import initial_digest

        return initial_digest(self)


@dataclass(frozen=True, slots=True)
class _Start:
    """A scheme's step 0 on a scenario, kept in Scenario._starts and never mutated.

    Every field but states is shared by all the scenario's schemes; counts
    maps every node to an update count of 0.
    """

    states: dict[int, State]
    counts: dict[int, int]
    arcs: tuple[tuple[int, int], ...]
    out_degree: dict[int, int]
    stuck_view: tuple[int, ...]


class Simulation:
    """Mutable run state; use run() for the whole trajectory or step() manually."""

    # CPython shares the keys of instance dicts only up to 30 attributes;
    # past that every instance carries a full dict of its own.
    __slots__ = (
        "scenario", "scheme", "heights", "n", "schedule", "_rng", "_deferred",
        "step_limit", "live", "sleeping", "states", "steps", "event_log", "update_counts",
        "total_reversals", "outcome", "certificate", "_queue", "_queue_seq",
        "_points_from", "_awake_topo", "_isolated", "_stale", "_arcs",
        "_out_degree", "_stuck", "_stuck_view", "initial_arcs", "_recorded_index",
        "_update", "_max_height", "_neighbor_aware", "_armed",
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
        spec = SPECS[scheme]
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
        self.event_log: list[tuple[int, SimEvent]] = []
        self.total_reversals = 0
        self.outcome: Outcome | None = None
        self.certificate: str | None = None

        self._queue: list[tuple[int, int, SimEvent]] = []
        self._queue_seq = 0
        for ev in scenario.events:
            self._push_event(ev)

        self._points_from = orientation_predicate(scheme, heights)
        self._update, self._max_height = spec.update, heights.max_height
        self._neighbor_aware = spec.neighbor_aware
        # The counter certificate's gate: None for a scheme with no counter,
        # False until some node's update count reaches n, then True.
        self._armed = False if spec.counted else None
        # A scenario is connected, so no node starts without an awake neighbor.
        self._awake_topo, self._isolated = self.live, frozenset()
        # Events start at step 1, so step 0 is the same for every run of the
        # scheme on this scenario: copy what a run mutates, share the rest.
        start = scenario._starts.get(scheme) or self._build_start()
        self.states: dict[int, State] = start.states.copy()
        self.update_counts: dict[int, int] = start.counts.copy()
        self._arcs = list(start.arcs)
        self._out_degree = start.out_degree.copy()
        self._stuck = set(start.stuck_view)
        self._stuck_view = start.stuck_view
        self._stale = False
        self.initial_arcs = start.arcs
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
        if self._neighbor_aware:
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
        self.event_log.append((len(self.steps), ev))

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
                self.states, dict.fromkeys(self.live.nodes, 0), tuple(self._arcs),
                self._out_degree, self._stuck_view,
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
        self._out_degree = out_degree = dict.fromkeys(topo.nodes, 0)
        for (s, _), (edge, back) in zip(oriented, topo.arc_table):
            arcs.append(edge if s == edge[0] else back)
            if s != DESTINATION:
                out_degree[s] += 1
        self._stuck = stuck = {i for i, degree in out_degree.items() if degree == 0}
        self._stuck_view = tuple(sorted(stuck))
        self._stale = False
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
        awake, arcs = self._awake_topo, self._arcs
        link_rows, out_degree, stuck = awake.link_rows, self._out_degree, self._stuck
        flipped = []
        # Updaters were stuck, and stuck nodes are never adjacent, so each
        # link below is visited once.  Links into the destination never flip.
        for u in updated:
            own = states[u]
            for k, j, out_arc, in_arc in link_rows[u]:
                if points_from(own, states[j]):
                    if arcs[k] is not out_arc:
                        arcs[k] = out_arc
                        out_degree[u] += 1
                        out_degree[j] -= 1
                        # The edge is whichever arc runs from the lower id.
                        flipped.append(out_arc if u < j else in_arc)
                elif arcs[k] is not in_arc:
                    arcs[k] = in_arc
                    out_degree[j] += 1
                    out_degree[u] -= 1
                    flipped.append(out_arc if u < j else in_arc)
        # The changed nodes, U and its awake neighbors, and their probe_table
        # rows: one updater's closed row, or the union of several, each node
        # once, since updaters can share a neighbor.
        closed_rows = awake.closed_rows
        if len(updated) == 1:
            changed, rows = closed_rows[updated[0]]
        else:
            changed = {i for u in updated for i in closed_rows[u][0]}
            rows = {row for u in updated for row in closed_rows[u][1]}
        moved = []
        left_stuck = 0
        for i in changed:
            if out_degree[i]:
                if i in stuck:
                    stuck.discard(i)
                    moved.append(i)
            else:
                left_stuck += 1
                if i not in stuck:
                    stuck.add(i)
                    moved.append(i)
        if moved:
            # Patched, not re-sorted: O(|stuck|) to copy, O(log |stuck|) to place a node.
            view = list(self._stuck_view)
            for i in moved:
                if i in stuck:
                    insort(view, i)
                else:
                    del view[bisect_left(view, i)]
            self._stuck_view = tuple(view)
        self._stale = False
        # The probe's stuck nodes all lie among the changed ones, so it agrees
        # with the stuck set iff it finds as many as were left stuck, all in it.
        by_probe = probe_stuck(rows, states, points_from)
        if len(by_probe) != left_stuck or not stuck.issuperset(by_probe):
            self._cross_check(changed, by_probe)
        if not stuck:
            self._check_oriented()
        if not flipped:
            return ()
        # With no rebuild since the last record, every awake edge was in it.
        if self._recorded_index is not awake.edge_index:
            recorded = self._recorded_index
            flipped = [edge for edge in flipped if edge in recorded]
        flipped.sort()
        return tuple(flipped)

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

    def _catch_up(self) -> random.Random:
        """The random schedule's generator, seeded on first use, with the deferred one-node draws replayed."""
        schedule, rng = self.schedule, self._rng
        if rng is None:
            self._rng = rng = random.Random(schedule.seed)
        for _ in range(self._deferred):
            schedule.pick(rng, (DESTINATION,), 0)
        self._deferred = 0
        return rng

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
        if deferred is None:
            chosen = self.schedule.pick(None, eligible, index)
        elif len(eligible) == 1:
            # Nothing to choose: the draw waits until a step offers a choice.
            self._deferred = deferred + 1
            chosen = eligible
        else:
            rng = self._rng
            if deferred or rng is None:
                rng = self._catch_up()
            chosen = self.schedule.pick(rng, eligible, index)

        states, update, max_height = self.states, self._update, self._max_height
        if self._neighbor_aware:
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
        if self._armed is False:
            # Only an update raises a count, so the certificate can fire only from here on.
            for state in new_states:
                if state.updates >= self.n:
                    self._armed = True

        flipped = self._reorient_updaters(chosen)
        if flipped:
            self.total_reversals += len(flipped)
        # The NamedTuple's own constructor, without its generated __new__'s frame.
        record = _new_tuple(StepRecord, (index, stuck, chosen, new_states, flipped))
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
            if self._armed:
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
        """The run's Trace, built from what the run holds."""
        states, counts = self.states, self.update_counts
        # Positional, in Trace's field order, through the NamedTuple's own
        # constructor as step() builds a StepRecord.
        return _new_tuple(Trace, (
            self.scenario, self.scheme, self.schedule, self.step_limit, self.initial_arcs,
            tuple(self.steps), self.outcome, self.certificate,
            counts.copy(), sum(counts.values()), self.total_reversals,
            # The live nodes are sorted, and they are exactly the nodes with a state.
            tuple([states[i] for i in self.live.nodes]), tuple(self.event_log),
        ))


def run_scenario(
    scenario: Scenario,
    scheme: SchemeId,
    schedule: Schedule | None = None,
    step_limit: int | None = None,
) -> Trace:
    """Convenience wrapper: build a Simulation and run it to completion."""
    sim = Simulation(scenario, scheme, schedule, step_limit)
    return sim.run()

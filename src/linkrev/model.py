"""Node states, their orderings, and the routing DAG they induce.

Every link of the communication graph is oriented from the endpoint whose
state is higher to the endpoint whose state is lower, so a state vector
induces an orientation of the whole graph.  The destination is a passive
sentinel whose state is globally minimal: links incident to it always
point into it and it never updates.  A nondestination node with no
outgoing link is stuck; routing works once no node is stuck, i.e. once
every node has a directed path to the destination.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import NamedTuple

from .errors import (
    DisconnectedGraphError,
    PhaseAdjacencyError,
    SchemeMismatchError,
    UnknownNodeError,
)

#: Sentinel node id of the destination.  Nondestination nodes are 1..N.
DESTINATION = 0

#: Cyclic counters wrap modulo 4.  Two bits suffice because the update
#: counts of neighboring nodes never drift more than one apart.
PHASE_MODULUS = 4


class SchemeId(str, Enum):
    """Identifier of a reversal scheme (seven schemes plus a baseline)."""

    GB_FULL = "gb-full"
    GB_PARTIAL = "gb-partial"
    NO_FULL = "no-full"
    TWO_BIT_FULL = "two-bit-full"
    ONE_BIT_FULL = "one-bit-full"
    NO_PARTIAL = "no-partial"
    TWO_BIT_PARTIAL = "two-bit-partial"
    BASELINE_INCREMENT = "baseline-increment"

    def __str__(self) -> str:
        return self.value


#: The seven schemes under study, in presentation order.
CORE_SCHEMES: tuple[SchemeId, ...] = (
    SchemeId.GB_FULL,
    SchemeId.GB_PARTIAL,
    SchemeId.NO_FULL,
    SchemeId.TWO_BIT_FULL,
    SchemeId.ONE_BIT_FULL,
    SchemeId.NO_PARTIAL,
    SchemeId.TWO_BIT_PARTIAL,
)

ALL_SCHEMES: tuple[SchemeId, ...] = CORE_SCHEMES + (SchemeId.BASELINE_INCREMENT,)

#: Schemes whose update turns every incident link outgoing.
FULL_REVERSAL_SCHEMES = frozenset(
    {SchemeId.GB_FULL, SchemeId.NO_FULL, SchemeId.TWO_BIT_FULL, SchemeId.ONE_BIT_FULL}
)

#: Schemes whose update reverses only the links not reversed by neighbors
#: since the node's previous update.
PARTIAL_REVERSAL_SCHEMES = frozenset(
    {SchemeId.GB_PARTIAL, SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL}
)

#: Schemes that keep an explicit per-node update counter.
COUNTER_SCHEMES = frozenset({SchemeId.NO_FULL, SchemeId.NO_PARTIAL})


class HeightState(NamedTuple):
    """State of the classical neighbor-aware full scheme and the baseline."""

    node: int
    height: int


class LevelHeightState(NamedTuple):
    """State of the neighbor-aware partial scheme: a reversal level plus height."""

    node: int
    level: int
    height: int


class CountedHeightState(NamedTuple):
    """State of the neighbor-oblivious schemes: update count plus derived height."""

    node: int
    updates: int
    height: int


class PhaseState(NamedTuple):
    """Two-bit state: the update count modulo 4."""

    node: int
    phase: int


class FlagState(NamedTuple):
    """One-bit state: a parity flag toggled on every update."""

    node: int
    flag: int


State = HeightState | LevelHeightState | CountedHeightState | PhaseState | FlagState

STATE_CLASSES: Mapping[SchemeId, type] = {
    SchemeId.GB_FULL: HeightState,
    SchemeId.BASELINE_INCREMENT: HeightState,
    SchemeId.GB_PARTIAL: LevelHeightState,
    SchemeId.NO_FULL: CountedHeightState,
    SchemeId.NO_PARTIAL: CountedHeightState,
    SchemeId.TWO_BIT_FULL: PhaseState,
    SchemeId.TWO_BIT_PARTIAL: PhaseState,
    SchemeId.ONE_BIT_FULL: FlagState,
}


@dataclass(frozen=True)
class HeightAssignment:
    """Initial heights of nodes 1..N.  The destination is fixed at 0."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for idx, h in enumerate(self.values, start=1):
            if not isinstance(h, int) or isinstance(h, bool) or h < 1:
                raise ValueError(f"initial height of node {idx} must be a positive integer, got {h!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def max_height(self) -> int:
        return max(self.values)

    def of(self, node: int) -> int:
        if node == DESTINATION:
            return 0
        if not 1 <= node <= len(self.values):
            raise UnknownNodeError(f"node {node} has no assigned height")
        return self.values[node - 1]

    @cached_property
    def initial_ranks(self) -> tuple[int, ...]:
        """Rank of each node id, destination first, in the initial (height, id) order.

        The phase and flag schemes break ties between equal phases or flags
        by this order; comparing ranks is comparing (height, id) keys.
        """
        order = sorted(range(len(self.values) + 1), key=lambda i: (self.of(i), i))
        ranks = [0] * len(order)
        for rank, node in enumerate(order):
            ranks[node] = rank
        return tuple(ranks)


def _canonical_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph over the destination and nodes 1..N."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        require_connected: bool = True,
    ) -> Topology:
        if n < 1:
            raise ValueError("a topology needs at least one nondestination node")
        valid = set(range(1, n + 1)) | {DESTINATION}
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self loop at node {a}")
            if a not in valid or b not in valid:
                raise ValueError(f"edge ({a},{b}) uses an unknown node id")
            e = _canonical_edge(a, b)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        topo = cls(nodes=tuple(range(1, n + 1)), edges=tuple(sorted(seen)))
        if require_connected and not topo.is_connected:
            raise DisconnectedGraphError("graph is not connected")
        return topo

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in (DESTINATION, *self.nodes)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {i: tuple(sorted(js)) for i, js in adj.items()}

    def neighbors(self, i: int) -> tuple[int, ...]:
        try:
            return self._adjacency[i]
        except KeyError:
            raise UnknownNodeError(f"node {i} is not in the topology") from None

    def has_node(self, i: int) -> bool:
        return i == DESTINATION or i in self._node_set

    @cached_property
    def _node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    @cached_property
    def is_connected(self) -> bool:
        """True if every node is reachable from the destination, ignoring direction."""
        if not self.nodes:
            return True
        seen = {DESTINATION}
        queue = deque([DESTINATION])
        while queue:
            i = queue.popleft()
            for j in self._adjacency.get(i, ()):
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return self._node_set <= seen

    def without(
        self,
        drop_nodes: Iterable[int] = (),
        drop_edges: Iterable[tuple[int, int]] = (),
    ) -> Topology:
        """Copy of this topology with the given nodes and links removed."""
        gone_nodes = set(drop_nodes)
        if DESTINATION in gone_nodes:
            raise ValueError("the destination cannot be removed")
        gone_edges = {_canonical_edge(a, b) for a, b in drop_edges}
        nodes = tuple(i for i in self.nodes if i not in gone_nodes)
        edges = tuple(
            e
            for e in self.edges
            if e not in gone_edges and e[0] not in gone_nodes and e[1] not in gone_nodes
        )
        return Topology(nodes=nodes, edges=edges)


def hop_count_heights(topo: Topology) -> HeightAssignment:
    """Default initial heights: undirected hop distance to the destination."""
    dist = {DESTINATION: 0}
    queue = deque([DESTINATION])
    while queue:
        i = queue.popleft()
        for j in topo.neighbors(i):
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    missing = [i for i in topo.nodes if i not in dist]
    if missing:
        raise DisconnectedGraphError(f"nodes {missing} cannot reach the destination")
    return HeightAssignment(tuple(dist[i] for i in topo.nodes))


# --- state ordering ---------------------------------------------------------


def _check_pair(a: State, b: State, scheme: SchemeId) -> None:
    want = STATE_CLASSES[scheme]
    if type(a) is not want or type(b) is not want:
        raise SchemeMismatchError(
            f"scheme {scheme} orders {want.__name__} values, got {type(a).__name__}/{type(b).__name__}"
        )
    if a.node == b.node:
        raise ValueError(f"cannot order two states of the same node {a.node}")


#: Global comparison keys of the totally ordered schemes.
_SORT_KEYS = {
    SchemeId.GB_FULL: lambda s: (s.height, s.node),
    SchemeId.BASELINE_INCREMENT: lambda s: (s.height, s.node),
    SchemeId.GB_PARTIAL: lambda s: (s.level, s.height, s.node),
    SchemeId.NO_FULL: lambda s: (s.updates, s.height, s.node),
    # the counted partial key flips the id tie-break sign on odd counts
    SchemeId.NO_PARTIAL: lambda s: (s.updates, s.height, -s.node if s.updates % 2 else s.node),
}


def sort_key(state: State, scheme: SchemeId) -> tuple[int, ...]:
    """Comparison key of a state under a totally ordered scheme.

    The phase and flag schemes have no global key; their order is defined
    pairwise (see orientation_predicate).
    """
    try:
        key = _SORT_KEYS[scheme]
    except KeyError:
        raise SchemeMismatchError(f"scheme {scheme} has no global sort key") from None
    return key(state)


Orientation = Callable[[State, State], bool]


def _compile_ordered(scheme: SchemeId) -> Orientation:
    want, key = STATE_CLASSES[scheme], _SORT_KEYS[scheme]

    def points_from(a: State, b: State) -> bool:
        if type(a) is not want or type(b) is not want or a.node == b.node:
            _check_pair(a, b, scheme)
        return key(a) > key(b)

    return points_from


#: The totally ordered schemes need no heights, so their predicates are built once.
_ORDERED_PREDICATES = {scheme: _compile_ordered(scheme) for scheme in _SORT_KEYS}


def _phase_points_from(scheme: SchemeId, ranks: tuple[int, ...], a: State, b: State) -> bool:
    if type(a) is not PhaseState or type(b) is not PhaseState or a.node == b.node:
        _check_pair(a, b, scheme)
    gap = (a.phase - b.phase) % PHASE_MODULUS
    if gap == 1:
        return True
    if gap == 3:
        return False
    if gap == 2:
        raise PhaseAdjacencyError(
            f"phases of nodes {a.node} and {b.node} are two apart "
            f"({a.phase} vs {b.phase}); their order is undefined"
        )
    initially_above = ranks[a.node] > ranks[b.node]
    # Odd phases reverse the initial order under the partial variant only.
    if a.phase % 2 and scheme is SchemeId.TWO_BIT_PARTIAL:
        return not initially_above
    return initially_above


def _flag_points_from(ranks: tuple[int, ...], a: State, b: State) -> bool:
    if type(a) is not FlagState or type(b) is not FlagState or a.node == b.node:
        _check_pair(a, b, SchemeId.ONE_BIT_FULL)
    # Equal flags keep the initial direction of the pair; opposite flags
    # reverse it.
    initially_above = ranks[a.node] > ranks[b.node]
    return initially_above if a.flag == b.flag else not initially_above


def _missing_heights(scheme: SchemeId, a: State, b: State) -> bool:
    _check_pair(a, b, scheme)
    kind = "flag" if scheme is SchemeId.ONE_BIT_FULL else "phase"
    raise ValueError(f"{kind} comparison needs the initial height assignment")


def orientation_predicate(scheme: SchemeId, heights: HeightAssignment | None = None) -> Orientation:
    """Compiled link direction for one scheme and one height assignment.

    The returned predicate answers link_points_from(a, b, scheme, heights)
    with the same errors: SchemeMismatchError for a state of another
    scheme, ValueError for two states of one node, PhaseAdjacencyError for
    phases two apart, and ValueError when a phase or flag scheme was given
    no heights.  Ties in the primary fields are broken by node id; the
    phase and flag schemes break them by the initial (height, id) order,
    whose ranks the heights compute once.
    """
    ordered = _ORDERED_PREDICATES.get(scheme)
    if ordered is not None:
        return ordered
    if heights is None:
        return partial(_missing_heights, scheme)
    if scheme is SchemeId.ONE_BIT_FULL:
        return partial(_flag_points_from, heights.initial_ranks)
    return partial(_phase_points_from, scheme, heights.initial_ranks)


def compare_states(
    a: State, b: State, scheme: SchemeId, heights: HeightAssignment | None = None
) -> int:
    """Strict order of two states: +1 if a is above b, -1 if below.

    Never returns 0: ties in the primary fields are broken by node id (for
    the phase schemes, by the initial height/id key, which the heights
    argument supplies).  Flag states are not totally ordered; use
    link_points_from for them.
    """
    if scheme is SchemeId.ONE_BIT_FULL:
        _check_pair(a, b, scheme)
        raise SchemeMismatchError(
            "flag states are ordered pairwise only; use link_points_from"
        )
    return 1 if orientation_predicate(scheme, heights)(a, b) else -1


def link_points_from(
    a: State, b: State, scheme: SchemeId, heights: HeightAssignment | None = None
) -> bool:
    """True if the link between a.node and b.node is oriented a.node -> b.node."""
    return orientation_predicate(scheme, heights)(a, b)


# --- induced orientation ----------------------------------------------------


@dataclass(frozen=True)
class RoutingDag:
    """Orientation of a topology's links as (source, target) arcs.

    Arcs are listed in the canonical order of the underlying undirected
    edges, which makes the digest stable across runs.
    """

    arcs: tuple[tuple[int, int], ...]

    def digest(self) -> str:
        text = ";".join(f"{s}>{d}" for s, d in self.arcs)
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(_canonical_edge(s, d) for s, d in self.arcs)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(d for s, d in self.arcs if s == i)


def forwarding_set(
    i: int,
    states: Mapping[int, State],
    topo: Topology,
    scheme: SchemeId,
    heights: HeightAssignment,
) -> frozenset[int]:
    """Neighbors that node i may forward to: endpoints of its outgoing links.

    The destination, when adjacent, is always a member.
    """
    if i == DESTINATION or not topo.has_node(i):
        raise UnknownNodeError(f"node {i} has no forwarding set here")
    points_from = orientation_predicate(scheme, heights)
    own = states[i]
    out: set[int] = set()
    for j in topo.neighbors(i):
        if j == DESTINATION or points_from(own, states[j]):
            out.add(j)
    return frozenset(out)


def routing_dag(
    states: Mapping[int, State],
    topo: Topology,
    scheme: SchemeId,
    heights: HeightAssignment,
) -> RoutingDag:
    """Orient every link of the topology according to the current states."""
    points_from = orientation_predicate(scheme, heights)
    arcs = [
        (a, b) if a != DESTINATION and points_from(states[a], states[b]) else (b, a)
        for a, b in topo.edges
    ]
    return RoutingDag(tuple(arcs))


def stuck_set(dag: RoutingDag, topo: Topology) -> frozenset[int]:
    """Nondestination nodes with no outgoing link."""
    out_degree = {i: 0 for i in topo.nodes}
    for s, _ in dag.arcs:
        if s != DESTINATION:
            out_degree[s] += 1
    return frozenset(i for i, deg in out_degree.items() if deg == 0)


def is_destination_oriented(dag: RoutingDag, topo: Topology) -> bool:
    """True if every node has a directed path to the destination."""
    reverse: dict[int, list[int]] = {}
    for s, d in dag.arcs:
        reverse.setdefault(d, []).append(s)
    seen = {DESTINATION}
    stack = [DESTINATION]
    while stack:
        i = stack.pop()
        for j in reverse.get(i, ()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return set(topo.nodes) <= seen


def is_acyclic(dag: RoutingDag) -> bool:
    """Kahn-style check; orientations from a total order always pass."""
    out: dict[int, set[int]] = {}
    in_degree: dict[int, int] = {}
    nodes: set[int] = set()
    for s, d in dag.arcs:
        out.setdefault(s, set()).add(d)
        in_degree[d] = in_degree.get(d, 0) + 1
        nodes.update((s, d))
    ready = [i for i in nodes if in_degree.get(i, 0) == 0]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for j in out.get(i, ()):
            in_degree[j] -= 1
            if in_degree[j] == 0:
                ready.append(j)
    return removed == len(nodes)


def orientation_flips(before: RoutingDag, after: RoutingDag) -> tuple[tuple[int, int], ...]:
    """Edges common to both orientations whose direction changed."""
    prev = {_canonical_edge(s, d): (s, d) for s, d in before.arcs}
    flipped = []
    for s, d in after.arcs:
        e = _canonical_edge(s, d)
        old = prev.get(e)
        if old is not None and old != (s, d):
            flipped.append(e)
    return tuple(flipped)

"""Topologies, initial heights, and the routing DAG a state vector induces.

Every link of the communication graph is oriented from the endpoint whose
state is higher to the endpoint whose state is lower, under the order of
the scheme's spec (see schemes.py), so a state vector induces an
orientation of the whole graph.  The destination is a passive sentinel
whose state is globally minimal: links incident to it always point into it
and it never updates.  A nondestination node with no outgoing link is
stuck; routing works once no node is stuck, i.e. once every node has a
directed path to the destination.  An orientation is one value, its arcs:
a tuple of (source, target) pairs in the canonical order of the edges.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import DisconnectedGraphError, OverflowRiskError, UnknownNodeError
from .schemes import INT63_MAX, SPECS, Orientation, SchemeId, State

#: Sentinel node id of the destination.  Nondestination nodes are 1..N.
DESTINATION = 0

#: An orientation: one (source, target) arc per link, in canonical edge order.
Arcs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HeightAssignment:
    """Initial heights of nodes 1..N.  The destination is fixed at 0.

    A height that is not a positive integer raises ValueError, and one
    beyond the signed 64-bit range raises OverflowRiskError.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for idx, h in enumerate(self.values, start=1):
            if not isinstance(h, int) or isinstance(h, bool) or h < 1:
                raise ValueError(f"initial height of node {idx} must be a positive integer, got {h!r}")
            if h > INT63_MAX:
                raise OverflowRiskError(f"initial height {h} of node {idx} exceeds the signed 64-bit range")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
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
        # A stable sort of the ids by height leaves equal heights in id order.
        heights = (0, *self.values)
        order = sorted(range(len(heights)), key=heights.__getitem__)
        ranks = [0] * len(order)
        for rank, node in enumerate(order):
            ranks[node] = rank
        return tuple(ranks)

    @cached_property
    def _predicates(self) -> dict[SchemeId, Orientation]:
        """The orientation predicates compiled for these heights, by scheme."""
        return {}


def _canonical_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph over the destination and nodes 1..N."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> Topology:
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
        if not topo.is_connected:
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
    def probe_table(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each node with no link to the destination and its neighbors, by node id.

        Those are the nodes a hello probe can find stuck, and all their
        neighbors are ordinary nodes.  Built once per topology, so every
        scheme probing it shares the table.
        """
        adjacency = self._adjacency
        # Built from a list, so the tuple is allocated at its final size: a
        # tuple shrunk from a generator's guess leaves CPython's free list of
        # its size a block that no later tuple reuses.
        return tuple([(i, adjacency[i]) for i in self.nodes if DESTINATION not in adjacency[i]])

    @cached_property
    def _final_digests(self) -> dict[Arcs, str]:
        """Digests of final orientations, by arcs.

        Filled by the schedule enumeration: the schemes run on one
        topology mostly end in the same orientations.
        """
        return {}

    @cached_property
    def _reach(self) -> dict[Arcs, frozenset[int]]:
        """The nodes each orientation leads to the destination, by arcs; see destination_reach."""
        return {}

    @cached_property
    def _views(self) -> dict[tuple[frozenset[int], frozenset[tuple[int, int]]], Topology]:
        """The topologies without returned, by the nodes and canonical links dropped."""
        return {}

    @cached_property
    def ordinary_links(self) -> dict[int, tuple[int, ...]]:
        """Positions in edges of each node's links to other nondestination nodes.

        Those are the links an update can flip: a link into the destination
        always points into it.  Built once per topology, so every scheme
        replayed on it shares the lists.
        """
        links: dict[int, list[int]] = {i: [] for i in self.nodes}
        for k, (a, b) in enumerate(self.edges):
            if a != DESTINATION:
                links[a].append(k)
                links[b].append(k)
        return {i: tuple(ks) for i, ks in links.items()}

    @cached_property
    def arc_table(self) -> tuple[tuple[tuple[int, int], tuple[int, int], str, str], ...]:
        """One row per edge, in edge order: (edge, reversed edge, "a>b", "b>a").

        The two arcs a link can hold and their digest labels, built once per
        topology, so the simulator picks an arc and its label instead of
        building them.  The forward arc is the edge tuple of edges itself.
        """
        return tuple([(e, (e[1], e[0]), arc_label(*e), arc_label(e[1], e[0])) for e in self.edges])

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position of each canonical edge in edges, built once per topology."""
        return {e: k for k, e in enumerate(self.edges)}

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
        """This topology with the given nodes and links removed.

        Memoized on this topology by the set of nodes and the set of
        canonical links, so every run of a scenario that puts the same
        nodes to sleep or removes the same parts shares one view, and with
        it the view's adjacency, edge index, probe table and reach memo.
        """
        gone_nodes = frozenset(drop_nodes)
        if DESTINATION in gone_nodes:
            raise ValueError("the destination cannot be removed")
        gone_edges = frozenset(_canonical_edge(a, b) for a, b in drop_edges)
        key = (gone_nodes, gone_edges)
        view = self._views.get(key)
        if view is None:
            nodes = tuple(i for i in self.nodes if i not in gone_nodes)
            edges = tuple(
                e
                for e in self.edges
                if e not in gone_edges and e[0] not in gone_nodes and e[1] not in gone_nodes
            )
            view = self._views[key] = Topology(nodes=nodes, edges=edges)
        return view


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


# --- link direction ---------------------------------------------------------


def orientation_predicate(scheme: SchemeId, heights: HeightAssignment) -> Orientation:
    """Compiled link direction for one scheme and one height assignment.

    The returned predicate answers link_points_from(a, b, scheme, heights)
    with the same errors: SchemeMismatchError for a state of another
    scheme, ValueError for two states of one node, and PhaseAdjacencyError
    for phases two apart.  Ties in the primary fields are broken by node
    id; the phase and flag schemes break them by the initial (height, id)
    order, whose ranks the heights compute once.  Each predicate is
    compiled once per scheme and height assignment and then reused.
    """
    compiled = heights._predicates.get(scheme)
    if compiled is None:
        compiled = heights._predicates[scheme] = SPECS[scheme].orientation(heights)
    return compiled


def link_points_from(a: State, b: State, scheme: SchemeId, heights: HeightAssignment) -> bool:
    """True if the link between a.node and b.node is oriented a.node -> b.node."""
    return orientation_predicate(scheme, heights)(a, b)


# --- induced orientation ----------------------------------------------------


#: Text of the arc s -> d inside an orientation digest: arc_label(s, d).
#: A bound str.format, which itertools.starmap applies to a run of arcs
#: without a Python-level call per arc.
arc_label: Callable[[int, int], str] = "{}>{}".format


def arcs_digest(labels: Iterable[str]) -> str:
    """Digest of an orientation from its arc labels, in canonical edge order.

    The one digest of an orientation: arcs_digest(starmap(arc_label, arcs)).
    The incremental simulator, which keeps the labels of its arcs and
    patches them as links flip, passes its labels directly, and only after
    a step that flipped a link or a rebuild: a step that reverses no link
    keeps the last digest, and its record shares that string.  The
    canonical order makes the digest stable across runs.
    """
    return hashlib.sha256(";".join(labels).encode("ascii")).digest()[:6].hex()


def routing_dag(
    states: Mapping[int, State] | Sequence[State | None],
    topo: Topology,
    scheme: SchemeId,
    heights: HeightAssignment,
) -> Arcs:
    """Orient every link of the topology according to the current states.

    Returns the arcs, one per edge of topo.edges and in its order.  states
    gives each nondestination node's state by node id: a dict, or a
    sequence whose slot 0, the destination's, is never read.
    """
    points_from = orientation_predicate(scheme, heights)
    return tuple([
        (a, b) if a != DESTINATION and points_from(states[a], states[b]) else (b, a)
        for a, b in topo.edges
    ])


def probe_stuck(
    table: Iterable[tuple[int, Iterable[int]]],
    states: Mapping[int, State] | Sequence[State | None],
    points_from: Orientation,
) -> tuple[int, ...]:
    """The hello probe: the nodes of table that no neighbor lies below.

    table holds (node, neighbors) rows, such as Topology.probe_table, of
    nodes with no link to the destination, which is never stuck.  A node
    is stuck iff no neighbor acks, that is iff the link to each neighbor
    points toward the node; its probe stops at the first neighbor below
    it.  A node with no neighbor is stuck.  The stuck nodes are listed in
    table order.
    """
    stuck: list[int] = []
    for i, neighbors in table:
        own = states[i]
        for j in neighbors:
            if points_from(own, states[j]):
                break
        else:
            stuck.append(i)
    return tuple(stuck)


def stuck_set(arcs: Iterable[tuple[int, int]], topo: Topology) -> frozenset[int]:
    """Nondestination nodes with no outgoing link."""
    return topo._node_set.difference(s for s, _ in arcs)


def is_destination_oriented(arcs: Iterable[tuple[int, int]], topo: Topology) -> bool:
    """True if every node has a directed path to the destination.

    Reads the topology's memo through destination_reach, keyed by the arcs
    tuple; other arcs are copied into a tuple first.
    """
    return topo._node_set <= destination_reach(arcs, topo)


def destination_reach(arcs: Iterable[tuple[int, int]], topo: Topology) -> frozenset[int]:
    """reaches_destination(arcs), memoized on the topology by the arcs tuple.

    The set depends on the arcs alone, so the memo returns what the search
    would; keeping it per topology lets it die with the topology.  The runs
    and checks of one scenario end in few orientations, and the battery asks
    about each many times.
    """
    key = arcs if type(arcs) is tuple else tuple(arcs)
    memo = topo._reach
    reach = memo.get(key)
    if reach is None:
        reach = memo[key] = frozenset(reaches_destination(key))
    return reach


def reaches_destination(arcs: Iterable[tuple[int, int]]) -> set[int]:
    """The nodes with a directed path to the destination, the destination included."""
    reverse: dict[int, list[int]] = {}
    for s, d in arcs:
        reverse.setdefault(d, []).append(s)
    seen = {DESTINATION}
    stack = [DESTINATION]
    while stack:
        i = stack.pop()
        for j in reverse.get(i, ()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def orientation_flips(
    before: Iterable[tuple[int, int]], after: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Edges common to both orientations whose direction changed."""
    prev = {_canonical_edge(s, d): (s, d) for s, d in before}
    flipped = []
    for s, d in after:
        e = _canonical_edge(s, d)
        old = prev.get(e)
        if old is not None and old != (s, d):
            flipped.append(e)
    return tuple(flipped)

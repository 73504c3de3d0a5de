"""Seeded scenario generation for sweeps and acceptance batteries.

Void scenarios model a failure: a connected graph is sampled, heights are
set to hop counts (so routing starts greedy), then one node whose removal
keeps the rest connected but strands at least one survivor is deleted.
Survivors keep their old heights, which leaves the stranded nodes stuck.

Candidates are tested on adjacency bitsets, with no Topology and no
states: bit j of adjacency[i] is set when nodes i and j are linked, and the
destination is node 0.  Every scheme orients each link by the initial
(height, id) order, so a node starts stuck iff it has no link to the
destination and no neighbor below it in that order; _starts_stuck is that
test, a walk over the nodes sorted once by that order, for both
generators.  A random void sorts each sampled graph's nodes once and runs
the walk first for every victim: only a victim whose removal would strand
a survivor costs a connectivity search, and the scenario is built through
Scenario.from_topology on the renumbered kept edges, which that search has
already shown connected.  exhaustive_void_scenarios walks the edge masks
once, with connectivity and hop counts from a bitset breadth-first search,
and builds a Scenario only for the masks it keeps, on a Topology made from
the walk's edges with no second validation.  Partition scenarios find
their bridges with the same search: a link is a bridge when the graph
without it leaves some node unreached.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .model import DESTINATION, HeightAssignment, Topology
from .scenario import Scenario, SimEvent


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Neighbor bitset of the destination and of each node 1..n, by node id."""
    adjacency = [0] * (n + 1)
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return adjacency


def _hop_counts(adjacency: Sequence[int], alive: int) -> list[int] | None:
    """Hop count of each node of the bitset alive over the links inside it.

    A breadth-first search from the destination, a frontier bitset at a
    time.  Counts are indexed by node id, 0 for the destination and for
    nodes outside alive.  None when some node of alive is unreachable.
    """
    hops = [0] * len(adjacency)
    seen = frontier = 1 << DESTINATION
    level = 0
    while frontier:
        level += 1
        reached = 0
        rest = frontier
        while rest:
            low = rest & -rest
            reached |= adjacency[low.bit_length() - 1]
            rest ^= low
        frontier = reached & alive & ~seen
        seen |= frontier
        rest = frontier
        while rest:
            low = rest & -rest
            hops[low.bit_length() - 1] = level
            rest ^= low
    return hops if seen == alive else None


def _height_order(heights: Sequence[int]) -> list[int]:
    """The nodes 1.. of heights, indexed by node id, in the initial (height, id) order."""
    # sorted is stable, so nodes of equal height stay in id order.
    return sorted(range(1, len(heights)), key=heights.__getitem__)


def _starts_stuck(adjacency: Sequence[int], order: Sequence[int], alive: int) -> bool:
    """True if some node of alive has no link down, under the initial (height, id) order.

    order is _height_order of the heights; the nodes it lists outside alive
    are skipped.  The destination is below every node, so a node linked to
    it is never stuck.
    """
    below = 1 << DESTINATION
    for i in order:
        if alive >> i & 1:
            if not adjacency[i] & below:
                return True
            below |= 1 << i
    return False


def _random_connected_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random connected graph on the destination plus nodes 1..n.

    A random attachment tree guarantees connectivity; a sprinkle of extra
    links keeps the graphs from all being trees.
    """
    ids = [DESTINATION] + list(range(1, n + 1))
    order = ids[1:]
    rng.shuffle(order)
    order = [DESTINATION] + order
    edges = set()
    for k in range(1, len(order)):
        partner = order[rng.randrange(k)]
        a, b = order[k], partner
        edges.add((min(a, b), max(a, b)))
    extra_p = 1.2 / n
    for a, b in combinations(ids, 2):
        if (a, b) not in edges and rng.random() < extra_p:
            edges.add((a, b))
    return sorted(edges)


def random_void_scenario(n: int, seed: int) -> Scenario:
    """Connected scenario with n nodes, hop-count-born heights, and a void.

    Two survivors can never leave a void (the non-destination-adjacent one
    would need a height below the minimum), so three nodes is the floor.
    """
    if n < 3:
        raise ValueError("void scenarios need at least three nodes")
    rng = random.Random(seed * 1_000_003 + n)
    everyone = (1 << (n + 2)) - 1
    for _ in range(200):
        edges = _random_connected_edges(rng, n + 1)
        adjacency = _adjacency(n + 1, edges)
        hops = _hop_counts(adjacency, everyone)
        order = _height_order(hops)
        # Survivors are tested under their old ids: numbering them 1..n in
        # the same order afterwards turns no link around.  The stuck walk
        # is the cheap test, so it goes first.
        candidates = []
        for victim in range(1, n + 2):
            alive = everyone & ~(1 << victim)
            if _starts_stuck(adjacency, order, alive) and _hop_counts(adjacency, alive) is not None:
                candidates.append(victim)
        if candidates:
            victim = candidates[rng.randrange(len(candidates))]
            # Renumbering keeps the sorted, canonical edges sorted and
            # canonical, and the victim's test found them connected.
            kept = tuple(
                (a - (a > victim), b - (b > victim)) for a, b in edges if victim not in (a, b)
            )
            values = tuple(hops[i] for i in range(1, n + 2) if i != victim)
            return Scenario.from_topology(
                Topology(tuple(range(1, n + 1)), kept), HeightAssignment(values),
                seed=seed, name=f"void-n{n}-s{seed}",
            )
    raise RuntimeError(f"no void scenario found for n={n}, seed={seed}")


def random_partition_scenario(n: int, seed: int) -> Scenario:
    """Connected scenario plus one link removal that disconnects the graph.

    The scripted removal fires before the first step and strands every node
    behind the cut, so the run must end Partitioned.
    """
    if n < 2:
        raise ValueError("partition scenarios need at least two nodes")
    rng = random.Random(seed * 7_000_003 + n)
    everyone = (1 << (n + 1)) - 1
    for _ in range(200):
        edges = _random_connected_edges(rng, n)
        adjacency = _adjacency(n, edges)
        bridges = []
        for a, b in edges:
            cut = adjacency.copy()
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            if _hop_counts(cut, everyone) is None:
                bridges.append((a, b))
        if not bridges:
            continue
        edge = bridges[rng.randrange(len(bridges))]
        hops = _hop_counts(adjacency, everyone)
        return Scenario.create(
            n,
            edges,
            heights=hops[1:],
            events=[SimEvent(at_step=1, kind="remove-link", edge=edge)],
            seed=seed,
            name=f"partition-n{n}-s{seed}",
        )
    raise RuntimeError(f"no partition scenario found for n={n}, seed={seed}")


def _connected_graphs(n: int) -> Iterator[tuple[list[tuple[int, int]], list[int], list[int]]]:
    """Edges, adjacency bitsets and hop counts of every connected labeled graph.

    The graphs are on the destination and nodes 1..n, in edge-mask order:
    bit k of the mask stands for the k-th pair of combinations(0..n, 2).
    """
    if n < 1:
        raise ValueError("a topology needs at least one nondestination node")
    pairs = list(combinations(range(n + 1), 2))
    everyone = (1 << (n + 1)) - 1
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < n:
            continue  # a connected graph on n+1 vertices needs at least n links
        edges = [pairs[k] for k in _bits(mask)]
        adjacency = _adjacency(n, edges)
        hops = _hop_counts(adjacency, everyone)
        if hops is not None:
            yield edges, adjacency, hops


def all_connected_topologies(n: int) -> Iterator[Topology]:
    """Every labeled connected graph on the destination and nodes 1..n."""
    nodes = tuple(range(1, n + 1))
    for edges, _, _ in _connected_graphs(n):
        # Mask order lists each graph's edges canonical and sorted.
        yield Topology(nodes, tuple(edges))


def _height_attempts(adjacency: Sequence[int], hops: Sequence[int]) -> Iterator[list[int]]:
    """The heights _void_values tries, in order, indexed by node id.

    Reversed hop counts first, then a single low sink at each node that is
    not destination-adjacent, in id order.
    """
    n = len(adjacency) - 1
    top = max(hops)
    yield [0] + [top + 1 - h for h in hops[1:]]
    for v in range(1, n + 1):
        if not adjacency[v] >> DESTINATION & 1:
            yield [0] + [1 if i == v else 2 for i in range(1, n + 1)]


def _void_values(adjacency: Sequence[int], hops: Sequence[int]) -> tuple[int, ...] | None:
    """Heights of nodes 1..n from the first attempt that leaves a node stuck."""
    everyone = (1 << len(adjacency)) - 1
    for heights in _height_attempts(adjacency, hops):
        if _starts_stuck(adjacency, _height_order(heights), everyone):
            return tuple(heights[1:])
    return None


def exhaustive_void_scenarios(n: int) -> Iterator[Scenario]:
    """Each connected topology on n nodes, equipped with a void when possible.

    The walk's edges are canonical, sorted and connected, so each Scenario
    is built on its Topology with no second validation; HeightAssignment
    still validates the heights.
    """
    nodes = tuple(range(1, n + 1))
    counter = 0
    for edges, adjacency, hops in _connected_graphs(n):
        values = _void_values(adjacency, hops)
        if values is None:
            continue
        counter += 1
        yield Scenario.from_topology(
            Topology(nodes, tuple(edges)), HeightAssignment(values),
            name=f"exhaustive-n{n}-{counter:04d}",
        )

"""Seeded scenario generation for sweeps and acceptance batteries.

Void scenarios model a failure: a connected graph is sampled, heights are
set to hop counts (so routing starts greedy), then one node whose removal
keeps the rest connected but strands at least one survivor is deleted.
Survivors keep their old heights, which leaves the stranded nodes stuck.
Each candidate is probed on its topology and heights alone, with the
simulator's hello round over the initial states; a Scenario is built only
for the candidate returned.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import combinations

from .model import DESTINATION, HeightAssignment, Topology, hop_count_heights
from .scenario import Scenario, SimEvent
from .schemes import SchemeId, initial_states
from .sim import hello_round

#: Every scheme starts from the same orientation, so any one of them tells
#: whether the initial states leave a node stuck.
_PROBE_SCHEME = SchemeId.NO_FULL


def _has_void(topo: Topology, heights: HeightAssignment) -> bool:
    """True if some node starts stuck, by hello rounds over the initial states."""
    states = initial_states(_PROBE_SCHEME, topo, heights)
    return any(hello_round(i, states, topo, _PROBE_SCHEME, heights) for i in topo.nodes)


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
    for _ in range(200):
        wide = Topology.build(n + 1, _random_connected_edges(rng, n + 1))
        heights = hop_count_heights(wide)
        # Survivors are probed under their old ids: numbering them 1..n in
        # the same order afterwards turns no link around.
        candidates = []
        for victim in wide.nodes:
            shrunk = wide.without(drop_nodes=(victim,))
            if shrunk.is_connected and _has_void(shrunk, heights):
                candidates.append(shrunk)
        if candidates:
            shrunk = candidates[rng.randrange(len(candidates))]
            relabel = {old: new for new, old in enumerate((DESTINATION, *shrunk.nodes))}
            edges = [(relabel[a], relabel[b]) for a, b in shrunk.edges]
            values = tuple(heights.of(old) for old in shrunk.nodes)
            return Scenario.create(n, edges, heights=values, seed=seed, name=f"void-n{n}-s{seed}")
    raise RuntimeError(f"no void scenario found for n={n}, seed={seed}")


def random_partition_scenario(n: int, seed: int) -> Scenario:
    """Connected scenario plus one link removal that disconnects the graph.

    The scripted removal fires before the first step and strands every node
    behind the cut, so the run must end Partitioned.
    """
    if n < 2:
        raise ValueError("partition scenarios need at least two nodes")
    rng = random.Random(seed * 7_000_003 + n)
    for _ in range(200):
        topo = Topology.build(n, _random_connected_edges(rng, n))
        bridges = []
        for edge in topo.edges:
            rest = topo.without(drop_edges=(edge,))
            if not rest.is_connected:
                # Only keep cuts that strand at least one nondestination node.
                bridges.append(edge)
        if not bridges:
            continue
        edge = bridges[rng.randrange(len(bridges))]
        heights = hop_count_heights(topo)
        return Scenario.create(
            n,
            topo.edges,
            heights=heights.values,
            events=[SimEvent(at_step=1, kind="remove-link", edge=edge)],
            seed=seed,
            name=f"partition-n{n}-s{seed}",
        )
    raise RuntimeError(f"no partition scenario found for n={n}, seed={seed}")


def all_connected_topologies(n: int) -> Iterator[Topology]:
    """Every labeled connected graph on the destination and nodes 1..n."""
    ids = [DESTINATION] + list(range(1, n + 1))
    pairs = list(combinations(ids, 2))
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") < n:
            continue  # a connected graph on n+1 vertices needs at least n links
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        topo = Topology.build(n, edges, require_connected=False)
        if topo.is_connected:
            yield topo


def void_heights(topo: Topology) -> tuple[int, ...] | None:
    """Deterministic height assignment that leaves some node stuck.

    Tries reversed hop counts first, then a single low sink per node that
    is not destination-adjacent.  Returns None when no assignment can make
    a void (every node adjacent to the destination).
    """
    hops = hop_count_heights(topo)
    top = max(hops.values)
    attempts: list[tuple[int, ...]] = [tuple(top + 1 - h for h in hops.values)]
    dest_adjacent = set(topo.neighbors(DESTINATION))
    for v in topo.nodes:
        if v not in dest_adjacent:
            attempts.append(tuple(1 if i == v else 2 for i in topo.nodes))
    for values in attempts:
        if _has_void(topo, HeightAssignment(values)):
            return values
    return None


def exhaustive_void_scenarios(n: int) -> Iterator[Scenario]:
    """Each connected topology on n nodes, equipped with a void when possible."""
    counter = 0
    for topo in all_connected_topologies(n):
        values = void_heights(topo)
        if values is None:
            continue
        counter += 1
        yield Scenario.create(
            n, topo.edges, heights=values, name=f"exhaustive-n{n}-{counter:04d}"
        )

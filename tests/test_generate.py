"""Scenario generators: voids, partitions, and topology enumeration."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from linkrev import Outcome, Schedule, SchemeId, generate, run_scenario
from linkrev.generate import (
    _adjacency,
    _connected_graphs,
    _height_attempts,
    _height_order,
    _hop_counts,
    _random_connected_edges,
    _starts_stuck,
    exhaustive_void_scenarios,
    random_partition_scenario,
    random_void_scenario,
)
from linkrev.model import (
    DESTINATION,
    HeightAssignment,
    Topology,
    hop_count_heights,
    orientation_predicate,
    probe_stuck,
)
from linkrev.scenario import serialize_scenario
from linkrev.schemes import initial_states

#: sha256 of the serialized random_void_scenario(4 + k % 9, k) for k < 216
#: (the verify-random corpus) followed by exhaustive_void_scenarios(4).
GENERATED_DIGEST = "8c9012349d38d358413c350f748dab842e6ca2ef03ffb6145f7ed8ff043215d2"

#: sha256 of the serialized exhaustive_void_scenarios(5), in the order yielded.
EXHAUSTIVE_N5_DIGEST = "ef7bcccad1747c1c813e58db585d55901d4131d3fc1b3bb92cc8bbad54f33881"

#: sha256 of the serialized random_partition_scenario(n, k) for n = 2..12,
#: then k = 0..19.
PARTITION_DIGEST = "df7adf31a72a20e6d44ecf8f46f40c3a1b0a3dfb85365e4fae1061f1e525765c"

#: sha256 of the serialized random_void_scenario(n, k) for n = 3..19, then
#: k = 0..149: every size from the floor past the verify-random corpus.
WIDE_VOID_DIGEST = "8c25ee3e5b3516c1570ac4cb2ee2e4159cadcca26252a96b8d5b299b938566dc"


def test_random_void_scenario_shape():
    sc = random_void_scenario(6, seed=0)
    assert sc.n == 6
    assert sc.name == "void-n6-s0"
    assert sc.topology.is_connected
    assert all(h >= 1 for h in sc.heights.values)
    # the point of the construction: somebody starts stuck
    trace = run_scenario(sc, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.total_updates > 0


def test_random_void_scenario_is_deterministic_per_seed():
    assert random_void_scenario(5, seed=3) == random_void_scenario(5, seed=3)
    assert random_void_scenario(5, seed=3) != random_void_scenario(5, seed=4)


def test_random_partition_scenario_disconnects():
    sc = random_partition_scenario(6, seed=1)
    assert len(sc.events) == 1
    ev = sc.events[0]
    assert ev.kind == "remove-link" and ev.at_step == 1
    assert not sc.topology.without(drop_edges=(ev.edge,)).is_connected
    trace = run_scenario(sc, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED


def _every_mask_in_order(n: int):
    """Reference: each edge mask over the pairs of 0..n in turn, kept when connected."""
    pairs = list(combinations(range(n + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        topo = Topology(tuple(range(1, n + 1)), tuple(edges))
        if topo.is_connected:
            yield topo


def _connected_topologies(n: int) -> list[Topology]:
    """The graphs _connected_graphs walks, as topologies, in its order."""
    nodes = tuple(range(1, n + 1))
    return [Topology(nodes, tuple(edges)) for edges, _, _ in _connected_graphs(n)]


def test_all_connected_topologies_counts():
    # labeled connected graphs on 3, 4 and 5 vertices, in edge-mask order
    for n, count in ((2, 4), (3, 38), (4, 728)):
        topologies = _connected_topologies(n)
        assert len(topologies) == count
        assert topologies == list(_every_mask_in_order(n))
    for topo in _connected_topologies(2):
        assert topo.is_connected


def _hello_void(topo: Topology, values) -> bool:
    """Reference: some node is stuck by hello probes over the initial states."""
    heights = HeightAssignment(tuple(values))
    states = initial_states(SchemeId.NO_FULL, topo, heights)
    return bool(probe_stuck(topo.probe_table, states, orientation_predicate(SchemeId.NO_FULL, heights)))


def test_bitset_void_test_agrees_with_hello_rounds():
    tried = stuck = 0
    for n in (1, 2, 3, 4):
        everyone = (1 << (n + 1)) - 1
        for topo in _connected_topologies(n):
            adjacency = _adjacency(n, topo.edges)
            hops = _hop_counts(adjacency, everyone)
            assert hops[1:] == list(hop_count_heights(topo).values)
            for heights in _height_attempts(adjacency, hops):
                tried += 1
                verdict = _starts_stuck(adjacency, _height_order(heights), everyone)
                assert verdict == _hello_void(topo, heights[1:]), (topo.edges, heights)
                stuck += verdict
    # both verdicts occur: the attempts are not all voids
    assert 0 < stuck < tried


def test_bitset_void_test_agrees_on_survivors():
    # random_void_scenario tests the survivors of each removal under their old ids
    for topo in _connected_topologies(4):
        adjacency = _adjacency(4, topo.edges)
        for values in ([0, 1, 2, 2, 3], [0, 3, 1, 2, 1]):
            for victim in topo.nodes:
                alive = 0b11111 & ~(1 << victim)
                shrunk = topo.without(drop_nodes=(victim,))
                connected = _hop_counts(adjacency, alive) is not None
                assert connected == shrunk.is_connected
                if connected:
                    verdict = _starts_stuck(adjacency, _height_order(values), alive)
                    assert verdict == _hello_void(shrunk, values[1:]), (topo.edges, victim)


def test_exhaustive_void_scenarios_start_stuck():
    scenarios = list(exhaustive_void_scenarios(3))
    assert scenarios
    assert len(scenarios) < 38
    for sc in scenarios[:8]:
        trace = run_scenario(sc, SchemeId.NO_FULL, Schedule.single_random(0))
        assert trace.total_updates > 0
        assert sc.name.startswith("exhaustive-n3-")


@pytest.mark.parametrize("n", [3, 4])
def test_generators_reject_tiny_networks_consistently(n):
    assert random_void_scenario(n, seed=0).n == n
    # with two survivors the non-destination-adjacent one cannot be stuck
    with pytest.raises(ValueError):
        random_void_scenario(2, seed=0)
    with pytest.raises(ValueError):
        random_partition_scenario(1, seed=0)


def test_generated_scenarios_are_pinned(generated_corpus):
    assert len(generated_corpus) == 216 + 664
    text = "".join(map(serialize_scenario, generated_corpus))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GENERATED_DIGEST


def test_exhaustive_n5_scenarios_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for scenario in exhaustive_void_scenarios(5):
        digest.update(serialize_scenario(scenario).encode("utf-8"))
        count += 1
    assert count == 25_680
    assert digest.hexdigest() == EXHAUSTIVE_N5_DIGEST


def test_partition_scenarios_are_pinned():
    text = "".join(
        serialize_scenario(random_partition_scenario(n, k)) for n in range(2, 13) for k in range(20)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PARTITION_DIGEST


def test_void_scenarios_of_every_size_are_pinned():
    digest = hashlib.sha256()
    for n in range(3, 20):
        for k in range(150):
            digest.update(serialize_scenario(random_void_scenario(n, k)).encode("utf-8"))
    assert digest.hexdigest() == WIDE_VOID_DIGEST


def _void_attempts(n: int, seed: int) -> tuple[int, int]:
    """Reference: the graphs random_void_scenario(n, seed) samples, and its stranding victims.

    Replays the generator's draws on Topology objects.  A stranding victim
    is one whose removal leaves a survivor with no link to the destination
    and every remaining neighbor above it in the (hop count, id) order.
    """
    rng = random.Random(seed * 1_000_003 + n)
    attempts = stranding = 0
    while True:
        topo = Topology.build(n + 1, _random_connected_edges(rng, n + 1))
        hops = (0, *hop_count_heights(topo).values)
        attempts += 1
        candidates = []
        for victim in topo.nodes:
            if any(
                all(
                    j != DESTINATION and (hops[j], j) > (hops[i], i)
                    for j in topo.neighbors(i)
                    if j != victim
                )
                for i in topo.nodes
                if i != victim
            ):
                stranding += 1
                if topo.without(drop_nodes=(victim,)).is_connected:
                    candidates.append(victim)
        if candidates:
            rng.randrange(len(candidates))
            return attempts, stranding


def test_void_generation_searches_only_for_stranding_victims(monkeypatch):
    # One connectivity search per sampled graph and one per victim that
    # would strand a survivor, none for the other victims.
    searches = 0
    search = generate._hop_counts

    def counting(adjacency, alive):
        nonlocal searches
        searches += 1
        return search(adjacency, alive)

    monkeypatch.setattr(generate, "_hop_counts", counting)
    for k in range(216):
        random_void_scenario(4 + k % 9, k)
    attempts, stranding = map(sum, zip(*(_void_attempts(4 + k % 9, k) for k in range(216))))
    assert (attempts, stranding) == (574, 959)
    assert searches == attempts + stranding

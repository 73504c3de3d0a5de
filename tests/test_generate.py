"""Scenario generators: voids, partitions, and topology enumeration."""

from __future__ import annotations

import hashlib

import pytest

from linkrev import Outcome, Schedule, SchemeId, run_scenario
from linkrev.generate import (
    all_connected_topologies,
    exhaustive_void_scenarios,
    random_partition_scenario,
    random_void_scenario,
    void_heights,
)
from linkrev.model import Topology
from linkrev.scenario import serialize_scenario

#: sha256 of the serialized random_void_scenario(4 + k % 9, k) for k < 216
#: (the verify-random corpus) followed by exhaustive_void_scenarios(4).
GENERATED_DIGEST = "8c9012349d38d358413c350f748dab842e6ca2ef03ffb6145f7ed8ff043215d2"


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


def test_all_connected_topologies_counts():
    # labeled connected graphs on 3 and 4 vertices
    assert sum(1 for _ in all_connected_topologies(2)) == 4
    assert sum(1 for _ in all_connected_topologies(3)) == 38
    for topo in all_connected_topologies(2):
        assert topo.is_connected


def test_void_heights_cover_or_decline():
    line = Topology.build(3, [(0, 1), (1, 2), (2, 3)])
    values = void_heights(line)
    assert values is not None
    complete = Topology.build(2, [(0, 1), (0, 2), (1, 2)])
    assert void_heights(complete) is None


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

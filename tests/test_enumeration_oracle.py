"""The singleton-step, probe-based schedule enumeration against a subset one.

``oracle_enumerate`` is an earlier ``enumerate_all_schedules``, kept as a
reference: it builds a full ``routing_dag`` for every state vector, reads
the vector's stuck set off it with ``stuck_set``, and branches over every
nonempty subset of that set.  It also returns the terminal vectors it met,
the ones with no stuck node, and the sum of the stuck set sizes of the
vectors it expanded.  The enumeration in ``linkrev.verify`` finds stuck
nodes with the hello probe, builds a ``routing_dag`` only for terminal
vectors, and branches over one stuck node at a time.  Stuck nodes are
sinks, so no two are adjacent; an update reads only the node's own state
and its neighbors' states, so a subset step is the same as its one-node
steps in any order, and both enumerations reach the same vectors.  On every
void scenario up to n=4, on the n5_stride scenarios and on the reversed
pair they must give the same final digests, states and verdict, the
singleton enumeration must count one transition per stuck node of each
expanded vector, and each of its witness steps must name one node.

The generated scenarios themselves are built on the generator's own
Topology, with no second validation, so each must equal what
``Scenario.create`` makes of its parts: the exhaustive void scenarios, the
random void corpus and the random partition scenarios.
"""

from __future__ import annotations

from itertools import chain, starmap

import pytest

from linkrev import Scenario, SchemeId, check_order_invariance, enumerate_all_schedules
from linkrev import verify
from linkrev.errors import ExplosionGuardError
from linkrev.generate import exhaustive_void_scenarios, random_partition_scenario
from linkrev.model import (
    DESTINATION,
    Topology,
    arc_label,
    arcs_digest,
    is_destination_oriented,
    routing_dag,
)
from linkrev.schemes import CORE_SCHEMES, SPECS, initial_states
from linkrev.sim import Schedule
from linkrev.verify import EnumerationResult
from oracles import apply_update, stuck_set


# --- the reference implementation --------------------------------------------


def _nonempty_subsets(items: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every nonempty subset of items, in the order of its bitmask over them."""
    return tuple(
        tuple(i for bit, i in enumerate(items) if mask >> bit & 1)
        for mask in range(1, 1 << len(items))
    )


def oracle_enumerate(
    scenario: Scenario, scheme: SchemeId, max_states: int = 10**6
) -> tuple[EnumerationResult, set[tuple], int]:
    """Explore every schedule, memoizing on the global state vector.

    Each step branches over every nonempty subset of the stuck set, so a
    single-node step is one of the options.  A state vector is indexed by
    node id, with None in slot 0 for the destination, so it is its own
    state mapping.  Its stuck set is the model's: stuck_set of the
    routing_dag it induces, built once per vector and reused, on a vector
    with no stuck node, for its digest and its destination orientation.
    An update reads only the states before the step, so each stuck node's
    new state is computed once per vector and shared by every subset that
    chooses it.  Also returns the terminal vectors and the sum of the
    stuck set sizes over the vectors with a stuck node.  Raises
    ExplosionGuardError when more than max_states distinct state vectors
    appear.
    """
    topo = scenario.topology
    heights = scenario.heights
    aware = SPECS[scheme].neighbor_aware

    init = (None, *initial_states(scheme, topo, heights).values())
    parents: dict[tuple, tuple | None] = {init: None}
    frontier = [init]
    finals: dict[str, tuple] = {}
    terminals: set[tuple] = set()
    oriented_all = True
    transitions = 0
    stuck_total = 0

    while frontier:
        vec = frontier.pop()
        arcs = routing_dag(vec, topo, scheme, heights)
        stuck = tuple(sorted(stuck_set(arcs, topo)))
        if not stuck:
            terminals.add(vec)
            digest = arcs_digest(starmap(arc_label, arcs))
            if digest not in finals:
                finals[digest] = vec
                oriented_all = oriented_all and is_destination_oriented(arcs, topo)
            continue
        stuck_total += len(stuck)
        updated = {}
        for i in stuck:
            neighbor_states = (
                [vec[j] for j in topo.neighbors(i) if j != DESTINATION] if aware else None
            )
            updated[i] = apply_update(scheme, vec[i], neighbor_states, heights)
        for chosen in _nonempty_subsets(stuck):
            fresh = list(vec)
            for i in chosen:
                fresh[i] = updated[i]
            child = tuple(fresh)
            transitions += 1
            if child not in parents:
                if len(parents) >= max_states:
                    raise ExplosionGuardError(
                        f"enumeration exceeded {max_states} states for {scheme} on {scenario.scenario_id()}",
                        len(parents), len(frontier),
                    )
                parents[child] = (vec, chosen)
                frontier.append(child)

    witnesses = {}
    for digest, vec in finals.items():
        steps: list[tuple[int, ...]] = []
        cursor = vec
        while parents[cursor] is not None:
            parent, chosen = parents[cursor]
            steps.append(chosen)
            cursor = parent
        steps.reverse()
        witnesses[digest] = Schedule("fixed", steps=tuple(steps), label=f"witness-{digest[:6]}")

    result = EnumerationResult(
        scheme=scheme,
        final_digests=tuple(sorted(finals)),
        states_explored=len(parents),
        transitions=transitions,
        all_destination_oriented=oriented_all,
        witnesses=witnesses,
    )
    return result, terminals, stuck_total


# --- the comparison ----------------------------------------------------------

REVERSED_PAIR = Scenario.create(3, [(0, 1), (1, 2), (2, 3)], heights=(2, 1, 1), name="reversed-pair")


def _facts(result: EnumerationResult) -> tuple:
    """What any complete enumeration keeps, however it branches."""
    return result.final_digests, result.states_explored, result.all_destination_oriented


def _assert_matches_the_oracle(scenario: Scenario, scheme: SchemeId) -> None:
    expected, _, stuck_total = oracle_enumerate(scenario, scheme)
    result = enumerate_all_schedules(scenario, scheme)
    assert _facts(result) == _facts(expected), scenario.scenario_id()
    assert result.transitions == stuck_total, scenario.scenario_id()
    for witness in result.witnesses.values():
        assert all(len(step) == 1 for step in witness.steps), witness


@pytest.mark.parametrize("scheme", CORE_SCHEMES)
def test_enumeration_matches_the_oracle(scheme):
    scenarios = chain(*(exhaustive_void_scenarios(n) for n in range(1, 5)), (REVERSED_PAIR,))
    compared = 0
    for scenario in scenarios:
        _assert_matches_the_oracle(scenario, scheme)
        compared += 1
    assert compared == 2 + 30 + 664 + 1


@pytest.mark.parametrize("scheme", CORE_SCHEMES)
def test_n5_enumeration_matches_the_oracle(n5_stride, scheme):
    for scenario in n5_stride:
        _assert_matches_the_oracle(scenario, scheme)
    assert len(n5_stride) == 1605


def test_order_invariance_enumerates_once_with_one_dag_per_terminal_vector(monkeypatch, star):
    _, terminals, _ = oracle_enumerate(star, SchemeId.NO_PARTIAL)
    enumerations, dags = [], []
    real_enumerate, real_dag = verify.enumerate_all_schedules, verify.routing_dag

    def enumerate_counting(*args, **kwargs):
        enumerations.append(real_enumerate(*args, **kwargs))
        return enumerations[-1]

    def dag_counting(states, *args):
        dags.append(tuple(states))
        return real_dag(states, *args)

    monkeypatch.setattr(verify, "enumerate_all_schedules", enumerate_counting)
    monkeypatch.setattr(verify, "routing_dag", dag_counting)
    report = check_order_invariance(star, SchemeId.NO_PARTIAL)
    assert report.passed
    assert len(enumerations) == 1
    states = enumerations[0].states_explored
    assert states > len(terminals) >= 1
    assert len(dags) == len(terminals)
    assert set(dags) == terminals
    assert report.detail == f"{states} states"


# --- generated scenarios -----------------------------------------------------


def _assert_created_alike(scenario: Scenario) -> None:
    created = Scenario.create(
        scenario.n,
        scenario.edges,
        heights=scenario.heights.values,
        events=scenario.events,
        seed=scenario.seed,
        name=scenario.name,
    )
    assert scenario == created
    assert scenario.topology == Topology.build(scenario.n, scenario.edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_scenarios_equal_created_ones(n):
    for scenario in exhaustive_void_scenarios(n):
        _assert_created_alike(scenario)


def test_n5_generated_scenarios_equal_created_ones(n5_stride):
    for scenario in n5_stride:
        _assert_created_alike(scenario)


def test_random_void_scenarios_equal_created_ones(generated_corpus):
    corpus = generated_corpus[:216]
    assert all(scenario.name.startswith("void-") for scenario in corpus)
    for scenario in corpus:
        _assert_created_alike(scenario)


def test_random_partition_scenarios_equal_created_ones():
    for n in range(2, 13):
        for k in range(20):
            _assert_created_alike(random_partition_scenario(n, k))

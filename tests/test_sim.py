"""Simulator behavior: stepping, schedules, events, and terminal outcomes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from linkrev import (
    CountedHeightState,
    EmptyStuckSetError,
    EventError,
    HeightState,
    Outcome,
    PhaseAdjacencyError,
    Scenario,
    Schedule,
    ScheduleError,
    SchemeId,
    SimEvent,
    Simulation,
    hello_round,
    run_scenario,
)
from linkrev.generate import random_partition_scenario, random_void_scenario
from linkrev.model import (
    ALL_SCHEMES,
    CORE_SCHEMES,
    RoutingDag,
    orientation_flips,
    routing_dag,
    stuck_set,
)
from linkrev.schemes import initial_states
from linkrev.sim import STEP_LIMIT_ENV, default_step_limit


# --- step limit and schedules ------------------------------------------------


def test_default_step_limit_is_quadratic(monkeypatch):
    monkeypatch.delenv(STEP_LIMIT_ENV, raising=False)
    assert default_step_limit(6) == 144
    monkeypatch.setenv(STEP_LIMIT_ENV, "17")
    assert default_step_limit(6) == 17


def test_fixed_schedule_rejects_empty_steps():
    with pytest.raises(ScheduleError):
        Schedule.fixed([(1,), ()])
    assert Schedule.fixed([]).steps == ()


def test_schedule_descriptions():
    assert Schedule.single_random(3).describe() == "single-random(seed=3)"
    assert Schedule.subset_random(4).describe() == "subset-random(seed=4)"
    assert Schedule.fixed([(1, 2)], label="demo").describe() == "fixed[demo](1 steps)"


def test_random_schedules_only_pick_stuck_nodes():
    scenario = random_void_scenario(8, seed=5)
    for kind in (Schedule.single_random(1), Schedule.subset_random(1)):
        trace = run_scenario(scenario, SchemeId.NO_FULL, kind)
        assert trace.outcome is Outcome.CONVERGED
        for rec in trace.steps:
            assert rec.updated
            assert set(rec.updated) <= set(rec.stuck)


def test_fixed_schedule_replays_and_validates(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.fixed([(2,)]))
    assert trace.outcome is Outcome.CONVERGED

    sim = Simulation(chain, SchemeId.NO_FULL, Schedule.fixed([(1,)]))
    with pytest.raises(ScheduleError, match="not stuck"):
        sim.step()

    starved = Simulation(chain, SchemeId.NO_FULL, Schedule.fixed([]))
    with pytest.raises(ScheduleError, match="exhausted"):
        starved.run()


# --- stuck detection ---------------------------------------------------------


def test_hello_round_matches_the_orientation_view(chain):
    topo = chain.topology
    states = initial_states(SchemeId.NO_FULL, topo, chain.heights)
    awake = frozenset(topo.nodes)
    stuck = {
        i
        for i in topo.nodes
        if hello_round(i, states, topo, awake, SchemeId.NO_FULL, chain.heights)
    }
    assert stuck == {2}


def test_hello_round_skips_sleeping_neighbors(chain):
    topo = chain.topology
    states = initial_states(SchemeId.NO_FULL, topo, chain.heights)
    # awake node 3 forwards through node 2 only while 2 answers probes
    assert not hello_round(3, states, topo, frozenset({1, 2, 3}), SchemeId.NO_FULL, chain.heights)
    assert not hello_round(3, states, topo, frozenset({1, 3}), SchemeId.NO_FULL, chain.heights)
    # with both lower neighbors asleep nothing acks
    lone = frozenset({3})
    assert hello_round(3, states, topo, lone, SchemeId.NO_FULL, chain.heights)
    with pytest.raises(ValueError, match="not awake"):
        hello_round(2, states, topo, lone, SchemeId.NO_FULL, chain.heights)


def test_destination_adjacent_nodes_are_never_stuck(chain):
    topo = chain.topology
    states = initial_states(SchemeId.NO_FULL, topo, chain.heights)
    assert not hello_round(1, states, topo, frozenset(topo.nodes), SchemeId.NO_FULL, chain.heights)


# --- single runs with pinned outcomes ----------------------------------------


def test_counted_full_run_on_the_chain(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert len(trace.steps) == 1
    assert trace.update_counts == {1: 0, 2: 1, 3: 0}
    assert trace.total_updates == 1
    assert CountedHeightState(2, 1, 5) in trace.final_states
    assert trace.initial_digest != trace.final_digest
    assert trace.steps[0].reversed_edges == ((2, 3),)


def test_neighbor_aware_full_run_on_the_chain(chain):
    trace = run_scenario(chain, SchemeId.GB_FULL, Schedule.single_random(0))
    assert trace.converged
    assert HeightState(2, 4) in trace.final_states


@pytest.mark.parametrize("scheme", CORE_SCHEMES)
def test_every_scheme_resolves_the_chain(chain, scheme):
    trace = run_scenario(chain, scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.update_counts[2] >= 1
    assert trace.update_counts[1] == trace.update_counts[3] == 0


def test_all_reversed_case_needs_two_updates_for_counted_partial(reversed_pair):
    trace = run_scenario(reversed_pair, SchemeId.NO_PARTIAL, Schedule.single_random(0))
    assert trace.update_counts == {1: 0, 2: 1, 3: 2}
    assert len(trace.steps) == 3
    # the neighbor-aware variant resolves the same void with a single update
    aware = run_scenario(reversed_pair, SchemeId.GB_PARTIAL, Schedule.single_random(0))
    assert aware.update_counts == {1: 0, 2: 1, 3: 1}
    assert len(aware.steps) == 2


def test_simultaneous_updates_read_the_snapshot(star):
    sim = Simulation(star, SchemeId.GB_FULL, Schedule.fixed([(2, 3)], label="joint"))
    assert sim.stuck_nodes() == (2, 3)
    record = sim.step()
    assert record.updated == (2, 3)
    # both read the hub's pre-step height 2, so both land on 3
    assert set(record.new_states) == {HeightState(2, 3), HeightState(3, 3)}
    assert sim.stuck_nodes() == ()


def test_step_on_a_converged_network_raises():
    oriented = Scenario.create(2, [(0, 1), (1, 2)])
    sim = Simulation(oriented, SchemeId.NO_FULL)
    with pytest.raises(EmptyStuckSetError):
        sim.step()
    assert sim.run().outcome is Outcome.CONVERGED
    assert sim.run().total_updates == 0


def test_step_limit_outcome_on_a_connected_graph(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0), step_limit=0)
    assert trace.outcome is Outcome.STEP_LIMIT
    assert trace.certificate is None


def test_trace_totals_are_consistent(chain):
    trace = run_scenario(chain, SchemeId.TWO_BIT_PARTIAL, Schedule.subset_random(2))
    assert trace.total_updates == sum(trace.update_counts.values())
    assert trace.n == 3
    assert trace.step_limit == 36
    assert trace.events_applied == ()
    assert len(trace.final_states) == 3


def test_record_arcs_flag_controls_per_step_orientations(chain):
    with_arcs = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    assert all(rec.arcs is not None for rec in with_arcs.steps)
    without = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0), record_arcs=False)
    assert all(rec.arcs is None for rec in without.steps)


# --- events ------------------------------------------------------------------


def test_remove_link_event_strands_and_recovers(diamond_cut):
    trace = run_scenario(diamond_cut, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.events_applied == ((1, "remove-link D-1"),)
    assert trace.update_counts == {1: 1, 2: 0, 3: 0}


def test_remove_node_event_drops_the_state():
    scenario = Scenario.create(
        3,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        heights=(1, 1, 2),
        events=[SimEvent(at_step=1, kind="remove-node", node=1)],
    )
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert all(s.node != 1 for s in trace.final_states)
    assert trace.events_applied == ((1, "remove-node 1"),)


def test_sleep_event_pushes_its_own_wake(sleepy_chain):
    trace = run_scenario(sleepy_chain, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert ((1, "sleep 2 2") in trace.events_applied)
    assert ((3, "wake 2") in trace.events_applied)
    # node 3 updated while its only neighbor slept
    assert trace.update_counts[3] == 2


def test_phase_drift_across_sleep_aborts_the_two_bit_scheme(sleepy_chain):
    with pytest.raises(PhaseAdjacencyError, match="two apart"):
        run_scenario(sleepy_chain, SchemeId.TWO_BIT_FULL, Schedule.single_random(0))


def test_one_bit_scheme_survives_the_same_sleep(sleepy_chain):
    trace = run_scenario(sleepy_chain, SchemeId.ONE_BIT_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED


def test_converged_network_fast_forwards_pending_events():
    # already oriented, but an event later knocks out the only route of node 2
    scenario = Scenario.create(
        2,
        [(0, 1), (1, 2), (0, 2)],
        heights=(2, 1),
        events=[SimEvent(at_step=9, kind="remove-link", edge=(0, 2))],
    )
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.events_applied == ((9, "remove-link D-2"),)
    # convergence may only be declared once the event queue has drained
    assert trace.update_counts[2] == 1


def test_applying_an_event_twice_is_an_error():
    scenario = Scenario.create(
        2,
        [(0, 1), (1, 2), (0, 2)],
        events=[
            SimEvent(at_step=1, kind="remove-link", edge=(0, 2)),
            SimEvent(at_step=2, kind="remove-link", edge=(0, 2)),
        ],
    )
    with pytest.raises(EventError, match="missing link"):
        run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))


# --- partition outcomes ------------------------------------------------------


@pytest.fixture(scope="module")
def partition_scenario():
    return random_partition_scenario(6, seed=3)


@pytest.mark.parametrize("scheme", [SchemeId.NO_FULL, SchemeId.NO_PARTIAL])
def test_counter_schemes_certify_partitions(partition_scenario, scheme):
    trace = run_scenario(partition_scenario, scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED
    assert "update count" in trace.certificate
    assert "impossible on a connected graph" in trace.certificate
    # the certificate fires before any counter exceeds the node count
    final = {s.node: s for s in trace.final_states}
    assert max(s.updates for s in final.values()) == trace.n


@pytest.mark.parametrize("scheme", [SchemeId.GB_FULL, SchemeId.GB_PARTIAL])
def test_neighbor_aware_schemes_detect_isolation(partition_scenario, scheme):
    trace = run_scenario(partition_scenario, scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED
    assert "no awake neighbor" in trace.certificate


@pytest.mark.parametrize("scheme", [SchemeId.TWO_BIT_FULL, SchemeId.ONE_BIT_FULL])
def test_finite_state_schemes_hit_the_budget_on_partitions(partition_scenario, scheme):
    trace = run_scenario(partition_scenario, scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED
    assert "step budget" in trace.certificate
    assert len(trace.steps) == trace.step_limit


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_no_partition_verdict_on_connected_scenarios(scheme):
    scenario = random_void_scenario(6, seed=11)
    trace = run_scenario(scenario, scheme, Schedule.subset_random(1))
    assert trace.outcome is not Outcome.PARTITIONED


def test_isolated_stuck_node_with_pending_wake_is_not_a_partition():
    # node 2's only neighbor sleeps; the aware scheme must wait, not report
    scenario = Scenario.create(
        2,
        [(0, 1), (1, 2)],
        heights=(2, 1),
        events=[SimEvent(at_step=1, kind="sleep", node=1, duration=2)],
    )
    trace = run_scenario(scenario, SchemeId.GB_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.update_counts[2] >= 1


# --- incremental kernel against a from-scratch orientation --------------------


class _ScratchCheckedSimulation(Simulation):
    """After every step, compares the maintained orientation with routing_dag."""

    def step(self):
        before = self.steps[-1].arcs if self.steps else self.initial_arcs
        record = super().step()
        topo = self.awake_topology()
        dag = routing_dag(self.states, topo, self.scheme, self.heights)
        assert record.arcs == dag.arcs
        assert record.dag_digest == dag.digest()
        assert record.reversed_edges == orientation_flips(RoutingDag(before), dag)
        assert self.stuck_nodes() == tuple(sorted(stuck_set(dag, topo)))
        return record


@st.composite
def _event_scenarios(draw):
    """A random void scenario with a script of removals and sleeps."""
    n = draw(st.integers(4, 9))
    base = random_void_scenario(n, draw(st.integers(0, 10_000)))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(("remove-node", "remove-link", "sleep")))
        if kind == "remove-link":
            events.append(SimEvent(at_step=at, kind=kind, edge=draw(st.sampled_from(base.edges))))
        elif kind == "remove-node":
            events.append(SimEvent(at_step=at, kind=kind, node=draw(st.integers(1, n))))
        else:
            node, duration = draw(st.integers(1, n)), draw(st.integers(1, 5))
            events.append(SimEvent(at_step=at, kind=kind, node=node, duration=duration))
    return Scenario.create(n, base.edges, heights=base.heights.values, events=events)


@settings(max_examples=30, deadline=None)
@given(scenario=_event_scenarios(), subset=st.booleans(), seed=st.integers(0, 99))
def test_incremental_kernel_matches_a_from_scratch_orientation(scenario, subset, seed):
    schedule = Schedule.subset_random(seed) if subset else Schedule.single_random(seed)
    for scheme in ALL_SCHEMES:
        sim = _ScratchCheckedSimulation(scenario, scheme, schedule)
        try:
            sim.run()
        except EventError:
            pass  # the script removed something twice
        except PhaseAdjacencyError:
            # the orientation from scratch fails on the same states
            with pytest.raises(PhaseAdjacencyError):
                routing_dag(sim.states, sim.awake_topology(), scheme, sim.heights)

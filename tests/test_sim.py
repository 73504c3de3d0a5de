"""Simulator behavior: stepping, schedules, events, and terminal outcomes."""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from linkrev import (
    DESTINATION,
    CountedHeightState,
    EmptyNeighborhoodError,
    EmptyStuckSetError,
    EventError,
    HeightState,
    Outcome,
    PhaseAdjacencyError,
    Scenario,
    ScenarioFormatError,
    Schedule,
    ScheduleError,
    SchemeId,
    SimEvent,
    Simulation,
    Trace,
    UnknownNodeError,
    check_scheme_equivalence,
    parse_scenario,
    run_scenario,
    standard_battery,
)
from linkrev.generate import random_partition_scenario, random_void_scenario
from linkrev.model import (
    HeightAssignment,
    orientation_predicate,
    probe_stuck,
    routing_dag,
)
from linkrev import model as model_module, sim as sim_module, traceio as traceio_module
from linkrev.schemes import ALL_SCHEMES, CORE_SCHEMES, initial_states
from linkrev.traceio import orientation_digests, trace_to_jsonl
from oracles import orientation_flips, rerun_digests, stuck_set


# --- step limit and schedules ------------------------------------------------


def test_default_step_limit_is_quadratic():
    chain = Scenario.create(6, [(0, 6)] + [(i, i + 1) for i in range(1, 6)], heights=range(1, 7))
    assert Simulation(chain, SchemeId.NO_FULL).step_limit == 144
    assert run_scenario(chain, SchemeId.NO_FULL).step_limit == 144
    assert Simulation(chain, SchemeId.NO_FULL, step_limit=17).step_limit == 17


def test_fixed_schedule_rejects_empty_steps():
    with pytest.raises(ScheduleError):
        Schedule.fixed([(1,), ()])
    assert Schedule.fixed([]).steps == ()


def test_fixed_schedule_rejects_a_node_named_twice():
    with pytest.raises(ScheduleError, match="step 2 names a node twice"):
        Schedule.fixed([(1,), (2, 3, 2)])


def test_schedule_descriptions():
    assert Schedule.single_random(3).describe() == "single-random(seed=3)"
    assert Schedule.subset_random(4).describe() == "subset-random(seed=4)"
    assert Schedule.fixed([(1, 2)], label="demo").describe() == "fixed[demo](1 steps)"


def test_a_schedule_of_an_unknown_kind_is_refused():
    with pytest.raises(ScheduleError, match="unknown schedule kind 'weird'"):
        Schedule("weird", seed=3)


@pytest.mark.parametrize("kind", ["single-random", "subset-random"])
@pytest.mark.parametrize("seed", [None, "3", 1.0])
def test_a_random_schedule_needs_an_int_seed(kind, seed):
    # Without one, random.Random would seed itself from the OS and no run
    # could be reproduced.
    with pytest.raises(ScheduleError, match="needs an int seed"):
        Schedule(kind, seed=seed)


@pytest.mark.parametrize("steps", [None, [(1,)]])
def test_a_fixed_schedule_needs_a_tuple_of_steps(steps):
    with pytest.raises(ScheduleError, match="needs a tuple of steps"):
        Schedule("fixed", steps=steps)
    assert Schedule("fixed", steps=((1,),)).describe() == "fixed(1 steps)"


def test_random_schedules_only_pick_stuck_nodes():
    scenario = random_void_scenario(8, seed=5)
    for kind in (Schedule.single_random(1), Schedule.subset_random(1)):
        trace = run_scenario(scenario, SchemeId.NO_FULL, kind)
        assert trace.outcome is Outcome.CONVERGED
        for rec in trace.steps:
            assert rec.updated
            assert list(rec.updated) == sorted(set(rec.updated))
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


# --- the lazily seeded generator ---------------------------------------------

RANDOM_KINDS = (Schedule.single_random, Schedule.subset_random)


def _deep_chain(n: int) -> Scenario:
    """Edges D-n and i-(i+1), heights 1..n: every link points toward node 1."""
    return Scenario.create(n, [(0, n), *((i, i + 1) for i in range(1, n))], heights=range(1, n + 1))


def _eager_picks(trace) -> list[tuple[int, ...]]:
    """Each step's pick, drawn from a generator seeded before the first step.

    An event-free run isolates no node, so every stuck node is eligible.
    """
    rng = random.Random(trace.schedule.seed)
    return [trace.schedule.pick(rng, rec.stuck, rec.index) for rec in trace.steps]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(6, 12), scenario_seed=st.integers(0, 10_000), seed=st.integers(0, 99))
def test_a_lazily_seeded_run_picks_what_an_eagerly_seeded_one_picks(n, scenario_seed, seed):
    # Below 6 nodes a random void almost never defers a draw before its
    # first choice, and so cannot show a replay that went wrong.
    scenario = random_void_scenario(n, scenario_seed)
    for scheme in ALL_SCHEMES:
        for maker in RANDOM_KINDS:
            trace = run_scenario(scenario, scheme, maker(seed))
            assert [rec.updated for rec in trace.steps] == _eager_picks(trace)


@pytest.mark.parametrize("maker", RANDOM_KINDS, ids=lambda m: m.__name__)
def test_one_node_draws_are_replayed_before_the_first_choice(maker):
    # On a deep void chain, node 1 and then node 2 are stuck alone, and
    # step 3 offers nodes 1 and 3.  Under seed 0 a generator that skipped
    # the two deferred draws would pick otherwise at step 3.
    schedule = maker(0)
    trace = run_scenario(_deep_chain(6), SchemeId.NO_FULL, schedule)
    assert [rec.stuck for rec in trace.steps[:3]] == [(1,), (2,), (1, 3)]
    assert [rec.updated for rec in trace.steps] == _eager_picks(trace)
    assert schedule.pick(random.Random(0), (1, 3), 3) != trace.steps[2].updated


def test_a_run_with_no_choice_builds_no_generator(monkeypatch, chain):
    built = []

    def counting(seed):
        built.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(sim_module, "random", SimpleNamespace(Random=counting))
    for maker in RANDOM_KINDS:
        trace = run_scenario(chain, SchemeId.NO_FULL, maker(7))
        assert trace.steps and all(len(rec.stuck) == 1 for rec in trace.steps)
    assert built == []
    run_scenario(_deep_chain(6), SchemeId.NO_FULL, Schedule.subset_random(7))
    assert built == [7]


# --- stuck detection ---------------------------------------------------------


def _probed_stuck(states, awake, scheme, heights) -> tuple[int, ...]:
    """The nodes a fresh probe of every row of the awake topology's probe_table finds stuck."""
    return probe_stuck(awake.probe_table, states, orientation_predicate(scheme, heights))


def test_hello_round_matches_the_orientation_view(chain):
    topo = chain.topology
    states = initial_states(SchemeId.NO_FULL, topo, chain.heights)
    assert _probed_stuck(states, topo, SchemeId.NO_FULL, chain.heights) == (2,)
    arcs = routing_dag(states, topo, SchemeId.NO_FULL, chain.heights)
    assert stuck_set(arcs, topo) == {2}


def test_hello_round_skips_sleeping_neighbors(chain):
    topo = chain.topology
    states = initial_states(SchemeId.NO_FULL, topo, chain.heights)
    points_from = orientation_predicate(SchemeId.NO_FULL, chain.heights)

    def stuck(i, awake):
        return probe_stuck(((i, awake.neighbors(i)),), states, points_from) == (i,)

    # awake node 3 forwards through node 2 only while 2 answers probes
    assert not stuck(3, topo)
    assert not stuck(3, topo.without(drop_nodes=(2,)))
    # with both lower neighbors asleep nothing acks
    lone = topo.without(drop_nodes=(1, 2))
    assert stuck(3, lone)
    assert _probed_stuck(states, lone, SchemeId.NO_FULL, chain.heights) == (3,)
    # a sleeper is not in the awake topology, so it cannot be probed
    with pytest.raises(UnknownNodeError):
        stuck(2, lone)


def test_destination_adjacent_nodes_are_never_stuck(chain):
    # node 1 is linked to D, so no probe ever asks about it
    assert [i for i, _ in chain.topology.probe_table] == [2, 3]


# --- single runs with pinned outcomes ----------------------------------------


def test_counted_full_run_on_the_chain(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert len(trace.steps) == 1
    assert trace.update_counts == {1: 0, 2: 1, 3: 0}
    assert trace.total_updates == 1
    assert CountedHeightState(2, 1, 5) in trace.final_states
    *_, final = orientation_digests(trace)
    assert trace.initial_digest != final
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


def test_states_are_updated_in_place(chain):
    sim = Simulation(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    states = sim.states
    before = dict(states)
    record = sim.step()
    assert sim.states is states
    assert states == {**before, 2: record.new_states[0]} != before


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


def test_negative_step_limits_are_rejected(chain):
    with pytest.raises(ValueError, match="must not be negative"):
        Simulation(chain, SchemeId.NO_FULL, step_limit=-1)
    with pytest.raises(ValueError, match="must not be negative"):
        run_scenario(chain, SchemeId.NO_FULL, step_limit=-2)


def test_trace_totals_are_consistent(chain):
    trace = run_scenario(chain, SchemeId.TWO_BIT_PARTIAL, Schedule.subset_random(2))
    assert trace.total_updates == sum(trace.update_counts.values())
    assert trace.scenario.n == 3
    assert trace.step_limit == 36
    assert trace.events_applied == ()
    assert len(trace.final_states) == 3


def test_step_records_share_tuples_instead_of_copying_the_orientation(chain):
    sim = Simulation(chain, SchemeId.BASELINE_INCREMENT, Schedule.single_random(0))
    trace = sim.run()
    assert not hasattr(trace.steps[0], "arcs")
    assert sim.arcs == routing_dag(sim.states, chain.topology, sim.scheme, sim.heights)
    edges = {e: e for e in chain.topology.edges}
    for rec in trace.steps:
        assert all(e is edges[e] for e in rec.reversed_edges)
    # the baseline raises node 2 one step at a time, stuck all along
    assert [rec.updated for rec in trace.steps[:2]] == [(2,), (2,)]
    assert trace.steps[0].stuck is trace.steps[1].stuck


def _bytes_kept_per_step(n: int) -> float:
    """Bytes of the objects the step records of a no-full chain run hold, per step.

    Each object is counted once, however many records share it, one level
    into tuples.  The stuck sets are left out: they grow with n by nature.
    """
    scenario = Scenario.create(n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=range(1, n + 1))
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    seen: set[int] = set()

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = 0
    for rec in trace.steps:
        total += size(rec)
        for name in rec._fields:
            if name == "stuck":
                continue
            value = getattr(rec, name)
            total += size(value)
            if isinstance(value, tuple):
                total += sum(size(item) for item in value)
    return total / len(trace.steps)


def test_a_trace_keeps_no_per_step_orientation():
    # A copy of the orientation per step grows with the number of links:
    # on CPython 3.11, records that held the arcs kept 1.35x more bytes a
    # step at n=48 than at n=16, and records without them 0.99x.
    assert _bytes_kept_per_step(48) <= 1.2 * _bytes_kept_per_step(16)


@pytest.mark.parametrize("n", [16, 48])
def test_an_event_free_step_builds_no_routing_dag(monkeypatch, n):
    """The kernel orients the whole graph once, at construction, and never in a step."""
    calls = {"routing_dag": 0}
    real_routing_dag = sim_module.routing_dag

    def counting_routing_dag(*args):
        calls["routing_dag"] += 1
        return real_routing_dag(*args)

    monkeypatch.setattr(sim_module, "routing_dag", counting_routing_dag)
    scenario = Scenario.create(n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=range(1, n + 1))
    sim = Simulation(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert calls == {"routing_dag": 1}
    while True:
        record = sim.advance()
        assert calls == {"routing_dag": 1}
        if record is None:
            break
    assert sim.outcome is Outcome.CONVERGED
    assert len(sim.steps) == n * (n - 1) // 2


def test_the_simulator_and_an_event_free_battery_hash_nothing(monkeypatch, chain):
    """Orientation digests are the trace writer's: runs and an event-free battery make none.

    Every linkrev module that holds model.text_digest, which arcs_digest
    calls too, gets one that raises.
    """
    def refuse(text):
        raise AssertionError("an orientation was hashed")

    for module in (model_module, traceio_module):
        monkeypatch.setattr(module, "text_digest", refuse)
    sleepy = _monotone_chain(10, [SimEvent(at_step=3, kind="sleep", node=6, duration=2)])
    for scenario in (chain, sleepy):
        for scheme in ALL_SCHEMES:
            assert run_scenario(scenario, scheme).outcome is Outcome.CONVERGED
    reports = standard_battery(random_void_scenario(8, 3), ALL_SCHEMES)
    assert len(reports) == 75 and all(r.passed for r in reports)
    with pytest.raises(AssertionError, match="an orientation was hashed"):
        trace_to_jsonl(run_scenario(chain, SchemeId.NO_FULL))


# --- the cached start ----------------------------------------------------------


def _cold_copy(scenario: Scenario) -> Scenario:
    """The same scenario built again from its parts, with nothing cached on it."""
    return Scenario.create(
        scenario.n, scenario.edges, scenario.heights.values, scenario.events,
        scenario.seed, scenario.name,
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_a_cached_start_behaves_like_a_cold_one(generated_corpus, scheme):
    for scenario in generated_corpus:
        # The first Simulation fills the cache unless an earlier one did;
        # its steps and the write below mutate everything it took from it.
        spoiled = Simulation(scenario, scheme)
        for _ in range(2):
            if spoiled.stuck_nodes():
                spoiled.step()
        spoiled.states.clear()
        assert scheme in scenario._starts
        warm, cold = Simulation(scenario, scheme), Simulation(_cold_copy(scenario), scheme)
        assert warm.states == cold.states
        assert warm.arcs == cold.arcs == warm.initial_arcs == cold.initial_arcs
        assert warm.stuck_nodes() == cold.stuck_nodes()
        assert trace_to_jsonl(warm.run()) == trace_to_jsonl(cold.run())


def test_a_scheme_that_starts_elsewhere_trips_the_shared_start_guard(monkeypatch, chain):
    Simulation(chain, SchemeId.GB_FULL)
    real = sim_module.initial_states

    def upside_down(scheme, topo, heights):
        return real(scheme, topo, HeightAssignment(tuple(reversed(heights.values))))

    monkeypatch.setattr(sim_module, "initial_states", upside_down)
    with pytest.raises(AssertionError, match="no-full starts from another orientation than gb-full"):
        Simulation(chain, SchemeId.NO_FULL)
    assert list(chain._starts) == [SchemeId.GB_FULL]


@pytest.mark.parametrize("scheme", [SchemeId.NO_FULL, SchemeId.GB_PARTIAL])
@pytest.mark.parametrize("fixture", ["diamond_cut", "sleepy_chain"])
def test_every_rebuild_after_an_event_goes_through_reorient_all(monkeypatch, request, fixture, scheme):
    scenario = request.getfixturevalue(fixture)
    rebuilds, dags = [], []
    real_reorient, real_dag = Simulation._reorient_all, sim_module.routing_dag

    def reorient_counting(self):
        rebuilds.append(len(self.steps))
        real_reorient(self)

    def dag_counting(*args):
        dags.append(args)
        return real_dag(*args)

    monkeypatch.setattr(Simulation, "_reorient_all", reorient_counting)
    monkeypatch.setattr(sim_module, "routing_dag", dag_counting)
    first = run_scenario(scenario, scheme, Schedule.single_random(0))
    # The first run builds the start at step 0; the second takes it cached.
    assert rebuilds[0] == 0 and len(rebuilds) == len(dags) == 1 + len(first.events_applied)
    rebuilds.clear()
    dags.clear()
    second = run_scenario(scenario, scheme, Schedule.single_random(0))
    assert len(rebuilds) == len(dags) == len(second.events_applied) > 0
    assert trace_to_jsonl(second) == trace_to_jsonl(first)


# --- events ------------------------------------------------------------------


def test_remove_link_event_strands_and_recovers(diamond_cut):
    trace = run_scenario(diamond_cut, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.events_applied == ((1, "remove-link D-1"),)
    assert trace.update_counts == {1: 1, 2: 0, 3: 0}


def test_remove_link_event_written_high_to_low():
    scenario = Scenario.create(
        3,
        [(0, 1), (1, 3), (2, 3), (0, 2)],
        heights=(1, 1, 2),
        events=[SimEvent(at_step=1, kind="remove-link", edge=(3, 1))],
    )
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert trace.events_applied == ((1, "remove-link 3-1"),)


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
    removal = SimEvent(at_step=1, kind="remove-link", edge=(0, 2))
    with pytest.raises(ScenarioFormatError, match="remove-link D-2: the link is already gone"):
        Scenario.create(2, [(0, 1), (1, 2), (0, 2)], events=[removal, replace(removal, at_step=2)])
    # the format rejects such a script; a direct call still raises
    sim = Simulation(Scenario.create(2, [(0, 1), (1, 2), (0, 2)]), SchemeId.NO_FULL)
    sim.apply_event(removal)
    with pytest.raises(EventError, match="missing link"):
        sim.apply_event(removal)


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
    assert max(s.updates for s in final.values()) == trace.scenario.n


@pytest.mark.parametrize("scheme", [SchemeId.GB_FULL, SchemeId.GB_PARTIAL])
def test_neighbor_aware_schemes_detect_isolation(partition_scenario, scheme):
    trace = run_scenario(partition_scenario, scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED
    assert "no awake neighbor" in trace.certificate


@pytest.mark.parametrize("scheme", [SchemeId.GB_FULL, SchemeId.GB_PARTIAL])
def test_a_direct_step_still_checks_eligibility(partition_scenario, scheme):
    sim = Simulation(partition_scenario, scheme, Schedule.single_random(0))
    sim.run()
    assert sim.stuck_nodes()
    with pytest.raises(EmptyNeighborhoodError, match="no awake neighbor"):
        sim.step()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_every_stuck_node_is_eligible_without_events(scheme):
    # a scenario is connected, so before any event no stuck node lacks an awake neighbor
    n = 12
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    sim = Simulation(Scenario.create(n, edges, heights=range(1, n + 1)), scheme)
    while sim.stuck_nodes():
        stuck = sim.stuck_nodes()
        assert sim._eligible(stuck) is stuck
        sim.step()


def test_only_neighbor_aware_schemes_skip_a_node_isolated_by_sleep(stranded_chain):
    for scheme, eligible in ((SchemeId.GB_FULL, (3,)), (SchemeId.NO_FULL, (1, 3))):
        sim = Simulation(stranded_chain, scheme)
        sim._apply_events_until(1)  # node 2 sleeps, so node 1 has no awake neighbor
        assert sim.stuck_nodes() == (1, 3)
        assert sim._eligible(sim.stuck_nodes()) == eligible


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


#: Two sleeps on eight nodes: after step 7 neighbors 5 and 8 are two
#: updates apart, the arcs hold the cycle 1->6->7->1 and no node is stuck.
_TWO_SLEEPS = (
    "scenario v1\nnodes 8\n"
    "edges D-8 1-6 1-7 1-8 2-7 3-4 3-6 3-7 3-8 4-5 5-8 6-7\n"
    "heights 2 2 2 3 2 3 3 1\n"
    "event 1 sleep 6 4\nevent 3 sleep 8 3\n"
)
#: The smallest input known to show the same fault: one sleep on four nodes.
_ONE_SLEEP = (
    "scenario v1\nnodes 4\n"
    "edges D-4 1-2 1-3 1-4 2-3\n"
    "heights 2 1 1 3\n"
    "event 1 sleep 1 3\n"
)
#: Four sleeps on five nodes, drawn by the kernel property test over event
#: scripts; the two-bit schemes raise PhaseAdjacencyError on it.
_FOUR_SLEEPS = (
    "scenario v1\nnodes 5\n"
    "edges D-3 D-4 1-2 1-5 2-3 2-5\n"
    "heights 2 2 1 1 3\n"
    "event 1 sleep 1 5\nevent 2 sleep 1 4\nevent 5 sleep 1 1\nevent 5 sleep 3 1\n"
)


@pytest.mark.xfail(strict=True, raises=AssertionError)
@pytest.mark.parametrize(
    "text, seed",
    [(_TWO_SLEEPS, 0), (_ONE_SLEEP, 0), (_ONE_SLEEP, 1), (_ONE_SLEEP, 2), (_FOUR_SLEEPS, 0)],
    ids=[
        "two-sleeps-n8-seed0", "one-sleep-n4-seed0", "one-sleep-n4-seed1", "one-sleep-n4-seed2",
        "four-sleeps-n5-seed0",
    ],
)
def test_one_bit_full_under_two_sleeps_ends_in_a_documented_outcome(text, seed):
    # Known defect: the kernel's cross-check fails its destination-orientation
    # assertion once one-bit-full's arcs hold a cycle that leaves no node stuck.
    trace = run_scenario(parse_scenario(text), SchemeId.ONE_BIT_FULL, Schedule.single_random(seed))
    assert trace.outcome in tuple(Outcome)


# --- the final digest ----------------------------------------------------------


def _no_void(scheme):
    trace = run_scenario(Scenario.create(2, [(0, 1), (1, 2)], heights=(1, 2)), scheme)
    assert not trace.steps
    return trace


def _event_free(scheme):
    trace = run_scenario(random_void_scenario(9, 4), scheme, Schedule.subset_random(1))
    assert trace.steps and not trace.events_applied
    return trace


def _wake_after_convergence(scheme):
    # Node 2 is the void; node 4 sleeps through it and wakes at step 6, after
    # the run converged, so a rebuild follows the last step.
    scenario = Scenario.create(
        4, [(0, 1), (1, 3), (2, 3), (0, 4)], heights=(1, 2, 3, 1),
        events=[SimEvent(at_step=1, kind="sleep", node=4, duration=5)],
    )
    trace = run_scenario(scenario, scheme, Schedule.single_random(0))
    assert 1 <= len(trace.steps) < 6 and trace.events_applied[-1] == (6, "wake 4")
    assert trace.event_log[-1][0] == len(trace.steps)
    *_, last_step, final = orientation_digests(trace)
    assert final != last_step
    return trace


def _partitioned(scheme):
    trace = run_scenario(random_partition_scenario(6, seed=3), scheme, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED
    return trace


def _step_limit(scheme):
    chain = Scenario.create(6, [(0, 6)] + [(i, i + 1) for i in range(1, 6)], heights=range(1, 7))
    trace = run_scenario(chain, scheme, Schedule.single_random(0), step_limit=2)
    assert trace.outcome is Outcome.STEP_LIMIT
    return trace


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
@pytest.mark.parametrize(
    "case", [_no_void, _event_free, _wake_after_convergence, _partitioned, _step_limit],
    ids=lambda case: case.__name__.strip("_"),
)
def test_the_final_digest_is_the_final_orientations(case, scheme):
    """The writer's derived digests, the final one last, are those of a rerun's orientations."""
    trace = case(scheme)
    assert list(orientation_digests(trace)) == rerun_digests(trace)


def _sleep_and_removals() -> Simulation:
    scenario = Scenario.create(
        6,
        [(0, 5), (0, 6), (5, 6), (1, 2), (2, 3), (3, 4), (4, 5)],
        heights=range(1, 7),
        events=[
            SimEvent(at_step=1, kind="sleep", node=3, duration=2),
            SimEvent(at_step=1, kind="remove-link", edge=(5, 6)),
            SimEvent(at_step=2, kind="remove-node", node=6),
        ],
    )
    return Simulation(scenario, SchemeId.GB_FULL, Schedule.single_random(0))


def _counter_certificate() -> Simulation:
    return Simulation(random_partition_scenario(6, seed=3), SchemeId.NO_FULL, Schedule.single_random(0))


def _zero_steps() -> Simulation:
    return Simulation(Scenario.create(2, [(0, 1), (1, 2)], heights=(1, 2)), SchemeId.GB_FULL)


@pytest.mark.parametrize(
    "build", [_sleep_and_removals, _counter_certificate, _zero_steps],
    ids=lambda build: build.__name__.strip("_"),
)
def test_the_positional_trace_is_the_keyword_one(build):
    """_finalize builds the Trace by position; each field must land where its name says."""
    sim = build()
    trace = sim.run()
    expected = Trace(
        scenario=sim.scenario,
        scheme=sim.scheme,
        schedule=sim.schedule,
        step_limit=sim.step_limit,
        initial_arcs=sim.initial_arcs,
        steps=tuple(sim.steps),
        outcome=sim.outcome,
        certificate=sim.certificate,
        update_counts=dict(sim.update_counts),
        total_updates=sum(sim.update_counts.values()),
        total_reversals=sim.total_reversals,
        final_states=tuple(sim.states[i] for i in sim.live.nodes),
        event_log=tuple(sim.event_log),
    )
    assert type(trace) is Trace
    for name in Trace._fields:
        assert getattr(trace, name) == getattr(expected, name), name
    # The trace keeps its own counts, not the run's dict.
    assert trace.update_counts is not sim.update_counts
    if build is _sleep_and_removals:
        assert [text.split()[0] for _, text in trace.events_applied] == [
            "sleep", "remove-link", "remove-node", "wake",
        ]
        assert [(made, ev.kind) for made, ev in trace.event_log] == [
            (0, "sleep"), (0, "remove-link"), (1, "remove-node"), (2, "wake"),
        ]
        assert trace.total_updates != trace.total_reversals
    elif build is _counter_certificate:
        assert trace.outcome is Outcome.PARTITIONED and trace.certificate
    else:
        assert not trace.steps and trace.outcome is Outcome.CONVERGED


# --- incremental kernel against a from-scratch orientation --------------------


class _ScratchCheckedSimulation(Simulation):
    """After every step, compares the maintained orientation with routing_dag."""

    def __init__(self, *args):
        super().__init__(*args)
        self.recorded_arcs = self.initial_arcs

    def step(self):
        before = self.recorded_arcs
        record = super().step()
        topo = self.awake_topology()
        arcs = routing_dag(self.states, topo, self.scheme, self.heights)
        self.recorded_arcs = self.arcs
        assert self.recorded_arcs == arcs
        assert record.reversed_edges == orientation_flips(before, arcs)
        assert self.stuck_nodes() == tuple(sorted(stuck_set(arcs, topo)))
        return record


@st.composite
def _event_scenarios(draw):
    """A random void scenario with a script of removals and sleeps.

    The script is one the format accepts: each event names only nodes and
    links that the events firing before it left in place.
    """
    n = draw(st.integers(4, 9))
    base = random_void_scenario(n, draw(st.integers(0, 10_000)))
    nodes, links = set(range(1, n + 1)), set(base.edges)
    events = []
    for at in sorted(draw(st.lists(st.integers(1, 6), max_size=4))):
        kind = draw(st.sampled_from(("remove-node", "remove-link", "sleep")))
        if kind == "remove-link" and links:
            edge = draw(st.sampled_from(sorted(links)))
            links.discard(edge)
            events.append(SimEvent(at_step=at, kind=kind, edge=edge))
        elif kind == "remove-node" and nodes:
            node = draw(st.sampled_from(sorted(nodes)))
            nodes.discard(node)
            links = {e for e in links if node not in e}
            events.append(SimEvent(at_step=at, kind=kind, node=node))
        elif kind == "sleep" and nodes:
            node, duration = draw(st.sampled_from(sorted(nodes))), draw(st.integers(1, 5))
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
        except PhaseAdjacencyError:
            # the orientation from scratch fails on the same states
            with pytest.raises(PhaseAdjacencyError):
                routing_dag(sim.states, sim.awake_topology(), scheme, sim.heights)


@pytest.fixture(scope="module")
def event_sweep() -> list[Scenario]:
    """The fixed inputs of the benchmark's events workload at n=5 and n=10.

    Each node of the 5-node monotone chain sleeps at step 1 or 2 for 1..11
    steps, and ten 10-node partition scenarios strand a node until the
    finite-state schemes spend their step budget updating it.
    """
    chain = [(0, 5)] + [(i, i + 1) for i in range(1, 5)]
    sweep = [
        Scenario.create(
            5, chain, heights=range(1, 6), seed=1,
            events=[SimEvent(at_step=at, kind="sleep", node=node, duration=duration)],
        )
        for at in (1, 2) for node in range(1, 6) for duration in range(1, 12)
    ]
    return sweep + [random_partition_scenario(10, k) for k in range(10)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_the_kernel_matches_a_from_scratch_orientation_on_the_event_sweep(event_sweep, scheme):
    """Every record's orientation, reversed edges and stuck set, checked on the events workload.

    The schedule is `linkrev run`'s default, as the benchmark runs it.
    """
    for scenario in event_sweep:
        schedule = Schedule.single_random(scenario.seed or 0)
        sim = _ScratchCheckedSimulation(scenario, scheme, schedule)
        try:
            sim.run()
        except PhaseAdjacencyError:
            with pytest.raises(PhaseAdjacencyError):
                routing_dag(sim.states, sim.awake_topology(), scheme, sim.heights)


def _zigzag_chain(n: int) -> Scenario:
    """Edges D-n and i-(i+1), heights 1,2,1,2,...: the partial schemes take silent halves."""
    return Scenario.create(
        n, [(0, n)] + [(i, i + 1) for i in range(1, n)],
        heights=[2 - i % 2 for i in range(1, n + 1)],
    )


def test_a_step_that_reverses_no_link_shares_the_last_digest(event_sweep):
    """The writer gives a step that flips nothing, with no event since the last, the same string."""
    shared = 0
    for scenario in [*event_sweep, _zigzag_chain(12)]:
        for scheme in ALL_SCHEMES:
            try:
                trace = run_scenario(scenario, scheme, Schedule.single_random(scenario.seed or 0))
            except PhaseAdjacencyError:
                assert scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL)
                continue
            # The writer's own digests: the initial one first, shared by the quiet steps up to the first flip.
            digests = traceio_module._digests(trace)
            last, made = next(digests), [made for made, _ in trace.event_log]
            assert last == trace.initial_digest
            for position, (record, digest) in enumerate(zip(trace.steps, digests)):
                quiet = position not in made
                if quiet and not record.reversed_edges:
                    assert digest is last
                    shared += 1
                elif record.reversed_edges:
                    assert digest != last
                last = digest
    assert shared > 10_000


def _awake_parts(scenario: Scenario, event_log) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Nodes and links of the awake graph after the applied events, rebuilt from the event log."""
    nodes, edges, sleeping = set(scenario.topology.nodes), set(scenario.topology.edges), set()
    for _, ev in event_log:
        if ev.kind == "remove-link":
            a, b = ev.edge
            edges.discard((min(a, b), max(a, b)))
        elif ev.kind == "remove-node":
            nodes.discard(ev.node)
            sleeping.discard(ev.node)
        elif ev.kind == "sleep":
            sleeping.add(ev.node)
        else:
            sleeping.discard(ev.node)
    awake = nodes - sleeping
    return (
        tuple(sorted(awake)),
        tuple(sorted(e for e in edges if all(i == DESTINATION or i in awake for i in e))),
    )


@settings(max_examples=30, deadline=None)
@given(scenario=_event_scenarios(), subset=st.booleans(), seed=st.integers(0, 99))
def test_the_kernel_agrees_with_fresh_hello_rounds_on_unshared_views(scenario, subset, seed):
    """After every turn the kernel agrees with fresh probes and an unshared view.

    The stuck set is what a fresh probe of each awake node says, and the
    awake topology, shared through the without memo, has the nodes and links
    rebuilt from the scenario and the events applied.
    """
    schedule = Schedule.subset_random(seed) if subset else Schedule.single_random(seed)
    for scheme in ALL_SCHEMES:
        sim = Simulation(scenario, scheme, schedule)
        try:
            while True:
                record = sim.advance()
                awake = sim.awake_topology()
                assert (awake.nodes, awake.edges) == _awake_parts(scenario, sim.event_log)
                by_probe = _probed_stuck(sim.states, awake, scheme, sim.heights)
                assert sim.stuck_nodes() == by_probe
                if record is None:
                    break
        except PhaseAdjacencyError:
            # The known drift of the two-bit schemes across a sleep.
            assert scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL)


# --- the per-step cross-check ----------------------------------------------------


def _corrupt_a_neighbor_of_the_next_updater(sim: Simulation, twin: Simulation) -> int:
    """Skew sim's out-degree of a neighbor of its next updater to the wrong side of zero.

    twin is a simulation in the same state under the same schedule: it takes
    the step that sim is about to take, so its count after that step is the
    true one.  Returns the neighbor.
    """
    record = twin.step()
    u = record.updated[0]
    j = next(j for j in sim.awake_topology().neighbors(u) if j != DESTINATION)
    after = twin._out_degree[j]
    sim._out_degree[j] += 1 if after == 0 else -after
    return j


def _monotone_chain(n: int, events=()) -> Scenario:
    return Scenario.create(
        n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=range(1, n + 1), events=events
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_a_corrupted_count_mid_run_trips_the_next_steps_probe(scheme):
    scenario = _monotone_chain(8)
    sim, twin = (Simulation(scenario, scheme, Schedule.single_random(4)) for _ in range(2))
    for _ in range(3):
        assert sim.step() == twin.step()
    j = _corrupt_a_neighbor_of_the_next_updater(sim, twin)
    with pytest.raises(AssertionError, match=rf"probe of node {j} disagrees with orientation view"):
        sim.step()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_a_destination_neighbor_counted_stuck_trips_the_next_steps_probe(scheme):
    # Node 2 is stuck below node 1, whose link to D keeps it from ever being stuck.
    scenario = Scenario.create(2, [(0, 1), (1, 2)], heights=(2, 1))
    sim, twin = (Simulation(scenario, scheme, Schedule.single_random(0)) for _ in range(2))
    assert _corrupt_a_neighbor_of_the_next_updater(sim, twin) == 1
    with pytest.raises(AssertionError, match=r"probe of node 1 disagrees with orientation view"):
        sim.step()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_a_corrupted_count_after_a_sleep_rebuild_trips_the_next_steps_probe(scheme):
    scenario = _monotone_chain(8)
    sim, twin = (Simulation(scenario, scheme, Schedule.single_random(4)) for _ in range(2))
    for _ in range(2):
        assert sim.step() == twin.step()
    for each in (sim, twin):
        each.apply_event(SimEvent(at_step=3, kind="sleep", node=7, duration=4))
        assert each.stuck_nodes()  # rebuilds on the awake view
    assert sim.awake_topology().nodes == (1, 2, 3, 4, 5, 6, 8)
    j = _corrupt_a_neighbor_of_the_next_updater(sim, twin)
    with pytest.raises(AssertionError, match=rf"probe of node {j} disagrees with orientation view"):
        sim.step()


def _probe_each_turn(monkeypatch, scenario: Scenario, schedule: Schedule) -> tuple[Simulation, int]:
    """Run scenario under no-full, checking that each step probes exactly U and N(U), in one call.

    Each rebuild probes the awake topology's probe_table in one call of its
    own.  Returns the finished simulation and the number of steps whose
    updaters share a neighbor.
    """
    log = []
    real_probe, real_reorient = sim_module.probe_stuck, Simulation._reorient_all

    def probing(rows, states, points_from):
        rows = list(rows)
        log.append(("probe", rows))
        return real_probe(rows, states, points_from)

    def rebuilding(self):
        log.append(("rebuild", self.awake_topology()))
        real_reorient(self)

    monkeypatch.setattr(sim_module, "probe_stuck", probing)
    monkeypatch.setattr(Simulation, "_reorient_all", rebuilding)
    sim = Simulation(scenario, SchemeId.NO_FULL, schedule)
    probes = rebuilds = shared = 0
    while True:
        log.clear()
        record = sim.advance()
        awake = sim.awake_topology()
        while log and log[0][0] == "rebuild":
            (_, topo), (kind, rows) = log[0], log[1]
            assert kind == "probe" and rows == list(topo.probe_table)
            del log[:2]
            probes, rebuilds = probes + 1, rebuilds + 1
        if record is None:
            assert log == []
            break
        [(kind, rows)] = log
        probes += 1
        touched = set(record.updated).union(*(awake.neighbors(u) for u in record.updated))
        expected = {i for i in touched - {DESTINATION} if DESTINATION not in awake.neighbors(i)}
        # Every changed node's row appears exactly once, however many updaters it neighbors.
        assert kind == "probe" and len(rows) == len({i for i, _ in rows}) == len(expected)
        assert {i for i, _ in rows} == expected
        assert all(neighbors == awake.neighbors(i) for i, neighbors in rows)
        reached = [j for u in record.updated for j in awake.neighbors(u) if j != DESTINATION]
        shared += len(reached) > len(set(reached))
    assert sim.outcome is Outcome.CONVERGED
    assert rebuilds == len(sim.event_log) and probes == len(sim.steps) + rebuilds
    return sim, shared


def test_the_kernel_probes_once_per_step_and_once_per_rebuild(monkeypatch):
    """Each step probes exactly its updaters U and their awake neighbors N(U), in one call."""
    scenario = _monotone_chain(10, [SimEvent(at_step=3, kind="sleep", node=6, duration=4)])
    sim, _ = _probe_each_turn(monkeypatch, scenario, Schedule.single_random(0))
    assert [(ev.at_step, ev.describe()) for _, ev in sim.event_log] == [(3, "sleep 6 4"), (7, "wake 6")]


def test_the_kernel_probes_a_neighbor_shared_by_two_updaters_once(monkeypatch):
    """Subset steps on a zigzag chain update nodes two apart, which share the node between them."""
    _, shared = _probe_each_turn(monkeypatch, _zigzag_chain(10), Schedule.subset_random(0))
    assert shared > 0


def _scratch_stuck(sim: Simulation) -> tuple[int, ...]:
    """The sorted stuck set of sim's awake graph, oriented from scratch from its states."""
    awake = sim.awake_topology()
    return tuple(sorted(stuck_set(routing_dag(sim.states, awake, sim.scheme, sim.heights), awake)))


def _most_moved_by_a_step(sim: Simulation) -> int:
    """Run sim, checking its stuck view after every step; the most nodes one step moved in or out."""
    most = 0
    while (record := sim.advance()) is not None:
        view = sim.stuck_nodes()
        assert view == _scratch_stuck(sim), f"step {record.index}"
        most = max(most, len(set(view).symmetric_difference(record.stuck)))
    return most


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_the_patched_stuck_view_is_the_sorted_stuck_set_on_zigzag_subset_runs(scheme):
    most = 0
    for n in (6, 9, 14):
        scenario = Scenario.create(
            n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=[2 - i % 2 for i in range(1, n + 1)]
        )
        for seed in range(4):
            most = max(most, _most_moved_by_a_step(Simulation(scenario, scheme, Schedule.subset_random(seed))))
    # Some step moved several nodes into or out of the view at once.
    assert most >= 3


def test_the_patched_stuck_view_is_the_sorted_stuck_set_through_a_sleep_sweep():
    runs = 0
    for n in (5, 8):
        for at in (1, 2):
            for node in range(1, n + 1):
                for duration in (1, 2, 3, 5, 8, 11):
                    sleep = SimEvent(at_step=at, kind="sleep", node=node, duration=duration)
                    scenario = _monotone_chain(n, [sleep])
                    for scheme in ALL_SCHEMES:
                        sim = Simulation(scenario, scheme, Schedule.single_random(1))
                        try:
                            _most_moved_by_a_step(sim)
                        except PhaseAdjacencyError:
                            continue  # the two-bit orders' known drift under sleep
                        assert sim.event_log
                        runs += 1
    assert runs > 1000


def _counter_scan(stuck, states, n) -> str | None:
    """What a scan of the whole stuck set certifies: the first stuck node at update count n."""
    for i in stuck:
        if states[i].updates >= n:
            return (
                f"node {i} is stuck at update count {states[i].updates}; another update would "
                f"exceed the node count {n}, impossible on a connected graph"
            )
    return None


@pytest.mark.parametrize("scheme", (SchemeId.NO_FULL, SchemeId.NO_PARTIAL))
def test_the_armed_certificate_fires_at_the_turn_a_scan_of_every_turn_would(scheme):
    certified = 0
    for n in (4, 7, 10):
        for k in range(12):
            sim = Simulation(random_partition_scenario(n, k), scheme, Schedule.single_random(k))
            while True:
                before = dict(sim.states)
                record = sim.advance()
                if record is None:
                    break
                # The turn's last scan was of the stuck set its step started from.
                assert _counter_scan(record.stuck, before, n) is None, f"step {record.index}"
            scan = _counter_scan(sim.stuck_nodes(), sim.states, n)
            if scan is None:
                assert sim.certificate is None or "update count" not in sim.certificate
            else:
                assert (sim.outcome, sim.certificate) == (Outcome.PARTITIONED, scan)
                certified += 1
    assert certified >= 10


def test_the_schemes_of_a_sleep_script_share_one_awake_view(monkeypatch):
    scenario = _monotone_chain(8, [SimEvent(at_step=2, kind="sleep", node=5, duration=3)])
    built = []
    real_init = sim_module.Topology.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sim_module.Topology, "__init__", counting)
    views = set()
    for scheme in ALL_SCHEMES:
        sim = Simulation(scenario, scheme, Schedule.single_random(0))
        while sim.advance() is not None:
            if sim.sleeping:
                views.add(id(sim.awake_topology()))
        assert [(ev.at_step, ev.describe()) for _, ev in sim.event_log] == [(2, "sleep 5 3"), (5, "wake 5")]
    assert len(built) == len(views) == 1
    assert built[0].nodes == (1, 2, 3, 4, 6, 7, 8)


# --- one Simulation.step call per recorded step --------------------------------


@pytest.fixture
def step_calls(monkeypatch) -> list:
    """Records every Simulation.step call, wrapped on the class as a benchmark tracer wraps it."""
    calls = []
    real_step = Simulation.step

    def counting(self):
        record = real_step(self)
        calls.append(record)
        return record

    monkeypatch.setattr(Simulation, "step", counting)
    return calls


def test_an_event_free_run_calls_step_once_per_record(step_calls):
    trace = run_scenario(_monotone_chain(10), SchemeId.NO_FULL, Schedule.single_random(0))
    assert len(trace.steps) == 45
    assert len(step_calls) == len(trace.steps)
    assert all(call is rec for call, rec in zip(step_calls, trace.steps))


@pytest.mark.parametrize("scheme", (SchemeId.NO_FULL, SchemeId.GB_FULL, SchemeId.GB_PARTIAL))
def test_a_sleep_sweep_calls_step_once_per_record(step_calls, scheme):
    runs = 0
    for node in range(1, 6):
        for duration in range(1, 8):
            step_calls.clear()
            sleep = SimEvent(at_step=1, kind="sleep", node=node, duration=duration)
            trace = run_scenario(_monotone_chain(5, [sleep]), scheme, Schedule.single_random(1))
            assert trace.events_applied and trace.outcome is Outcome.CONVERGED
            assert len(step_calls) == len(trace.steps)
            assert all(call is rec for call, rec in zip(step_calls, trace.steps))
            runs += 1
    assert runs == 35


def test_an_equivalence_shadow_calls_step_once_per_reference_record(step_calls):
    reference = run_scenario(_monotone_chain(8), SchemeId.NO_FULL, Schedule.subset_random(3))
    step_calls.clear()
    report = check_scheme_equivalence(reference, SchemeId.ONE_BIT_FULL)
    assert report.passed, report.line()
    assert [call.updated for call in step_calls] == [rec.updated for rec in reference.steps]


def test_a_step_record_is_immutable(chain):
    record = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0)).steps[0]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_a_trace_is_immutable(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    for name in trace._fields:
        with pytest.raises(AttributeError):
            setattr(trace, name, None)
    with pytest.raises(AttributeError):
        trace.converged = False
    assert trace.converged

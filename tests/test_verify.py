"""Verifier checks: clean traces pass, corrupted traces are caught."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace
from itertools import starmap

import pytest

from linkrev import (
    CountedHeightState,
    ExplosionGuardError,
    FlagState,
    HeightState,
    Outcome,
    Scenario,
    Schedule,
    SchemeId,
    SimEvent,
    Simulation,
    check_determinism,
    check_initial_greedy_stability,
    check_order_invariance,
    check_reversal_semantics,
    check_scheme_equivalence,
    check_step_invariants,
    enumerate_all_schedules,
    run_scenario,
    standard_battery,
)
from linkrev.generate import exhaustive_void_scenarios, random_partition_scenario, random_void_scenario
from linkrev.schemes import CORE_SCHEMES, closed_form_height
from linkrev import model, verify
from linkrev.verify import EQUIVALENCE_PAIRS


def _tamper_step(trace, step_index: int, **changes):
    """Return a copy of the trace with one StepRecord field rewritten."""
    steps = list(trace.steps)
    steps[step_index] = steps[step_index]._replace(**changes)
    return trace._replace(steps=tuple(steps))


# --- step invariants ---------------------------------------------------------


def test_step_invariants_pass_on_a_clean_trace(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_step_invariants(trace, chain, SchemeId.NO_FULL)
    assert report.passed
    assert report.check == "step-invariants"
    assert "clean" in report.detail


def test_a_check_report_is_immutable(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_step_invariants(trace, chain, SchemeId.NO_FULL)
    for name in report._fields:
        with pytest.raises(AttributeError):
            setattr(report, name, None)


@pytest.mark.parametrize("scheme", CORE_SCHEMES)
def test_step_invariants_pass_for_every_scheme(scheme):
    scenario = random_void_scenario(7, seed=2)
    trace = run_scenario(scenario, scheme, Schedule.subset_random(4))
    assert trace.outcome is Outcome.CONVERGED
    assert check_step_invariants(trace, scenario, scheme).passed


def test_step_invariants_catch_a_forged_height(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, new_states=(CountedHeightState(2, 1, 6),))
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert not report.passed
    assert "closed form" in report.detail
    assert report.counterexample is not None
    assert report.counterexample.step == 1
    assert "scenario v1" in report.counterexample.scenario_text


def test_step_invariants_catch_a_forged_digest(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, dag_digest="0" * 12)
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert not report.passed
    assert "digest" in report.detail


def test_step_invariants_catch_a_nonstuck_updater(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, stuck=(3,))
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert not report.passed
    assert "not all stuck" in report.detail


def test_step_invariants_catch_a_forged_stuck_set():
    scenario = random_void_scenario(7, seed=2)
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.steps[0].stuck == (4,)
    # the updater stays inside the forged set, so only the set itself is wrong
    forged = _tamper_step(trace, 0, stuck=tuple(range(1, 8)))
    report = check_step_invariants(forged, scenario, SchemeId.NO_FULL)
    assert not report.passed
    assert "stuck set [1, 2, 3, 4, 5, 6, 7] is not the stuck set [4]" in report.detail


def test_step_invariants_catch_forged_reversed_edges(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.steps[0].reversed_edges == ((2, 3),)
    for forged_edges in ((), ((1, 3),), ((2, 3), (1, 3))):
        forged = _tamper_step(trace, 0, reversed_edges=forged_edges)
        report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
        assert not report.passed
        assert "reversed edges do not match" in report.detail


def test_step_invariants_catch_a_counter_jump(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    # updates jumping 0 -> 2 violates monotonicity and band adjacency at once
    forged = _tamper_step(trace, 0, new_states=(CountedHeightState(2, 2, 8),))
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert not report.passed


def test_step_invariants_build_one_routing_dag(monkeypatch):
    # Step 0 orients the whole graph; every recorded step is replayed from it.
    n = 10
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    scenario = Scenario.create(n, edges, heights=range(1, n + 1))
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.subset_random(5))
    assert len(trace.steps) == 30
    calls = []
    real = model.routing_dag

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "routing_dag", counting)
    monkeypatch.setattr(verify, "routing_dag", counting)
    assert check_step_invariants(trace, scenario, SchemeId.NO_FULL).passed
    assert len(calls) == 1


def test_step_invariants_refuse_event_traces(diamond_cut):
    trace = run_scenario(diamond_cut, SchemeId.NO_FULL, Schedule.single_random(0))
    with pytest.raises(ValueError, match="event-free"):
        check_step_invariants(trace, diamond_cut, SchemeId.NO_FULL)


def test_a_battery_builds_each_start_once(monkeypatch):
    scenario = random_void_scenario(8, 3)
    assert not scenario.events
    rebuilds, dags = [], []
    real_reorient, real_dag = Simulation._reorient_all, verify.routing_dag

    def reorient_counting(self):
        rebuilds.append(self.scheme)
        real_reorient(self)

    def dag_counting(*args):
        dags.append(args)
        return real_dag(*args)

    monkeypatch.setattr(Simulation, "_reorient_all", reorient_counting)
    monkeypatch.setattr(verify, "routing_dag", dag_counting)
    first = standard_battery(scenario, CORE_SCHEMES)
    assert sorted(rebuilds) == sorted(CORE_SCHEMES)
    # The step check derives its own start once per scheme, apart from the kernel's.
    assert len(dags) == len(CORE_SCHEMES)
    rebuilds.clear()
    dags.clear()
    second = standard_battery(scenario, CORE_SCHEMES)
    assert rebuilds == []
    assert dags == []
    assert [r.line() for r in second] == [r.line() for r in first]


def test_the_step_check_never_reads_the_simulators_starts():
    scenario = random_void_scenario(8, 3)
    standard_battery(scenario, CORE_SCHEMES)
    clean = dict(scenario._starts)
    for scheme, start in clean.items():
        scenario._starts[scheme] = replace(start, digest="0" * 12)
    steps = [r for r in standard_battery(scenario, CORE_SCHEMES) if r.check == "step-invariants"]
    assert len(steps) == 2 * len(CORE_SCHEMES)
    for report in steps:
        assert not report.passed
        assert report.detail == "initial digest does not match the scenario"
    # Starting the kernel from arcs its states do not induce trips its cross-check.
    for scheme, start in clean.items():
        scenario._starts[scheme] = replace(start, arcs=tuple((d, s) for s, d in start.arcs))
    with pytest.raises(AssertionError, match="disagrees with orientation view|must coincide"):
        standard_battery(scenario, CORE_SCHEMES)


def test_a_cached_step_zero_failure_is_reported_on_every_trace(monkeypatch):
    scenario = random_void_scenario(7, 5)
    monkeypatch.setattr(verify, "_closes_cycle", lambda out, heads: True)
    for _ in range(2):
        reports = standard_battery(scenario, CORE_SCHEMES)
        steps = [r for r in reports if r.check == "step-invariants"]
        assert len(steps) == 2 * len(CORE_SCHEMES)
        for report in steps:
            assert not report.passed
            assert report.detail == "step 0: orientation has a cycle"
            assert report.counterexample.step == 0


# --- reversal semantics ------------------------------------------------------


@pytest.mark.parametrize(
    "scheme",
    [SchemeId.GB_FULL, SchemeId.NO_FULL, SchemeId.TWO_BIT_FULL, SchemeId.ONE_BIT_FULL],
)
def test_full_reversal_semantics_hold(scheme):
    scenario = random_void_scenario(6, seed=9)
    trace = run_scenario(scenario, scheme, Schedule.subset_random(3))
    report = check_reversal_semantics(trace, scenario, scheme)
    assert report.passed


@pytest.mark.parametrize(
    "scheme", [SchemeId.GB_PARTIAL, SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL]
)
def test_partial_reversal_semantics_hold(scheme):
    scenario = random_void_scenario(6, seed=9)
    trace = run_scenario(scenario, scheme, Schedule.subset_random(3))
    report = check_reversal_semantics(trace, scenario, scheme)
    assert report.passed


def test_partial_semantics_count_silent_halves(reversed_pair):
    trace = run_scenario(reversed_pair, SchemeId.NO_PARTIAL, Schedule.single_random(0))
    report = check_reversal_semantics(trace, reversed_pair, SchemeId.NO_PARTIAL)
    assert report.passed
    assert "1 silent first halves" in report.detail
    aware = run_scenario(reversed_pair, SchemeId.GB_PARTIAL, Schedule.single_random(0))
    aware_report = check_reversal_semantics(aware, reversed_pair, SchemeId.GB_PARTIAL)
    assert aware_report.passed
    assert "0 silent first halves" in aware_report.detail


def test_reversal_check_catches_an_unreversed_link(chain):
    trace = run_scenario(chain, SchemeId.GB_FULL, Schedule.single_random(0))
    # pretend the step changed nothing: the updater keeps incoming links
    forged = _tamper_step(trace, 0, reversed_edges=())
    report = check_reversal_semantics(forged, chain, SchemeId.GB_FULL)
    assert not report.passed
    assert "point in" in report.detail


def test_reversal_check_rejects_the_baseline(chain):
    trace = run_scenario(chain, SchemeId.BASELINE_INCREMENT, Schedule.single_random(0))
    with pytest.raises(ValueError, match="undefined"):
        check_reversal_semantics(trace, chain, SchemeId.BASELINE_INCREMENT)


def test_reversal_check_catches_a_reversed_edge_that_is_not_a_link(chain):
    trace = run_scenario(chain, SchemeId.GB_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, reversed_edges=((1, 2), (2, 3)))
    report = check_reversal_semantics(forged, chain, SchemeId.GB_FULL)
    assert not report.passed
    assert "[(1, 2)] are not links" in report.detail


@pytest.mark.parametrize("scheme", [SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL])
def test_reversal_check_catches_a_partial_update_that_skips_a_link(reversed_pair, scheme):
    trace = run_scenario(reversed_pair, scheme, Schedule.single_random(0))
    assert trace.steps[0].reversed_edges == ((1, 2), (2, 3))
    forged = _tamper_step(trace, 0, reversed_edges=((1, 2),))
    report = check_reversal_semantics(forged, reversed_pair, scheme)
    assert report.detail == "step 1: node 2 reversed [1], expected [1, 3]"


@pytest.mark.parametrize("scheme", [SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL])
def test_reversal_check_catches_a_silent_node_that_gets_unstuck(reversed_pair, scheme):
    # Node 3 takes its silent half at step 2.  A forged step 3 has node 2
    # reverse both its links again, which hands node 3 an outgoing link
    # before its second half.
    trace = run_scenario(reversed_pair, scheme, Schedule.single_random(0))
    first, silent, second = trace.steps
    assert silent.updated == (3,) and not silent.reversed_edges
    forged = trace._replace(steps=(
        first, silent, first._replace(index=3), second._replace(index=4),
    ))
    report = check_reversal_semantics(forged, reversed_pair, scheme)
    assert report.detail == "step 3: node 3 should stay stuck between its paired updates (silent at 2)"
    assert report.counterexample.step == 3


@pytest.mark.parametrize("scheme", [SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL])
def test_reversal_check_catches_a_silent_half_left_unpaired(reversed_pair, scheme):
    trace = run_scenario(reversed_pair, scheme, Schedule.single_random(0))
    forged = trace._replace(steps=trace.steps[:2])
    assert forged.outcome is Outcome.CONVERGED
    report = check_reversal_semantics(forged, reversed_pair, scheme)
    assert report.detail == "nodes [3] did a silent update but never completed the pair"


def test_reversal_check_catches_a_link_flipped_by_a_bystander(chain):
    trace = run_scenario(chain, SchemeId.GB_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, reversed_edges=((1, 3), (2, 3)))
    report = check_reversal_semantics(forged, chain, SchemeId.GB_FULL)
    assert not report.passed
    assert "without a unique updater" in report.detail


def test_step_invariants_catch_a_state_that_does_not_advance(chain):
    trace = run_scenario(chain, SchemeId.GB_FULL, Schedule.single_random(0))
    # node 2 "updates" to its initial height, which orients nothing anew
    forged = _tamper_step(trace, 0, new_states=(HeightState(2, 2),))
    report = check_step_invariants(forged, chain, SchemeId.GB_FULL)
    assert report.detail == (
        "step 1: state of node 2 did not strictly increase: "
        "HeightState(node=2, height=2) -> HeightState(node=2, height=2)"
    )


def test_step_invariants_catch_a_counter_past_the_node_count(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    # four updates on the closed form orient the links as one does
    height = closed_form_height(SchemeId.NO_FULL, 4, 2, 3)
    forged = _tamper_step(trace, 0, new_states=(CountedHeightState(2, 4, height),))
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert report.detail == "step 1: node 2 update count 4 exceeds n=3"
    assert report.counterexample.step == 1


def test_step_invariants_catch_totals_that_disagree_with_the_final_counters(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = trace._replace(update_counts={**trace.update_counts, 2: 5})
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    assert report.detail == "final update counter of node 2 disagrees with the trace totals"


def test_step_invariants_see_a_cycle_that_leaves_no_node_stuck():
    # A flag on node 2 alone orients the triangle 1-2-3 as 1->2->3->1, and
    # node 4 points into it: no node is stuck, yet only node 4 reaches D.
    # The cycle is found first, so the emptiness failure is the second one.
    scenario = Scenario.create(4, [(0, 4), (1, 4), (1, 2), (2, 3), (1, 3)], heights=(1, 1, 1, 1))
    scheme = SchemeId.ONE_BIT_FULL
    trace = run_scenario(scenario, scheme, Schedule.single_random(0))
    assert trace.steps[0].updated == (1,)
    states = {i: FlagState(i, int(i == 2)) for i in range(1, 5)}
    arcs = model.routing_dag(states, scenario.topology, scheme, scenario.heights)
    assert arcs == ((4, 0), (1, 2), (3, 1), (4, 1), (2, 3))
    flipped = sorted(tuple(sorted(arc)) for arc in set(arcs) - set(trace.initial_arcs))
    digest = model.arcs_digest(starmap(model.arc_label, arcs))
    forged = _tamper_step(
        trace, 0, new_states=(states[2],), dag_digest=digest, reversed_edges=tuple(flipped),
    )
    failures, step = verify._replay_failures(forged, scenario, scheme)
    assert step == 1
    assert failures == [
        "step 1: orientation has a cycle",
        "step 1: stuck set emptiness disagrees with orientation",
    ]


def test_step_zero_emptiness_is_checked_against_the_orientation(monkeypatch):
    # A scheme's initial orientation is acyclic, so with no stuck node it is
    # destination-oriented: only a faulty orientation test trips this.
    scenario = Scenario.create(2, [(0, 1), (1, 2)], heights=(1, 2))
    trace = run_scenario(scenario, SchemeId.NO_FULL)
    assert not trace.steps
    monkeypatch.setattr(verify, "is_destination_oriented", lambda arcs, topo: False)
    report = check_step_invariants(trace, scenario, SchemeId.NO_FULL)
    assert report.detail == "step 0: stuck set emptiness disagrees with orientation"
    assert report.counterexample.step == 0


# --- greedy stability --------------------------------------------------------


def test_greedy_stability_passes_on_a_clean_trace(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_initial_greedy_stability(trace, chain)
    assert report.passed


def test_greedy_stability_catches_a_forged_updater(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    # node 1 reaches the destination initially; it must never appear as updater
    forged = _tamper_step(trace, 0, updated=(1, 2))
    report = check_initial_greedy_stability(forged, chain)
    assert not report.passed
    assert "[1]" in report.detail


# --- equivalence and determinism ---------------------------------------------


@pytest.mark.parametrize("reference, shadow, gating", EQUIVALENCE_PAIRS)
def test_equivalence_pairs_on_a_random_void(reference, shadow, gating):
    scenario = random_void_scenario(6, seed=4)
    ref = run_scenario(scenario, reference, Schedule.subset_random(7))
    report = check_scheme_equivalence(ref, shadow, gating)
    if gating:
        assert report.passed
        assert report.check == "scheme-equivalence"
    else:
        assert report.informational


def test_gating_equivalence_is_lockstep_on_the_chain(chain):
    ref = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_scheme_equivalence(ref, SchemeId.TWO_BIT_FULL)
    assert report.passed
    assert "lockstep" in report.detail


def test_informational_divergence_on_the_all_reversed_case(reversed_pair):
    ref = run_scenario(reversed_pair, SchemeId.NO_PARTIAL, Schedule.single_random(0))
    report = check_scheme_equivalence(ref, SchemeId.GB_PARTIAL, gating=False)
    assert report.informational
    assert report.passed  # informational reports never gate
    assert "diverge" in report.detail or "mismatch" in report.detail


_EVENT_VOID_EDGES = ((0, 1), (0, 4), (1, 4), (2, 3), (3, 4))


@pytest.mark.parametrize("shadow", [SchemeId.GB_FULL, SchemeId.TWO_BIT_FULL])
def test_equivalence_replays_the_scripted_events_under_the_shadow(shadow):
    # The link D-1 goes at step 2; a shadow that missed it would find no node stuck there.
    scenario = Scenario.create(
        4, _EVENT_VOID_EDGES, heights=(1, 2, 2, 1),
        events=[SimEvent(at_step=2, kind="remove-link", edge=(0, 1))],
    )
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.subset_random(0))
    report = check_scheme_equivalence(ref, shadow)
    assert report.passed, report.line()
    assert "across 2 steps" in report.detail


def test_equivalence_reports_a_shadow_run_that_raises():
    # Two-bit phases of neighbors drift two apart while node 3 sleeps.
    scenario = Scenario.create(
        4, _EVENT_VOID_EDGES, heights=(1, 2, 2, 1),
        events=[SimEvent(at_step=1, kind="sleep", node=3, duration=2)],
    )
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.subset_random(0))
    report = check_scheme_equivalence(ref, SchemeId.TWO_BIT_FULL)
    assert not report.passed
    assert "shadow run raised PhaseAdjacencyError" in report.counterexample.message


def test_equivalence_builds_one_simulation_for_an_event_reference(monkeypatch):
    # The shadow is the only run: the reference is read from its records.
    scenario = Scenario.create(
        4, _EVENT_VOID_EDGES, heights=(1, 2, 2, 1),
        events=[SimEvent(at_step=2, kind="remove-link", edge=(0, 1))],
    )
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.subset_random(0))
    assert ref.events_applied
    built = []

    class Counting(verify.Simulation):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verify, "Simulation", Counting)
    report = check_scheme_equivalence(ref, SchemeId.GB_FULL)
    assert report.passed, report.line()
    assert len(built) == 1


def test_equivalence_names_a_reference_updater_with_no_awake_neighbor(stranded_chain):
    # The oblivious reference updates node 1 while its only neighbor sleeps;
    # node 1 is stuck under gb-full too, but has no neighbor state to read.
    ref = run_scenario(stranded_chain, SchemeId.NO_FULL, Schedule.single_random(1))
    assert ref.steps[0].stuck == (1, 3) and ref.steps[0].updated == (1,)
    report = check_scheme_equivalence(ref, SchemeId.GB_FULL)
    assert not report.passed
    assert report.detail == (
        "vs no-full: step 1: schedule replay mismatch: fixed schedule step 1 selects [1] "
        "which are not stuck or with no awake neighbor"
    )
    assert report.counterexample.step == 1


@pytest.mark.parametrize("field, forged", [("dag_digest", "0" * 12), ("reversed_edges", ())])
def test_equivalence_catches_a_forged_reference_record(chain, field, forged):
    ref = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_scheme_equivalence(_tamper_step(ref, 0, **{field: forged}), SchemeId.TWO_BIT_FULL)
    assert not report.passed
    assert report.detail == "vs no-full: step 1: orientations diverge"
    assert report.counterexample.step == 1


def test_counted_partial_and_two_bit_partial_listed_as_gating():
    pairs = {(a, b): g for a, b, g in EQUIVALENCE_PAIRS}
    assert pairs[(SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL)] is True
    assert pairs[(SchemeId.NO_PARTIAL, SchemeId.GB_PARTIAL)] is False


def test_equivalence_refuses_a_reference_that_did_not_converge():
    scenario = random_partition_scenario(6, seed=3)
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_scheme_equivalence(ref, SchemeId.GB_FULL)
    assert report.detail == "reference run ended partitioned and cannot anchor a replay"


def test_the_informational_pair_never_fails_on_a_reference_that_did_not_converge():
    # The divergence pair states the missing anchor and gates nothing, as
    # it does for every other divergence.
    scenario = Scenario.create(3, [(0, 1), (1, 2), (2, 3)], heights=(1, 3, 2), events=[
        SimEvent(at_step=1, kind="remove-link", edge=(1, 2)),
    ])
    ref = run_scenario(scenario, SchemeId.NO_PARTIAL, Schedule.subset_random(0))
    assert ref.outcome is Outcome.PARTITIONED
    report = check_scheme_equivalence(ref, SchemeId.GB_PARTIAL, gating=False)
    assert report.check == "scheme-divergence"
    assert report.informational and report.passed
    assert report.counterexample is None
    assert report.detail == "reference run ended partitioned and cannot anchor a replay"
    gated = check_scheme_equivalence(ref, SchemeId.TWO_BIT_PARTIAL)
    assert (gated.check, gated.passed) == ("scheme-equivalence", False)
    assert gated.detail == report.detail


def test_equivalence_reports_a_shadow_that_raises_mid_replay():
    # Node 4 sleeps through steps 1-4; at step 5, the reference's last, the
    # two-bit phases of nodes 3 and 4 are two apart inside the replay loop.
    scenario = Scenario.create(
        4, _EVENT_VOID_EDGES, heights=(1, 2, 2, 1),
        events=[SimEvent(at_step=1, kind="sleep", node=4, duration=4)],
    )
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert ref.outcome is Outcome.CONVERGED and len(ref.steps) == 5
    report = check_scheme_equivalence(ref, SchemeId.TWO_BIT_FULL)
    assert report.detail.startswith("vs no-full: step 5: shadow run raised PhaseAdjacencyError: ")
    assert report.counterexample.step == 5


def test_equivalence_catches_a_forged_reference_stuck_set(chain):
    ref = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    report = check_scheme_equivalence(_tamper_step(ref, 0, stuck=(1, 2)), SchemeId.TWO_BIT_FULL)
    assert report.detail == "vs no-full: step 1: stuck sets [2] vs [1, 2]"


@pytest.fixture
def forged_partition_reference():
    """A no-full run that ends on a partition certificate, relabeled converged."""
    scenario = random_partition_scenario(6, seed=3)
    ref = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert ref.outcome is Outcome.PARTITIONED and ref.steps
    return ref._replace(outcome=Outcome.CONVERGED)


def test_equivalence_reports_a_shadow_that_ends_mid_replay(forged_partition_reference):
    # The neighbor-aware shadow ends at once: stuck node 5 has no awake neighbor.
    report = check_scheme_equivalence(forged_partition_reference, SchemeId.GB_FULL)
    assert report.detail == "vs no-full: step 1: shadow run ended partitioned"


def test_equivalence_reports_a_shadow_that_ends_after_the_replay(forged_partition_reference):
    report = check_scheme_equivalence(forged_partition_reference._replace(steps=()), SchemeId.GB_FULL)
    assert report.detail == "vs no-full: shadow run ended partitioned after replaying every step"


def test_equivalence_reports_a_shadow_still_stuck_after_the_replay(forged_partition_reference):
    report = check_scheme_equivalence(forged_partition_reference, SchemeId.TWO_BIT_FULL)
    assert report.detail == "vs no-full: shadow run still stuck after replaying every step"
    n = 5
    chain = Scenario.create(n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=range(1, n + 1))
    ref = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    truncated = ref._replace(steps=ref.steps[:-1])
    report = check_scheme_equivalence(truncated, SchemeId.GB_FULL)
    assert report.detail == "vs no-full: shadow run still stuck after replaying every step"


def test_determinism_check(chain):
    first = run_scenario(chain, SchemeId.NO_PARTIAL, Schedule.subset_random(5))
    report = check_determinism(first)
    assert report.passed
    assert report.scheme == "no-partial"
    assert "identical records" in report.detail


def test_determinism_catches_a_trace_the_rerun_does_not_reproduce(chain):
    first = run_scenario(chain, SchemeId.NO_PARTIAL, Schedule.subset_random(5))
    report = check_determinism(_tamper_step(first, 0, dag_digest="0" * 12))
    assert not report.passed
    assert report.detail == "reruns differ"


# --- exhaustive schedule enumeration -----------------------------------------


def test_enumeration_finds_a_single_final_dag(chain):
    result = enumerate_all_schedules(chain, SchemeId.NO_FULL)
    assert result.singleton
    assert result.all_destination_oriented
    assert result.states_explored >= 2
    assert result.transitions >= result.states_explored - 1
    assert set(result.witnesses) == set(result.final_digests)


#: Every void scenario at n=3, and the conftest reversed_pair, whose counted
#: partial schemes need a silent update.
WITNESS_SCENARIOS = (
    *exhaustive_void_scenarios(3),
    Scenario.create(3, [(0, 1), (1, 2), (2, 3)], heights=(2, 1, 1), name="reversed-pair"),
)


@pytest.mark.parametrize("scheme", CORE_SCHEMES)
@pytest.mark.parametrize("scenario", WITNESS_SCENARIOS, ids=lambda scenario: scenario.name)
def test_enumeration_witness_replays_to_its_digest(scenario, scheme):
    # A fixed schedule step that names a node the simulator does not see as
    # stuck raises ScheduleError, so every replayed witness also checks the
    # enumerator's stuck sets against the simulator's.
    result = enumerate_all_schedules(scenario, scheme)
    for digest, witness in result.witnesses.items():
        trace = run_scenario(scenario, scheme, witness)
        assert trace.outcome is Outcome.CONVERGED
        assert trace.final_digest == digest


def test_enumeration_guard_trips_on_tiny_budgets(chain):
    with pytest.raises(ExplosionGuardError):
        enumerate_all_schedules(chain, SchemeId.NO_FULL, max_states=1)


def test_enumeration_guard_says_how_far_it_got(star):
    # Leaves 2 and 3 start stuck, and their one-node steps make states 2
    # and 3.  Expanding state 3 leaves state 2 on the frontier, and its one
    # child, with both leaves updated, overflows.
    assert enumerate_all_schedules(star, SchemeId.NO_FULL).states_explored == 4
    with pytest.raises(ExplosionGuardError) as caught:
        enumerate_all_schedules(star, SchemeId.NO_FULL, max_states=3)
    assert (caught.value.states_explored, caught.value.frontier) == (3, 1)
    assert "(3 states explored, 1 on the frontier)" in str(caught.value)


def test_enumeration_rejects_scripted_events():
    # Losing D-5 before the first step partitions the chain, which the
    # enumeration, blind to events, would report as order-invariant.
    cut = Scenario.create(
        5,
        [(0, 5)] + [(i, i + 1) for i in range(1, 5)],
        heights=range(1, 6),
        events=[SimEvent(at_step=1, kind="remove-link", edge=(0, 5))],
    )
    assert run_scenario(cut, SchemeId.NO_FULL).outcome is Outcome.PARTITIONED
    with pytest.raises(ValueError, match="event-free scenario"):
        enumerate_all_schedules(cut, SchemeId.NO_FULL)
    with pytest.raises(ValueError, match="event-free scenario"):
        check_order_invariance(cut, SchemeId.NO_FULL)


@pytest.mark.parametrize("fault", ["two-final-dags", "not-oriented"])
def test_order_invariance_counterexample_is_the_faulty_dags_witness(monkeypatch, star, fault):
    real = verify.enumerate_all_schedules(star, SchemeId.NO_PARTIAL)
    (digest,) = real.final_digests
    witnesses = dict(real.witnesses)
    if fault == "two-final-dags":
        other = "f" * len(digest)  # sorts after the real digest
        witnesses[other] = Schedule.fixed([(2,), (3,), (2, 3)], label="forged")
        forged = replace(real, final_digests=tuple(sorted((digest, other))), witnesses=witnesses)
        shown = witnesses[other]
        message = "reached 2 distinct final DAGs"
    else:
        forged = replace(real, all_destination_oriented=False)
        shown = witnesses[digest]
        message = "reached a final DAG that is not oriented"
    monkeypatch.setattr(verify, "enumerate_all_schedules", lambda *args: forged)
    report = check_order_invariance(star, SchemeId.NO_PARTIAL)
    assert not report.passed
    assert report.detail == message
    assert report.counterexample.schedule == shown
    assert report.counterexample.step == len(shown.steps)


#: sha256 over every n=4 void scenario x core scheme enumeration: its final
#: digests, states explored, transitions, orientation verdict and the steps
#: of each final DAG's witness.
ENUMERATION_DIGEST = "3da06ea10fdbc93dc44564a2b8bec27504730b9c3f901587dc187765c7a59794"

#: The same sha256 over the n5_stride scenarios (every 16th void scenario at
#: n=5) x core schemes.
ENUMERATION_N5_STRIDE_DIGEST = "655cb98b02c9050a43799181cc5971e906f5724cc22f18f3a66193dde9192912"


def _enumeration_lines(scenarios):
    """One line per scenario x core scheme: what the enumeration digests pin."""
    lines = []
    for scenario in scenarios:
        for scheme in CORE_SCHEMES:
            result = enumerate_all_schedules(scenario, scheme)
            for witness in result.witnesses.values():
                for step in witness.steps:
                    assert step and list(step) == sorted(set(step)), witness
            witnesses = " ".join(repr(result.witnesses[d].steps) for d in result.final_digests)
            lines.append(
                f"{scenario.scenario_id()}/{scheme.value} {','.join(result.final_digests)} "
                f"{result.states_explored} {result.transitions} "
                f"{result.all_destination_oriented} {witnesses}"
            )
    return lines


def test_enumeration_results_are_pinned():
    lines = _enumeration_lines(exhaustive_void_scenarios(4))
    assert len(lines) == 664 * 7
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ENUMERATION_DIGEST


def test_n5_enumeration_results_are_pinned(n5_stride):
    lines = _enumeration_lines(n5_stride)
    assert len(lines) == 1605 * 7
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ENUMERATION_N5_STRIDE_DIGEST


#: sha256 over what every schedule enumeration must keep however it branches:
#: each n=4 void scenario x core scheme's final digests, states explored and
#: orientation verdict.  Transitions and witnesses are left out.
ENUMERATION_FACTS_DIGEST = "18d763ce7bab228876d4b065c1396568496b12c0b7b92728bc00f252ba394c81"

#: The same sha256 over the n5_stride scenarios x core schemes.
ENUMERATION_N5_STRIDE_FACTS_DIGEST = "b6850da5fddb8aa8ce065378b5e214c9921e1b5c51eb1e1b73fc4e1fc637b44e"


def _enumeration_fact_lines(scenarios):
    """One line per scenario x core scheme: its final digests, states and verdict."""
    lines = []
    for scenario in scenarios:
        for scheme in CORE_SCHEMES:
            result = enumerate_all_schedules(scenario, scheme)
            lines.append(
                f"{scenario.scenario_id()}/{scheme.value} {','.join(result.final_digests)} "
                f"{result.states_explored} {result.all_destination_oriented}"
            )
    return lines


@pytest.mark.parametrize(
    ("n", "expected"),
    [(4, ENUMERATION_FACTS_DIGEST), (5, ENUMERATION_N5_STRIDE_FACTS_DIGEST)],
    ids=["n4", "n5-stride"],
)
def test_enumeration_facts_are_pinned(request, n, expected):
    scenarios = exhaustive_void_scenarios(4) if n == 4 else request.getfixturevalue("n5_stride")
    lines = _enumeration_fact_lines(scenarios)
    assert len(lines) == (664 if n == 4 else 1605) * 7
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize(
    "scheme",
    [SchemeId.NO_FULL, SchemeId.NO_PARTIAL, SchemeId.GB_FULL, SchemeId.GB_PARTIAL],
)
def test_order_invariance_on_small_voids(scheme):
    scenarios = list(exhaustive_void_scenarios(3))
    assert scenarios
    for scenario in scenarios[:6]:
        report = check_order_invariance(scenario, scheme)
        assert report.passed, report.detail


# --- the battery -------------------------------------------------------------


def test_standard_battery_is_green_on_the_chain(chain):
    reports = standard_battery(chain, seed=0)
    gating = [r for r in reports if not r.informational]
    assert gating
    assert all(r.passed for r in gating)
    checks = {r.check for r in reports}
    assert {"termination", "step-invariants", "reversal-semantics",
            "initial-greedy-stability", "determinism", "scheme-equivalence"} <= checks
    # the counted-vs-aware partial comparison rides along as information
    assert any(r.check == "scheme-divergence" for r in reports)


def test_standard_battery_runs_each_scheme_four_times(monkeypatch):
    # single_random(seed) and subset_random(seed + 1) for the trace checks,
    # then subset_random(seed) once for determinism and the equivalence
    # pairs, and the determinism check's one rerun: 28 runs for 7 schemes.
    runs = Counter()
    real = verify.run_scenario

    def counting(scenario, scheme, schedule=None, step_limit=None):
        runs[scheme, schedule.describe()] += 1
        return real(scenario, scheme, schedule, step_limit)

    monkeypatch.setattr(verify, "run_scenario", counting)
    standard_battery(random_void_scenario(7, seed=2), seed=3)
    assert sum(runs.values()) == 28
    for scheme in CORE_SCHEMES:
        assert runs[scheme, "single-random(seed=3)"] == 1
        assert runs[scheme, "subset-random(seed=4)"] == 1
        assert runs[scheme, "subset-random(seed=3)"] == 2


def _count_per_trace_checks(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("check_step_invariants", "check_reversal_semantics", "check_initial_greedy_stability"):
        real = getattr(verify, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, counting)
    return calls


def test_standard_battery_judges_each_distinct_trace_once(monkeypatch):
    # On this scenario every scheme's two checked runs record the same run,
    # so each per-trace check runs once per scheme, while the simulator
    # still makes all 28 runs (test_standard_battery_runs_each_scheme_four_times).
    scenario = random_void_scenario(7, seed=2)
    for scheme in CORE_SCHEMES:
        first, second = (run_scenario(scenario, scheme, s)
                         for s in (Schedule.single_random(3), Schedule.subset_random(4)))
        assert first.schedule != second.schedule
        assert first._replace(schedule=second.schedule) == second
    calls = _count_per_trace_checks(monkeypatch)
    reports = standard_battery(scenario, seed=3)
    assert calls == {
        "check_step_invariants": 7,
        "check_reversal_semantics": 7,
        "check_initial_greedy_stability": 7,
    }
    for check in ("termination", "step-invariants", "reversal-semantics", "initial-greedy-stability"):
        assert sum(r.check == check for r in reports) == 14


def test_a_failing_verdict_is_not_reused(monkeypatch, chain):
    # The chain offers one node a step, so both checked runs of a scheme
    # record the same run.  A failing report names its own schedule, so
    # the second run's reports are made afresh.
    for scheme in CORE_SCHEMES:
        first, second = (run_scenario(chain, scheme, s)
                         for s in (Schedule.single_random(5), Schedule.subset_random(6)))
        assert first._replace(schedule=second.schedule) == second
    calls = _count_per_trace_checks(monkeypatch)

    def failing_greedy(trace, scenario):
        calls["check_initial_greedy_stability"] += 1
        return verify._report(
            "initial-greedy-stability", scenario, trace.scheme, ["forged failure"],
            schedule=trace.schedule,
        )

    monkeypatch.setattr(verify, "check_initial_greedy_stability", failing_greedy)
    reports = standard_battery(chain, seed=5)
    assert calls == {
        "check_step_invariants": 14,
        "check_reversal_semantics": 14,
        "check_initial_greedy_stability": 14,
    }
    failed = [r for r in reports if not r.passed]
    assert [r.check for r in failed] == ["initial-greedy-stability"] * 14
    assert [r.counterexample.schedule.describe() for r in failed] == [
        "single-random(seed=5)", "subset-random(seed=6)",
    ] * 7


def test_standard_battery_reports_a_run_that_overflows():
    # Two updates past these heights leave 64 bits under no-full and no-partial.
    big = 4611686018427387913
    scenario = Scenario.create(2, [(0, 2), (1, 2)], heights=(big, big + 1))
    reports = standard_battery(scenario, seed=0)
    failed = [(r.scheme, r.check) for r in reports if not r.passed]
    assert failed == [
        (scheme, check)
        for scheme in ("no-full", "no-partial")
        for check in ("termination", "termination", "determinism")
    ]
    assert all(
        r.detail.startswith("run raised OverflowRiskError: ")
        and r.counterexample.schedule is not None
        for r in reports if not r.passed
    )
    assert {r.scheme for r in reports if r.check == "termination" and r.passed} == {
        scheme.value for scheme in CORE_SCHEMES
    } - {"no-full", "no-partial"}


def test_standard_battery_respects_the_scheme_filter(chain):
    reports = standard_battery(chain, schemes=[SchemeId.NO_FULL], seed=0)
    assert {r.scheme for r in reports} == {"no-full"}
    assert all(r.check != "scheme-equivalence" for r in reports)


def test_counterexamples_replay_to_the_reported_failure(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = _tamper_step(trace, 0, new_states=(CountedHeightState(2, 1, 6),))
    report = check_step_invariants(forged, chain, SchemeId.NO_FULL)
    example = report.counterexample
    assert example is not None
    from linkrev import parse_scenario

    replayed = parse_scenario(example.scenario_text)
    rerun = run_scenario(replayed, SchemeId.NO_FULL, example.schedule)
    # the honest rerun of the counterexample passes: the forgery was in the
    # trace bytes, and the report pins the step where they diverged
    assert check_step_invariants(rerun, replayed, SchemeId.NO_FULL).passed
    assert example.step == 1

"""The incremental step-invariant check against the whole-graph one it replaced.

``oracle_step_invariants`` is the earlier ``check_step_invariants``, kept
verbatim as a reference: it rebuilds the full state vector and a full
``routing_dag`` for every recorded step and re-derives the stuck set, the
flips, acyclicity and destination orientation from scratch, with the
standard library's ``graphlib`` as its acyclicity test.  The check in
``linkrev.verify`` replays the recorded states in place and re-orients only
the updaters' links; on clean traces and on traces with one field of one
step record rewritten, it must return the same report as the oracle, or
raise the same error.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from itertools import starmap

from hypothesis import given, settings, strategies as st

from linkrev import LinkrevError, Schedule, check_step_invariants, run_scenario
from linkrev.generate import random_void_scenario
from linkrev.model import (
    DESTINATION,
    arc_label,
    arcs_digest,
    is_destination_oriented,
    orientation_flips,
    routing_dag,
    stuck_set,
)
from linkrev.scenario import Scenario
from linkrev.schemes import (
    CORE_SCHEMES,
    PHASE_MODULUS,
    SPECS,
    FlagState,
    PhaseState,
    SchemeId,
    State,
    closed_form_height,
    initial_states,
    threshold,
)

#: The schemes whose states carry an update counter.
COUNTER_SCHEMES = (SchemeId.NO_FULL, SchemeId.NO_PARTIAL)
from linkrev.sim import Trace
from linkrev import verify as verify_module
from linkrev.verify import (
    CheckReport,
    _closes_cycle,
    _replay_failures,
    _replay_start,
    _report,
    _require_plain_trace,
)


# --- the reference implementation --------------------------------------------


def _cyclic(arcs) -> bool:
    """graphlib's verdict, kept independent of the package's own cycle search."""
    sorter = TopologicalSorter()
    for s, d in arcs:
        sorter.add(d, s)
    try:
        sorter.prepare()
    except CycleError:
        return True
    return False


def _timeline(trace: Trace, scenario: Scenario, scheme: SchemeId):
    """Reconstruct the full state vector after each recorded step."""
    states = initial_states(scheme, scenario.topology, scenario.heights)
    yield 0, dict(states), None
    for rec in trace.steps:
        states = {**states, **{s.node: s for s in rec.new_states}}
        yield rec.index, dict(states), rec


def _monotone_failure(scheme: SchemeId, old: State, new: State) -> str | None:
    if scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL):
        if new.phase != (old.phase + 1) % PHASE_MODULUS:
            return f"phase of node {old.node} moved {old.phase}->{new.phase}, not one step"
        return None
    if scheme is SchemeId.ONE_BIT_FULL:
        if new.flag != old.flag ^ 1:
            return f"flag of node {old.node} did not toggle ({old.flag}->{new.flag})"
        return None
    key = SPECS[scheme].sort_key
    if not key(new) > key(old):
        return f"state of node {old.node} did not strictly increase: {old} -> {new}"
    return None


def oracle_step_invariants(trace: Trace, scenario: Scenario, scheme: SchemeId) -> CheckReport:
    """Per-step structural invariants of the recorded run.

    Covers: recorded stuck sets, reversed edges and DAG digests against
    the orientation the recorded states induce, acyclicity, the
    stuck/oriented equivalence, strictly advancing updater states,
    closed-form heights and height bands for the counted schemes, update
    counts bounded by the node count, and neighbor adjacency of counters,
    levels and phases.
    """
    _require_plain_trace(trace)
    topo = scenario.topology
    heights = scenario.heights
    max_height = heights.max_height
    failures: list[str] = []
    fail_step: int | None = None
    prev_states: dict[int, State] | None = None
    prev_arcs: tuple[tuple[int, int], ...] | None = None
    prev_stuck: tuple[int, ...] = ()

    for index, states, rec in _timeline(trace, scenario, scheme):
        arcs = routing_dag(states, topo, scheme, heights)
        stuck = tuple(sorted(stuck_set(arcs, topo)))
        tag = f"step {index}"
        if rec is not None:
            if set(rec.updated) - set(rec.stuck):
                failures.append(f"{tag}: updated nodes {rec.updated} not all stuck")
            if tuple(rec.stuck) != prev_stuck:
                failures.append(
                    f"{tag}: recorded stuck set {list(rec.stuck)} is not the stuck set "
                    f"{list(prev_stuck)} before the step"
                )
            for s in rec.new_states:
                problem = _monotone_failure(scheme, prev_states[s.node], s)
                if problem:
                    failures.append(f"{tag}: {problem}")
            if arcs_digest(starmap(arc_label, arcs)) != rec.dag_digest:
                failures.append(f"{tag}: recorded digest {rec.dag_digest} does not match states")
            if tuple(rec.reversed_edges) != orientation_flips(prev_arcs, arcs):
                failures.append(f"{tag}: recorded reversed edges do not match states")
        elif arcs_digest(starmap(arc_label, arcs)) != trace.initial_digest:
            failures.append("initial digest does not match the scenario")

        if _cyclic(arcs):
            failures.append(f"{tag}: orientation has a cycle")
        oriented = is_destination_oriented(arcs, topo)
        if bool(stuck) == oriented:
            failures.append(f"{tag}: stuck set emptiness disagrees with orientation")

        if scheme in COUNTER_SCHEMES:
            for i, s in states.items():
                h0 = heights.of(i)
                if s.updates > trace.n:
                    failures.append(f"{tag}: node {i} update count {s.updates} exceeds n={trace.n}")
                if s.height != closed_form_height(scheme, s.updates, h0, max_height):
                    failures.append(f"{tag}: node {i} height {s.height} off closed form")
                if scheme is SchemeId.NO_FULL:
                    if not (s.updates * max_height < s.height <= (s.updates + 1) * max_height):
                        failures.append(f"{tag}: node {i} height {s.height} outside its band")
                elif s.updates >= 1 and not (
                    threshold(s.updates - 1, max_height) < s.height < threshold(s.updates, max_height)
                ):
                    failures.append(f"{tag}: node {i} height {s.height} outside its band")
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                ta, tb = states[a].updates, states[b].updates
                if abs(ta - tb) > 1:
                    failures.append(f"{tag}: update counts of {a},{b} differ by {abs(ta - tb)}")
                if ta > tb and not states[a].height > states[b].height:
                    failures.append(f"{tag}: node {a} updated more but is not higher than {b}")
                if tb > ta and not states[b].height > states[a].height:
                    failures.append(f"{tag}: node {b} updated more but is not higher than {a}")
        elif scheme in (SchemeId.TWO_BIT_FULL, SchemeId.TWO_BIT_PARTIAL):
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                if (states[a].phase - states[b].phase) % PHASE_MODULUS == 2:
                    failures.append(f"{tag}: phases of neighbors {a},{b} drifted two apart")
        elif scheme is SchemeId.GB_PARTIAL:
            for a, b in topo.edges:
                if a == DESTINATION:
                    continue
                if abs(states[a].level - states[b].level) > 1:
                    failures.append(f"{tag}: levels of neighbors {a},{b} drifted apart")

        if failures:
            fail_step = index
            break
        prev_states, prev_arcs, prev_stuck = states, arcs, stuck

    if not failures and scheme in COUNTER_SCHEMES and trace.steps:
        final = {s.node: s for s in trace.final_states}
        for i, count in trace.update_counts.items():
            if i in final and final[i].updates != count:
                failures.append(f"final update counter of node {i} disagrees with the trace totals")

    return _report(
        "step-invariants", scenario, scheme, failures,
        schedule=trace.schedule, step=fail_step,
        detail=f"{len(trace.steps)} steps clean",
    )


# --- differential test ---------------------------------------------------------

FIELDS = ("new_states", "stuck", "updated", "reversed_edges", "dag_digest")


def _bumped(state: State, delta: int) -> State:
    """The state with one of its counters moved by delta, kept in its domain."""
    if hasattr(state, "phase"):
        return state._replace(phase=(state.phase + delta) % PHASE_MODULUS)
    if hasattr(state, "flag"):
        return state._replace(flag=state.flag ^ 1)
    field = state._fields[1 + abs(delta) % (len(state._fields) - 1)]
    return state._replace(**{field: getattr(state, field) + delta})


@st.composite
def _rewrite(draw, trace: Trace, rec, field: str):
    """A new value for one field of one step record."""
    other = draw(st.sampled_from(trace.steps))
    nodes = trace.scenario.topology.nodes
    if field == "new_states":
        states = list(rec.new_states)
        k = draw(st.integers(0, len(states) - 1))
        how = draw(st.sampled_from(("bump", "drop", "repeat", "other-step", "other-node")))
        if how == "bump":
            states[k] = _bumped(states[k], draw(st.sampled_from((-2, -1, 1, 2))))
        elif how == "drop":
            del states[k]
        elif how == "repeat":
            states.append(_bumped(states[k], 1))
        elif how == "other-step":
            return other.new_states
        else:
            states[k] = states[k]._replace(node=draw(st.sampled_from(nodes)))
        return tuple(states)
    if field == "dag_digest":
        return draw(st.sampled_from((other.dag_digest, trace.initial_digest, "0" * 12)))
    if field == "reversed_edges":
        edges = list(rec.reversed_edges)
        how = draw(st.sampled_from(("add", "drop", "reverse", "other-step")))
        if how == "add":
            edges.append(draw(st.sampled_from(trace.scenario.topology.edges)))
        elif how == "drop" and edges:
            del edges[draw(st.integers(0, len(edges) - 1))]
        elif how == "reverse":
            edges.reverse()
        else:
            return other.reversed_edges
        return tuple(edges)
    chosen = list(getattr(rec, field))
    how = draw(st.sampled_from(("add", "drop", "reverse", "other-step")))
    if how == "add":
        chosen.append(draw(st.sampled_from(nodes)))
    elif how == "drop" and chosen:
        del chosen[draw(st.integers(0, len(chosen) - 1))]
    elif how == "reverse":
        chosen.reverse()
    else:
        return getattr(other, field)
    return tuple(chosen)


@st.composite
def _traces(draw):
    """A random void run under one core scheme, with at most one field rewritten."""
    scenario = random_void_scenario(draw(st.integers(4, 10)), draw(st.integers(0, 10_000)))
    scheme = draw(st.sampled_from(CORE_SCHEMES))
    maker = draw(st.sampled_from((Schedule.single_random, Schedule.subset_random)))
    trace = run_scenario(scenario, scheme, maker(draw(st.integers(0, 99))))
    field = draw(st.sampled_from((None,) + FIELDS))
    if field is None or not trace.steps:
        return trace, None
    k = draw(st.integers(0, len(trace.steps) - 1))
    steps = list(trace.steps)
    steps[k] = steps[k]._replace(**{field: draw(_rewrite(trace, steps[k], field))})
    return trace._replace(steps=tuple(steps)), field


def _outcome(check, trace: Trace):
    try:
        return check(trace, trace.scenario, trace.scheme)
    except (LinkrevError, KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(case=_traces())
def test_incremental_check_reports_what_the_oracle_reports(case):
    trace, field = case
    expected = _outcome(oracle_step_invariants, trace)
    assert _outcome(check_step_invariants, trace) == expected
    if field is None:
        assert expected.passed, expected.line()


def test_each_rewritten_field_fails_the_same_way_in_both():
    # A fixed rewrite of each field of the first record, over the first void
    # scenarios: both checks agree, and each field fails at least once.
    caught = set()
    for k in range(12):
        scenario = random_void_scenario(4 + k % 6, k)
        for scheme in CORE_SCHEMES:
            trace = run_scenario(scenario, scheme, Schedule.subset_random(k))
            if not trace.steps:
                continue
            rec = trace.steps[0]
            forged = {
                "new_states": (_bumped(rec.new_states[0], 2),),
                "stuck": rec.stuck + (DESTINATION,),
                "updated": rec.updated + (max(scenario.topology.nodes) + 1,),
                "reversed_edges": rec.reversed_edges + scenario.topology.edges[:1],
                "dag_digest": "0" * 12,
            }
            for field, value in forged.items():
                steps = (rec._replace(**{field: value}),) + trace.steps[1:]
                forged_trace = trace._replace(steps=steps)
                expected = _outcome(oracle_step_invariants, forged_trace)
                assert _outcome(check_step_invariants, forged_trace) == expected
                if isinstance(expected, CheckReport) and not expected.passed:
                    caught.add(field)
    assert caught == set(FIELDS)


def test_a_forged_step_that_closes_a_cycle_fails_in_both():
    # Flags 1, 0, 1 on the triangle 1-2-3 orient it 3->1->2->3.  The forged
    # record toggles flags only, and its digest and reversed edges match
    # the states, so the cycle is the first thing wrong with it.
    scenario = Scenario.create(4, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)], heights=(1, 2, 3, 1))
    trace = run_scenario(scenario, SchemeId.ONE_BIT_FULL, Schedule.single_random(0))
    rec = trace.steps[0]
    assert rec.updated == (4,)
    forged_states = (FlagState(1, 1), FlagState(3, 1), FlagState(4, 1))
    states = initial_states(SchemeId.ONE_BIT_FULL, scenario.topology, scenario.heights)
    states.update((s.node, s) for s in forged_states)
    arcs = routing_dag(states, scenario.topology, SchemeId.ONE_BIT_FULL, scenario.heights)
    forged = rec._replace(
        new_states=forged_states,
        dag_digest=arcs_digest(starmap(arc_label, arcs)),
        reversed_edges=orientation_flips(trace.initial_arcs, arcs),
    )
    forged_trace = trace._replace(steps=(forged,) + trace.steps[1:])
    report = check_step_invariants(forged_trace, scenario, SchemeId.ONE_BIT_FULL)
    assert report == oracle_step_invariants(forged_trace, scenario, SchemeId.ONE_BIT_FULL)
    assert report.detail == "step 1: orientation has a cycle"
    assert report.counterexample.step == 1


def test_a_forged_partial_step_whose_tails_keep_in_arcs_fails_in_both():
    # On the ring 1-2-3-4 with D-4, phases 3, 2, 1, 0 orient it 1->2->3->4->1.
    # The flipped arcs 1->2 and 2->3 have tails that keep the in-arcs 4->1
    # and 1->2, so the step check must search for the cycle.  Jumping node 1
    # from phase 0 to 3 and node 2 to 2 is wrong too, and reported first.
    scheme = SchemeId.TWO_BIT_PARTIAL
    scenario = Scenario.create(4, [(0, 4), (1, 2), (2, 3), (3, 4), (1, 4)], heights=(1, 2, 3, 1))
    trace = run_scenario(scenario, scheme, Schedule.single_random(0))
    rec = trace.steps[0]
    forged_states = (PhaseState(1, 3), PhaseState(2, 2), PhaseState(3, 1))
    states = initial_states(scheme, scenario.topology, scenario.heights)
    states.update((s.node, s) for s in forged_states)
    arcs = routing_dag(states, scenario.topology, scheme, scenario.heights)
    assert set(arcs) >= {(1, 2), (2, 3), (3, 4), (4, 1)}
    forged = rec._replace(
        new_states=forged_states,
        dag_digest=arcs_digest(starmap(arc_label, arcs)),
        reversed_edges=orientation_flips(trace.initial_arcs, arcs),
    )
    forged_trace = trace._replace(steps=(forged,) + trace.steps[1:])
    report = check_step_invariants(forged_trace, scenario, scheme)
    assert report == oracle_step_invariants(forged_trace, scenario, scheme)
    assert report.counterexample.step == 1
    failures, step = _replay_failures(forged_trace, scenario, scheme)
    assert step == 1 and "step 1: orientation has a cycle" in failures


def test_only_steps_whose_flipped_tails_keep_an_in_arc_are_searched(monkeypatch):
    # A full reversal leaves its updater with no in-arc, so a full scheme's
    # steps never search.  A partial reversal keeps one on a deep void chain.
    calls = {"full": 0, "partial": 0}
    real = verify_module._closes_cycle
    chain = Scenario.create(8, [(0, 8), *((i, i + 1) for i in range(1, 8))], heights=range(1, 9))
    scenarios = (chain, *(random_void_scenario(9, seed) for seed in range(6)))
    # Step 0 searches from every node; it is judged here, before the counter.
    for scheme in CORE_SCHEMES:
        for scenario in scenarios:
            _replay_start(scenario, scheme)

    for scheme in CORE_SCHEMES:
        family = SPECS[scheme].reversal

        def counting(out, heads, family=family):
            calls[family] += 1
            return real(out, heads)

        monkeypatch.setattr(verify_module, "_closes_cycle", counting)
        for seed, scenario in enumerate(scenarios):
            trace = run_scenario(scenario, scheme, Schedule.subset_random(seed))
            assert check_step_invariants(trace, scenario, scheme).passed
    assert calls["full"] == 0
    assert calls["partial"] > 0


# --- the acyclicity step -------------------------------------------------------


def test_a_flip_that_closes_a_cycle_is_caught():
    # 1->2, 2->3 and 1->3 are acyclic; flipping 1->3 into 3->1 closes 1->2->3->1.
    out = {1: {2}, 2: {3}, 3: {1}, 0: set()}
    assert _closes_cycle(out, [1])
    assert _cyclic(((1, 2), (2, 3), (3, 1)))


def test_a_flip_that_closes_no_cycle_passes():
    # Flipping 1->2 of the same triangle into 2->1 leaves 2->1->3 and 2->3.
    out = {1: {3}, 2: {1, 3}, 3: {0}, 0: set()}
    assert not _closes_cycle(out, [1])
    assert not _cyclic(((2, 1), (1, 3), (2, 3), (3, 0)))


def test_the_cycle_search_sees_a_cycle_reached_through_other_nodes():
    # The flipped arc 4->1 has head 1; the cycle 2->3->2 lies downstream of it.
    out = {1: {2}, 2: {3}, 3: {2, 0}, 4: {1}, 0: set()}
    assert _closes_cycle(out, [1])
    # A cycle that no head reaches is not searched for.
    assert not _closes_cycle(out, [0])

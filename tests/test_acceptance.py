"""Acceptance battery: ten gated criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as they
pass; without -s they still print on failure.  The shared corpus is 200
seeded random void scenarios spanning 4..12 nodes, simulated once per scheme
and reused by every criterion that inspects traces.
"""

from __future__ import annotations

import inspect
import time

import pytest

from linkrev import (
    Outcome,
    Scenario,
    Schedule,
    SchemeId,
    check_initial_greedy_stability,
    check_reversal_semantics,
    check_scheme_equivalence,
    check_step_invariants,
    enumerate_all_schedules,
    run_scenario,
    trace_to_jsonl,
)
from linkrev.generate import exhaustive_void_scenarios, random_partition_scenario, random_void_scenario
from linkrev.model import is_destination_oriented, routing_dag
from linkrev.schemes import (
    CORE_SCHEMES,
    SPECS,
    FlagState,
    PhaseState,
    baseline_increment_update,
    no_full_update,
    no_partial_update,
    one_bit_update,
    state_bits,
    two_bit_update,
)
from linkrev.verify import EQUIVALENCE_PAIRS

CORPUS_SIZE = 200
NODE_RANGE = tuple(range(4, 13))

#: Five-node instances with the deepest exhaustive schedule spaces found by
#: a sweep over all 26704 labeled connected five-node topologies; listed as
#: (edges, heights) with the comment giving the distinct-state count under
#: subset branching of the counted partial scheme.
HAND_PICKED_FIVES: tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...] = (
    (((0, 2), (1, 2), (1, 3), (1, 4), (1, 5)), (2, 4, 3, 3, 4)),          # 28 states
    (((0, 3), (1, 2), (1, 3), (1, 4), (1, 5)), (1, 1, 2, 1, 1)),          # 28
    (((0, 4), (1, 2), (1, 3), (1, 4), (1, 5)), (1, 1, 2, 1, 1)),          # 28
    (((0, 5), (1, 2), (1, 3), (1, 4), (1, 5)), (1, 1, 2, 1, 1)),          # 28
    (((0, 3), (1, 2), (2, 3), (2, 4), (2, 5)), (3, 1, 2, 1, 2)),          # 28
    (((0, 2), (1, 3), (2, 3), (3, 4), (3, 5)), (4, 3, 2, 4, 2)),          # 28
    (((0, 4), (1, 3), (2, 3), (3, 4), (3, 5)), (4, 3, 2, 4, 4)),          # 28
    (((0, 5), (1, 3), (2, 3), (3, 4), (3, 5)), (4, 2, 1, 1, 3)),          # 28
    (((0, 1), (1, 5), (2, 5), (3, 5), (4, 5)), (5, 4, 3, 2, 1)),          # 28
    (((0, 2), (1, 5), (2, 5), (3, 5), (4, 5)), (5, 4, 3, 2, 1)),          # 28
    (((0, 3), (1, 5), (2, 5), (3, 5), (4, 5)), (5, 4, 3, 2, 1)),          # 28
    (((0, 4), (1, 5), (2, 5), (3, 5), (4, 5)), (5, 4, 3, 2, 1)),          # 28
    (((0, 2), (1, 2), (1, 4), (1, 5), (2, 3)), (1, 2, 1, 4, 1)),          # 20
    (((0, 4), (1, 2), (1, 4), (1, 5), (2, 3)), (1, 3, 2, 3, 2)),          # 20
    (((0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)), (2, 2, 2, 2, 4)),  # 13, denser
    (((0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)), (2, 2, 2, 2, 4)),  # 13
    (((0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5)), (1, 1, 2, 1, 1)),  # 13
    (((0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5)), (1, 1, 2, 1, 1)),  # 13
    (((0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)), (1, 1, 2, 1, 1)),  # 13
    (((0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)), (1, 1, 2, 1, 1)),  # 13
)

ORDER_INVARIANCE_SCHEMES = (
    SchemeId.NO_FULL,
    SchemeId.NO_PARTIAL,
    SchemeId.GB_FULL,
    SchemeId.GB_PARTIAL,
)

#: The one scenario shape that exercises the paired-update rule: a node whose
#: every link starts reversed toward it.
ALL_REVERSED_PAIR = Scenario.create(
    3, [(0, 1), (1, 2), (2, 3)], heights=(2, 1, 1), name="all-reversed-pair"
)


def _verdict(number: int, title: str, violations: list[str], extra: str = "") -> None:
    status = "PASS" if not violations else "FAIL"
    tail = f" ({extra})" if extra else ""
    line = f"[{status}] criterion {number}: {title}{tail}"
    if violations:
        line += f" :: {len(violations)} violations; first: {violations[0]}"
    print(line)
    assert not violations, line


def _schedule_for(index: int) -> Schedule:
    # alternate the two random schedule families across the corpus
    if index % 2 == 0:
        return Schedule.single_random(index)
    return Schedule.subset_random(index)


@pytest.fixture(scope="module")
def corpus() -> list[Scenario]:
    return [
        random_void_scenario(NODE_RANGE[k % len(NODE_RANGE)], seed=k)
        for k in range(CORPUS_SIZE)
    ]


@pytest.fixture(scope="module")
def traces(corpus):
    """All criterion-1 runs: (scenario index, scheme) -> trace, plus wall time."""
    start = time.perf_counter()
    runs = {}
    for k, scenario in enumerate(corpus):
        for scheme in CORE_SCHEMES:
            runs[(k, scheme)] = run_scenario(scenario, scheme, _schedule_for(k))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_termination(corpus, traces):
    runs, elapsed = traces
    violations = []
    for (k, scheme), trace in runs.items():
        scenario = corpus[k]
        budget = 4 * scenario.n * scenario.n
        if trace.outcome is not Outcome.CONVERGED:
            violations.append(f"{scenario.scenario_id()}/{scheme}: ended {trace.outcome}")
        elif len(trace.steps) > budget:
            violations.append(
                f"{scenario.scenario_id()}/{scheme}: {len(trace.steps)} steps > {budget}"
            )
        else:
            states = {s.node: s for s in trace.final_states}
            arcs = routing_dag(states, scenario.topology, scheme, scenario.heights)
            if not is_destination_oriented(arcs, scenario.topology):
                violations.append(f"{scenario.scenario_id()}/{scheme}: final DAG not oriented")
    if elapsed >= 30.0:
        violations.append(f"corpus runtime {elapsed:.1f}s exceeds the 30s budget")
    _verdict(
        1,
        "all 200 random void scenarios converge within 4N^2 steps for all 7 schemes",
        violations,
        extra=f"{len(runs)} runs in {elapsed:.1f}s",
    )


def test_criterion_2_order_invariance():
    start = time.perf_counter()
    violations = []
    checked = 0
    small = [sc for n in (1, 2, 3, 4) for sc in exhaustive_void_scenarios(n)]
    fives = [
        Scenario.create(5, edges, heights=values, name=f"handpicked-5-{i:02d}")
        for i, (edges, values) in enumerate(HAND_PICKED_FIVES)
    ]
    for scenario in small + fives:
        for scheme in ORDER_INVARIANCE_SCHEMES:
            result = enumerate_all_schedules(scenario, scheme)
            checked += 1
            if not result.singleton:
                violations.append(
                    f"{scenario.scenario_id()}/{scheme}: {len(result.final_digests)} final DAGs"
                )
            elif not result.all_destination_oriented:
                violations.append(f"{scenario.scenario_id()}/{scheme}: final DAG not oriented")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        violations.append(f"enumeration runtime {elapsed:.1f}s exceeds the 2min budget")
    _verdict(
        2,
        "every schedule reaches one final DAG on all small topologies",
        violations,
        extra=f"{len(small)} exhaustive + {len(fives)} five-node scenarios, "
        f"{checked} enumerations in {elapsed:.1f}s",
    )


def test_criterion_3_who_updates(corpus, traces):
    runs, _ = traces
    violations = []
    for (k, scheme), trace in runs.items():
        report = check_initial_greedy_stability(trace)
        if not report.passed:
            violations.append(f"{corpus[k].scenario_id()}/{scheme}: {report.detail}")
    _verdict(3, "only nodes without an initial greedy path ever update", violations,
             extra=f"{len(runs)} traces")


def test_criterion_4_full_reversal_semantics(corpus, traces):
    runs, _ = traces
    violations = []
    checked = 0
    for (k, scheme), trace in runs.items():
        if SPECS[scheme].reversal != "full":
            continue
        checked += 1
        report = check_reversal_semantics(trace)
        if not report.passed:
            violations.append(f"{corpus[k].scenario_id()}/{scheme}: {report.detail}")
    _verdict(4, "full-reversal updaters end each update with all links outgoing",
             violations, extra=f"{checked} traces")


def test_criterion_5_partial_reversal_semantics(corpus, traces):
    runs, _ = traces
    violations = []
    checked = 0
    for (k, scheme), trace in runs.items():
        if scheme not in (SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL):
            continue
        checked += 1
        report = check_reversal_semantics(trace)
        if not report.passed:
            violations.append(f"{corpus[k].scenario_id()}/{scheme}: {report.detail}")
    # the all-reversed case must take exactly two successive updates
    for scheme in (SchemeId.NO_PARTIAL, SchemeId.TWO_BIT_PARTIAL):
        trace = run_scenario(ALL_REVERSED_PAIR, scheme, Schedule.single_random(0))
        checked += 1
        report = check_reversal_semantics(trace)
        if not report.passed:
            violations.append(f"all-reversed-pair/{scheme}: {report.detail}")
        elif "1 silent first halves" not in report.detail:
            violations.append(f"all-reversed-pair/{scheme}: no silent first half observed")
        if trace.update_counts[3] != 2:
            violations.append(
                f"all-reversed-pair/{scheme}: node 3 updated {trace.update_counts[3]} times, wanted 2"
            )
    _verdict(5, "partial reversals flip exactly the unreversed links, paired when none",
             violations, extra=f"{checked} traces")


def test_criterion_6_state_invariants(corpus, traces):
    runs, _ = traces
    violations = []
    for (k, scheme), trace in runs.items():
        report = check_step_invariants(trace)
        if not report.passed:
            violations.append(f"{corpus[k].scenario_id()}/{scheme}: {report.detail}")
    _verdict(6, "closed forms, height bands, and neighbor adjacency hold at every step",
             violations, extra=f"{len(runs)} traces")


def test_criterion_7_finite_state_equivalence(corpus, traces):
    runs, _ = traces
    violations = []
    compared = 0
    for k, scenario in enumerate(corpus):
        for reference, shadow, gating in EQUIVALENCE_PAIRS:
            if not gating:
                continue
            compared += 1
            report = check_scheme_equivalence(runs[(k, reference)], shadow)
            if not report.passed:
                violations.append(f"{scenario.scenario_id()}/{shadow}: {report.detail}")
    # structural bit widths over every recorded state of the corpus
    for (k, scheme), trace in runs.items():
        for rec in trace.steps:
            for state in rec.new_states:
                if isinstance(state, PhaseState):
                    if state_bits(scheme, state) > 2 or not 0 <= state.phase < 4:
                        violations.append(f"{corpus[k].scenario_id()}: phase state over 2 bits")
                elif isinstance(state, FlagState):
                    if state_bits(scheme, state) > 1 or state.flag not in (0, 1):
                        violations.append(f"{corpus[k].scenario_id()}: flag state over 1 bit")
    # obliviousness is part of the rule signatures, not a runtime promise
    for rule in (no_full_update, no_partial_update, two_bit_update, one_bit_update,
                 baseline_increment_update):
        if any("neighbor" in p for p in inspect.signature(rule).parameters):
            violations.append(f"{rule.__name__} reads neighbor state")
    _verdict(7, "equivalent schemes stay in lockstep; finite states stay 2/1 bits",
             violations, extra=f"{compared} replays")


def _schedule_invariance_note(scenario: Scenario) -> str:
    """Re-run one scenario under twelve schedules to show a gap is intrinsic."""
    totals: dict[SchemeId, set[int]] = {}
    for scheme in (SchemeId.NO_FULL, SchemeId.BASELINE_INCREMENT):
        totals[scheme] = {
            run_scenario(scenario, scheme, maker(seed)).total_updates
            for seed in range(6)
            for maker in (Schedule.single_random, Schedule.subset_random)
        }
    if all(len(seen) == 1 for seen in totals.values()):
        return "gap is schedule-invariant across 12 schedules"
    return f"gap varies with schedule: {totals}"


def test_criterion_8_baseline_contrast(corpus, traces):
    runs, _ = traces
    violations = []
    strict_by_batch: dict[int, int] = {n: 0 for n in NODE_RANGE}
    totals = {SchemeId.NO_FULL: 0, SchemeId.BASELINE_INCREMENT: 0}
    for k, scenario in enumerate(corpus):
        counted = runs[(k, SchemeId.NO_FULL)]
        baseline = run_scenario(scenario, SchemeId.BASELINE_INCREMENT, _schedule_for(k))
        if baseline.outcome is not Outcome.CONVERGED:
            violations.append(f"{scenario.scenario_id()}: baseline ended {baseline.outcome}")
            continue
        totals[SchemeId.NO_FULL] += counted.total_updates
        totals[SchemeId.BASELINE_INCREMENT] += baseline.total_updates
        if baseline.total_updates < counted.total_updates:
            note = ""
            if not violations:  # prove the first gap is not schedule noise
                note = f" ({_schedule_invariance_note(scenario)})"
            violations.append(
                f"{scenario.scenario_id()}: baseline {baseline.total_updates} < "
                f"counted full {counted.total_updates}{note}"
            )
        elif baseline.total_updates > counted.total_updates:
            strict_by_batch[scenario.n] += 1
    starved = [n for n, hits in strict_by_batch.items() if hits == 0]
    if starved:
        violations.append(f"no strictly-worse baseline run in batches {starved}")
    _verdict(8, "one-step increments never beat the counted full scheme",
             violations,
             extra=(f"strict inequality on {sum(strict_by_batch.values())}/{CORPUS_SIZE} "
                    f"scenarios; corpus totals baseline {totals[SchemeId.BASELINE_INCREMENT]} "
                    f"vs counted full {totals[SchemeId.NO_FULL]}"))


def test_criterion_9_partition_certificates(corpus, traces):
    runs, _ = traces
    violations = []
    for k in range(20):
        scenario = random_partition_scenario(NODE_RANGE[k % len(NODE_RANGE)], seed=1000 + k)
        for scheme in (SchemeId.NO_FULL, SchemeId.NO_PARTIAL):
            trace = run_scenario(scenario, scheme, _schedule_for(k))
            if trace.outcome is not Outcome.PARTITIONED:
                violations.append(f"{scenario.scenario_id()}/{scheme}: ended {trace.outcome}")
            elif "update count" not in (trace.certificate or ""):
                violations.append(
                    f"{scenario.scenario_id()}/{scheme}: certificate is not the counter bound"
                )
    false_positives = sum(
        1 for trace in runs.values() if trace.outcome is Outcome.PARTITIONED
    )
    if false_positives:
        violations.append(f"{false_positives} connected runs claimed a partition")
    _verdict(9, "disconnections are certified by the update-count bound, never faked",
             violations, extra="20 partition scenarios x 2 counter schemes")


def test_criterion_10_determinism(corpus, traces):
    runs, _ = traces
    violations = []
    for (k, scheme), trace in runs.items():
        again = run_scenario(corpus[k], scheme, _schedule_for(k))
        if trace_to_jsonl(trace) != trace_to_jsonl(again):
            violations.append(f"{corpus[k].scenario_id()}/{scheme}: reruns differ")
    _verdict(10, "identical inputs reproduce byte-identical traces", violations,
             extra=f"{len(runs)} rerun pairs")

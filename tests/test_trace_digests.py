"""Golden JSONL digests of event, partition and random-void runs, all 8 schemes.

Each digest is one sha256 over the concatenated ``trace_to_jsonl`` output
of a group of runs under one scheme; a run that raises a package error
contributes its exception class instead.  The event-free chains are pinned
by the benchmark (``benchmarks/expected.json``); these groups pin the event
layer, the partition outcomes and the subset schedules.

After an intended trace change, regenerate the data file with

    PYTHONPATH=src python tests/test_trace_digests.py

and record the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from linkrev import LinkrevError, Scenario, Schedule, SimEvent, run_scenario, trace_to_jsonl
from linkrev.generate import random_partition_scenario, random_void_scenario
from linkrev.schemes import ALL_SCHEMES, SchemeId
from linkrev.traceio import orientation_digests
from oracles import rerun_digests

DATA = Path(__file__).with_name("trace_digests.json")


def _sleep_sweeps():
    """Chains D-n, i-(i+1) with heights 1..n; one node sleeps 1-11 steps from step 1 or 2."""
    for n in (5, 8):
        edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
        for at in (1, 2):
            for node in range(1, n + 1):
                for duration in range(1, 12):
                    event = SimEvent(at_step=at, kind="sleep", node=node, duration=duration)
                    scenario = Scenario.create(n, edges, heights=range(1, n + 1), events=[event])
                    yield scenario, Schedule.single_random(1)


def _partitions():
    for k in range(10):
        scenario = random_partition_scenario(10, k)
        yield scenario, Schedule.single_random(scenario.seed or 0)


def _voids(schedule):
    for k in range(50):
        yield random_void_scenario(4 + k % 9, k), schedule(k)


GROUPS = {
    "sleep-sweeps": _sleep_sweeps,
    "partitions": _partitions,
    "voids-single": lambda: _voids(Schedule.single_random),
    "voids-subset": lambda: _voids(Schedule.subset_random),
}


@cache
def runs(group: str) -> tuple:
    return tuple(GROUPS[group]())


def group_digest(group: str, scheme) -> str:
    digest = hashlib.sha256()
    for scenario, schedule in runs(group):
        try:
            text = trace_to_jsonl(run_scenario(scenario, scheme, schedule))
        except LinkrevError as exc:
            text = f"raised {type(exc).__name__}\n"
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def key(group: str, scheme) -> str:
    return f"{group}/{scheme.value}"


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
@pytest.mark.parametrize("group", list(GROUPS))
def test_traces_match_the_recorded_digests(group, scheme):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    assert group_digest(group, scheme) == expected[key(group, scheme)]


# --- step lines against json.dumps --------------------------------------------


def _chains(n: int = 12):
    """Monotone and zigzag chains D-n, i-(i+1) under subset schedules.

    On the zigzag chain every scheme updates some node 2..9 in one step
    with a node whose key sorts below it as a string, such as 2 and 10.
    """
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    for heights in (range(1, n + 1), [i % 2 + 1 for i in range(1, n + 1)]):
        scenario = Scenario.create(n, edges, heights=heights)
        for seed in range(3):
            yield scenario, Schedule.subset_random(seed)


def _dumped_step(rec, digest: str) -> str:
    record = {
        "type": "step",
        "index": rec.index,
        "stuck": list(rec.stuck),
        "updated": list(rec.updated),
        "states": {str(s.node): dict(zip(s._fields[1:], s[1:])) for s in rec.new_states},
        "dag": digest,
        "reversed": [list(e) for e in rec.reversed_edges],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _keys_out_of_int_order(rec) -> bool:
    keys = [str(i) for i in rec.updated]
    return keys != sorted(keys)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_step_lines_equal_json_dumps_of_the_record(scheme):
    corpus = [run for group in GROUPS for run in runs(group)] + list(_chains())
    lines = empty_reversed = string_order = negative = 0
    for scenario, schedule in corpus:
        try:
            trace = run_scenario(scenario, scheme, schedule)
        except LinkrevError:
            continue
        text = trace_to_jsonl(trace)
        *steps, totals = text.splitlines()
        assert len(steps) == len(trace.steps)
        *digests, final = rerun_digests(trace)
        for line, rec, digest in zip(steps, trace.steps, digests):
            assert line == _dumped_step(rec, digest)
            lines += 1
            empty_reversed += not rec.reversed_edges
            string_order += _keys_out_of_int_order(rec)
            negative += any(getattr(s, "height", 0) < 0 for s in rec.new_states)
        totals = json.loads(totals)
        assert totals["type"] == "totals" and totals["final_dag"] == final
    # the corpus reaches the cases a hand-written formatter could get wrong
    assert lines > 0 and empty_reversed > 0 and string_order > 0
    if scheme is SchemeId.GB_PARTIAL:
        assert negative > 0


# --- derived orientation digests -----------------------------------------------


def _removal_scripts():
    """Random voids that lose a node or a link at step 1 or 2, some with a sleep as well."""
    for k in range(30):
        scenario = random_void_scenario(5 + k % 6, k)
        node = 1 + k % scenario.n
        edge = scenario.edges[k % len(scenario.edges)]
        if k % 3 == 0:
            events = [SimEvent(at_step=1 + k % 2, kind="remove-node", node=node)]
        elif k % 3 == 1:
            events = [SimEvent(at_step=1 + k % 2, kind="remove-link", edge=edge)]
        else:
            events = [
                SimEvent(at_step=1, kind="sleep", node=node, duration=2 + k % 4),
                SimEvent(at_step=2, kind="remove-link", edge=edge),
            ]
        scenario = Scenario.create(
            scenario.n, scenario.edges, heights=scenario.heights.values, events=events,
        )
        yield scenario, Schedule.subset_random(k)


def _late_wakes():
    """Node 1, a sink below node 2, sleeps from step 1; the rest is oriented at once.

    The run converges with the wake still queued, jumps to it, and node 1
    comes back stuck, so steps follow the wake.  Node 4 hangs a void off
    node 3 in the second shape, so steps come before the wake as well.
    """
    for edges, heights in (
        ([(0, 3), (2, 3), (1, 2)], (1, 3, 2)),
        ([(0, 3), (2, 3), (1, 2), (3, 4)], (1, 3, 2, 1)),
    ):
        for duration in range(2, 6):
            event = SimEvent(at_step=1, kind="sleep", node=1, duration=duration)
            scenario = Scenario.create(len(heights), edges, heights=heights, events=[event])
            yield scenario, Schedule.single_random(0)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_every_derived_digest_is_a_rerun_orientations(scheme):
    """orientation_digests, from the trace alone, against a fresh rerun's orientations.

    Over the event-free voids, the sleep sweeps (with wakes that fire after
    the run converged, both before more steps and at the end), the
    partitions and scripts that remove nodes and links.
    """
    corpus = [
        *(run for group in GROUPS for run in runs(group)), *_removal_scripts(), *_late_wakes(),
    ]
    kinds = set()
    woke_early = woke_at_the_end = 0
    for scenario, schedule in corpus:
        try:
            trace = run_scenario(scenario, scheme, schedule)
        except LinkrevError:
            continue
        assert list(orientation_digests(trace)) == rerun_digests(trace)
        kinds.update(ev.kind for _, ev in trace.event_log)
        for made, ev in trace.event_log:
            # A wake applied before the step its own index names: the run had converged.
            if ev.kind == "wake" and ev.at_step > made + 1:
                woke_early += made < len(trace.steps)
                woke_at_the_end += made == len(trace.steps)
    assert kinds == {"sleep", "wake", "remove-node", "remove-link"}
    assert woke_early > 0 and woke_at_the_end > 0


if __name__ == "__main__":
    table = {key(g, s): group_digest(g, s) for g in GROUPS for s in ALL_SCHEMES}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DATA}")

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
from linkrev.model import ALL_SCHEMES

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


if __name__ == "__main__":
    table = {key(g, s): group_digest(g, s) for g in GROUPS for s in ALL_SCHEMES}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DATA}")

"""Golden digests of the Graphviz frame export, all 8 schemes.

Each digest is one sha256 over the concatenated ``trace_to_dot_frames``
output of a group of runs under one scheme; a run that raises a package
error contributes its exception class instead.  The groups cover an
event-free chain, sleep events (frames of the awake graph) and partition
runs that end on the step budget.

After an intended change of the frames, regenerate the data file with

    PYTHONPATH=src python tests/test_dot_frame_digests.py

and record the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from linkrev import LinkrevError, Scenario, Schedule, SimEvent, run_scenario, trace_to_dot_frames
from linkrev.generate import random_partition_scenario
from linkrev.schemes import ALL_SCHEMES

DATA = Path(__file__).with_name("dot_frame_digests.json")


def _chain():
    """Deep-void chain D-5, i-(i+1) with heights 1..5."""
    edges = [(0, 5)] + [(i, i + 1) for i in range(1, 5)]
    yield Scenario.create(5, edges, heights=range(1, 6)), Schedule.single_random(0)


def _sleep_sweep():
    """The same chain; one node sleeps 1-11 steps from step 1 or 2."""
    edges = [(0, 5)] + [(i, i + 1) for i in range(1, 5)]
    for at in (1, 2):
        for node in range(1, 6):
            for duration in range(1, 12):
                event = SimEvent(at_step=at, kind="sleep", node=node, duration=duration)
                scenario = Scenario.create(5, edges, heights=range(1, 6), events=[event])
                yield scenario, Schedule.single_random(1)


def _partitions():
    for k in range(3):
        scenario = random_partition_scenario(10, k)
        yield scenario, Schedule.single_random(scenario.seed or 0)


GROUPS = {
    "chain-5": _chain,
    "sleep-sweep-5": _sleep_sweep,
    "partitions": _partitions,
}


@cache
def runs(group: str) -> tuple:
    return tuple(GROUPS[group]())


def group_digest(group: str, scheme) -> str:
    digest = hashlib.sha256()
    for scenario, schedule in runs(group):
        try:
            text = trace_to_dot_frames(run_scenario(scenario, scheme, schedule))
        except LinkrevError as exc:
            text = f"raised {type(exc).__name__}\n"
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def key(group: str, scheme) -> str:
    return f"{group}/{scheme.value}"


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
@pytest.mark.parametrize("group", list(GROUPS))
def test_dot_frames_match_the_recorded_digests(group, scheme):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    assert group_digest(group, scheme) == expected[key(group, scheme)]


if __name__ == "__main__":
    table = {key(g, s): group_digest(g, s) for g in GROUPS for s in ALL_SCHEMES}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DATA}")

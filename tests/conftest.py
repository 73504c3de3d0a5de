"""Shared fixtures: small scenarios with hand-checked behavior.

chain       D-1 1-3 2-3, heights 1 2 3: node 2 is the single stuck node.
reversed_pair  D-1 1-2 2-3, heights 2 1 1: node 3 starts with its only link
            already reversed toward it, the case that forces the counted
            partial schemes into a silent update followed by a full one.
star        D-1 1-2 1-3, heights 2 1 1: two stuck leaves at once.

generated_corpus is the verify-random corpus, random_void_scenario(4 + k % 9,
k) for k < 216, followed by the 664 void scenarios at n=4, built once.
n5_stride is every N5_STRIDE-th of the 25,680 void scenarios at n=5, from the
first, built once.
"""

from __future__ import annotations

from itertools import islice

import pytest

from linkrev import Scenario, Schedule, SchemeId, SimEvent, run_scenario
from linkrev.generate import exhaustive_void_scenarios, random_void_scenario


@pytest.fixture(scope="session")
def generated_corpus() -> tuple[Scenario, ...]:
    corpus = [random_void_scenario(4 + k % 9, k) for k in range(216)]
    return tuple(corpus + list(exhaustive_void_scenarios(4)))


#: Stride of the n=5 void scenarios that n5_stride keeps: 1,605 of 25,680.
N5_STRIDE = 16


@pytest.fixture(scope="session")
def n5_stride() -> tuple[Scenario, ...]:
    return tuple(islice(exhaustive_void_scenarios(5), 0, None, N5_STRIDE))


@pytest.fixture
def chain() -> Scenario:
    return Scenario.create(3, [(0, 1), (1, 3), (2, 3)], heights=(1, 2, 3))


@pytest.fixture
def reversed_pair() -> Scenario:
    return Scenario.create(3, [(0, 1), (1, 2), (2, 3)], heights=(2, 1, 1))


@pytest.fixture
def star() -> Scenario:
    return Scenario.create(3, [(0, 1), (1, 2), (1, 3)], heights=(2, 1, 1))


@pytest.fixture
def diamond_cut() -> Scenario:
    """Losing link D-1 mid-run strands node 1; it recovers through node 3."""
    return Scenario.create(
        3,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        heights=(1, 1, 2),
        events=[SimEvent(at_step=1, kind="remove-link", edge=(0, 1))],
    )


@pytest.fixture
def sleepy_chain() -> Scenario:
    """Node 2 sleeps through two updates of node 3, drifting phases two apart."""
    return Scenario.create(
        3,
        [(0, 1), (1, 2), (2, 3)],
        heights=(1, 2, 1),
        events=[SimEvent(at_step=1, kind="sleep", node=2, duration=2)],
    )


@pytest.fixture
def stranded_chain() -> Scenario:
    """D-5 and i-(i+1), heights 1..5: node 2 sleeps at step 1, leaving node 1 no awake neighbor.

    Nodes 1 and 3 are then stuck, and node 3 can still read node 4.
    """
    return Scenario.create(
        5,
        [(0, 5)] + [(i, i + 1) for i in range(1, 5)],
        heights=range(1, 6),
        events=[SimEvent(at_step=1, kind="sleep", node=2, duration=3)],
    )


@pytest.fixture
def run_single():
    """Run a scenario under the default single-node random schedule."""

    def _run(scenario: Scenario, scheme: SchemeId, seed: int = 0, **kwargs):
        return run_scenario(scenario, scheme, Schedule.single_random(seed), **kwargs)

    return _run

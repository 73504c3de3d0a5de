"""The benchmark's counters stay attached to the program they measure.

benchmarks/bench.py wraps functions of the package by name and counts the
algorithm's work through Simulation.step.  A rename or a step taken around
that method would silently read as zero work, so these checks pin both
without importing the benchmark.  The few targets named in DELETED wrap
functions the package no longer has, which only tests called; the
benchmark lists them as absent and reads them as zero until its target
list drops them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from linkrev import Outcome, Scenario, Schedule, SchemeId, SimEvent, Simulation, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"

#: Benchmark targets whose functions were deleted from the package.
DELETED = {
    ("model", "link_points_from"),
    ("model", "orientation_flips"),
    ("model", "stuck_set"),
    ("schemes", "apply_update"),
    ("sim", "hello_round"),
}


def _targets() -> list[tuple[str, str]]:
    """(module, name) of every Target("<module>", "<name>", ...) in the benchmark."""
    found = []
    for node in ast.walk(ast.parse(BENCH.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            module, name = (ast.literal_eval(arg) for arg in node.args[:2])
            found.append((module, name))
    return found


def test_every_benchmark_target_is_a_callable_of_the_package():
    targets = _targets()
    assert ("sim", "Simulation.step") in targets
    assert DELETED <= set(targets)
    for module, name in DELETED:
        assert not hasattr(importlib.import_module(f"linkrev.{module}"), name)
    for module, name in targets:
        if (module, name) in DELETED:
            continue
        owner = importlib.import_module(f"linkrev.{module}")
        for part in name.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"linkrev.{module}.{name} does not exist"
        assert callable(owner), f"linkrev.{module}.{name} is not callable"


@pytest.mark.parametrize(
    "events",
    [(), (SimEvent(at_step=3, kind="sleep", node=6, duration=4),)],
    ids=["plain", "sleep"],
)
def test_every_recorded_step_goes_through_simulation_step(monkeypatch, events):
    calls = []
    real = Simulation.step

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Simulation, "step", counting)
    n = 12
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    scenario = Scenario.create(n, edges, heights=range(1, n + 1), events=events)
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.CONVERGED
    assert len(trace.events_applied) == 2 * len(events)
    assert len(trace.steps) > 1
    assert len(calls) == len(trace.steps)

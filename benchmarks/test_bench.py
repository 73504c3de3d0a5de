"""Smoke test of the benchmark: every workload once at tiny size.

    python3 -m pytest benchmarks/test_bench.py -q

Checks that each run is correct and emits exactly the metrics that
BENCHMARK.json declares, with their units, and that the outside-in
tracing counts each call once.
"""

from __future__ import annotations

import json
import sys

import pytest

import bench
import workloads
from tracer import Tracer

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(bench.SRC))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_lists_the_workloads():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert CONTRACT["command"] == ["python3", "benchmarks/bench.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "per-layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name: str, trace: bool):
    result = bench.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if not workloads.WORKLOADS[name].known_failures:
        assert result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_events_counts_the_known_crashes():
    result = bench.measure("events", seed=3, seconds=0, trace=False, tiny=True)
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1


def test_outside_in_counting_counts_each_call_once():
    """Chain-50 `no-full`: 1,225 steps, 2,401 reversals, two stuck-node probes a step."""
    lib = bench.import_library()
    scenario = workloads.chain_scenario(lib, 50, "monotone")
    scheme = lib.SchemeId("no-full")
    with Tracer(bench.LAYER_TARGETS) as tracer:
        trace = lib.run_scenario(scenario, scheme, workloads.schedule_for(lib, scenario))
    values = bench.layer_metrics(tracer, 1.0, 1.0, 1.0)
    assert values["sim.steps"] == len(trace.steps) == 1225
    assert values["sim.reversals"] == trace.total_reversals == 2401
    assert values["sim.stuck_nodes_per_step"] == pytest.approx(2.0, abs=0.01)
    # Counted once through whichever module namespace made the call.
    assert 355_000 <= values["model.link_points_from_calls"] <= 365_000
    assert tracer.absent == []
    # The wrappers are gone afterwards.
    assert lib.sim.Simulation.step.__qualname__ == "Simulation.step"
    assert lib.model.link_points_from.__name__ == "link_points_from"

"""Golden digests of the standard battery's report lines over the 7 core schemes.

Each digest is one sha256 over ``"\\n".join(r.line() for r in reports)`` of
one scenario's ``standard_battery`` at one battery seed, so it pins the
content and the order of every report.  The scenarios are
``random_void_scenario(4 + k % 9, k)`` for k < 60 and the diamond that
loses its link D-1 at step 1, at battery seeds 0 and 3.

After an intended report change, regenerate the data file with

    PYTHONPATH=src python tests/test_battery_digests.py

and record the change in CHANGES.md.

Over the same corpus, every per-trace report of a battery must equal the
report its check makes afresh on a rerun of that report's own schedule,
whether the battery judged the trace or reused the verdicts of the
scheme's other checked run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from linkrev import Scenario, Schedule, parse_scenario, run_scenario, standard_battery
from linkrev.generate import random_void_scenario
from linkrev.schemes import CORE_SCHEMES
from linkrev.verify import _judge_run

DATA = Path(__file__).with_name("battery_digests.json")
SEEDS = (0, 3)


#: The command line tests' diamond scenario, which loses its link D-1 at step 1.
DIAMOND_CUT = """\
scenario v1
name cli-diamond-cut
nodes 3
edges D-1 D-2 1-3 2-3
heights 1 1 2
event 1 remove-link D-1
"""


def scenarios() -> dict[str, Scenario]:
    table = {f"void-{k}": random_void_scenario(4 + k % 9, k) for k in range(60)}
    table["diamond-cut"] = parse_scenario(DIAMOND_CUT)
    return table


def battery_digests(seed: int) -> dict[str, str]:
    return {
        f"seed-{seed}/{name}": hashlib.sha256(
            "\n".join(r.line() for r in standard_battery(scenario, seed=seed)).encode("utf-8")
        ).hexdigest()
        for name, scenario in scenarios().items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_battery_reports_match_the_recorded_digests(seed):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    found = battery_digests(seed)
    assert found.keys() <= expected.keys()
    changed = sorted(k for k, digest in found.items() if expected[k] != digest)
    assert not changed, f"{len(changed)} batteries changed, first {changed[0]}"
    assert len(found) == 61


#: The checks that standard_battery makes on each of a scheme's two checked runs.
PER_TRACE_CHECKS = ("termination", "step-invariants", "reversal-semantics", "initial-greedy-stability")


@pytest.mark.parametrize("seed", SEEDS)
def test_reused_verdicts_equal_fresh_ones(seed):
    checked = (Schedule.single_random(seed), Schedule.subset_random(seed + 1))
    same = differ = 0
    for name, scenario in scenarios().items():
        found = [r for r in standard_battery(scenario, seed=seed) if r.check in PER_TRACE_CHECKS]
        fresh = []
        for scheme in CORE_SCHEMES:
            first, second = (run_scenario(scenario, scheme, schedule) for schedule in checked)
            fresh += _judge_run(first) + _judge_run(second)
            if first._replace(schedule=second.schedule) == second:
                same += 1
            else:
                differ += 1
        assert found == fresh, name
    # Both paths are taken: 378 and 413 reused, 49 and 14 judged again.
    assert (same, differ) == {0: (378, 49), 3: (413, 14)}[seed]


if __name__ == "__main__":
    table = {k: v for seed in SEEDS for k, v in battery_digests(seed).items()}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DATA}")

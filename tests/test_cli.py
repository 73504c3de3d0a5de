"""Command line interface: output shapes and exit codes."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linkrev
from linkrev import cli
from linkrev.cli import EXIT_INPUT, EXIT_OK, EXIT_PARTITIONED, EXIT_PROPERTY, main
from linkrev.generate import random_void_scenario
from linkrev.schemes import CORE_SCHEMES
from linkrev.verify import standard_battery

CHAIN = """\
scenario v1
name cli-chain
nodes 3
edges D-1 1-3 2-3
heights 1 2 3
"""

REVERSED_PAIR = """\
scenario v1
name cli-pair
nodes 3
edges D-1 1-2 2-3
heights 2 1 1
"""

SLEEPY = """\
scenario v1
name cli-sleepy
nodes 3
edges D-1 1-2 2-3
heights 1 2 1
event 1 sleep 2 2
"""

DIAMOND_CUT = """\
scenario v1
name cli-diamond-cut
nodes 3
edges D-1 D-2 1-3 2-3
heights 1 1 2
event 1 remove-link D-1
"""

PARTITION = """\
scenario v1
name cli-partition
nodes 2
edges D-1 1-2
event 1 remove-link D-1
"""

#: Node 2 sleeps from step 1 to step 5, which cuts the chain D-4-3-2-1 in
#: two while its wake is queued.
SLEEP_CUT = """\
scenario v1
name cli-sleep-cut
nodes 4
edges D-4 1-2 2-3 3-4
heights 1 2 3 4
event 1 sleep 2 4
seed 1
"""

DEEP_CHAIN = """\
scenario v1
name cli-deep-chain
nodes 4
edges D-4 1-2 2-3 3-4
heights 1 2 3 4
"""


@pytest.fixture
def scenario_file(tmp_path):
    def _write(text: str, name: str = "case.scn"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


# --- run ----------------------------------------------------------------------


def test_run_prints_outcome_and_counts(scenario_file, capsys):
    code = main(["run", scenario_file(CHAIN), "--scheme", "no-full"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "converged steps=1 updates=1 reversals=1" in out
    assert "updates by node: 1=0 2=1 3=0" in out


def test_run_writes_a_trace_file(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    code = main([
        "run", scenario_file(CHAIN), "--scheme", "gb-full",
        "--trace-out", str(trace_path), "--format", "jsonl",
    ])
    assert code == EXIT_OK
    assert trace_path.exists()
    assert '"type":"totals"' in trace_path.read_text(encoding="utf-8")
    assert "trace written" in capsys.readouterr().out


def test_run_writes_dot_frames_of_the_awake_graph(scenario_file, tmp_path, capsys):
    frames_path = tmp_path / "out.dot"
    code = main([
        "run", scenario_file(SLEEPY), "--scheme", "no-full",
        "--trace-out", str(frames_path), "--format", "dot-frames",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "converged steps=2" in out
    frames = frames_path.read_text(encoding="utf-8").split("\n\n")
    assert len(frames) == 3
    assert '"2" -> "3";' in frames[0]
    # node 3 updates twice while node 2 sleeps: the frames leave out node 2's links
    for frame in frames[1:]:
        assert "updated 3" in frame and '"2"' not in frame


def test_run_partition_exit_code(scenario_file, capsys):
    code = main(["run", scenario_file(PARTITION), "--scheme", "no-full"])
    out = capsys.readouterr().out
    assert code == EXIT_PARTITIONED
    assert "partitioned" in out
    assert "partition certificate:" in out
    assert "events applied: step 1: remove-link D-1" in out


def test_run_step_limit_exit_code(scenario_file, capsys):
    code = main(["run", scenario_file(CHAIN), "--scheme", "no-full", "--step-limit", "0"])
    assert code == EXIT_PROPERTY
    assert "step-limit" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["no-full", "two-bit-full"])
def test_a_budget_spent_while_a_wake_is_queued_is_no_partition(scenario_file, capsys, scheme):
    path = scenario_file(SLEEP_CUT)
    code = main(["run", path, "--scheme", scheme, "--step-limit", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    assert out.startswith("step-limit steps=1 ")
    assert "partition certificate" not in out
    # the same run converges once node 2 wakes
    code = main(["run", path, "--scheme", scheme])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "step 5: wake 2" in out
    if scheme == "no-full":
        assert out.startswith("converged steps=6 ")


def test_run_fixed_schedule(scenario_file, capsys):
    code = main(["run", scenario_file(CHAIN), "--scheme", "no-full", "--schedule", "fixed:2"])
    assert code == EXIT_OK
    assert "converged" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv_patch",
    [
        ["--scheme", "warp-speed"],
        ["--scheme", "no-full", "--schedule", "sometimes"],
        ["--scheme", "no-full", "--schedule", "fixed:x"],
        ["--scheme", "no-full", "--schedule", "fixed:2,2"],
        ["--scheme", "no-full", "--schedule", "fixed:9"],
        ["--scheme", "no-full", "--schedule", "fixed:0"],
    ],
)
def test_run_bad_arguments_exit_with_input_error(scenario_file, capsys, argv_patch):
    code = main(["run", scenario_file(CHAIN), *argv_patch])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_a_fixed_step_outside_the_nodes_is_refused_before_any_run(scenario_file, capsys):
    path = scenario_file(CHAIN)
    assert main(["compare", path, "--schemes", "no-full,gb-full", "--schedule", "fixed:2;-1"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: fixed schedule step 2 names [-1], which are not nodes 1..3 of the scenario\n"
    # node 1 is a node of the chain but not stuck at step 1: a property of the run
    assert main(["run", path, "--scheme", "no-full", "--schedule", "fixed:1"]) == EXIT_PROPERTY
    assert "not stuck" in capsys.readouterr().err


def test_a_node_id_int_cannot_read_is_an_input_error(scenario_file, capsys):
    path = scenario_file("scenario v1\nnodes 3\nedges D-1 1-2 2-²\n")
    assert main(["run", path, "--scheme", "no-full"]) == EXIT_INPUT
    assert "expected a node id, got '²'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "directive, message",
    [
        ("heights 1_0 +2", "height must be an integer, got '1_0'"),
        ("seed ٣", "seed must be an integer, got '٣'"),
        ("event ١ sleep 2 1", "event step must be an integer, got '١'"),
    ],
)
def test_a_number_in_another_spelling_is_an_input_error(scenario_file, capsys, directive, message):
    path = scenario_file(f"scenario v1\nnodes 2\nedges D-1 1-2\n{directive}\n")
    assert main(["run", path, "--scheme", "no-full"]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_run_past_64_bits_is_an_input_error(scenario_file, capsys):
    # a zigzag chain: edges D-80 and i-(i+1), heights 1,2,1,2,...
    edges = " ".join(["D-80"] + [f"{i}-{i + 1}" for i in range(1, 80)])
    heights = " ".join("1" if i % 2 else "2" for i in range(1, 81))
    path = scenario_file(f"scenario v1\nnodes 80\nedges {edges}\nheights {heights}\n")
    assert main(["run", path, "--scheme", "one-bit-full"]) == EXIT_OK
    assert "converged" in capsys.readouterr().out
    assert main(["run", path, "--scheme", "no-partial"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: threshold ")


def test_run_rejects_an_event_script_it_cannot_apply(scenario_file, capsys):
    path = scenario_file(CHAIN + "event 1 remove-link 1-3\nevent 2 remove-link 1-3\n")
    assert main(["run", path, "--scheme", "no-full"]) == EXIT_INPUT
    assert "event 2 remove-link 1-3: the link is already gone" in capsys.readouterr().err


def test_run_missing_file_is_an_input_error(capsys):
    code = main(["run", "/nonexistent/path.scn", "--scheme", "no-full"])
    assert code == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_run_malformed_scenario_is_an_input_error(scenario_file, capsys):
    code = main(["run", scenario_file("scenario v1\nnodes 2\n"), "--scheme", "no-full"])
    assert code == EXIT_INPUT
    assert "missing edges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--random", "2", "3"], "--random 2 3: void scenarios need at least three nodes"),
        (["verify", "--exhaustive", "-1"], "--exhaustive takes a node count, got -1"),
        (["run", "CHAIN", "--scheme", "no-full", "--step-limit", "-3"],
         "--step-limit must not be negative, got -3"),
        (["compare", "CHAIN", "--schemes", "no-full,gb-full", "--step-limit", "-1"],
         "--step-limit must not be negative, got -1"),
    ],
    ids=["random-too-few-nodes", "exhaustive-negative", "run-step-limit-negative", "compare-step-limit-negative"],
)
def test_bad_numbers_are_input_errors(scenario_file, capsys, argv, message):
    code = main([scenario_file(CHAIN) if arg == "CHAIN" else arg for arg in argv])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


# --- verify --------------------------------------------------------------------


def test_verify_scenario_files(scenario_file, capsys):
    code = main(["verify", scenario_file(CHAIN)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS termination:" in out
    assert "PASS step-invariants:" in out
    assert "PASS scheme-equivalence:" in out
    assert "INFO scheme-divergence: 1 informational" in out
    assert "checked" in out and "1 scenarios" in out


def test_verify_reports_an_event_scenario_that_never_converges(scenario_file, capsys):
    # No run converges, so the battery skips the trace checks and reaches
    # the equivalence pairs, whose reference cannot anchor a replay.
    code = main(["verify", scenario_file(PARTITION)])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    assert "FAIL termination" in out
    assert "reference run ended partitioned and cannot anchor a replay" in out
    assert "checked 26 reports across 1 scenarios" in out


def test_verify_reports_skipped_checks_on_a_converged_event_run(scenario_file, capsys):
    # the step checks assume an event-free trace; the run converges after
    # losing D-1, so each of them is reported as skipped, and exit code 0
    # says that no check failed
    code = main(["verify", scenario_file(DIAMOND_CUT), "--scheme", "no-full", "--verbose"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for check in ("step-invariants", "reversal-semantics", "initial-greedy-stability"):
        assert f"INFO {check}: 2 informational" in out
        assert f"PASS {check}:" not in out
        assert (
            f"INFO {check} scheme=no-full scenario=cli-diamond-cut :: skipped: it assumes "
            "an event-free trace, and the run applied step 1: remove-link D-1"
        ) in out
    assert "PASS termination: 2/2" in out


OVERFLOWING = """\
scenario v1
name cli-overflow
nodes 2
edges D-2 1-2
heights 4611686018427387913 4611686018427387914
"""


def test_verify_reports_each_scheme_that_overflows(scenario_file, capsys):
    # no-full and no-partial leave 64 bits on their second update; the other
    # schemes converge, and verify reports every scheme instead of stopping
    path = scenario_file(OVERFLOWING)
    code = main(["verify", path])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    failed = [line for line in out.splitlines() if line.startswith("  FAIL ")]
    assert [line.split()[1:3] for line in failed] == [
        [check, f"scheme={scheme}"]
        for scheme in ("no-full", "no-partial")
        for check in ("termination", "termination", "determinism")
    ]
    assert failed[0].endswith(
        ":: run raised OverflowRiskError: height 9223372036854775827 exceeds the signed 64-bit range"
    )
    assert "FAIL termination: 10/14" in out
    assert main(["verify", path, "--scheme", "gb-full"]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", path, "--schemes", "gb-full,no-partial"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: no-partial: threshold 9223372036854775829 exceeds the signed 64-bit range\n"
    )


def test_verify_says_which_equivalence_pairs_an_overflow_skips(scenario_file, capsys):
    # The no-full and no-partial reference runs overflow, so none of the five
    # pairs they anchor can be replayed; each is reported as skipped, not dropped.
    path = scenario_file(OVERFLOWING)
    assert main(["verify", path, "--verbose"]) == EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "INFO scheme-equivalence: 4 informational" in out
    assert "INFO scheme-divergence: 1 informational" in out
    skipped = [line.split(" :: ") for line in out.splitlines() if "skipped: the reference" in line]
    assert [head.split()[:3] for head, _ in skipped] == [
        ["INFO", "scheme-equivalence", "scheme=gb-full"],
        ["INFO", "scheme-equivalence", "scheme=two-bit-full"],
        ["INFO", "scheme-equivalence", "scheme=one-bit-full"],
        ["INFO", "scheme-equivalence", "scheme=two-bit-partial"],
        ["INFO", "scheme-divergence", "scheme=gb-partial"],
    ]
    assert [detail for _, detail in skipped] == [
        f"vs {reference}: skipped: the reference run raised OverflowRiskError: {message}"
        for reference, message in [
            *[("no-full", "height 9223372036854775827 exceeds the signed 64-bit range")] * 3,
            *[("no-partial", "threshold 9223372036854775829 exceeds the signed 64-bit range")] * 2,
        ]
    ]


def test_verify_counts_only_gating_reports_as_passes(scenario_file, capsys):
    # the chain's runs are checked, the diamond's are skipped for its event
    files = [scenario_file(CHAIN, "chain.scn"), scenario_file(DIAMOND_CUT, "cut.scn")]
    code = main(["verify", *files, "--scheme", "no-full"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS step-invariants: 2/4 (2 informational)" in out
    assert "PASS termination: 4/4" in out


def test_verify_random_battery(capsys):
    code = main(["verify", "--random", "5", "2", "--scheme", "no-full", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "2 scenarios" in out


def test_verify_exhaustive_enumeration(capsys):
    code = main(["verify", "--exhaustive", "2", "--scheme", "no-partial"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS order-invariance:" in out


def test_verify_exhaustive_counts_its_scenarios(capsys):
    # 30 of the connected 3-node topologies admit a void
    code = main(["verify", "--exhaustive", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "checked 210 reports across 30 scenarios" in out


@pytest.mark.parametrize(
    "texts, flags, exit_code, digest",
    [
        ((), ["--random", "6", "4", "--verbose"], EXIT_OK,
         "e092456ab56da6bd9494806906d3223bbf5ffb125c58498d85c9d850dd432337"),
        ((), ["--exhaustive", "3"], EXIT_OK,
         "5778c8aae66029ac84ac53be9d2379f229af1206dedd5e4ac1807805aacb672b"),
        ((PARTITION, DIAMOND_CUT), ["--verbose"], EXIT_PROPERTY,
         "56275745382cd5c31f6314521ef28949d5ba5e0cf144163ea7b9e84e9af5d9d3"),
    ],
    ids=["random-verbose", "exhaustive", "failing-verbose"],
)
def test_verify_stdout_is_pinned(scenario_file, capsys, texts, flags, exit_code, digest):
    # sha256 of the whole summary: counts, failing reports with their
    # counterexamples, informational details and the closing line
    files = [scenario_file(text, f"case{k}.scn") for k, text in enumerate(texts)]
    code = main(["verify", *files, *flags])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_checks_each_random_scenario_before_making_the_next(monkeypatch, capsys):
    calls = []

    def made(n, seed):
        calls.append(("made", seed))
        return random_void_scenario(n, seed)

    def checked(scenario, schemes, seed=0):
        calls.append(("checked", scenario.seed))
        return standard_battery(scenario, schemes, seed=seed)

    monkeypatch.setattr(cli, "random_void_scenario", made)
    monkeypatch.setattr(cli, "standard_battery", checked)
    code = main(["verify", "--random", "5", "3", "--scheme", "no-full", "--seed", "3"])
    assert code == EXIT_OK
    assert calls == [("made", 3), ("checked", 3), ("made", 4), ("checked", 4), ("made", 5), ("checked", 5)]
    assert "checked 27 reports across 3 scenarios" in capsys.readouterr().out


def test_verify_rejects_a_random_size_before_any_battery(scenario_file, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a battery ran before the input error")

    monkeypatch.setattr(cli, "standard_battery", never)
    code = main(["verify", scenario_file(CHAIN), "--random", "2", "3"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --random 2 3: void scenarios need at least three nodes\n"


def test_verify_summary_keeps_only_the_reports_it_prints():
    scenario = random_void_scenario(5, 3)
    reports = standard_battery(scenario, CORE_SCHEMES)
    passing = [r for r in reports if r.passed and not r.informational]
    notes = [r for r in reports if r.informational and r.detail]
    failing = [reports[0]._replace(passed=False, detail="forged")]
    assert passing and notes
    for verbose, kept_notes in ((False, []), (True, notes)):
        summary = cli._Summary(verbose)
        summary.add(reports + failing)
        assert summary.reports == len(reports) + 1
        assert summary.failed == failing
        assert summary.notes == kept_notes


def test_verify_exhaustive_reports_progress_on_stderr(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PROGRESS_EVERY", 10)
    code = main(["verify", "--exhaustive", "3", "--scheme", "no-full"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == "PASS order-invariance: 30/30\nchecked 30 reports across 30 scenarios\n"
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for done, line in zip((10, 20, 30), lines):
        assert re.fullmatch(rf"exhaustive n=3: {done} scenarios, {done} reports, \d+\.\d s", line), line


def test_verify_without_work_is_an_input_error(capsys):
    code = main(["verify"])
    assert code == EXIT_INPUT
    assert "nothing to verify" in capsys.readouterr().err


# --- compare -------------------------------------------------------------------


def test_compare_table_and_lockstep(scenario_file, capsys):
    code = main([
        "compare", scenario_file(CHAIN),
        "--schemes", "no-full,gb-full,two-bit-full,baseline-increment",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "scheme" in out and "max-bits" in out
    for name in ("no-full", "gb-full", "two-bit-full", "baseline-increment"):
        assert name in out
    assert "no-full vs gb-full: identical runs (expected lockstep)" in out
    assert "no-full vs two-bit-full: identical runs (expected lockstep)" in out


def test_compare_shows_the_partial_divergence(scenario_file, capsys):
    code = main([
        "compare", scenario_file(REVERSED_PAIR),
        "--schemes", "no-partial,gb-partial",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "no-partial vs gb-partial: diverge (informational" in out
    # orientations differ from the silent first half onward
    assert "vs no-partial: step 2: orientations diverge" in out


HIGH_NEIGHBOR = """\
scenario v1
name cli-high-neighbor
nodes 3
edges D-2 D-3 1-2
heights 1 2 60
"""


def test_compare_max_bits_counts_states_a_node_never_updated(scenario_file, capsys):
    # Only node 1 updates, to gb-full height 3 (2 bits), while node 3 holds
    # its initial height 60 (6 bits) all run long.
    code = main(["compare", scenario_file(HIGH_NEIGHBOR), "--schemes", "gb-full,no-full,two-bit-full"])
    assert code == EXIT_OK
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:5]}
    assert {name: row[5] for name, row in rows.items()} == {
        "gb-full": "6", "no-full": "7", "two-bit-full": "2",
    }
    assert all(row[2] == "1" for row in rows.values())


def test_compare_exits_3_when_a_scheme_certifies_a_partition(scenario_file, capsys):
    code = main(["compare", scenario_file(PARTITION), "--schemes", "no-full,gb-full"])
    rows = capsys.readouterr().out.splitlines()[2:4]
    assert code == EXIT_PARTITIONED
    assert [row.split()[:2] for row in rows] == [["no-full", "partitioned"], ["gb-full", "partitioned"]]


def test_compare_keeps_exit_3_when_a_partition_breaks_a_gated_pair(scenario_file, capsys):
    code = main(["compare", scenario_file(PARTITION), "--schemes", "no-full,one-bit-full"])
    out = capsys.readouterr().out
    assert code == EXIT_PARTITIONED
    assert "no-full vs one-bit-full: diverge (expected lockstep;" in out


def test_compare_exits_2_when_a_run_spends_its_step_budget(scenario_file, capsys):
    code = main(["compare", scenario_file(DEEP_CHAIN), "--schemes", "no-full,gb-full", "--step-limit", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    assert [row.split()[:3] for row in out.splitlines()[2:4]] == [
        ["no-full", "step-limit", "1"], ["gb-full", "step-limit", "1"],
    ]
    assert (
        "no-full vs gb-full: diverge (expected lockstep; "
        "reference run ended step-limit and cannot anchor a replay)"
    ) in out


def test_compare_names_the_scheme_that_needs_extra_steps(scenario_file, capsys):
    code = main(["compare", scenario_file(SLEEP_CUT), "--schemes", "no-full,one-bit-full"])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    # At step 5 the one-bit-full replay has converged while no-full's node 2 is still stuck.
    assert (
        "no-full vs one-bit-full: diverge (expected lockstep; vs no-full: step 5: stuck sets [] vs [2])"
    ) in out


def test_compare_reports_a_gated_pair_that_differs_mid_run_but_ends_alike(
    monkeypatch, scenario_file, capsys
):
    # The no-full run's second orientation is forged; its updaters and final
    # digest still match gb-full's, so only the step digests tell them apart.
    real_run = cli.run_scenario
    forged = []

    def forged_run(scenario, scheme, *args, **kwargs):
        trace = real_run(scenario, scheme, *args, **kwargs)
        if scheme.value != "no-full":
            return trace
        steps = list(trace.steps)
        steps[1] = steps[1]._replace(dag_digest="f" * len(steps[1].dag_digest))
        forged.append(steps[1].index)
        return trace._replace(steps=tuple(steps))

    monkeypatch.setattr(cli, "run_scenario", forged_run)
    code = main(["compare", scenario_file(DEEP_CHAIN), "--schemes", "no-full,gb-full"])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY
    assert (
        f"no-full vs gb-full: diverge (expected lockstep; vs no-full: step {forged[0]}: orientations diverge)"
    ) in out
    assert "identical runs" not in out


def test_compare_needs_two_schemes(scenario_file, capsys):
    code = main(["compare", scenario_file(CHAIN), "--schemes", "no-full"])
    assert code == EXIT_INPUT
    assert "at least two" in capsys.readouterr().err


def test_compare_refuses_a_scheme_named_twice(scenario_file, capsys):
    code = main(["compare", scenario_file(CHAIN), "--schemes", "no-full,gb-full,no-full"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "names a scheme twice" in captured.err
    assert captured.out == ""


# --- python -m linkrev ----------------------------------------------------------


def test_python_dash_m_runs_the_command_line():
    src = str(Path(linkrev.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "linkrev", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("usage: linkrev")
    for command in ("run", "verify", "compare"):
        assert command in done.stdout

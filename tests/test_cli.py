"""Command line interface: output shapes and exit codes."""

from __future__ import annotations

import pytest

from linkrev.cli import EXIT_INPUT, EXIT_OK, EXIT_PARTITIONED, EXIT_PROPERTY, main

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

PARTITION = """\
scenario v1
name cli-partition
nodes 2
edges D-1 1-2
event 1 remove-link D-1
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
    ],
)
def test_run_bad_arguments_exit_with_input_error(scenario_file, capsys, argv_patch):
    code = main(["run", scenario_file(CHAIN), *argv_patch])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_run_missing_file_is_an_input_error(capsys):
    code = main(["run", "/nonexistent/path.scn", "--scheme", "no-full"])
    assert code == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_run_malformed_scenario_is_an_input_error(scenario_file, capsys):
    code = main(["run", scenario_file("scenario v1\nnodes 2\n"), "--scheme", "no-full"])
    assert code == EXIT_INPUT
    assert "missing edges" in capsys.readouterr().err


# --- verify --------------------------------------------------------------------


def test_verify_scenario_files(scenario_file, capsys):
    code = main(["verify", scenario_file(CHAIN)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS termination:" in out
    assert "PASS step-invariants:" in out
    assert "PASS scheme-equivalence:" in out
    assert "informational" in out
    assert "checked" in out and "1 scenarios" in out


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
    assert "first at step 2" in out


def test_compare_needs_two_schemes(scenario_file, capsys):
    code = main(["compare", scenario_file(CHAIN), "--schemes", "no-full"])
    assert code == EXIT_PROPERTY
    assert "at least two" in capsys.readouterr().err

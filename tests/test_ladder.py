"""tools/ladder.py on small chains."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from linkrev import SchemeId

# tools/ is not a package: load the script as a module of its own name.
_PATH = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"
_spec = importlib.util.spec_from_file_location("ladder", _PATH)
ladder = sys.modules["ladder"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


@pytest.mark.parametrize("n", [4, 6])
def test_a_monotone_chain_takes_n_choose_2_full_reversal_steps(n):
    row = ladder.measure(SchemeId.NO_FULL, "monotone", n)
    assert (row.n, row.steps) == (n, n * (n - 1) // 2)
    assert row.check_passed
    assert row.run_s > 0 and row.check_s > 0
    assert row.peak_bytes > 0 and row.jsonl_bytes > 0 and row.jsonl_s > 0


def test_the_zigzag_chain_alternates_its_heights():
    assert ladder.chain(5, "zigzag").heights.values == (1, 2, 1, 2, 1)
    assert ladder.chain(5, "monotone").heights.values == (1, 2, 3, 4, 5)
    assert ladder.chain(5, "zigzag").edges == ((0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


def test_the_command_prints_one_row_per_size(capsys):
    assert ladder.main(["--scheme", "no-full", "--shape", "monotone", "--sizes", "4,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "no-full, monotone chain, single_random(0)"
    assert lines[1:3] == ladder.HEADER.splitlines()
    assert [line.split(" | ")[:2] for line in lines[3:]] == [["| 4", "6"], ["| 6", "15"]]


def test_a_size_that_overflows_prints_the_error_instead_of_a_row(capsys):
    # no-partial's doubling threshold leaves 64 bits on the 80-node zigzag chain.
    assert ladder.main(["--scheme", "no-partial", "--shape", "zigzag", "--sizes", "6,80"]) == 0
    *_, small, big = capsys.readouterr().out.splitlines()
    assert small.startswith("| 6 | ")
    assert big.startswith("| 80 | OverflowRiskError: threshold ")


def test_against_alternates_with_a_checkout_and_prints_the_ratio(capsys):
    checkout = _PATH.parents[1]
    assert ladder.main(["--scheme", "no-full", "--sizes", "4,6", "--against", str(checkout)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "no-full, monotone chain, single_random(0)"
    assert lines[1:3] == ladder.AGAINST_HEADER.splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[3:]]
    assert [row[:3] for row in cells] == [
        ["this", "4", "6"], ["against", "4", "6"], ["this/against", "4", ""],
        ["this", "6", "15"], ["against", "6", "15"], ["this/against", "6", ""],
    ]
    # Each row ends in the export's time, after the columns an older ladder
    # prints; the ratio row has one more, the run plus its export.
    assert [len(row) for row in cells] == [9, 9, 10] * 2 and cells[0][8].endswith(" s")
    for this, other, ratio in (cells[0:3], cells[3:6]):
        assert this[5:7] == other[5:7]  # the same code: traced peak and JSONL bytes
        assert float(ratio[4]) == pytest.approx(float(this[4]) / float(other[4]), abs=2e-3)
        seconds = [[float(side[k].split()[0]) for k in (3, 7, 8)] for side in (this, other)]
        (run, check, jsonl), (their_run, their_check, their_jsonl) = seconds
        if their_check:
            assert float(ratio[7]) == pytest.approx(check / their_check, abs=2e-3)
        if their_run + their_jsonl:
            assert float(ratio[9]) == pytest.approx((run + jsonl) / (their_run + their_jsonl), abs=2e-3)


def test_against_refuses_a_path_with_no_ladder(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        ladder.main(["--scheme", "no-full", "--sizes", "4", "--against", str(tmp_path)])
    assert info.value.code == 2
    assert "no tools/ladder.py under" in capsys.readouterr().err


def test_against_keeps_each_sides_fastest_of_alternating_runs(monkeypatch, capsys, tmp_path):
    # Canned rows: a side's runs of a size read 30, 10 and 20 µs per step, doubled for this side.
    calls = []

    def canned_row(script, scheme, shape, n):
        side = "this" if script == _PATH else "against"
        calls.append((side, n))
        us = [30.0, 10.0, 20.0][calls.count((side, n)) - 1] * (2 if side == "this" else 1)
        return f"| {n} | 6 | 0.001 s | {us} | 0.0 MB | 1 KB | 0.00 s |"

    monkeypatch.setattr(ladder, "fresh_row", canned_row)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "ladder.py").write_text("")
    assert ladder.main(["--scheme", "no-full", "--sizes", "4,6", "--against", str(tmp_path)]) == 0
    # REPEATS runs of each side per size; the side that goes first alternates from run to run.
    assert ladder.REPEATS == 3
    assert [side for side, _ in calls] == ["this", "against", "against", "this"] * 3
    assert [n for _, n in calls] == [4] * 6 + [6] * 6
    lines = capsys.readouterr().out.splitlines()[3:]
    assert lines[0:3] == [
        "| this | 4 | 6 | 0.001 s | 20.0 | 0.0 MB | 1 KB | 0.00 s |",
        "| against | 4 | 6 | 0.001 s | 10.0 | 0.0 MB | 1 KB | 0.00 s |",
        "| this/against | 4 | | | 2.000 | | | | | |",
    ]


def test_the_ratio_row_gives_the_step_check_and_the_run_with_its_export(monkeypatch, capsys, tmp_path):
    # Canned rows in the current format: this side runs in half the time,
    # checks in 0.300 s against 0.400 s, and exports in 0.010 s against 0.030 s.
    def canned_row(script, scheme, shape, n):
        if script == _PATH:
            return f"| {n} | 6 | 0.040 s | 10.0 | 0.0 MB | 1 KB | 0.300 s | 0.010 s |"
        return f"| {n} | 6 | 0.080 s | 20.0 | 0.0 MB | 1 KB | 0.400 s FAIL | 0.030 s |"

    monkeypatch.setattr(ladder, "fresh_row", canned_row)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "ladder.py").write_text("")
    assert ladder.main(["--scheme", "no-full", "--sizes", "4", "--against", str(tmp_path)]) == 0
    *_, ratios = capsys.readouterr().out.splitlines()
    assert ratios == "| this/against | 4 | | | 0.500 | | | 0.750 | | 0.455 |"


def test_a_missing_or_zero_time_leaves_its_ratio_empty():
    assert ladder.ratio(1.0, 0.0) == ladder.ratio(None, 2.0) == ladder.ratio(1.0, None) == ""
    assert ladder.ratio(1.0, 4.0) == "0.250"
    assert ladder.run_and_jsonl("| 4 | 6 | 0.001 s | 20.0 | 0.0 MB | 1 KB | 0.00 s |") is None
    assert ladder.run_and_jsonl("| 4 | 6 | 0.5 s | 20.0 | 0.0 MB | 1 KB | 0.00 s | 0.25 s |") == 0.75


def test_fastest_keeps_the_least_time_per_step_and_falls_back_to_an_error_row():
    rows = ["| 4 | 6 | 0.1 s | 12.5 | x |", "| 4 | 6 | 0.1 s | 9.5 | y |", "| 4 | OverflowRiskError: z |"]
    assert ladder.fastest(rows) == rows[1]
    assert ladder.fastest(rows[2:]) == rows[2]

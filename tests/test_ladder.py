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
    assert row.peak_bytes > 0 and row.jsonl_bytes > 0


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
    for this, other, ratio in (cells[0:3], cells[3:6]):
        assert this[5:7] == other[5:7]  # the same code: traced peak and JSONL bytes
        assert float(ratio[4]) == pytest.approx(float(this[4]) / float(other[4]), abs=2e-3)


def test_against_refuses_a_path_with_no_ladder(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        ladder.main(["--scheme", "no-full", "--sizes", "4", "--against", str(tmp_path)])
    assert info.value.code == 2
    assert "no tools/ladder.py under" in capsys.readouterr().err

"""The scale ladder: one scheme on chains of growing size, one row per size.

    python3 tools/ladder.py --scheme no-full --shape monotone --sizes 50,100,200,400

For each size n the chain has the edges D-n and i-(i+1), and the heights
1..n (monotone, a deep void of n nodes) or 1,2,1,2,... (zigzag, where the
partial schemes take silent halves).  The chain runs under
Schedule.single_random(0); its trace is then written as JSONL and checked
by check_step_invariants.  A row gives the steps, the run's time and its
µs per step, the peak of a second run traced by tracemalloc, the JSONL
bytes, the step check's time (with FAIL when the check fails) and the time
trace_to_jsonl took.  A size whose run raises OverflowRiskError prints the
error instead of a row.

Times are one run each, wall clock, so they move with the machine's load.
So compare two checkouts only from alternating runs:

    python3 tools/ladder.py --scheme no-full --sizes 50,400 --against ../parent

runs each size REPEATS times in fresh interpreters with this checkout's
ladder and as often with PATH/tools/ladder.py, alternating which side goes
first from one run to the next, and keeps each side's fastest row: a short
run at small n is easily slowed by a passing spell of load.  An older
ladder at PATH prints one row a run, so both sides are chosen the same
way.  It prints both rows, each led by its side, and a row of this
checkout's ratios to the other's: of the µs per step, of the step check's
time, and of the run plus its JSONL export, which is what `linkrev run
--trace-out` costs end to end.  The last ratio has a column of its own,
after the columns a row prints; a ratio whose times a row lacks or reads
as zero is left empty.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

# Run from a checkout without installing: the package is under src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linkrev import OverflowRiskError, Scenario, Schedule, SchemeId, run_scenario  # noqa: E402
from linkrev.traceio import trace_to_jsonl  # noqa: E402
from linkrev.verify import check_step_invariants  # noqa: E402

SHAPES = ("monotone", "zigzag")
HEADER = (
    "| n | steps | run | µs/step | traced peak | JSONL | step check | JSONL s |\n"
    "|---|---|---|---|---|---|---|---|"
)
AGAINST_HEADER = (
    "| side | n | steps | run | µs/step | traced peak | JSONL | step check | JSONL s | run + JSONL |\n"
    "|---|---|---|---|---|---|---|---|---|---|"
)
#: Runs of each side per size under --against; each side's fastest row is kept.
REPEATS = 3


class Row(NamedTuple):
    """One size of the ladder."""

    n: int
    steps: int
    run_s: float
    peak_bytes: int
    jsonl_bytes: int
    check_s: float
    check_passed: bool
    jsonl_s: float

    def line(self) -> str:
        per_step = self.run_s / self.steps * 1e6 if self.steps else 0.0
        verdict = "" if self.check_passed else " FAIL"
        return (
            f"| {self.n} | {self.steps:,} | {self.run_s:.3f} s | {per_step:.1f} "
            f"| {self.peak_bytes / 1e6:.1f} MB | {self.jsonl_bytes / 1e3:,.0f} KB "
            f"| {self.check_s:.3f} s{verdict} | {self.jsonl_s:.3f} s |"
        )


def chain(n: int, shape: str) -> Scenario:
    """The chain D-n, i-(i+1) with monotone or zigzag heights."""
    heights = range(1, n + 1) if shape == "monotone" else [2 - i % 2 for i in range(1, n + 1)]
    return Scenario.create(n, [(0, n)] + [(i, i + 1) for i in range(1, n)], heights=heights)


def measure(scheme: SchemeId, shape: str, n: int) -> Row:
    """Run one size; raises OverflowRiskError when the run would leave 64 bits."""
    scenario = chain(n, shape)
    started = time.perf_counter()
    trace = run_scenario(scenario, scheme, Schedule.single_random(0))
    run_s = time.perf_counter() - started
    steps = len(trace.steps)
    started = time.perf_counter()
    text = trace_to_jsonl(trace)
    jsonl_s = time.perf_counter() - started
    jsonl_bytes = len(text.encode("utf-8"))
    del text
    started = time.perf_counter()
    report = check_step_invariants(trace)
    check_s = time.perf_counter() - started
    del trace
    # A second, cold run: its scenario has no cached start to share.
    tracemalloc.start()
    try:
        run_scenario(chain(n, shape), scheme, Schedule.single_random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Row(n, steps, run_s, peak, jsonl_bytes, check_s, report.passed, jsonl_s)


def parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected sizes like 50,100, got {text!r}") from None
    if any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"a chain needs at least one node, got {text!r}")
    return sizes


def fresh_row(script: Path, scheme: SchemeId, shape: str, n: int) -> str:
    """The row of one size, as the ladder at script prints it in a fresh interpreter."""
    command = [sys.executable, str(script), "--scheme", scheme.value, "--shape", shape, "--sizes", str(n)]
    return subprocess.run(command, capture_output=True, text=True, check=True).stdout.splitlines()[-1]


#: Columns of a row, counted from its size.
RUN, PER_STEP, CHECK, JSONL_S = 2, 3, 6, 7


def number(row: str, column: int) -> float | None:
    """The number that leads one column of a row, None when the row has none there."""
    fields = row.strip(" |").split(" | ")
    try:
        return float(fields[column].split()[0])
    except (IndexError, ValueError):
        return None


def per_step(row: str) -> float | None:
    """The µs per step of a row, None for a size that printed an error."""
    return number(row, PER_STEP)


def run_and_jsonl(row: str) -> float | None:
    """The seconds of a row's run plus its JSONL export, None when it lacks either."""
    run, jsonl = number(row, RUN), number(row, JSONL_S)
    return None if run is None or jsonl is None else run + jsonl


def ratio(mine: float | None, theirs: float | None) -> str:
    """mine / theirs to three places, or empty when either is missing or theirs is zero."""
    return f"{mine / theirs:.3f}" if mine is not None and theirs else ""


def fastest(rows: Sequence[str]) -> str:
    """The row with the least µs per step; the first row when none has a time."""
    timed = [row for row in rows if per_step(row) is not None]
    return min(timed, key=per_step) if timed else rows[0]


def against(other: Path, scheme: SchemeId, shape: str, sizes: Sequence[int]) -> None:
    """Print both checkouts' fastest rows of each size and the ratios of their times."""
    sides = [("this", Path(__file__).resolve()), ("against", other / "tools" / "ladder.py")]
    print(AGAINST_HEADER)
    turn = 0
    for n in sizes:
        runs: dict[str, list[str]] = {side: [] for side, _ in sides}
        for _ in range(REPEATS):
            # Runs alternate which side goes first, so a slow spell lands on both.
            for side, script in sides if turn % 2 == 0 else sides[::-1]:
                runs[side].append(fresh_row(script, scheme, shape, n))
            turn += 1
        rows = {side: fastest(found) for side, found in runs.items()}
        for side, _ in sides:
            print(f"| {side} {rows[side]}")
        mine, theirs = rows["this"], rows["against"]
        us = ratio(per_step(mine), per_step(theirs))
        if us:
            check = ratio(number(mine, CHECK), number(theirs, CHECK))
            total = ratio(run_and_jsonl(mine), run_and_jsonl(theirs))
            cells = ("this/against", str(n), "", "", us, "", "", check, "", total)
            print("|" + "|".join(f" {cell} " if cell else " " for cell in cells) + "|", flush=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", required=True, type=SchemeId, help="a scheme, e.g. no-full")
    parser.add_argument("--shape", choices=SHAPES, default="monotone")
    parser.add_argument("--sizes", type=parse_sizes, default=[50, 100, 200, 400])
    parser.add_argument(
        "--against", type=Path, metavar="PATH",
        help="a checkout to alternate with, size by size, in fresh interpreters",
    )
    args = parser.parse_args(argv)
    if args.against is not None and not (args.against / "tools" / "ladder.py").is_file():
        parser.error(f"no tools/ladder.py under {args.against}")
    print(f"{args.scheme.value}, {args.shape} chain, single_random(0)")
    if args.against is not None:
        against(args.against, args.scheme, args.shape, args.sizes)
        return 0
    print(HEADER)
    for n in args.sizes:
        try:
            print(measure(args.scheme, args.shape, n).line(), flush=True)
        except OverflowRiskError as exc:
            print(f"| {n} | OverflowRiskError: {exc} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

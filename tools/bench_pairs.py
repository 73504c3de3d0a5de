"""Alternating benchmark pairs of two checkouts, and whether they support a claimed gain.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload verify-random --seeds 7001-7010

Each pair runs ``benchmarks/bench.py --workload W --seed S --seconds T
--trace 0`` once in each checkout with the same seed, one after the other;
even pairs run the parent first and odd pairs the change, so a slow spell
of the machine does not always land on one side.  The run length T is
``run_seconds`` of the change's ``BENCHMARK.json``, the benchmark's own,
which also says whether each end-to-end metric is better lower or higher.
Every run gets a fresh, empty ``PYTHONPYCACHEPREFIX`` directory outside
both checkouts, so each side compiles its modules afresh and ``setup_s``
does not read whether a checkout holds a ``__pycache__`` from an earlier
run.

The two checkouts must hold the same benchmark: the script refuses to pair
them when ``BENCHMARK.json`` or a file under its ``paths`` differs, and
names the first such file.

For each metric the summary gives both sides' medians and quartiles, the
change/parent ratio of the medians and the number of pairs the change won
(ties count for neither side).  A gain is supported when at least ten
pairs were run, the change failed no larger share of its operations than
the parent, it won at least nine tenths of the pairs, and its median is
better than the parent's by more than the parent's interquartile range.
Shares, not counts, are compared: a faster change runs more operations in
the same time, and so fails more of them at the same share.

``wall_s`` is scaled by the benchmark's calibration loop, whose own speed
can differ between the checkouts, so each pair's line also gives each
side's fastest unscaled pass: the first figure of the ``raw walls A..B s``
note on bench.py's ``wall_s`` line.  The summary adds a ``raw_wall_s`` row
for it, so a claim can be read on raw time too.

With ``--json PATH`` the summary is also stored in PATH under the
workload's name, beside the workloads the file already holds: the run
length, the seeds, each side's failed share and one row per metric with
both sides' quartiles, the ratio, the wins and the verdict, and under
``raw_wall_s`` both sides' quartiles of the fastest unscaled pass, its
ratio and its wins.  So one file can keep the pairs of every workload a
change was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Fewest pairs that can support a gain.
MIN_PAIRS = 10
#: Share of all pairs the change must win before a gain is supported.
WIN_SHARE = 0.9
#: The note on bench.py's wall_s line that gives the fastest and slowest unscaled pass.
RAW_WALLS = re.compile(r"^wall_s\s.*\braw walls (\S+?)\.\.(\S+) s\b", re.MULTILINE)


@dataclass(frozen=True)
class MetricSummary:
    """Both sides of one metric over the pairs run, and the verdict of the claim rule."""

    name: str
    better: str  # "lower" or "higher"
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    pairs: int
    failed_share: tuple[float, float]  # share of operations failed over all runs: parent, change

    @property
    def ratio(self) -> float:
        """Change median over parent median; inf when the parent's median is 0."""
        return self.change[1] / self.parent[1] if self.parent[1] else float("inf")

    @property
    def gap(self) -> float:
        """How much better the change's median is than the parent's, in the metric's unit."""
        difference = self.parent[1] - self.change[1]
        return difference if self.better == "lower" else -difference

    @property
    def supported(self) -> bool:
        """Ten pairs or more, no larger failed share, nine wins in ten, a gap wider than the parent's IQR."""
        spread = self.parent[2] - self.parent[0]
        return (
            self.pairs >= MIN_PAIRS
            and self.failed_share[1] <= self.failed_share[0]
            and self.wins >= WIN_SHARE * self.pairs
            and self.gap > spread
        )


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the samples."""
    if len(values) == 1:
        return (values[0],) * 3
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summarize(
    parent: Sequence[Mapping[str, float]],
    change: Sequence[Mapping[str, float]],
    better: Mapping[str, str],
    failed_share: tuple[float, float],
) -> list[MetricSummary]:
    """One summary per metric of better, over runs given pair by pair on each side.

    failed_share is the share of operations that failed over all runs,
    parent first.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need the same nonzero number of runs, got {len(parent)} and {len(change)}")
    rows = []
    for name, direction in better.items():
        if direction not in ("lower", "higher"):
            raise ValueError(f"metric {name} is better {direction!r}, not lower or higher")
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        if direction == "lower":
            wins = sum(b < a for a, b in zip(old, new))
        else:
            wins = sum(b > a for a, b in zip(old, new))
        rows.append(
            MetricSummary(name, direction, quartiles(old), quartiles(new), wins, len(old), failed_share)
        )
    return rows


def format_summary(rows: Iterable[MetricSummary]) -> str:
    lines = [
        f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
        f"{'ratio':>7} {'wins':>7}  claim"
    ]
    for row in rows:
        old = f"{row.parent[1]:.6g} [{row.parent[0]:.6g}, {row.parent[2]:.6g}]"
        new = f"{row.change[1]:.6g} [{row.change[0]:.6g}, {row.change[2]:.6g}]"
        verdict = "supported" if row.supported else "not supported"
        lines.append(
            f"{row.name:<12} {old:>34} {new:>34} {row.ratio:>7.3f} "
            f"{row.wins:>3}/{row.pairs:<3}  {verdict} ({row.better} is better)"
        )
    return "\n".join(lines)


def parse_seeds(tokens: Iterable[str]) -> list[int]:
    """Seeds given one by one or as inclusive ranges such as 7001-7010."""
    seeds: list[int] = []
    for token in tokens:
        first, dash, last = token.partition("-")
        if dash:
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(token))
    return seeds


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file whose bytes differ between two checkouts, or None.

    The files are BENCHMARK.json and every file under the paths it lists,
    by relative path; a file on one side only differs.  Caches that runs
    leave behind (__pycache__ and hidden directories) are not compared.
    """
    names = ["BENCHMARK.json"]
    for root in json.loads((change / "BENCHMARK.json").read_text())["paths"]:
        found = set()
        for side in (parent, change):
            base = side / root
            if base.is_file():
                found.add(root)
            for path in base.rglob("*"):
                relative = path.relative_to(side)
                hidden = any(part == "__pycache__" or part.startswith(".") for part in relative.parts)
                if path.is_file() and not hidden:
                    found.add(relative.as_posix())
        names += sorted(found)
    for name in names:
        old, new = parent / name, change / name
        if not (old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes()):
            return name
    return None


def fastest_raw_pass(stdout: str) -> float | None:
    """The fastest unscaled pass that bench.py's wall_s line notes, in seconds; None without the note."""
    found = RAW_WALLS.search(stdout)
    return float(found.group(1)) if found else None


def summary_record(
    rows: Iterable[MetricSummary],
    failed_share: tuple[float, float],
    seconds: float,
    seeds: Sequence[int],
    raw: MetricSummary | None = None,
) -> dict:
    """The summary of one workload's pairs as plain JSON data.

    raw, when given, is the summary of each side's fastest unscaled pass.
    """
    record = {
        "run_seconds": seconds,
        "seeds": list(seeds),
        "failed_share": {"parent": failed_share[0], "change": failed_share[1]},
        "metrics": {
            row.name: {
                "better": row.better,
                "parent": list(row.parent),
                "change": list(row.change),
                "ratio": row.ratio,
                "wins": row.wins,
                "pairs": row.pairs,
                "supported": row.supported,
            }
            for row in rows
        },
    }
    if raw is not None:
        record["raw_wall_s"] = {
            "parent": list(raw.parent),
            "change": list(raw.change),
            "ratio": raw.ratio,
            "wins": raw.wins,
            "pairs": raw.pairs,
        }
    return record


def store_summary(path: Path, workload: str, record: Mapping) -> None:
    """Write record into the JSON file at path under workload, keeping the other workloads."""
    table = json.loads(path.read_text()) if path.exists() else {}
    table[workload] = record
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout.

    The run's bytecode cache is a fresh, empty ``PYTHONPYCACHEPREFIX``
    directory in the system's temporary directory, removed afterwards, so
    no run reads a cache that an earlier run or either checkout holds.
    Its last line of standard output, parsed, with the fastest unscaled
    pass under ``raw_wall_s`` (None when the wall_s line has no such note).
    """
    command = [
        sys.executable, "benchmarks/bench.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["raw_wall_s"] = fastest_raw_pass(done.stdout)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="one seed per pair, or ranges A-B")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also store the summary in this JSON file, under the workload's name")
    args = parser.parse_args(argv)

    differs = first_difference(args.parent, args.change)
    if differs is not None:
        parser.error(f"the checkouts hold different benchmarks: {differs} differs")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = parse_seeds(args.seeds)
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args.workload, seed, seconds)
            results[side].append(result)
            wall, raw = result["metrics"]["wall_s"]["value"], result.get("raw_wall_s")
            raw_text = "?" if raw is None else f"{raw:.4f}"
            print(f"pair {pair + 1} seed {seed} {side}: wall_s {wall:.4f} fastest raw pass {raw_text} "
                  f"correct {result['correct']} failed {result['failed']}/{result['attempted']}", flush=True)
    values = {
        side: [{k: v["value"] for k, v in run["metrics"].items()} for run in runs]
        for side, runs in results.items()
    }
    failed = {side: sum(run["failed"] for run in runs) for side, runs in results.items()}
    attempted = {side: sum(run["attempted"] for run in runs) for side, runs in results.items()}
    share = {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in results}
    shares = (share["parent"], share["change"])
    rows = summarize(values["parent"], values["change"], better, shares)
    raw = None
    if all(run.get("raw_wall_s") is not None for runs in results.values() for run in runs):
        (raw,) = summarize(results["parent"], results["change"], {"raw_wall_s": "lower"}, shares)
    print(f"{args.workload}: {len(values['parent'])} pairs at {seconds:g} s")
    print(format_summary(rows if raw is None else [*rows, raw]))
    for side, runs in results.items():
        correct = all(run["correct"] for run in runs)
        print(f"{side}: {failed[side]} of {attempted[side]} ops failed ({share[side]:.6f}); "
              f"every run correct: {correct}")
    if args.json is not None:
        store_summary(args.json, args.workload, summary_record(rows, shares, seconds, seeds, raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())

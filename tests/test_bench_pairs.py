"""The claim rule of tools/bench_pairs.py on fixed runs."""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# tools/ is not a package: load the script as a module of its own name.
_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(name, values):
    return [{name: v} for v in values]


def test_quartiles_interpolate_between_samples():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_is_supported():
    parent = _runs("wall_s", [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99])
    change = _runs("wall_s", [0.88, 0.90, 0.87, 0.89, 0.88, 0.91, 0.86, 0.88, 0.89, 0.87])
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0))
    assert (row.wins, row.pairs) == (10, 10)
    assert row.parent == (0.99, 1.0, 1.01)
    assert row.change == pytest.approx((0.8725, 0.88, 0.89))
    assert row.ratio == pytest.approx(0.88)
    assert row.gap == pytest.approx(0.12)
    assert row.supported


def test_eight_wins_in_ten_support_no_gain():
    parent = _runs("wall_s", [1.0] * 10)
    change = _runs("wall_s", [0.8] * 8 + [1.2] * 2)
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0))
    assert row.wins == 8
    assert not row.supported


def test_a_gap_inside_the_parents_spread_supports_no_gain():
    # The change wins every pair, but by less than the parent's interquartile range.
    parent = _runs("wall_s", [1.0, 1.2, 1.4, 1.6, 1.8, 1.0, 1.2, 1.4, 1.6, 1.8])
    change = _runs("wall_s", [v - 0.1 for v in (1.0, 1.2, 1.4, 1.6, 1.8, 1.0, 1.2, 1.4, 1.6, 1.8)])
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0))
    assert row.wins == 10
    assert row.parent[2] - row.parent[0] == pytest.approx(0.4)
    assert not row.supported


def test_ties_count_for_neither_side_and_higher_can_be_better():
    parent = _runs("work_per_s", [100.0, 100.0, 100.0, 100.0])
    change = _runs("work_per_s", [100.0, 120.0, 90.0, 130.0])
    (row,) = bench_pairs.summarize(parent, change, {"work_per_s": "higher"}, (0, 0))
    assert row.wins == 2
    assert row.gap == pytest.approx(10.0)
    assert not row.supported


def test_summaries_need_paired_runs_and_a_direction():
    with pytest.raises(ValueError, match="same nonzero number"):
        bench_pairs.summarize(_runs("wall_s", [1.0]), [], {"wall_s": "lower"}, (0, 0))
    with pytest.raises(ValueError, match="not lower or higher"):
        bench_pairs.summarize(_runs("wall_s", [1.0]), _runs("wall_s", [1.0]), {"wall_s": "less"}, (0, 0))


def test_seeds_take_ranges():
    assert bench_pairs.parse_seeds(["7001-7003", "42"]) == [7001, 7002, 7003, 42]


def test_fewer_than_ten_pairs_support_no_gain():
    # Nine clear wins out of nine pairs are still too few pairs.
    parent = _runs("wall_s", [1.0] * 9)
    change = _runs("wall_s", [0.5] * 9)
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0))
    assert (row.wins, row.pairs) == (9, 9)
    assert not row.supported


def test_a_change_that_fails_more_operations_supports_no_gain():
    parent = _runs("wall_s", [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99])
    change = _runs("wall_s", [0.5] * 10)
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (3, 4))
    assert row.wins == 10
    assert not row.supported
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (3, 3))
    assert row.supported


def test_the_table_names_every_metric_and_its_verdict():
    parent = _runs("wall_s", [1.0, 1.0])
    change = _runs("wall_s", [0.5, 0.5])
    text = bench_pairs.format_summary(bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0)))
    assert "wall_s" in text and "0.500" in text and "2/2" in text and "not supported" in text
    parent = _runs("wall_s", [1.0] * 10)
    change = _runs("wall_s", [0.5] * 10)
    text = bench_pairs.format_summary(bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (0, 0)))
    assert "10/10" in text and "supported" in text and "not supported" not in text


def test_failed_shares_not_counts_decide():
    # A faster change runs more operations in the same time: at the same
    # share it fails more of them, and that is no reason to refuse a gain.
    parent = _runs("wall_s", [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99])
    change = _runs("wall_s", [0.9] * 10)
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (10669 / 111296, 10896 / 113664))
    assert row.supported
    (row,) = bench_pairs.summarize(parent, change, {"wall_s": "lower"}, (10669 / 111296, 10670 / 111296))
    assert not row.supported


def _checkout(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_BENCHMARK = {
    "BENCHMARK.json": '{"paths": ["benchmarks"]}',
    "benchmarks/bench.py": "print('bench')\n",
    "benchmarks/data/expected.json": "{}\n",
    "src/code.py": "x = 1\n",
}


def test_checkouts_with_the_same_benchmark_pair(tmp_path):
    parent = _checkout(tmp_path / "parent", _BENCHMARK)
    change = _checkout(tmp_path / "change", {**_BENCHMARK, "src/code.py": "x = 2\n"})
    # Caches left by runs are not part of the benchmark.
    _checkout(change, {"benchmarks/__pycache__/bench.pyc": "cache", "benchmarks/.benchmarks/x": "run"})
    assert bench_pairs.first_difference(parent, change) is None


@pytest.mark.parametrize(
    ("edit", "named"),
    [
        ({"BENCHMARK.json": '{"paths": ["benchmarks"], "run_seconds": 1}'}, "BENCHMARK.json"),
        ({"benchmarks/data/expected.json": "{\"x\": 1}\n"}, "benchmarks/data/expected.json"),
        ({"benchmarks/new.py": ""}, "benchmarks/new.py"),
    ],
)
def test_checkouts_with_different_benchmarks_are_refused(tmp_path, edit, named):
    parent = _checkout(tmp_path / "parent", _BENCHMARK)
    change = _checkout(tmp_path / "change", {**_BENCHMARK, **edit})
    assert bench_pairs.first_difference(parent, change) == named
    assert bench_pairs.first_difference(change, parent) == named
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "verify-random", "--seeds", "1"])


def test_a_file_missing_on_one_side_is_named_first(tmp_path):
    parent = _checkout(tmp_path / "parent", _BENCHMARK)
    change = _checkout(tmp_path / "change", _BENCHMARK)
    (change / "benchmarks/bench.py").unlink()
    _checkout(change, {"benchmarks/data/expected.json": "changed"})
    assert bench_pairs.first_difference(parent, change) == "benchmarks/bench.py"


def test_the_json_file_keeps_each_workloads_summary(tmp_path, monkeypatch):
    declared = '{"paths": ["benchmarks"], "run_seconds": 2, "end_to_end": [' \
        '{"name": "wall_s", "better": "lower"}, {"name": "ok_share", "better": "higher"}]}'
    files = {**_BENCHMARK, "BENCHMARK.json": declared}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)
    walls = {parent: 1.0, change: 0.8}

    def fake_bench(checkout, workload, seed, seconds):
        assert seconds == 2
        failed = 1 if workload == "events" else 0
        metrics = {"wall_s": walls[checkout] + seed / 1000, "ok_share": 1 - failed / 10}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "correct": True, "failed": failed, "attempted": 10}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_bench)
    out = tmp_path / "BENCH.json"
    for workload in ("verify-random", "events"):
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                                 workload, "--seeds", "1-10", "--json", str(out)]) == 0
    table = json.loads(out.read_text())
    assert sorted(table) == ["events", "verify-random"]
    claim = table["verify-random"]
    assert claim["run_seconds"] == 2
    assert claim["seeds"] == list(range(1, 11))
    assert claim["failed_share"] == {"parent": 0.0, "change": 0.0}
    wall = claim["metrics"]["wall_s"]
    assert wall["better"] == "lower"
    assert (wall["wins"], wall["pairs"], wall["supported"]) == (10, 10, True)
    assert wall["parent"] == pytest.approx([1.00325, 1.0055, 1.00775])
    assert wall["change"] == pytest.approx([0.80325, 0.8055, 0.80775])
    assert wall["ratio"] == pytest.approx(0.8055 / 1.0055)
    assert claim["metrics"]["ok_share"]["supported"] is False
    assert table["events"]["failed_share"] == {"parent": 0.1, "change": 0.1}
    assert table["events"]["metrics"]["ok_share"]["parent"] == pytest.approx([0.9] * 3)


#: The lines of bench.py's standard output that the pairing reads, as it prints them.
_BENCH_STDOUT = """\
workload=verify-random seed={seed} seconds=2 trace=0
setup_s                                      0.812345 s      
wall_s                                       {wall:>9} s      medians over 41 passes; raw walls {raw}..0.6012 s, scales 0.912..1.020
op_ms_p50                                     1.52341 ms     of each op's median over 41 passes
steps_per_s                                   24000.1 1/s    10525 simulated steps a pass
{{"correct": true, "attempted": 100, "failed": 0, "metrics": {{"wall_s": {{"value": {wall}, "unit": "s"}}}}}}
"""


def test_the_fastest_raw_pass_is_read_from_the_wall_s_note():
    text = _BENCH_STDOUT.format(seed=1, wall=0.440312, raw=0.4511)
    assert bench_pairs.fastest_raw_pass(text) == 0.4511
    assert bench_pairs.fastest_raw_pass(_BENCH_STDOUT.format(seed=1, wall=1.5, raw="1.2e-05")) == 1.2e-05
    # Only the wall_s line's note counts.
    assert bench_pairs.fastest_raw_pass(text.replace("wall_s      ", "other_s     ", 1)) is None
    assert bench_pairs.fastest_raw_pass("wall_s 0.44 s medians over 41 passes\n") is None


def test_the_pairs_compare_each_sides_fastest_raw_pass(tmp_path, monkeypatch, capsys):
    declared = '{"paths": ["benchmarks"], "run_seconds": 2, "end_to_end": [{"name": "wall_s", "better": "lower"}]}'
    files = {**_BENCHMARK, "BENCHMARK.json": declared}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)
    # Scaled walls say the change is slower; the raw passes say it is faster.
    walls = {parent: (0.40, 0.50), change: (0.42, 0.45)}

    def fake_run(command, cwd, **kwargs):
        seed = int(command[command.index("--seed") + 1])
        wall, raw = walls[cwd]
        text = _BENCH_STDOUT.format(seed=seed, wall=wall + seed / 1000, raw=f"{raw + seed / 1000:.4g}")
        return SimpleNamespace(returncode=0, stdout=text, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "verify-random", "--seeds", "1-10", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pair 1 seed 1 parent: wall_s 0.4010 fastest raw pass 0.5010 " in printed
    assert "pair 2 seed 2 change: wall_s 0.4220 fastest raw pass 0.4520 " in printed
    assert "raw_wall_s" in printed
    claim = json.loads(out.read_text())["verify-random"]
    assert claim["metrics"]["wall_s"]["wins"] == 0
    raw = claim["raw_wall_s"]
    assert raw["parent"] == pytest.approx([0.50325, 0.5055, 0.50775])
    assert raw["change"] == pytest.approx([0.45325, 0.4555, 0.45775])
    assert raw["ratio"] == pytest.approx(0.4555 / 0.5055)
    assert (raw["wins"], raw["pairs"]) == (10, 10)


def test_runs_without_the_note_store_no_raw_summary(tmp_path, monkeypatch):
    declared = '{"paths": ["benchmarks"], "run_seconds": 2, "end_to_end": [{"name": "wall_s", "better": "lower"}]}'
    files = {**_BENCHMARK, "BENCHMARK.json": declared}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)

    def fake_run(command, cwd, **kwargs):
        text = _BENCH_STDOUT.format(seed=1, wall=0.4, raw=0.5).replace("raw walls", "walls")
        return SimpleNamespace(returncode=0, stdout=text, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "verify-random", "--seeds", "1-2", "--json", str(out)]) == 0
    assert "raw_wall_s" not in json.loads(out.read_text())["verify-random"]


def test_each_run_gets_a_fresh_bytecode_cache_outside_both_checkouts(tmp_path, monkeypatch):
    declared = '{"paths": ["benchmarks"], "run_seconds": 2, "end_to_end": [{"name": "wall_s", "better": "lower"}]}'
    files = {**_BENCHMARK, "BENCHMARK.json": declared}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)
    caches = []

    def fake_run(command, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        assert parent not in cache.parents and change not in cache.parents
        assert {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} == {
            k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"
        }
        caches.append(cache)
        (cache / "left.pyc").write_bytes(b"")
        return SimpleNamespace(returncode=0, stdout=_BENCH_STDOUT.format(seed=1, wall=0.4, raw=0.5), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "verify-random", "--seeds", "1-2"]) == 0
    assert len(caches) == len(set(caches)) == 4
    assert not any(cache.exists() for cache in caches)

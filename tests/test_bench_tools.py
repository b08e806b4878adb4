"""Tests for tools/bench_compare.py (the make bench-check gate)."""

import json
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
)


def _write(path, rows):
    with open(path, "w") as handle:
        json.dump(rows, handle)


def _compare(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, "bench_compare.py")] + list(argv),
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def _row(phase, wall_s, workload="e7-n64"):
    return {
        "workload": workload,
        "n_instrs": 64,
        "phase": phase,
        "wall_s": wall_s,
        "peak_kb": 100.0,
    }


class TestBenchCompare:
    def test_no_regression(self, tmp_path):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        _write(base, [_row("pig_construction", 0.010)])
        _write(cur, [_row("pig_construction", 0.011)])
        result = _compare(base, cur)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no regressions" in result.stdout

    def test_regression_fails(self, tmp_path):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        _write(base, [_row("pig_construction", 0.010)])
        _write(cur, [_row("pig_construction", 0.014)])
        result = _compare(base, cur)
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_missing_row_fails(self, tmp_path):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        _write(base, [_row("pig_construction", 0.010)])
        _write(cur, [_row("closure", 0.010)])
        result = _compare(base, cur)
        assert result.returncode == 1
        assert "MISSING" in result.stdout

    def test_tiny_rows_ignored(self, tmp_path):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        # 0.0001s baseline is under --min-wall: noise, never a failure.
        _write(base, [_row("closure", 0.0001)])
        _write(cur, [_row("closure", 0.0009)])
        result = _compare(base, cur)
        assert result.returncode == 0

    def test_committed_baseline_is_valid(self):
        repo = os.path.dirname(TOOLS)
        path = os.path.join(repo, "BENCH_pr1.json")
        with open(path) as handle:
            rows = json.load(handle)
        keys = {(r["workload"], r["phase"]) for r in rows}
        assert ("e7-n256", "pig_construction") in keys
        by_key = {(r["workload"], r["phase"]): r for r in rows}
        bitset = by_key[("e7-n256", "pig_construction")]["wall_s"]
        reference = by_key[("e7-n256", "pig_construction_reference")]["wall_s"]
        # The acceptance criterion this PR shipped with: >=5x on the
        # largest E7 workload.  Recorded, not re-measured, so the test
        # is deterministic.
        assert reference / bitset >= 5.0

class TestAutoBaseline:
    """baseline 'auto': the newest committed BENCH_pr*.json whose rows
    overlap the current file's."""

    def test_picks_highest_pr_number_with_overlap(self, tmp_path):
        _write(str(tmp_path / "BENCH_pr1.json"),
               [_row("pig_construction", 0.010)])
        _write(str(tmp_path / "BENCH_pr9.json"),
               [_row("pig_construction", 0.012)])
        cur = str(tmp_path / "cur.json")
        _write(cur, [_row("pig_construction", 0.012)])
        result = _compare("auto", cur, cwd=str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "BENCH_pr9.json" in result.stdout

    def test_skips_newer_baselines_without_overlap(self, tmp_path):
        # pr9 has batch-throughput rows; a bench_run current file must
        # fall through to pr1 (the newest file that shares keys).
        _write(str(tmp_path / "BENCH_pr1.json"),
               [_row("pig_construction", 0.010)])
        _write(str(tmp_path / "BENCH_pr9.json"),
               [_row("pool_cold", 4.0, workload="batch-fuzz-200")])
        cur = str(tmp_path / "cur.json")
        _write(cur, [_row("pig_construction", 0.011)])
        result = _compare("auto", cur, cwd=str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "BENCH_pr1.json" in result.stdout

    def test_no_overlapping_baseline_skips_comparison(self, tmp_path):
        # A current file made entirely of freshly introduced keys (a
        # new benchmark tool's first run) proceeds with ratio guards
        # only instead of failing — new workloads must be landable
        # before their first baseline is committed.
        _write(str(tmp_path / "BENCH_pr1.json"),
               [_row("pig_construction", 0.010)])
        cur = str(tmp_path / "cur.json")
        _write(cur, [_row("some_new_phase", 0.011, workload="elsewhere")])
        result = _compare("auto", cur, cwd=str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "baseline comparison skipped" in result.stdout

    def test_auto_mode_tolerates_baseline_only_keys(self, tmp_path):
        # Overlapping keys are compared; keys only the baseline has
        # (retired or not-yet-generated workloads) are skipped, not
        # reported as regressions.
        _write(str(tmp_path / "BENCH_pr1.json"),
               [_row("pig_construction", 0.010),
                _row("pool_cold", 4.0, workload="batch-fuzz-200")])
        cur = str(tmp_path / "cur.json")
        _write(cur, [_row("pig_construction", 0.010)])
        result = _compare("auto", cur, cwd=str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "skipped" in result.stdout
        assert "batch-fuzz-200" in result.stdout

    def test_committed_pr5_baseline_holds_the_floors(self):
        repo = os.path.dirname(TOOLS)
        path = os.path.join(repo, "BENCH_pr5.json")
        with open(path) as handle:
            rows = json.load(handle)
        by_phase = {r["phase"]: r for r in rows}
        pool = by_phase["pool_cold"]["wall_s"]
        warm = by_phase["pool_warm_cache"]["wall_s"]
        # The PR-5 acceptance floor still guarded, recorded not
        # re-measured: warm cache >= 10x cold pool.
        assert pool / warm >= 10.0


class TestRatioMax:
    """--ratio-max: machine-independent speedup floors inside one run."""

    def _batch_rows(self, pool=4.0, warm=0.2, disk=0.4):
        return [
            _row("pool_cold", pool, workload="batch-fuzz-200"),
            _row("pool_warm_cache", warm, workload="batch-fuzz-200"),
            _row("disk_warm", disk, workload="batch-fuzz-200"),
        ]

    def test_floors_hold(self, tmp_path):
        cur = str(tmp_path / "cur.json")
        _write(cur, self._batch_rows())
        result = _compare(
            "none", cur,
            "--ratio-max", "batch-fuzz-200:pool_warm_cache/pool_cold=0.1",
            "--ratio-max", "batch-fuzz-200:disk_warm/pool_cold=0.2",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("ok") >= 2

    def test_violated_floor_fails(self, tmp_path):
        cur = str(tmp_path / "cur.json")
        _write(cur, self._batch_rows(disk=1.0))  # only 4x over cold
        result = _compare(
            "none", cur,
            "--ratio-max", "batch-fuzz-200:disk_warm/pool_cold=0.2",
        )
        assert result.returncode == 1
        assert "VIOLATED" in result.stdout

    def test_missing_phase_fails(self, tmp_path):
        cur = str(tmp_path / "cur.json")
        _write(cur, self._batch_rows()[:1])  # pool_cold only
        result = _compare(
            "none", cur,
            "--ratio-max", "batch-fuzz-200:disk_warm/pool_cold=0.2",
        )
        assert result.returncode == 1
        assert "MISSING" in result.stdout

    def test_malformed_spec_is_an_error(self, tmp_path):
        cur = str(tmp_path / "cur.json")
        _write(cur, self._batch_rows())
        result = _compare("none", cur, "--ratio-max", "not-a-spec")
        assert result.returncode != 0
        assert "bad --ratio-max" in result.stderr

    def test_ratio_combines_with_baseline_comparison(self, tmp_path):
        base = str(tmp_path / "base.json")
        cur = str(tmp_path / "cur.json")
        _write(base, self._batch_rows())
        _write(cur, self._batch_rows(pool=4.2))
        result = _compare(
            base, cur,
            "--ratio-max", "batch-fuzz-200:pool_warm_cache/pool_cold=0.1",
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestCommittedBackendBaseline:
    def test_committed_pr10_baseline_holds_the_floors(self):
        repo = os.path.dirname(TOOLS)
        path = os.path.join(repo, "BENCH_pr10.json")
        with open(path) as handle:
            rows = json.load(handle)
        by_phase = {
            r["phase"]: r for r in rows if r["workload"] == "backend-n2048"
        }
        # The PR-10 acceptance floors, recorded not re-measured:
        # compact interference and coloring >= 3x their reference twins.
        for kernel in ("interference", "color"):
            compact = by_phase["{}_compact".format(kernel)]["wall_s"]
            reference = by_phase["{}_reference".format(kernel)]["wall_s"]
            assert reference / compact >= 3.0, kernel

    def test_committed_pinter_baseline_holds_the_floors(self):
        repo = os.path.dirname(TOOLS)
        with open(os.path.join(repo, "BENCH_pr15.json")) as handle:
            rows = json.load(handle)
        walls = {
            (r["workload"], r["phase"]): r["wall_s"] for r in rows
        }
        # Recorded, not re-measured: the compact combined-coloring
        # kernel >= 5x its oracle, and the older floors still held.
        floors = (
            ("backend-pinter-n128", "pinter", 5.0),
            ("backend-n2048", "interference", 3.0),
            ("backend-n2048", "color", 3.0),
        )
        for workload, kernel, floor in floors:
            reference = walls[workload, kernel + "_reference"]
            compact = walls[workload, kernel + "_compact"]
            assert reference / compact >= floor, kernel

"""Tests for trace aggregation (repro.obs.stats) and the instrumented
pipeline end to end: a traced compile produces a trace whose every
line validates and whose aggregation carries the driver's phases.
"""

import json

import pytest

from repro.machine.presets import two_unit_superscalar
from repro.obs import (
    aggregate,
    format_stats,
    load_trace,
    tracing,
    validate_event,
)
from repro.pipeline.driver import CompilationDriver
from repro.utils.errors import InputError

SOURCE = "input a, b; x = a * b + 3; y = x + a; output y;"


def write_trace(path, events):
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def make_events():
    return [
        {"v": 1, "ts": 0.0, "kind": "span_begin", "name": "phase.pig",
         "span_id": 1, "attrs": {}},
        {"v": 1, "ts": 0.2, "kind": "span_end", "name": "phase.pig",
         "span_id": 1, "duration_s": 0.2, "attrs": {"status": "ok"}},
        {"v": 1, "ts": 0.3, "kind": "span", "name": "phase.pig",
         "duration_s": 0.4, "attrs": {"task_id": "t1"}},
        {"v": 1, "ts": 0.4, "kind": "counter", "name": "kernel.ef_edges",
         "value": 5, "attrs": {}},
        {"v": 1, "ts": 0.5, "kind": "counter", "name": "kernel.ef_edges",
         "value": 7, "attrs": {}},
        {"v": 1, "ts": 0.6, "kind": "gauge", "name": "budget",
         "value": 1.5, "attrs": {}},
        {"v": 1, "ts": 0.7, "kind": "gauge", "name": "budget",
         "value": 0.5, "attrs": {}},
        {"v": 1, "ts": 0.8, "kind": "event", "name": "task.done",
         "attrs": {"task_id": "t1", "rung": "pinter/bitset",
                   "status": "ok", "duration_s": 0.6}},
        {"v": 1, "ts": 0.9, "kind": "event", "name": "task.done",
         "attrs": {"task_id": "t2", "rung": "pinter/bitset",
                   "status": "failed", "duration_s": 0.4}},
    ]


class TestLoadTrace:
    def test_torn_and_foreign_lines_are_collected_not_fatal(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(make_events()[0]) + "\n")
            handle.write("{not json\n")
            handle.write('{"v": 99, "kind": "event"}\n')
        events, errors = load_trace(path)
        assert len(events) == 1
        assert len(errors) == 2
        assert "line 2" in errors[0] and "line 3" in errors[1]

    def test_unreadable_path_raises_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read trace"):
            load_trace(str(tmp_path / "absent.jsonl"))


class TestAggregate:
    def test_phases_rungs_counters_gauges(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_trace(path, make_events())
        events, errors = load_trace(path)
        assert errors == []
        stats = aggregate(events)

        # span_end and retroactive span land in the same phase row.
        pig = stats["phases"]["pig"]
        assert pig["count"] == 2
        assert pig["total_s"] == pytest.approx(0.6)
        assert pig["mean_s"] == pytest.approx(0.3)
        assert pig["min_s"] == pytest.approx(0.2)
        assert pig["max_s"] == pytest.approx(0.4)

        rung = stats["rungs"]["pinter/bitset"]
        assert rung["tasks"] == 2
        assert rung["ok"] == 1 and rung["failed"] == 1
        assert rung["total_s"] == pytest.approx(1.0)

        assert stats["counters"]["kernel.ef_edges"] == 12
        assert stats["gauges"]["budget"] == 0.5  # last write wins
        assert stats["span_problems"] == []

    def test_unbalanced_spans_are_reported(self):
        events = make_events()[:1]  # begin without end
        stats = aggregate(events)
        assert len(stats["span_problems"]) == 1
        assert "never ended" in stats["span_problems"][0]

    def test_format_stats_renders_all_tables(self):
        text = format_stats(aggregate(make_events()))
        assert "per-phase:" in text and "pig" in text
        assert "per-rung:" in text and "pinter/bitset" in text
        assert "kernel.ef_edges" in text
        assert "budget" in text

    def test_empty_trace_formats_without_rows(self):
        text = format_stats(aggregate([]))
        assert "(no phase spans)" in text
        assert "(no task.done events)" in text


class TestInstrumentedPipeline:
    def test_traced_compile_validates_and_aggregates(self, tmp_path):
        """End to end: compiling under an installed tracer produces a
        schema-clean, balanced trace with every driver phase."""
        path = str(tmp_path / "t.jsonl")
        driver = CompilationDriver(two_unit_superscalar())
        with tracing(path):
            outcome = driver.compile_text(SOURCE, name="traced")
        assert outcome.ok

        events, errors = load_trace(path)
        assert errors == []
        for event in events:
            assert validate_event(event) is None
        stats = aggregate(events)
        assert stats["span_problems"] == []
        for phase in ("parse", "pig", "color", "schedule", "verify"):
            assert phase in stats["phases"], phase
            assert stats["phases"][phase]["count"] >= 1

    def test_stats_show_coloring_simplify_passes(self, tmp_path):
        # The combined coloring reports its own work: every round
        # scans at least once, and `repro stats` prints the total.
        path = str(tmp_path / "t.jsonl")
        driver = CompilationDriver(two_unit_superscalar())
        with tracing(path):
            assert driver.compile_text(SOURCE, name="passes").ok
        events, _errors = load_trace(path)
        stats = aggregate(events)
        assert stats["counters"]["color.simplify_passes"] >= 1
        assert "color.simplify_passes" in format_stats(stats)

    def test_untraced_compile_writes_nothing(self, tmp_path):
        driver = CompilationDriver(two_unit_superscalar())
        outcome = driver.compile_text(SOURCE, name="untraced")
        assert outcome.ok
        assert list(tmp_path.iterdir()) == []

"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import os

import pytest

from perfbench import run, stats, workloads
from perfbench.tracing import Recorder, installed


class TestTail:
    def test_few_samples_report_the_maximum(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        assert stats.tail([float(i) for i in range(19)])[:2] == (18.0, 100.0)

    def test_tail_leaves_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        value, pct, n = stats.tail(samples)
        assert (value, pct, n) == (90.0, 90.0, 100)
        assert sum(s > value for s in samples) == stats.TAIL_BEYOND

    def test_twenty_samples_give_the_median_rank(self):
        value, pct, _ = stats.tail([float(i) for i in range(20)])
        assert (value, pct) == (9.0, 50.0)

    def test_order_does_not_matter(self):
        samples = [float((i * 37) % 50) for i in range(50)]
        assert stats.tail(samples) == stats.tail(sorted(samples))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_self_time_is_span_minus_child_spans(self):
        clock = FakeClock()
        rec = Recorder(clock=clock)
        outer = rec.enter("root")
        clock.now = 2.0
        child = rec.enter("a")
        clock.now = 3.0
        grandchild = rec.enter("b")
        clock.now = 4.5
        rec.exit(grandchild)
        clock.now = 5.0
        rec.exit(child)
        clock.now = 6.0
        second = rec.enter("a")
        clock.now = 7.0
        rec.exit(second)
        clock.now = 10.0
        rec.exit(outer)

        assert rec.stats["root"] == [1, 10.0, 6.0]
        assert rec.stats["a"] == [2, 4.0, 2.5]
        assert rec.stats["b"] == [1, 1.5, 1.5]
        assert rec.roots == {"root": 10.0}
        assert rec.self_share("a") == pytest.approx(0.25)
        total_self = sum(entry[2] for entry in rec.stats.values())
        assert total_self == pytest.approx(rec.roots["root"])

    def test_merge_adds_another_process(self):
        clock = FakeClock()
        rec = Recorder(clock=clock)
        with rec.span("root"):
            clock.now = 1.0
        other = Recorder(clock=clock)
        with other.span("root"):
            clock.now = 3.0
        rec.merge(json.loads(json.dumps(other.as_dict())))
        assert rec.stats["root"] == [2, 3.0, 3.0]
        assert rec.spans == 2


def small_diamonds():
    return [{"kind": "diamonds", "diamonds": 2, "seed": 1}]


@pytest.fixture(scope="module")
def diamond_state():
    return workloads.setup(workloads.SPECS["diamond-cfg"], warm_pool=False)


class TestChecks:
    def test_clean_outputs_pass(self, diamond_state):
        spec = workloads.SPECS["diamond-cfg"]
        outcome = workloads.measure_functions(
            spec, diamond_state, small_diamonds(), 2, None
        )
        outcome.check([])
        assert len(outcome.compiles) == 2
        assert outcome.failures == {}

    def test_interpreter_mismatch_counts_as_failed(
        self, diamond_state, monkeypatch
    ):
        import repro.ir.evaluator

        monkeypatch.setattr(
            repro.ir.evaluator, "equivalent", lambda *a, **k: False
        )
        outcome = workloads.measure_functions(
            workloads.SPECS["diamond-cfg"], diamond_state, small_diamonds(),
            2, None,
        )
        assert sorted(outcome.failures) == [0, 1]
        assert "interpreter mismatch" in outcome.failures[0]

    def test_reference_interpreter_mismatch_counts_as_failed(
        self, diamond_state
    ):
        inputs = small_diamonds()
        compiled = workloads.reference_compile(diamond_state, inputs, None)
        reference = workloads.reference_results(inputs, compiled)
        assert reference[0]["equivalent"]
        outcome = workloads.measure_functions(
            workloads.SPECS["diamond-cfg"], diamond_state, inputs, 1, None
        )
        reference[0]["equivalent"] = False
        outcome.check(reference)
        assert list(outcome.failures) == [0]

    def test_row_differing_from_reference_counts_as_failed(self):
        outcome = workloads.Outcome(compiles=[
            ("f", "ok", {"cycles": 3}),
            ("f", "ok", {"cycles": 4}),
            ("g", "failed", None),
        ])
        outcome.check([{
            "key": "f", "status": "ok", "row": {"cycles": 3},
            "equivalent": True,
        }])
        assert sorted(outcome.failures) == [1, 2]


class TestTracing:
    def test_wrappers_record_and_restore(self, diamond_state):
        import repro.pipeline.driver as driver_module

        original = driver_module.pinter_color
        rec = Recorder()
        with installed(rec):
            assert driver_module.pinter_color is not original
            workloads.measure_functions(
                workloads.SPECS["diamond-cfg"], diamond_state,
                small_diamonds(), 1, rec,
            )
        assert driver_module.pinter_color is original
        assert rec.stats["pipeline.compile"][0] == 1
        assert rec.stats["core.pinter_color"][0] >= 1
        assert rec.root_of["core.pinter_color"] == "pipeline.compile"


class TestInputs:
    def test_same_seed_same_inputs(self):
        for spec in workloads.SPECS.values():
            assert workloads.make_inputs(spec, 3) == \
                workloads.make_inputs(spec, 3)

    def test_fuzz_replay_mixes_reads_writes_and_duplicates(self):
        made = workloads.make_inputs(workloads.SPECS["fuzz-batch"], 5)
        cold_names = {d["name"] for d in made["cold"]}
        replay = made["replay"]
        assert len({d["task_id"] for d in replay}) == len(replay)
        resubmitted = [d for d in replay if d["name"] in cold_names]
        assert len(resubmitted) == workloads.FUZZ_REPLAYS
        names = [d["name"] for d in replay]
        assert len(names) - len(set(names)) == workloads.FUZZ_DUPLICATES


def test_benchmark_json_lists_the_metrics_the_run_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)

"""Run the repository benchmark.

    python3 perfbench/run.py --workload pressure-blocks --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One workload per run prints its metrics as one
table row and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs in its own process and the table
has one row per workload.  See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import stats, workloads  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    SPAN_NAMES,
    Recorder,
    installed,
    span_cost_s,
)

CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
#: Set-up samples per run: this process plus separate probes.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

#: ``(name, unit)`` of the metrics the JSON carries with ``--trace 0``.
END_TO_END = (
    ("compiles_per_s", "1/s"),
    ("compile_s.p50", "s"),
    ("compile_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cycles_total", "cycles"),
    ("registers_total", "count"),
)
#: End-to-end metrics that read 0 on some workload; they are printed in
#: the table row, and the JSON carries them with ``--trace 1``.
ZERO_ABLE = (
    ("failed_frac", "frac"),
    ("degraded_frac", "frac"),
    ("spill_ops_total", "count"),
    ("false_deps_total", "count"),
)
#: ``(name, unit)`` of the metrics the JSON carries with ``--trace 1``.
PER_LAYER = tuple(
    metric
    for name in SPAN_NAMES
    for metric in (
        (name + ".s", "s"),
        (name + ".calls", "count"),
        (name + ".self_share", "frac"),
    )
) + (
    ("pipeline.driver.self_share", "frac"),
    ("core.pinter_color.sacrificed", "count"),
    ("regalloc.spill_rounds", "count/compile"),
    ("pipeline.theorem1.warnings", "count"),
) + ZERO_ABLE + (
    ("cache.hit_ratio.cold", "frac"),
    ("cache.hit_ratio.replay", "frac"),
    ("service.pool.queue_wait_s.p50", "s"),
    ("service.batch.retries", "count"),
    ("service.worker.busy_frac", "frac"),
    ("compile_s.tail_pct", "%"),
    ("compile_s.samples", "count"),
    ("trace.compiles_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
)
TABLE = END_TO_END + ZERO_ABLE


def run_child(request: dict, hash_seed: str = None) -> dict:
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, CHILD],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            "{} process exited {}: {}".format(
                request["mode"], proc.returncode, proc.stderr[-2000:]
            )
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def other_hash_seed() -> str:
    """A ``PYTHONHASHSEED`` other than this process's."""
    return "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    child reaped so far (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(spec, state, made, passes, recorder):
    if spec.name != "fuzz-batch":
        return workloads.measure_functions(
            spec, state, made["inputs"], passes, recorder
        )
    work_dir = os.path.join(WORK_DIR, str(os.getpid()))
    try:
        return workloads.measure_batches(
            spec, state, made["cold"], made["replay"], passes, recorder,
            work_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


def reference_inputs(spec, made, seed: int) -> list:
    inputs = made["inputs"]
    if spec.reference_sample is None:
        return inputs
    rng = random.Random("reference:{}:{}".format(spec.name, seed))
    return rng.sample(inputs, spec.reference_sample)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.SPECS[name]
    state = workloads.setup(spec, warm_pool=True)
    setup_samples = [time.perf_counter() - START]

    made = workloads.make_inputs(spec, seed)
    passes = spec.passes(seconds)
    recorder = Recorder() if trace else None
    with installed(recorder) if trace else contextlib.nullcontext():
        outcome = measure(spec, state, made, passes, recorder)
    rss = peak_rss_mb()

    checked = reference_inputs(spec, made, seed)
    try:
        reply = run_child(
            {"mode": "reference", "workload": name, "inputs": checked,
             "trace": trace and spec.name == "fuzz-batch"},
            hash_seed=other_hash_seed(),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("reference process failed: {}".format(exc), file=sys.stderr)
        reply = None
    if reply is None:
        for index in range(len(outcome.compiles)):
            outcome.fail(index, "no reference compile")
    else:
        outcome.check(reply["results"])
        if reply["trace"]:
            recorder.merge(reply["trace"])
        if spec.name == "fuzz-batch":
            outcome.theorem1 = {
                r["key"]: r["theorem1"] for r in reply["results"]
            }

    for _ in range(SETUP_SAMPLES - 1):
        setup_samples.append(
            run_child({"mode": "setup", "workload": name})["setup_s"]
        )

    attempted = len(outcome.compiles)
    rows = outcome.first_rows()
    tail_s, tail_pct, samples = stats.tail(outcome.latencies)
    values = {
        "compiles_per_s": statistics.median(outcome.pass_rates),
        "compile_s.p50": statistics.median(outcome.latencies),
        "compile_s.tail": tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
        "cycles_total": sum(row["cycles"] for row in rows.values()),
        "registers_total": sum(row["registers"] for row in rows.values()),
        "failed_frac": len(outcome.failures) / attempted,
        "degraded_frac": sum(
            status == "degraded" for _, status, _ in outcome.compiles
        ) / attempted,
        "spill_ops_total": sum(row["spill_ops"] for row in rows.values()),
        "false_deps_total": sum(row["false_deps"] for row in rows.values()),
        "compile_s.tail_pct": tail_pct,
        "compile_s.samples": samples,
        "pipeline.theorem1.warnings": sum(
            bool(messages) for messages in outcome.theorem1.values()
        ),
    }
    if trace:
        values.update(layer_values(recorder, outcome, values))

    print("perfbench: {} seed={} passes={} inputs={} compiles={} "
          "wall={:.2f}s".format(name, seed, passes, len(made["inputs"]),
                                attempted, outcome.wall_s))
    fuzz_seeds = {d["name"]: d.get("fuzz_seed") for d in made["inputs"]
                  if d["kind"] == "source"}
    for key, messages in sorted(outcome.theorem1.items()):
        for message in messages:
            print("theorem1: {}{}: {}".format(
                key,
                " (fuzz seed {})".format(fuzz_seeds[key])
                if key in fuzz_seeds else "",
                message,
            ))
    for index, why in sorted(outcome.failures.items()):
        print("failed: compile #{}: {}".format(index, why))
    return {
        "workload": name,
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": len(outcome.failures),
        "values": values,
    }


def layer_values(recorder: Recorder, outcome, values: dict) -> dict:
    out = {}
    for name in SPAN_NAMES:
        calls, total, _ = recorder.stats.get(name, (0, 0.0, 0.0))
        out[name + ".s"] = total
        out[name + ".calls"] = calls
        out[name + ".self_share"] = recorder.self_share(name)
    compiles = recorder.stats.get("pipeline.compile", (0,))[0]
    spill_rounds = recorder.stats.get(
        "regalloc.insert_spill_code", (0,)
    )[0]
    batch_s = recorder.roots.get("service.batch.run", 0.0)
    waits = recorder.samples.get("service.pool.queue_wait_s")
    out.update({
        "pipeline.driver.self_share": recorder.self_share("pipeline.compile"),
        "core.pinter_color.sacrificed":
            recorder.counters.get("core.pinter_color.sacrificed", 0),
        "regalloc.spill_rounds": spill_rounds / compiles if compiles else 0.0,
        "cache.hit_ratio.cold": outcome.hit_ratio.get("cold", 0.0),
        "cache.hit_ratio.replay": outcome.hit_ratio.get("replay", 0.0),
        "service.pool.queue_wait_s.p50":
            statistics.median(waits) if waits else 0.0,
        "service.batch.retries": outcome.retries,
        "service.worker.busy_frac": (
            recorder.counters.get("service.worker.busy_s", 0.0)
            / (workloads.POOL_WORKERS * batch_s) if batch_s else 0.0
        ),
        "trace.compiles_per_s": values["compiles_per_s"],
        "trace.overhead_frac": (
            recorder.spans * span_cost_s() / sum(recorder.roots.values())
        ),
        "trace.spans": recorder.spans,
    })
    return out


def format_table(results: list) -> str:
    header = ["workload"] + [
        "{} [{}]".format(name, unit) for name, unit in TABLE
    ]
    lines = [header]
    for result in results:
        values = result["values"]
        cells = [result["workload"]]
        for name, _ in TABLE:
            value = values[name]
            cell = "{:.4g}".format(value) if isinstance(value, float) \
                else str(value)
            if name == "compile_s.tail":
                cell += " (p{:.4g}, n={})".format(
                    values["compile_s.tail_pct"], values["compile_s.samples"]
                )
            cells.append(cell)
        lines.append(cells)
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in lines
    )


def format_layers(values: dict) -> str:
    rows = sorted(
        (name for name in SPAN_NAMES if values[name + ".calls"]),
        key=lambda name: -values[name + ".self_share"],
    )
    lines = ["{:<40} {:>8} {:>10} {:>11}".format(
        "span", "calls", "total_s", "self_share")]
    for name in rows:
        lines.append("{:<40} {:>8} {:>10.4f} {:>10.1%}".format(
            name, values[name + ".calls"], values[name + ".s"],
            values[name + ".self_share"],
        ))
    lines.append("tracing overhead: about {:.2%} of traced wall ({} spans); "
                 "an untraced run's compiles_per_s against "
                 "trace.compiles_per_s gives the measured one".format(
                     values["trace.overhead_frac"], values["trace.spans"]))
    return "\n".join(lines)


def report(result: dict, trace: bool) -> dict:
    metrics = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["values"][name], "unit": unit}
            for name, unit in metrics
        },
    }


def run_all(args) -> dict:
    """Each workload in its own process; one table row per workload."""
    results = []
    for name in workloads.SPECS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--rows"],
            capture_output=True, text=True, cwd=ROOT,
        )
        *lines, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        results.append(json.loads(last))
        if args.trace:
            print(format_layers(results[-1]["values"]))
    print(format_table(results))
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            "{}/{}".format(r["workload"], name): {
                "value": r["values"][name], "unit": unit,
            }
            for r in results
            for name, unit in (PER_LAYER if args.trace else END_TO_END)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program to measure: {} is missing".format(
            os.path.join("src", "repro")), file=sys.stderr)
        return 2

    if args.workload is None:
        print(json.dumps(run_all(args)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.rows:
        print(json.dumps(result))
        return 0
    print(format_table([result]))
    if args.trace:
        print(format_layers(result["values"]))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

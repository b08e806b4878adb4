#!/usr/bin/env python
"""Benchmark the batch service: warm pool vs compile cache.

Runs the same deterministic fuzz batch through three configurations of
:class:`repro.service.BatchRunner` and reports tasks/second:

* ``pool_cold`` — the persistent warm pool: N workers import the
  pipeline once and serve every task over pipes (the cache is being
  *populated* but never hits);
* ``pool_warm_cache`` — the same batch again against the now-warm
  compile cache: every task is served without dispatching a worker;
* ``disk_warm`` — the same batch against a *fresh* cache instance
  pointed at the populated on-disk store: the memory tier is empty,
  so every hit walks the digest-prefix-sharded disk layout (PR 8).

Rows are bench_compare-compatible ``{workload, phase, wall_s, ...}``
objects; the committed baselines are ``BENCH_pr5.json`` and
``BENCH_pr8.json`` (which adds ``disk_warm``; both also keep a row
for the since-removed fork-per-task transport).  ``--check``
enforces the floors in-process (warm cache >= 10x cold pool, sharded
disk hits >= 5x cold pool); CI applies the
same floors to the emitted rows via ``bench_compare.py --ratio-max``,
which keeps the guard machine-independent.

Run:  PYTHONPATH=src python tools/bench_batch.py -o BENCH_pr8.json
      PYTHONPATH=src python tools/bench_batch.py --check
"""

import argparse
import json
import shutil
import sys
import tempfile
import time

from repro.cache import CompileCache
from repro.service import BatchRunner, fuzz_tasks

#: PR-5 acceptance floor (speedup factor).
WARM_OVER_COLD_MIN = 10.0
#: PR-8 floor: pure sharded-disk hits (no memory tier, no worker
#: dispatch) must still beat the cold pool by this factor.
DISK_OVER_COLD_MIN = 5.0


def run_config(tasks, workers, label, **runner_kwargs):
    runner = BatchRunner(max_workers=workers, **runner_kwargs)
    started = time.perf_counter()
    summary = runner.run(tasks)
    wall = time.perf_counter() - started
    counts = summary.counts
    if counts["failed"] or counts["pending"]:
        raise SystemExit(
            "bench_batch: {} run did not complete cleanly: {}".format(
                label, counts
            )
        )
    return wall, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tasks", type=int, default=200, metavar="N",
        help="fuzz batch size (default 200)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="K",
        help="worker processes per run (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fuzz stream seed"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless warm cache >= {:.0f}x and disk hits >= {:.0f}x "
        "cold pool".format(WARM_OVER_COLD_MIN, DISK_OVER_COLD_MIN),
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write bench_compare-compatible JSON rows to FILE",
    )
    args = parser.parse_args(argv)

    tasks = fuzz_tasks(args.tasks, seed=args.seed)
    workload = "batch-fuzz-{}".format(args.tasks)
    store_dir = tempfile.mkdtemp(prefix="bench-batch-store-")
    cache = CompileCache(capacity=max(args.tasks, 1), directory=store_dir)
    # A fresh instance over the same sharded store: its memory tier
    # starts empty, so every lookup is a pure disk hit.
    disk_cache = CompileCache(
        capacity=max(args.tasks, 1), directory=store_dir
    )

    configs = [
        ("pool_cold", cache),
        ("pool_warm_cache", cache),
        ("disk_warm", disk_cache),
    ]
    rows = []
    walls = {}
    try:
        for phase, phase_cache in configs:
            wall, counts = run_config(
                tasks, args.workers, phase, cache=phase_cache
            )
            walls[phase] = wall
            rows.append({
                "workload": workload,
                "phase": phase,
                "wall_s": round(wall, 6),
                "tasks": args.tasks,
                "workers": args.workers,
                "tasks_per_s": round(args.tasks / wall, 3) if wall else None,
            })
            print("{:<16} {:>9.3f}s  {:>9.1f} tasks/s  ({} compiled, "
                  "{} cached)".format(
                      phase, wall, args.tasks / wall if wall else 0.0,
                      counts["compiled"], counts["cached"]))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    if walls["pool_warm_cache"]:
        print("warm-cache speedup over cold pool: {:.2f}x".format(
            walls["pool_cold"] / walls["pool_warm_cache"]))
    if walls["disk_warm"]:
        print("sharded-disk speedup over cold pool: {:.2f}x".format(
            walls["pool_cold"] / walls["disk_warm"]))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        print("wrote {}".format(args.output))

    if args.check:
        problems = []
        if walls["pool_warm_cache"] * WARM_OVER_COLD_MIN \
                > walls["pool_cold"]:
            problems.append(
                "pool_warm_cache {:.3f}s is not {:.0f}x faster than "
                "pool_cold {:.3f}s".format(
                    walls["pool_warm_cache"], WARM_OVER_COLD_MIN,
                    walls["pool_cold"],
                )
            )
        if walls["disk_warm"] * DISK_OVER_COLD_MIN > walls["pool_cold"]:
            problems.append(
                "disk_warm {:.3f}s is not {:.0f}x faster than "
                "pool_cold {:.3f}s".format(
                    walls["disk_warm"], DISK_OVER_COLD_MIN,
                    walls["pool_cold"],
                )
            )
        if problems:
            for problem in problems:
                print("FAIL: {}".format(problem))
            return 1
        print("throughput floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

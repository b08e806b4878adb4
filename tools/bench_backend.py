#!/usr/bin/env python
"""Benchmark the compact back-end kernels against their reference
twins, phase by phase, as bench_compare-compatible rows.

Workload ``backend-n<SIZE>``: one large straight-line block (default
n=2048, operand window 96: wide webs, a dense conflict graph, heavy
spill pressure at r=8).  Phases, each timed compact-vs-reference
*interleaved* over ``--repeats`` rounds keeping per-phase minima (so a
load spike hits both sides instead of skewing the ratio):

- ``interference_compact`` / ``interference_reference`` —
  :func:`build_compact_interference` vs
  :func:`build_interference_graph` (same webs, same edges; checked
  bit-identical before any timing is trusted);
- ``color_compact`` / ``color_reference`` — the worklist bitmask
  colorer vs the networkx Chaitin round at r=8 (same spill order,
  same coloring, checked);
- ``sched_compact`` / ``sched_reference`` — the array-based
  augmented scheduler vs the dict/graph one on the same schedule
  graph + E_f (same cycle map, checked).

Workload ``backend-pinter-n128``: the first-round PIG of
``random_block(size=128, seed=128)`` at r=8 — the driver's primary
path.  Phases ``pinter_compact`` / ``pinter_reference`` time the
compact combined-coloring kernel against its networkx oracle,
interleaved the same way, after checking that both return the same
coloring, spills, selection order and removed false edges.

Floors (``--check``; ``make bench-backend-check`` re-asserts them as
same-run ratios with ``tools/bench_compare.py``): compact must be
>= 3x faster than reference on BOTH the interference and Chaitin
coloring phases of the large block, and >= 5x on combined coloring.

Run:  PYTHONPATH=src python tools/bench_backend.py -o BENCH_backend_current.json
      PYTHONPATH=src python tools/bench_backend.py --check
Exit: 0 on success (and, with --check, floors hold), 1 otherwise.
"""

import argparse
import json
import sys
import time

from repro.deps.false_dependence import block_false_dependence_graph
from repro.deps.schedule_graph import block_schedule_graph
from repro.machine.presets import two_unit_superscalar
from repro.regalloc.chaitin import chaitin_color
from repro.regalloc.compact import (
    build_compact_interference,
    compact_chaitin_color,
)
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.spill import make_cost_function
from repro.sched.augmented import augmented_schedule, compact_augmented_schedule
from repro.workloads import RandomBlockConfig, random_block

#: PR-10 acceptance floor: compact must be >= 3x faster than reference
#: on the interference and coloring phases of the large block.
COMPACT_OVER_REFERENCE_MIN = 3.0

#: Combined-coloring floor: the compact Pinter kernel must be >= 5x
#: faster than its networkx oracle on the n=128 first-round PIG.
PINTER_OVER_REFERENCE_MIN = 5.0

#: Instruction count of the combined-coloring workload's block.
PINTER_SIZE = 128

#: Registers for the coloring phases — low enough that the dense block
#: spills hard, exercising the victim scan, not just simplification.
COLORS = 8


def timed(thunk):
    started = time.perf_counter()
    result = thunk()
    return time.perf_counter() - started, result


def _cycles(schedule):
    return {instr.uid: cycle for instr, cycle in schedule.cycle_of.items()}


def _interleaved(pairs, repeats):
    """Per-phase minimum wall over *repeats* rounds, compact and
    reference alternating so a load spike hits both sides."""
    walls = {}
    for _ in range(repeats):
        for name, (fast, slow) in pairs.items():
            for suffix, thunk in (("compact", fast), ("reference", slow)):
                key = "{}_{}".format(name, suffix)
                wall, _ = timed(thunk)
                walls[key] = min(walls.get(key, float("inf")), wall)
    return walls


def _record(workload, pairs, walls, n_instrs, rows):
    """Append one row per phase; return {phase_pair_name: speedup}."""
    speedups = {}
    for name in pairs:
        for suffix in ("compact", "reference"):
            phase = "{}_{}".format(name, suffix)
            rows.append({
                "workload": workload,
                "phase": phase,
                "wall_s": round(walls[phase], 6),
                "n_instrs": n_instrs,
            })
            print("{:<20} {:<24} {:>9.3f}s".format(
                workload, phase, walls[phase]))
        compact_wall = walls["{}_compact".format(name)]
        reference_wall = walls["{}_reference".format(name)]
        speedup = (
            reference_wall / compact_wall if compact_wall else float("inf")
        )
        speedups[name] = speedup
        print("{:<20} {} compact speedup: {:.2f}x".format(
            workload, name, speedup))
    return speedups


def bench_pinter(repeats, rows):
    """Combined coloring on the n=128 first-round PIG at r=8.

    Returns {"pinter": speedup} for the floor check.
    """
    # Imported here, not at the top: loading ``repro.core`` before the
    # n=2048 workload shifts garbage collections into its short
    # compact-interference runs and halves that measured ratio.
    from repro.core.coloring import pinter_color, reference_pinter_color
    from repro.core.parallel_interference import (
        build_parallel_interference_graph,
    )

    fn = random_block(RandomBlockConfig(size=PINTER_SIZE, seed=PINTER_SIZE))
    n_instrs = sum(len(b) for b in fn.blocks())
    workload = "backend-pinter-n{}".format(PINTER_SIZE)
    pig = build_parallel_interference_graph(fn, two_unit_superscalar())
    cost = make_cost_function(fn)

    def fast():
        return pinter_color(pig, COLORS, cost=cost)

    def slow():
        return reference_pinter_color(pig, COLORS, cost=cost)

    if fast().signature() != slow().signature():
        raise SystemExit(
            "bench_backend: compact and reference Pinter coloring disagree "
            "on {} — timings would be meaningless".format(workload)
        )
    pairs = {"pinter": (fast, slow)}
    return _record(
        workload, pairs, _interleaved(pairs, repeats), n_instrs, rows
    )


def bench_large_block(size, window, repeats, rows):
    """Interference + coloring + scheduling on one dense block.

    Returns {phase_pair_name: speedup} for the floor check.
    """
    machine = two_unit_superscalar()
    fn = random_block(
        RandomBlockConfig(size=size, seed=size, window=window,
                          load_fraction=0.3)
    )
    n_instrs = sum(len(b) for b in fn.blocks())
    workload = "backend-n{}".format(size)

    # -- equivalence first: timings of diverging kernels are garbage.
    reference = build_interference_graph(fn)
    compact = build_compact_interference(fn)
    ref_edges = {
        tuple(sorted((a.index, b.index))) for a, b in reference.edge_list()
    }
    if set(
        tuple(sorted(e)) for e in compact.graph.edge_list()
    ) != ref_edges:
        raise SystemExit(
            "bench_backend: compact and reference interference disagree "
            "on {} — timings would be meaningless".format(workload)
        )
    ref_color = chaitin_color(reference.graph, COLORS)
    compact_color = compact_chaitin_color(compact.graph, COLORS)
    if (
        [w.index for w in ref_color.spilled]
        != compact_color.spilled
        or {w.index: c for w, c in ref_color.coloring.items()}
        != {
            i: c
            for i, c in enumerate(compact_color.colors)
            if c is not None
        }
    ):
        raise SystemExit(
            "bench_backend: compact and reference coloring disagree on "
            "{} — timings would be meaningless".format(workload)
        )
    block = fn.entry
    sg = block_schedule_graph(block, machine=machine)
    fdg = block_false_dependence_graph(block, machine)
    if _cycles(augmented_schedule(sg, fdg, machine)) != _cycles(
        compact_augmented_schedule(sg, fdg, machine)
    ):
        raise SystemExit(
            "bench_backend: compact and reference schedulers disagree on "
            "{} — timings would be meaningless".format(workload)
        )

    # -- interleaved timing, per-phase minima.
    pairs = {
        "interference": (
            lambda: build_compact_interference(fn),
            lambda: build_interference_graph(fn),
        ),
        "color": (
            lambda: compact_chaitin_color(compact.graph, COLORS),
            lambda: chaitin_color(reference.graph, COLORS),
        ),
        "sched": (
            lambda: compact_augmented_schedule(sg, fdg, machine),
            lambda: augmented_schedule(sg, fdg, machine),
        ),
    }
    return _record(
        workload, pairs, _interleaved(pairs, repeats), n_instrs, rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=2048, metavar="N",
        help="large-block instruction count (default 2048)",
    )
    parser.add_argument(
        "--window", type=int, default=96, metavar="W",
        help="operand reuse window of the large block (default 96)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="take each phase's minimum wall time over R interleaved "
        "runs (default 3; noise robustness)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless compact >= {:.0f}x reference on interference "
        "and Chaitin coloring and >= {:.0f}x on combined coloring".format(
            COMPACT_OVER_REFERENCE_MIN, PINTER_OVER_REFERENCE_MIN
        ),
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write bench_compare-compatible JSON rows to FILE",
    )
    args = parser.parse_args(argv)
    if args.size < 256:
        raise SystemExit(
            "bench_backend: --size below 256 is all timer noise"
        )
    if args.repeats < 1:
        raise SystemExit("bench_backend: --repeats must be at least 1")

    rows = []
    speedups = bench_large_block(args.size, args.window, args.repeats, rows)
    speedups.update(bench_pinter(args.repeats, rows))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.output))

    if args.check:
        floors = {
            "interference": COMPACT_OVER_REFERENCE_MIN,
            "color": COMPACT_OVER_REFERENCE_MIN,
            "pinter": PINTER_OVER_REFERENCE_MIN,
        }
        failed = [
            "{} ({:.2f}x < {:.0f}x)".format(name, speedups[name], floor)
            for name, floor in floors.items()
            if speedups[name] < floor
        ]
        if failed:
            print(
                "bench_backend: FAIL — compact below its floor on: "
                "{}".format(", ".join(failed)),
                file=sys.stderr,
            )
            return 1
        print("bench_backend: floors hold (interference {:.2f}x, "
              "color {:.2f}x, pinter {:.2f}x)".format(
                  speedups["interference"], speedups["color"],
                  speedups["pinter"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

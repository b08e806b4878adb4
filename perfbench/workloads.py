"""The benchmark's workloads: inputs made from the seed, set-up, the
measured closed loop, and the checks of every output.

Every workload is a closed loop with one client: the next compile (or
batch) starts when the previous one returned.  A run measures whole
passes over the workload's inputs; the number of passes comes from
``--seconds`` and a fixed nominal pass time, so the same arguments give
the same work, and the same sample count, on any code being measured.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.tracing import Recorder, root_span

MACHINE = "two-unit-superscalar"
FUZZ_STATEMENTS = 24
POOL_WORKERS = 2

#: pressure-blocks: the fixed catalogue of straight-line blocks, as
#: ``random_block`` sizes (each generated with ``seed=size``).
PRESSURE_SIZES = (64, 80, 96, 112, 128)
#: diamond-cfg: ``diamond_chain`` lengths, in diamonds of block_size 8.
DIAMOND_COUNTS = (16, 24, 32, 40, 48)
DIAMOND_BLOCK_SIZE = 8
#: fuzz-batch: programs of the cold pass, new programs and in-batch
#: duplicates of the replay pass, and cold programs it re-submits.
FUZZ_COLD = 40
FUZZ_NEW = 20
FUZZ_DUPLICATES = 8
FUZZ_REPLAYS = 20


@dataclass(frozen=True)
class Spec:
    """One workload.

    Attributes:
        registers: r for the driver; None keeps the machine's own.
        optimize: Run the optimizer before allocation.
        pass_s: Nominal seconds of one pass on a 2-core x86 host; a run
            makes ``round(seconds / pass_s)`` passes, at least one.
        reference_sample: Inputs the reference process recompiles
            under another hash seed (None: all of them).
    """

    name: str
    registers: Optional[int]
    optimize: bool
    pass_s: float
    reference_sample: Optional[int]

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("pressure-blocks", 8, False, 7.5, 1),
        Spec("diamond-cfg", 32, False, 2.2, 2),
        Spec("fuzz-batch", None, True, 3.0, None),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def make_inputs(spec: Spec, seed: int) -> Dict[str, List[dict]]:
    """Primitive input descriptors for *spec* under *seed*.

    Returns ``{"inputs": distinct inputs}`` and, for the batch workload,
    ``"cold"`` and ``"replay"``: the two passes' task lists.
    """
    rng = random.Random("{}:{}".format(spec.name, seed))
    if spec.name == "pressure-blocks":
        inputs = [{"kind": "block", "size": size} for size in PRESSURE_SIZES]
        rng.shuffle(inputs)
        return {"inputs": inputs}
    if spec.name == "diamond-cfg":
        inputs = [
            {"kind": "diamonds", "diamonds": count,
             "seed": rng.randrange(1 << 30)}
            for count in DIAMOND_COUNTS
        ]
        rng.shuffle(inputs)
        return {"inputs": inputs}
    from repro.service.manifest import fuzz_tasks

    programs = [
        {"kind": "source", "task_id": task.task_id, "name": task.name,
         "fuzz_seed": i, "text": task.text}
        for i, task in enumerate(fuzz_tasks(
            FUZZ_COLD + FUZZ_NEW, seed=0, num_statements=FUZZ_STATEMENTS
        ))
    ]
    rng.shuffle(programs)
    cold = programs[:FUZZ_COLD]
    new = programs[FUZZ_COLD:]
    duplicates = [
        dict(program, task_id=program["task_id"] + "/dup")
        for program in rng.sample(new, FUZZ_DUPLICATES)
    ]
    replay = rng.sample(cold, FUZZ_REPLAYS) + new + duplicates
    rng.shuffle(replay)
    return {"inputs": programs, "cold": cold, "replay": replay}


def build_function(desc: dict):
    from repro.workloads import RandomBlockConfig, random_block
    from repro.workloads.generator import diamond_chain

    if desc["kind"] == "block":
        return random_block(
            RandomBlockConfig(size=desc["size"], seed=desc["size"])
        )
    return diamond_chain(
        num_diamonds=desc["diamonds"],
        block_size=DIAMOND_BLOCK_SIZE,
        seed=desc["seed"],
    )


def input_key(desc: dict) -> str:
    if desc["kind"] == "block":
        return "block-n{}".format(desc["size"])
    if desc["kind"] == "diamonds":
        return "diamonds-{}x{}".format(desc["diamonds"], DIAMOND_BLOCK_SIZE)
    return desc["name"]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class State:
    driver: object
    config: object


def setup(spec: Spec, warm_pool: bool) -> State:
    """Imports, driver construction, one untimed warm-up compile (the
    first compile in a process pays lazy set-up), and for the batch
    workload a warm-up batch that spawns the worker pool."""
    from repro.machine.presets import ALL_PRESETS
    from repro.pipeline.driver import CompilationDriver, DriverConfig

    config = DriverConfig(optimize=spec.optimize)
    driver = CompilationDriver(
        ALL_PRESETS[MACHINE](), num_registers=spec.registers, config=config
    )
    if spec.name == "pressure-blocks":
        driver.compile_function(build_function({"kind": "block", "size": 16}))
    elif spec.name == "diamond-cfg":
        driver.compile_function(
            build_function({"kind": "diamonds", "diamonds": 2, "seed": 0})
        )
    else:
        from repro.service.batch import BatchRunner
        from repro.service.manifest import fuzz_tasks

        warm = fuzz_tasks(POOL_WORKERS, seed=-1, num_statements=8)
        driver.compile_text(warm[0].text, name=warm[0].name)
        if warm_pool:
            BatchRunner(
                machine=MACHINE, driver_config=config,
                max_workers=POOL_WORKERS, use_pool=True,
            ).run(warm)
    return State(driver=driver, config=config)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one measured run observed.

    ``compiles`` holds ``(input key, status, quality row)`` per compile
    (per task for the batch workload); ``latencies`` one entry per
    compile that ran (cache hits excluded).  ``pass_rates`` has the
    compiles per second of each pass.  ``failures`` maps the
    index of each compile that failed, or whose output failed a check,
    to the reason.
    """

    wall_s: float = 0.0
    pass_rates: List[float] = field(default_factory=list)
    compiles: List[Tuple[str, str, Optional[dict]]] = field(
        default_factory=list
    )
    latencies: List[float] = field(default_factory=list)
    theorem1: Dict[str, List[str]] = field(default_factory=dict)
    failures: Dict[int, str] = field(default_factory=dict)
    hit_ratio: Dict[str, float] = field(default_factory=dict)
    retries: int = 0

    def fail(self, index: int, why: str) -> None:
        """Count compile *index* as failed (once, with its first
        reason)."""
        self.failures.setdefault(
            index, "{}: {}".format(self.compiles[index][0], why)
        )

    def first_rows(self) -> Dict[str, dict]:
        """The quality row of each distinct input's first compile."""
        rows: Dict[str, dict] = {}
        for key, _, row in self.compiles:
            if row is not None:
                rows.setdefault(key, row)
        return rows

    def check(self, reference: List[dict]) -> None:
        """Fail every compile that failed outright, whose status or
        quality row differs from the reference compile of its input
        (or, without one, from its input's first compile), or whose
        input's reference output failed the interpreter check."""
        expected = {
            r["key"]: (r["status"], r["row"], r["equivalent"])
            for r in reference
        }
        for index, (key, status, row) in enumerate(self.compiles):
            if status == "failed":
                self.fail(index, "compile failed")
                continue
            want = expected.setdefault(key, (status, row, True))
            if (status, row) != want[:2]:
                self.fail(index, "got {} {}, reference {} {}".format(
                    status, row, *want[:2]
                ))
            elif not want[2]:
                self.fail(index, "reference output failed the interpreter")


def theorem1_warnings(report) -> List[str]:
    return [
        d.message for d in report.diagnostics
        if d.phase == "theorem1" and d.severity == "warning"
    ]


def measure_functions(
    spec: Spec,
    state: State,
    inputs: List[dict],
    passes: int,
    recorder: Optional[Recorder],
) -> Outcome:
    """In-process closed loop over ``compile_function``.  After the
    measured window every output runs through the interpreter against
    its input function."""
    from repro.ir.evaluator import equivalent

    functions = [build_function(desc) for desc in inputs]
    keys = [input_key(desc) for desc in inputs]
    results = []
    outcome = Outcome()
    for _ in range(passes):
        start = time.perf_counter()
        for index, fn in enumerate(functions):
            begin = time.perf_counter()
            with root_span(recorder, "pipeline.compile"):
                result = state.driver.compile_function(fn)
            outcome.latencies.append(time.perf_counter() - begin)
            results.append((index, result))
        wall = time.perf_counter() - start
        outcome.wall_s += wall
        outcome.pass_rates.append(len(functions) / wall)

    for number, (index, result) in enumerate(results):
        key = keys[index]
        row = result.result.as_row() if result.ok else None
        outcome.compiles.append((key, result.report.status, row))
        outcome.theorem1.setdefault(key, theorem1_warnings(result.report))
        if result.ok and not equivalent(
            functions[index], result.result.allocated_function
        ):
            outcome.fail(number, "interpreter mismatch")
    return outcome


def measure_batches(
    spec: Spec,
    state: State,
    cold: List[dict],
    replay: List[dict],
    passes: int,
    recorder: Optional[Recorder],
    work_dir: str,
) -> Outcome:
    """Each pass: a fresh on-disk compile cache, the cold batch (cache
    writes only), then the replay batch (re-submitted cold programs,
    new programs and in-batch duplicates), on a two-worker pool.
    Results carry quality rows, not code; :meth:`Outcome.check` holds
    them against the reference compiles."""
    from repro.cache import CompileCache
    from repro.service.batch import BatchRunner
    from repro.service.manifest import CompileTask

    batches = [
        (label, [
            CompileTask(task_id=d["task_id"], name=d["name"], text=d["text"])
            for d in descs
        ])
        for label, descs in (("cold", cold), ("replay", replay))
    ]
    outcome = Outcome()
    hits = {label: 0 for label, _ in batches}
    for number in range(passes):
        start = time.perf_counter()
        runner = BatchRunner(
            machine=MACHINE, registers=spec.registers,
            driver_config=state.config, max_workers=POOL_WORKERS,
            use_pool=True,
            cache=CompileCache(
                directory=os.path.join(work_dir, "pass{}".format(number))
            ),
        )
        for label, batch in batches:
            with root_span(recorder, "service.batch.run"):
                summary = runner.run(batch)
            for rec in summary.records:
                outcome.compiles.append((rec.name, rec.status, rec.metrics))
                outcome.retries += max(0, rec.attempts - 1)
                hits[label] += rec.cached
                if rec.attempts:
                    outcome.latencies.append(rec.duration_s)
        wall = time.perf_counter() - start
        outcome.wall_s += wall
        outcome.pass_rates.append(sum(len(b) for _, b in batches) / wall)
    for label, batch in batches:
        outcome.hit_ratio[label] = hits[label] / (len(batch) * passes)
    return outcome


# ----------------------------------------------------------------------
# Reference compiles (run in a separate process under another hash seed)
# ----------------------------------------------------------------------


def reference_compile(
    state: State, inputs: List[dict], recorder: Optional[Recorder]
) -> list:
    """Compile each input directly with the driver (no pool, no cache)."""
    compiled = []
    for desc in inputs:
        with root_span(recorder, "pipeline.compile"):
            if desc["kind"] == "source":
                result = state.driver.compile_text(
                    desc["text"], name=desc["name"]
                )
            else:
                result = state.driver.compile_function(build_function(desc))
        compiled.append(result)
    return compiled


def reference_results(inputs: List[dict], compiled: list) -> List[dict]:
    """One primitive result per reference compile: quality row, status,
    Theorem 1 warnings, and the interpreter's verdict on the output."""
    return [
        {
            "key": input_key(desc),
            "row": result.result.as_row() if result.ok else None,
            "status": result.report.status,
            "theorem1": theorem1_warnings(result.report),
            "equivalent": result.ok and _equivalent(desc, result),
        }
        for desc, result in zip(inputs, compiled)
    ]


def _equivalent(desc: dict, result) -> bool:
    """Interpreter check of one output: a fuzz program against its
    unoptimized lowering on its own input memory, a generated function
    against itself."""
    from repro.frontend.lower import compile_source
    from repro.ir.evaluator import equivalent
    from repro.workloads.source_fuzz import (
        SourceFuzzConfig,
        random_input_memory,
    )

    allocated = result.result.allocated_function
    if desc["kind"] != "source":
        return equivalent(build_function(desc), allocated)
    config = SourceFuzzConfig(
        seed=desc["fuzz_seed"], num_statements=FUZZ_STATEMENTS
    )
    return equivalent(
        compile_source(desc["text"], name=desc["name"]),
        allocated,
        initial_memory=random_input_memory(config),
    )

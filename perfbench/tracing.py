"""Per-layer spans recorded from outside the program.

A traced run wraps the public functions the compile driver and the
batch service call by name (:data:`TARGETS`) and records one span per
call: its name (``<layer>.<function>``, the layer being the ``repro``
subpackage that defines it), its duration, and the time its child
spans cover.  Spans stay in memory as per-name aggregates.  Calls a
layer makes internally, below the names listed here, count as that
layer's self time.  The untraced run installs none of this.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Recorder:
    """Span aggregates for one process.

    ``stats[name] = [calls, total_s, self_s]``; ``roots[name]`` sums the
    durations of top-level spans, the denominators of self-time shares;
    ``counters`` and ``samples`` hold what the wrappers' hooks take from
    arguments and results.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: List[list] = []
        self.stats: Dict[str, List[float]] = {}
        self.roots: Dict[str, float] = {}
        self.root_of: Dict[str, str] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.spans = 0

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = self.clock() - frame[1]
        self.stack.pop()
        name = frame[0]
        if self.stack:
            self.stack[-1][2] += duration
            root = self.stack[0][0]
        else:
            root = name
            self.roots[name] = self.roots.get(name, 0.0) + duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
            self.root_of[name] = root
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        self.spans += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def self_share(self, name: str) -> float:
        """Self time of *name* over the total time of its root spans."""
        entry = self.stats.get(name)
        if entry is None:
            return 0.0
        denominator = self.roots.get(self.root_of[name], 0.0)
        return entry[2] / denominator if denominator else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stats": self.stats,
            "roots": self.roots,
            "root_of": self.root_of,
            "counters": self.counters,
            "samples": self.samples,
            "spans": self.spans,
        }

    def merge(self, data: Dict[str, object]) -> None:
        """Fold another process's :meth:`as_dict` into this one."""
        for name, (calls, total, own) in data["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
            self.root_of.setdefault(name, data["root_of"][name])
        for name, total in data["roots"].items():
            self.roots[name] = self.roots.get(name, 0.0) + total
        for name, amount in data["counters"].items():
            self.count(name, amount)
        for name, values in data["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        self.spans += data["spans"]


@contextmanager
def root_span(recorder: Optional[Recorder], name: str) -> Iterator[None]:
    """A top-level span when tracing, nothing otherwise."""
    if recorder is None:
        yield
        return
    with recorder.span(name):
        yield


# -- hooks: counts taken from a wrapped call's arguments and result ------


def _on_color(rec: Recorder, frame, args, result) -> None:
    rec.count("core.pinter_color.sacrificed", result.parallelism_sacrificed)


def _on_cache_get(rec: Recorder, frame, args, result) -> None:
    rec.count("cache.get.hits" if result is not None else "cache.get.misses")


def _on_dispatch(rec: Recorder, frame, args, result) -> None:
    # Wait since the enclosing root span, the batch run, started.
    if rec.stack:
        rec.sample("service.pool.queue_wait_s", frame[1] - rec.stack[0][1])


def _on_collect(rec: Recorder, frame, args, result) -> None:
    payload = result.result if isinstance(result.result, dict) else {}
    report = payload.get("report")
    if isinstance(report, dict):
        phases = report.get("phase_seconds") or {}
        rec.count("service.worker.busy_s", sum(phases.values()))


#: ``(module, attribute path, span name, hook)``.  Driver-module
#: entries patch the names ``repro.pipeline.driver`` imported; the rest
#: are attributes the driver or the service look up at call time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.pipeline.driver", "verify_function", "ir.verify_function", None),
    ("repro.pipeline.driver", "preschedule_function",
     "sched.preschedule_function", None),
    ("repro.pipeline.driver", "build_parallel_interference_graph",
     "core.build_parallel_interference_graph", None),
    ("repro.pipeline.driver", "make_cost_function",
     "regalloc.make_cost_function", None),
    ("repro.pipeline.driver", "pinter_color", "core.pinter_color", _on_color),
    ("repro.pipeline.driver", "insert_spill_code",
     "regalloc.insert_spill_code", None),
    ("repro.pipeline.driver", "make_assignment",
     "regalloc.make_assignment", None),
    ("repro.pipeline.driver", "apply_assignment",
     "regalloc.apply_assignment", None),
    ("repro.pipeline.driver", "_chaitin_allocate",
     "regalloc.chaitin_fallback", None),
    ("repro.regalloc.compact", "compact_chaitin_allocate",
     "regalloc.chaitin_fallback", None),
    ("repro.pipeline.driver", "find_false_dependences",
     "pipeline.find_false_dependences", None),
    ("repro.pipeline.driver", "block_schedule_graph",
     "deps.block_schedule_graph", None),
    ("repro.pipeline.driver", "false_dependence_graph",
     "deps.false_dependence_graph", None),
    ("repro.sched.augmented", "compact_augmented_schedule",
     "sched.compact_augmented_schedule", None),
    ("repro.frontend.lower", "compile_source", "frontend.compile_source",
     None),
    ("repro.opt", "optimize", "opt.optimize", None),
    ("repro.cache.store", "CompileCache.get", "cache.get", _on_cache_get),
    ("repro.cache.store", "CompileCache.put", "cache.put", None),
    ("repro.service.pool", "WorkerPool.dispatch", "service.pool.dispatch",
     _on_dispatch),
    ("repro.service.pool", "WorkerPool.collect", "service.pool.collect",
     _on_collect),
)

#: Every span name the wrappers record, in :data:`TARGETS` order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))


def wrap(
    recorder: Recorder,
    name: str,
    fn: Callable,
    hook: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if hook is not None:
            hook(recorder, frame, args, result)
        return result

    return traced


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every :data:`TARGETS` entry for the duration of the block
    and restore the originals after it."""
    saved = []
    try:
        for module, path, name, hook in TARGETS:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(recorder, name, original, hook))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, seconds."""

    def noop():
        return None

    traced = wrap(Recorder(), "noop", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)

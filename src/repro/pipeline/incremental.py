"""Region-grain incremental compilation.

Pinter's construction makes the scheduling region the natural unit of
reuse: the parallelizable interference graph is a per-region dependence
kernel spliced onto the global web graph, and instructions of different
regions are never co-issued, so a region's kernel depends on nothing
outside the region's own schedule graph and the machine.  That makes
the kernel a perfect cache value: under the edit-recompile loop a
one-region edit changes one region digest, and every other region's
kernel replays from the store instead of being rebuilt.

This module is the reuse path:

* :func:`region_cache_for` — the process-wide region-kernel store, a
  :class:`~repro.cache.store.CompileCache` opened with the ``region``
  namespace (own shards, quarantine, and LRU inside a shared
  ``--cache-dir``).
* :func:`region_false_graph` — one scheduling region's G_f, the single
  source of region graphs for
  :func:`~repro.core.parallel_interference.build_parallel_interference_graph`
  (given a ``region_cache``, it composes a function from replayed and
  rebuilt regions, bit-identical to the cold build) and for the
  Theorem 1 check.
* :func:`cached_region_fdg` — the same lookup for a prebuilt schedule
  graph; used by the scheduler's per-block false-dependence graphs.

Cache honesty mirrors the whole-compile tiers:

* Entries are stored in the validated worker-result shape with the
  kernel rows as a ``pig_region`` report payload (hex wire rows, see
  :func:`kernel_to_report`), so the store's ``_is_cacheable`` gate and
  :func:`_kernel_from_report`'s validation apply on the way in and on
  the way out; a corrupt or mismatched entry degrades to a miss and a
  local rebuild.
* **Fault-armed processes neither read nor write the cache** — an
  injected fault must never freeze into a stored kernel, and a replay
  must never mask the fault path under test.  Degraded ladder rungs
  are kept out one layer up: the driver consults the cache only for
  its primary engine, and the batch/serve retry ladders disable the
  region cache outright in their degraded-rung configs.

Every lookup emits ``cache.region.{hit,miss}`` and every PIG build
given a store that serves its engine ``cache.region.compose`` — trace
counters, so ``repro stats`` surfaces the hit rate of a session.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.regions import Region
from repro.cache.keys import (
    RegionCacheKey,
    region_cache_key,
    region_cache_key_from_digest,
    region_digest_parts,
)
from repro.cache.store import CompileCache
from repro.core.scheduling_value import region_value_rows
from repro.deps.bitset import DependenceBitKernel, InstructionIndex
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    false_dependence_graph,
)
from repro.deps.global_deps import (
    shared_function_dependence_graph,
    transit_dependence_pairs,
)
from repro.deps.reference import reference_false_dependence_graph
from repro.deps.schedule_graph import ScheduleGraph, region_schedule_graph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.printer import format_instruction
from repro.machine.model import MachineDescription
from repro.obs import get_metrics, get_tracer
from repro.utils import faults

#: Report discriminator of a stored region kernel.
PIG_REGION_KIND = "pig_region"

#: Engines whose kernel has wire rows, i.e. the engines the region
#: cache serves (the reference engine builds pair sets, not rows).
CACHEABLE_ENGINES = ("bitset",)

#: Regions/blocks below this many instructions are built inline
#: without touching the cache: the kernel build is cheaper than the
#: digest + store round-trip.
MIN_CACHE_INSTRS = 8

#: Memory-tier capacity of the shared region cache (kernels are small;
#: a function has many regions, so this runs deeper than the
#: whole-compile tier).
REGION_CACHE_CAPACITY = 4096


# ----------------------------------------------------------------------
# The shared store
# ----------------------------------------------------------------------

_CACHES: Dict[Optional[str], CompileCache] = {}


def region_cache_for(directory: Optional[str]) -> CompileCache:
    """The process-wide region-kernel cache rooted at *directory*
    (``None`` = memory-only).  One instance per directory, shared by
    every driver in the process, so the memory LRU keeps kernels warm
    across compiles of the same session."""
    cache = _CACHES.get(directory)
    if cache is None:
        cache = CompileCache(
            capacity=REGION_CACHE_CAPACITY,
            directory=directory,
            namespace=None if directory is None else "region",
        )
        _CACHES[directory] = cache
    return cache


def reset_region_caches() -> None:
    """Drop every process-wide region cache (tests)."""
    _CACHES.clear()


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------


def rows_to_hex(rows: Sequence[int]) -> List[str]:
    """Endianness-neutral wire form of big-int rows."""
    return [format(row, "x") for row in rows]


def rows_from_hex(texts: Sequence[str]) -> List[int]:
    """Inverse of :func:`rows_to_hex`."""
    return [int(text, 16) for text in texts]


def kernel_to_report(kernel, engine: str) -> Dict[str, object]:
    """One kernel's four row families as the ``pig_region`` report
    payload — hex wire rows, JSON-safe."""
    return {
        "kind": PIG_REGION_KIND,
        "engine": engine,
        "n": len(kernel.index),
        "reach": rows_to_hex(kernel.reach_rows),
        "contention": rows_to_hex(kernel.contention_rows),
        "et": rows_to_hex(kernel.et_rows),
        "ef": rows_to_hex(kernel.ef_rows),
    }


def _kernel_from_report(
    report: Dict[str, object], instructions: Sequence[Instruction]
) -> Optional[DependenceBitKernel]:
    """Rebuild a kernel from wire rows over the caller's own
    instruction sequence, or ``None`` when the report does not
    type-check (a poisoned entry may hold anything — trust nothing
    unvalidated)."""
    if not isinstance(report, dict) or report.get("kind") != PIG_REGION_KIND:
        return None
    n = len(instructions)
    if report.get("n") != n:
        return None
    rows: Dict[str, List[int]] = {}
    for key in ("reach", "contention", "et", "ef"):
        texts = report.get(key)
        if not isinstance(texts, list) or len(texts) != n:
            return None
        try:
            rows[key] = rows_from_hex(texts)
        except (TypeError, ValueError):
            return None
    return DependenceBitKernel(
        index=InstructionIndex(list(instructions)),
        reach_rows=rows["reach"],
        contention_rows=rows["contention"],
        et_rows=rows["et"],
        ef_rows=rows["ef"],
    )


# ----------------------------------------------------------------------
# Cache plumbing
# ----------------------------------------------------------------------


def _entry_for(kernel, engine: str, sg: ScheduleGraph) -> Dict[str, object]:
    """A kernel as a storable entry: the validated worker-result shape
    with the wire rows as the report, so the store's cacheability gate
    and :func:`_kernel_from_report` both apply.  The report
    additionally carries the region's positional ``(ep, height)``
    scheduling-value rows — like the kernel, a pure function of
    (schedule graph, machine) — so a replay prices false edges without
    rebuilding the schedule graph."""
    report = kernel_to_report(kernel, engine)
    ep_row, height_row = region_value_rows(sg)
    report["ep"] = ep_row
    report["height"] = height_row
    return {
        "status": "ok",
        "exit_code": 0,
        "failure_kind": None,
        "metrics": None,
        "report": report,
    }


def _value_rows_from_report(
    report: Dict[str, object], n: int
) -> Optional[Tuple[List[int], List[float]]]:
    """The stored ``(ep, height)`` rows, or ``None`` when absent or
    malformed (a hit without them is still correct — the value model
    falls back to walking the lazily rebuilt schedule graph)."""
    ep_row = report.get("ep")
    height_row = report.get("height")
    for row in (ep_row, height_row):
        if not isinstance(row, list) or len(row) != n:
            return None
        if not all(isinstance(x, (int, float)) for x in row):
            return None
    return ep_row, height_row


def _lookup(
    cache: CompileCache,
    key: RegionCacheKey,
    instructions: Sequence[Instruction],
):
    """``(kernel, value_rows)`` for *key* rebuilt over the caller's own
    instruction sequence, or ``None``.  Malformed rows (size drift, bad
    hex) degrade to a miss."""
    entry = cache.get(key)
    if entry is None:
        return None
    report = entry.get("report")
    kernel = _kernel_from_report(report, instructions)
    if kernel is None:
        return None
    return kernel, _value_rows_from_report(report, len(instructions))


def _note_region(what: str) -> None:
    get_metrics().counter("cache.region.{}".format(what)).inc()
    get_tracer().counter("cache.region.{}".format(what), 1)


def _cache_serves(
    cache: Optional[CompileCache], engine: str, size: int
) -> bool:
    """The honesty gates: a store is consulted only when there is one,
    the engine has wire rows, the region is big enough to be worth the
    round-trip, and **no fault is armed** (an injected fault must never
    freeze into a stored kernel, nor may a replay mask the fault path
    under test)."""
    return (
        cache is not None
        and engine in CACHEABLE_ENGINES
        and size >= MIN_CACHE_INSTRS
        and not faults.active_specs()
    )


def note_region_compose(cache: Optional[CompileCache], engine: str) -> None:
    """Count one whole-function build whose regions went through
    :func:`region_false_graph` with a store that serves *engine*
    (``cache.region.compose``); a build the store cannot serve counts
    nothing."""
    if cache is not None and engine in CACHEABLE_ENGINES:
        _note_region("compose")


def cached_region_fdg(
    sg: ScheduleGraph,
    machine: MachineDescription,
    engine: str,
    cache: Optional[CompileCache],
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
) -> FalseDependenceGraph:
    """One prebuilt schedule graph's false-dependence graph, served
    from the region cache when the gates of :func:`_cache_serves`
    allow; otherwise a plain :func:`false_dependence_graph` build that
    neither consults nor populates the store."""
    if not _cache_serves(cache, engine, len(sg.instructions)):
        return false_dependence_graph(
            sg, machine, check_deadline=check_deadline
        )
    key = region_cache_key(sg, machine, engine, config_fingerprint)
    hit = _lookup(cache, key, sg.instructions)
    if hit is not None:
        kernel, value_rows = hit
        _note_region("hit")
        return FalseDependenceGraph(
            instructions=list(sg.instructions),
            schedule_graph=sg,
            kernel=kernel,
            value_rows=value_rows,
        )
    _note_region("miss")
    fdg = false_dependence_graph(sg, machine, check_deadline=check_deadline)
    cache.put(key, _entry_for(fdg.kernel, engine, sg))
    return fdg


def region_false_graph(
    fn: Function,
    region: Region,
    machine: MachineDescription,
    engine: str,
    cache: Optional[CompileCache],
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
) -> Optional[FalseDependenceGraph]:
    """G_f of one scheduling region of *fn*, or ``None`` for an empty
    region — the one source of region graphs for the PIG build and the
    Theorem 1 check.

    ``engine="reference"`` builds the retained pair-set graph.  When
    the gates of :func:`_cache_serves` pass, the region is classified
    before anything is built: the key's digest comes from the region's
    instruction texts, block offsets and transit pairs (see
    :func:`~repro.cache.keys.region_digest_parts`), so a hit replays
    the kernel without building the schedule graph — the returned
    graph carries a lazy one for late consumers.  A miss builds the
    kernel and stores it.  Otherwise the kernel is built with no
    digest and no store traffic.

    The transit pass of a multi-block region reads the whole-function
    dependence graph that
    :func:`~repro.deps.global_deps.shared_function_dependence_graph`
    memoizes on *fn*'s identity, so every region of every phase shares
    one; *fn* must therefore not be mutated in place between calls.
    *check_deadline* is forwarded to the kernel build.
    """
    size = sum(len(fn.block(name).instructions) for name in region.blocks)
    if not size:
        return None
    if not _cache_serves(cache, engine, size):
        sg = region_schedule_graph(
            fn, region.blocks, machine=machine,
            dependence_graph=(
                shared_function_dependence_graph(fn)
                if len(region.blocks) > 1 else None
            ),
        )
        if engine == "reference":
            return reference_false_dependence_graph(sg, machine)
        return false_dependence_graph(
            sg, machine, check_deadline=check_deadline
        )
    work = _RegionWork(region, fn, machine)
    key = region_cache_key_from_digest(
        work.digest(), machine, engine, config_fingerprint
    )
    hit = _lookup(cache, key, work.instructions)
    if hit is not None:
        kernel, value_rows = hit
        _note_region("hit")
        return FalseDependenceGraph(
            instructions=list(work.instructions),
            schedule_graph_factory=work.sg,
            kernel=kernel,
            value_rows=value_rows,
        )
    _note_region("miss")
    sg = work.sg()
    fdg = false_dependence_graph(sg, machine, check_deadline=check_deadline)
    cache.put(key, _entry_for(fdg.kernel, engine, sg))
    return fdg


class _RegionWork:
    """One non-empty region's cache identity.

    Carries the IR-level identity — the instruction sequence, the
    block start offsets, and the cross-region transit pairs — which is
    everything the cache digest needs, computed *without* building the
    schedule graph.  The graph itself is built memoized on demand: a
    cache hit never pays for it unless a downstream consumer actually
    walks it.
    """

    __slots__ = (
        "region",
        "instructions",
        "boundaries",
        "transit",
        "positions",
        "_fn",
        "_machine",
        "_sg",
    )

    def __init__(
        self,
        region: Region,
        fn: Function,
        machine: MachineDescription,
    ) -> None:
        self.region = region
        self._fn = fn
        self._machine = machine
        self._sg: Optional[ScheduleGraph] = None
        instructions: List[Instruction] = []
        boundaries: List[int] = []
        for name in region.blocks:
            boundaries.append(len(instructions))
            instructions.extend(fn.block(name).instructions)
        self.instructions = instructions
        self.boundaries = tuple(boundaries)
        if len(region.blocks) > 1:
            self.transit = transit_dependence_pairs(
                fn, instructions, shared_function_dependence_graph(fn)
            )
        else:
            self.transit = []
        position = {
            instr: idx for idx, instr in enumerate(instructions)
        }
        self.positions = tuple(
            sorted((position[u], position[v]) for u, v in self.transit)
        )

    def digest(self) -> str:
        return region_digest_parts(
            [format_instruction(instr) for instr in self.instructions],
            self.boundaries,
            self.positions,
        )

    def sg(self) -> ScheduleGraph:
        if self._sg is None:
            self._sg = region_schedule_graph(
                self._fn,
                self.region.blocks,
                machine=self._machine,
                transit_pairs=self.transit,
            )
        return self._sg

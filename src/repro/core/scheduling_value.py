"""Scheduling value of false-dependence edges.

When register pressure forces the coloring procedure to give up
parallelism, it should "remove from both G and G' a false dependence
edge not in E_r (e.g. an edge {v, u} for which scheduling u with v
contributes the least)".  This module quantifies that contribution:

* pairs whose (delay-weighted) earliest start times coincide are the
  ones a scheduler would actually co-issue — large EP distance means
  the parallelism was unlikely to materialize anyway;
* pairs on long critical chains matter more — "early scheduling of an
  instruction which is last on a critical path" is the paper's own
  example priority.

``value = (1 + max(height_u, height_v)) / (1 + |EP(u) − EP(v)|)``;
the procedure removes the edge of minimum value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.webs import Web
from repro.core.parallel_interference import ParallelInterferenceGraph
from repro.deps.false_dependence import FalseDependenceGraph
from repro.deps.transitive import earliest_start_times
from repro.ir.instructions import Instruction


def region_value_rows(sg) -> Tuple[List[int], List[float]]:
    """Positional ``(ep, height)`` rows of one region schedule graph.

    A pure function of (schedule graph, machine) — exactly like the
    dependence kernel — which is why the region cache stores these
    rows alongside the kernel: a hit prices false edges without
    rebuilding G_s.
    """
    start = earliest_start_times(sg)
    local_height: Dict[Instruction, float] = {}
    for instr in reversed(sg.topological_order()):
        best = float(
            sg.machine.latency_of(instr) if sg.machine else instr.latency
        )
        for succ in sg.graph.successors(instr):
            best = max(best, sg.delay(instr, succ) + local_height[succ])
        local_height[instr] = best
    return (
        [start[instr] for instr in sg.instructions],
        [local_height[instr] for instr in sg.instructions],
    )


def _co_issue_value(ep_u: int, h_u: float, ep_v: int, h_v: float) -> float:
    """``(1 + max(height)) / (1 + |EP(u) - EP(v)|)`` — see the module
    docstring."""
    return (1.0 + max(h_u, h_v)) / (1.0 + abs(ep_u - ep_v))


@dataclass
class SchedulingValueModel:
    """Precomputed EP numbers and critical heights for every region."""

    pig: ParallelInterferenceGraph
    _ep: Dict[int, int]
    _height: Dict[int, float]
    _fdg_of: Dict[int, FalseDependenceGraph]
    #: Memoized edge values, keyed by the sorted web-index pair.
    _edge_cache: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Memoized :meth:`_definition_rows`, keyed by web index.
    _def_rows: Dict[int, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: uid → E_f row bit of each kernel-backed region, keyed by id(fdg).
    _uid_positions: Dict[int, Dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, pig: ParallelInterferenceGraph) -> "SchedulingValueModel":
        ep: Dict[int, int] = {}
        height: Dict[int, float] = {}
        fdg_of: Dict[int, FalseDependenceGraph] = {}
        for fdg in pig.false_graphs:
            rows = fdg.value_rows
            if rows is None:
                rows = region_value_rows(fdg.schedule_graph)
            ep_row, height_row = rows
            for idx, instr in enumerate(fdg.instructions):
                ep[instr.uid] = ep_row[idx]
                height[instr.uid] = height_row[idx]
                fdg_of[instr.uid] = fdg
        return cls(pig=pig, _ep=ep, _height=height, _fdg_of=fdg_of)

    # ------------------------------------------------------------------
    # Pair- and edge-level values
    # ------------------------------------------------------------------

    def pair_value(self, u: Instruction, v: Instruction) -> float:
        """Value of co-scheduling instructions *u* and *v*."""
        return _co_issue_value(
            self._ep.get(u.uid, 0), self._height.get(u.uid, 1.0),
            self._ep.get(v.uid, 0), self._height.get(v.uid, 1.0),
        )

    def _definition_rows(self, web: Web) -> list:
        """One row per definition of *web*, in uid order:
        ``(uid, instruction, fdg, ef_row, uid_position, ep, height)``.

        ``fdg`` is the definition's region (None outside every region);
        with a bitset kernel, ``ef_row`` is its E_f row and
        ``uid_position`` maps the region's uids to row bits, so testing
        a pair is one dict lookup and a shift instead of two
        instruction-keyed lookups.  Both are None on the reference
        engine, which answers :meth:`FalseDependenceGraph.has_false_edge`
        from pair sets.
        """
        rows = self._def_rows.get(web.index)
        if rows is not None:
            return rows
        rows = []
        for point in sorted(web.definitions, key=lambda d: d.instruction.uid):
            instr = point.instruction
            uid = instr.uid
            fdg = self._fdg_of.get(uid)
            ef_row: Optional[int] = None
            uid_position: Optional[Dict[int, int]] = None
            if fdg is not None and fdg.kernel is not None:
                ef_row = fdg.kernel.ef_row(instr)
                uid_position = self._uid_positions.get(id(fdg))
                if uid_position is None:
                    uid_position = {
                        member.uid: i
                        for i, member in enumerate(
                            fdg.kernel.index.instructions
                        )
                    }
                    self._uid_positions[id(fdg)] = uid_position
            rows.append((
                uid, instr, fdg, ef_row, uid_position,
                self._ep.get(uid, 0), self._height.get(uid, 1.0),
            ))
        self._def_rows[web.index] = rows
        return rows

    def edge_value(self, web_a: Web, web_b: Web) -> float:
        """Scheduling value of the false edge {web_a, web_b}: the best
        co-issue opportunity (:meth:`pair_value`) among its
        contributing instruction pairs — a definition of *web_a* and
        one of *web_b* that are E_f neighbors in *web_a*'s region.
        Edges with no surviving pair (possible after spilling rounds)
        are worthless.

        Values depend only on the (fixed) EP numbers and heights, so
        they are memoized — the coloring procedure queries the same
        edges many times.
        """
        key = (
            (web_a.index, web_b.index)
            if web_a.index <= web_b.index
            else (web_b.index, web_a.index)
        )
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        best = None
        rows_b = self._definition_rows(web_b)
        for _uid, instr_a, fdg, ef_row, uid_position, ep_a, h_a in (
            self._definition_rows(web_a)
        ):
            if fdg is None:
                continue
            for uid_b, instr_b, _fdg, _row, _pos, ep_b, h_b in rows_b:
                if uid_position is not None:
                    bit = uid_position.get(uid_b)
                    if bit is None or not (ef_row >> bit) & 1:
                        continue
                elif not fdg.has_false_edge(instr_a, instr_b):
                    continue
                value = _co_issue_value(ep_a, h_a, ep_b, h_b)
                if best is None or value > best:
                    best = value
        value = 0.0 if best is None else best
        self._edge_cache[key] = value
        return value

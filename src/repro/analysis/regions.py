"""Scheduling regions: maximal acyclic groups of plausible blocks.

For inter-basic-block scheduling the paper follows region scheduling
([11], [3]): "moving instructions is possible only within a region
which is a maximal acyclic fragment of code.  The scheduling is done by
logically ignoring the control dependence edges between two basic
blocks that are considered as a single block for scheduling."  Two
blocks are *plausible* for joint scheduling when one dominates the
other and the second postdominates the first (control equivalence).

:func:`schedule_regions` groups control-equivalent blocks into regions,
never crossing loop back edges, so each region is an acyclic fragment
the global parallelizable interference graph can treat as one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.dominators import control_equivalent_pairs
from repro.analysis.loops import loop_nesting_depth
from repro.ir.function import Function


@dataclass(frozen=True)
class Region:
    """An ordered group of blocks scheduled as one unit.

    Attributes:
        blocks: Block names in layout order.
        index: Dense region id.
    """

    blocks: Tuple[str, ...]
    index: int

    def __contains__(self, name: str) -> bool:
        return name in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "region{}({})".format(self.index, "+".join(self.blocks))


def plausible_pairs(fn: Function) -> List[Tuple[str, str]]:
    """Control-equivalent block pairs at equal loop depth.

    Blocks at different loop depths execute different numbers of times,
    so instructions must not migrate between them; restricting to equal
    depth keeps regions acyclic fragments.
    """
    depth = loop_nesting_depth(fn)
    return [
        (a, b)
        for a, b in control_equivalent_pairs(fn)
        if depth[a] == depth[b]
    ]


def schedule_regions(fn: Function) -> List[Region]:
    """Partition the CFG into maximal regions of plausible blocks.

    Plausibility is closed into equivalence classes (it is transitive
    for control-equivalent same-depth blocks); each class becomes one
    region, ordered by layout.
    """
    parent: Dict[str, str] = {name: name for name in fn.block_names()}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for a, b in plausible_pairs(fn):
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    groups: Dict[str, List[str]] = {}
    for name in fn.block_names():  # layout order keeps regions ordered
        groups.setdefault(find(name), []).append(name)

    # Region order is canonical: by layout position of each region's
    # first block.  The dict above already inserts in that order, but
    # the sort states the invariant rather than inheriting it — region
    # indices feed serialized artifacts (the region cache keys tasks
    # by digest), so the same CFG must number regions identically in
    # every process.
    layout_pos = {name: i for i, name in enumerate(fn.block_names())}
    ordered = sorted(
        groups.values(), key=lambda members: layout_pos[members[0]]
    )
    return [
        Region(blocks=tuple(members), index=i)
        for i, members in enumerate(ordered)
    ]


def regions_for(fn: Function, use_regions: bool = True) -> List[Region]:
    """The units the false-dependence graphs are built over:
    :func:`schedule_regions` (the global form), or with
    ``use_regions=False`` one region per block (classic per-basic-block
    operation)."""
    if use_regions:
        return schedule_regions(fn)
    return [
        Region(blocks=(name,), index=i)
        for i, name in enumerate(fn.block_names())
    ]


def region_instructions(fn: Function, region: Region) -> List:
    """All instructions of a region in layout order (the joint "block"
    the global schedule graph is built over)."""
    instructions = []
    for name in region.blocks:
        instructions.extend(fn.block(name).instructions)
    return instructions

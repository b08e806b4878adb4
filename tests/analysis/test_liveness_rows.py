"""Packed bitrow liveness (`live_variables_rows`) must be
bit-identical to the frozenset solver — same fixpoint, same boundary
injection, same per-block use/def masks — over the paper examples, CFG
workloads, the fuzz corpus, and degenerate shapes.
"""

import pytest

from repro.analysis.liveness import (
    RegisterIndex,
    block_use_def,
    block_use_def_masks,
    live_variables,
    live_variables_rows,
)
from repro.ir.function import Function
from repro.workloads import example1, example2, figure6_diamond
from repro.workloads.generator import (
    RandomBlockConfig,
    diamond_chain,
    random_block,
)


def _corpus():
    fns = [example1(), example2(), figure6_diamond(),
           diamond_chain(num_diamonds=5, block_size=6, seed=3)]
    for seed in range(4):
        fns.append(
            random_block(RandomBlockConfig(size=20 + 10 * seed,
                                           window=4 + seed, seed=seed))
        )
    return fns


@pytest.mark.parametrize("fn", _corpus(), ids=lambda f: f.name)
def test_rows_match_sets(fn):
    info = live_variables(fn)
    rows = live_variables_rows(fn)
    materialized = rows.to_info()
    assert materialized.live_in == info.live_in
    assert materialized.live_out == info.live_out


@pytest.mark.parametrize("fn", _corpus()[:4], ids=lambda f: f.name)
def test_use_def_masks_match_sets(fn):
    index = RegisterIndex.build(fn)
    for block in fn.blocks():
        uses, defs = block_use_def(block)
        use_mask, def_mask = block_use_def_masks(block, index)
        assert index.registers_of(use_mask) == uses
        assert index.registers_of(def_mask) == defs


def test_register_index_round_trip():
    fn = example2()
    index = RegisterIndex.build(fn)
    all_mask = index.mask_of(index.registers)
    assert index.registers_of(all_mask) == frozenset(index.registers)
    assert index.mask_of([]) == 0
    assert index.registers_of(0) == frozenset()


def test_empty_function():
    fn = Function(name="empty")
    rows = live_variables_rows(fn)
    assert rows.live_in == {} and rows.live_out == {}
    info = live_variables(fn)
    assert rows.to_info().live_in == info.live_in

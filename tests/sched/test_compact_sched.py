"""Bit-equivalence of the array-based compact scheduler against the
reference dict/graph implementation.

``compact_augmented_schedule`` is a fast path, not an approximation:
every instruction must land on the same cycle as the reference
scheduler across the paper examples, random blocks, and every machine
preset.
"""

import pytest

from repro.deps.false_dependence import block_false_dependence_graph
from repro.deps.schedule_graph import block_schedule_graph
from repro.machine.presets import single_issue, two_unit_superscalar, wide_issue
from repro.sched.augmented import augmented_schedule, compact_augmented_schedule
from repro.workloads import example1, example2, figure6_diamond
from repro.workloads.generator import RandomBlockConfig, random_block

MACHINES = [
    ("single_issue", single_issue),
    ("two_unit", two_unit_superscalar),
    ("wide_issue", wide_issue),
]


def _functions():
    fns = [example1(), example2(), figure6_diamond()]
    for size, window, seed in [(25, 5, 11), (60, 12, 12), (90, 30, 13)]:
        fns.append(
            random_block(RandomBlockConfig(size=size, window=window,
                                           seed=seed))
        )
    return fns


def _cycles(schedule):
    return {instr.uid: cycle for instr, cycle in schedule.cycle_of.items()}


@pytest.mark.parametrize("machine_name,machine_fn", MACHINES,
                         ids=[m[0] for m in MACHINES])
def test_compact_augmented_schedule_matches_reference(
    machine_name, machine_fn
):
    machine = machine_fn()
    for fn in _functions():
        for block in fn.blocks():
            if not block.instructions:
                continue
            sg = block_schedule_graph(block, machine=machine)
            fdg = block_false_dependence_graph(block, machine)
            want = augmented_schedule(sg, fdg, machine)
            got = compact_augmented_schedule(sg, fdg, machine)
            assert _cycles(got) == _cycles(want), (fn.name, block.name)


def test_compact_augmented_verifies_dependences():
    # The compact scheduler routes through Schedule, whose verifier
    # re-checks every dependence delay — an invalid placement raises.
    machine = two_unit_superscalar()
    fn = example2()
    block = fn.entry
    sg = block_schedule_graph(block, machine=machine)
    fdg = block_false_dependence_graph(block, machine)
    schedule = compact_augmented_schedule(sg, fdg, machine)
    assert schedule.makespan >= 1
    assert len(schedule.cycle_of) == len(block.instructions)

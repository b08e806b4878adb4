"""The complete combined allocator (the paper's "A register allocation
Algorithm").

Pipeline per the paper:

1. **Pre-schedule** — build the schedule graph, compute EP numbers with
   machine-driven postponement, reorder each block to an EP-consistent
   linear order (the interference relation is relative to input order).
2. **Color** — build the parallelizable interference graph and run the
   combined coloring procedure; under pressure it first sacrifices the
   least valuable false edges, then spills by ``h*``.
3. **Spill & repeat** — insert spill code for the spill list and repeat
   the coloring procedure on the rewritten program.
4. **Assign & schedule** — rewrite with physical registers and run the
   list scheduler on the allocated code ("the scheduling itself takes
   place after the register allocation; nevertheless, the relative
   order of the non-constrained statements need not be the one used
   during the register allocation process").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.coloring import (
    EdgePolicy,
    PinterColoringResult,
    banked_pinter_color,
    pinter_color,
)
from repro.core.edge_weights import DEFAULT_CONFIG, EdgeWeightConfig
from repro.core.parallel_interference import (
    ParallelInterferenceGraph,
    build_parallel_interference_graph,
)
from repro.ir.function import Function
from repro.machine.model import MachineDescription
from repro.pipeline.verify import (
    FalseDependenceViolation,
    find_false_dependences,
)
from repro.regalloc.assignment import (
    RegisterAssignment,
    apply_assignment,
    make_assignment,
)
from repro.regalloc.spill import (
    SpillReport,
    insert_spill_code,
    make_cost_function,
)
from repro.sched.prescheduler import preschedule_function
from repro.sched.simulator import SimulationResult, simulate_function
from repro.utils.errors import AllocationError


@dataclass
class AllocationOutcome:
    """Everything the combined allocator produced.

    Attributes:
        original_function: The input (untouched).
        prepared_function: The symbolic program actually colored — after
            pre-scheduling and any spill-code insertion.
        allocated_function: The physical-register rewrite.
        assignment: The web → register binding.
        coloring_result: The final round's coloring details (including
            sacrificed false edges).
        pig: The final parallelizable interference graph.
        spill_reports: One per spill round.
        false_dependences: Violations detected post-allocation.  Empty
            whenever no false edges were sacrificed (Theorem 1); each
            sacrificed edge may surface here as the parallelism
            deliberately given up.
        timing: Post-allocation list-scheduled cycle counts.
    """

    original_function: Function
    prepared_function: Function
    allocated_function: Function
    assignment: RegisterAssignment
    coloring_result: PinterColoringResult
    pig: ParallelInterferenceGraph
    spill_reports: List[SpillReport] = field(default_factory=list)
    false_dependences: List[FalseDependenceViolation] = field(default_factory=list)
    timing: Optional[SimulationResult] = None
    identity_moves_removed: int = 0

    @property
    def registers_used(self) -> int:
        return self.coloring_result.num_colors_used

    @property
    def spill_rounds(self) -> int:
        return len(self.spill_reports)

    @property
    def spill_operations(self) -> int:
        return sum(r.stores_added + r.reloads_added for r in self.spill_reports)

    @property
    def parallelism_sacrificed(self) -> int:
        return self.coloring_result.parallelism_sacrificed

    @property
    def total_cycles(self) -> int:
        return self.timing.total_cycles if self.timing is not None else 0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            "allocation of {!r}:".format(self.original_function.name),
            "  registers used        : {}".format(self.registers_used),
            "  spill rounds          : {}".format(self.spill_rounds),
            "  spill loads/stores    : {}".format(self.spill_operations),
            "  false edges sacrificed: {}".format(self.parallelism_sacrificed),
            "  false dependences     : {}".format(len(self.false_dependences)),
        ]
        if self.timing is not None:
            lines.append(
                "  scheduled cycles      : {}".format(self.timing.total_cycles)
            )
        return "\n".join(lines)


def _merge_class_results(pig, class_results) -> PinterColoringResult:
    """Combine per-class coloring results for round bookkeeping (colors
    are NOT unified here — the banked assignment handles that)."""
    merged_removed = []
    merged_order = []
    merged_spilled = []
    coloring = {}
    for cls in sorted(class_results):
        res = class_results[cls]
        merged_removed.extend(res.removed_false_edges)
        merged_order.extend(res.selection_order)
        merged_spilled.extend(res.spilled)
        coloring.update(res.coloring)
    return PinterColoringResult(
        coloring=coloring,
        spilled=merged_spilled,
        selection_order=merged_order,
        removed_false_edges=merged_removed,
        graph=pig.graph,
    )


class PinterAllocator:
    """The combined register allocator / scheduler front end.

    Args:
        machine: The target machine.
        num_registers: r; defaults to ``machine.num_registers``.
        preschedule: Run the EP reordering pass first (paper default).
        weight_config: Edge prices for ``h*``.
        edge_policy: False-edge sacrifice policy (``"node"``/``"global"``).
        use_regions: Build false-dependence graphs over scheduling
            regions (global form) instead of single blocks.
        max_spill_rounds: Safety bound on spill-and-repeat iterations.
        optimistic: Briggs-style optimistic selection (extension; see
            :func:`repro.core.coloring.pinter_color`).
    """

    def __init__(
        self,
        machine: MachineDescription,
        num_registers: Optional[int] = None,
        preschedule: bool = True,
        weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
        edge_policy: EdgePolicy = "node",
        use_regions: bool = True,
        max_spill_rounds: int = 12,
        optimistic: bool = False,
        banked=None,
        coalesce: bool = False,
    ) -> None:
        self.machine = machine
        self.num_registers = (
            machine.num_registers if num_registers is None else num_registers
        )
        if self.num_registers < 1:
            raise AllocationError("need at least one register")
        self.preschedule = preschedule
        self.weight_config = weight_config
        self.edge_policy = edge_policy
        self.use_regions = use_regions
        self.max_spill_rounds = max_spill_rounds
        self.optimistic = optimistic
        #: Optional per-class budgets (split register files); see
        #: :class:`repro.regalloc.classes.BankedBudget`.
        self.banked = banked
        #: Bias color selection so mov-related webs share a register;
        #: identity moves are then removed from the allocated program.
        self.coalesce = coalesce

    def run(self, fn: Function) -> AllocationOutcome:
        """Allocate and schedule *fn*.

        Raises:
            AllocationError: when spilling fails to converge within
                ``max_spill_rounds`` (pathological r).
        """
        work = fn.copy()
        if self.preschedule:
            work = preschedule_function(work, self.machine)

        spill_reports: List[SpillReport] = []
        class_results = None
        for _round in range(self.max_spill_rounds + 1):
            pig = build_parallel_interference_graph(
                work, self.machine, use_regions=self.use_regions
            )
            cost = make_cost_function(work)
            bias = None
            if self.coalesce:
                from repro.regalloc.coalesce import build_bias_map

                bias = build_bias_map(pig.interference)
            if self.banked is not None:
                class_results = banked_pinter_color(
                    pig,
                    self.banked,
                    cost=cost,
                    weight_config=self.weight_config,
                    edge_policy=self.edge_policy,
                    optimistic=self.optimistic,
                    bias=bias,
                )
                spilled = [
                    web
                    for res in class_results.values()
                    for web in res.spilled
                ]
                result = _merge_class_results(pig, class_results)
            else:
                result = pinter_color(
                    pig,
                    self.num_registers,
                    cost=cost,
                    weight_config=self.weight_config,
                    edge_policy=self.edge_policy,
                    optimistic=self.optimistic,
                    bias=bias,
                )
                spilled = result.spilled
            if not spilled:
                break
            work, report = insert_spill_code(work, spilled)
            spill_reports.append(report)
        else:
            raise AllocationError(
                "spilling did not converge within {} rounds "
                "(r={} on {!r})".format(
                    self.max_spill_rounds, self.num_registers, fn.name
                )
            )

        if self.banked is not None:
            from repro.regalloc.assignment import make_banked_assignment

            assignment = make_banked_assignment(
                pig.interference,
                {
                    cls: res.coloring
                    for cls, res in class_results.items()
                },
            )
            result = PinterColoringResult(
                coloring=dict(assignment.web_colors),
                spilled=[],
                selection_order=result.selection_order,
                removed_false_edges=result.removed_false_edges,
                graph=result.graph,
            )
        else:
            assignment = make_assignment(pig.interference, result.coloring)
        allocated = apply_assignment(assignment)
        # Lemma 1 check needs the instruction-for-instruction mirror, so
        # it runs before any coalescing cleanup deletes identity moves.
        violations = find_false_dependences(
            work, allocated, self.machine, use_regions=self.use_regions
        )
        identity_moves_removed = 0
        if self.coalesce:
            from repro.regalloc.coalesce import remove_identity_moves

            identity_moves_removed = remove_identity_moves(allocated)
        timing = simulate_function(allocated, self.machine)

        return AllocationOutcome(
            original_function=fn,
            prepared_function=work,
            allocated_function=allocated,
            assignment=assignment,
            coloring_result=result,
            pig=pig,
            spill_reports=spill_reports,
            false_dependences=violations,
            timing=timing,
            identity_moves_removed=identity_moves_removed,
        )

"""The paper's contribution: the parallelizable interference graph and
the combined allocation/scheduling machinery built on it."""

from repro.core.allocator import AllocationOutcome, PinterAllocator
from repro.core.coloring import (
    PinterColoringResult,
    banked_pinter_color,
    optimal_pig_coloring,
    pinter_color,
    reference_pinter_color,
)
from repro.core.edge_weights import (
    DEFAULT_CONFIG,
    TRADITIONAL_CONFIG,
    EdgeWeightConfig,
    classify_edges,
    edge_weight_function,
    h_star_metric,
)
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
    augmented_parallel_interference_graph,
    build_parallel_interference_graph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.core.theorems import (
    Theorem2Witness,
    check_theorem1,
    check_theorem2_edge,
)

__all__ = [
    "AllocationOutcome",
    "DEFAULT_CONFIG",
    "EdgeOrigin",
    "EdgeWeightConfig",
    "ParallelInterferenceGraph",
    "PinterAllocator",
    "PinterColoringResult",
    "SchedulingValueModel",
    "TRADITIONAL_CONFIG",
    "Theorem2Witness",
    "augmented_parallel_interference_graph",
    "banked_pinter_color",
    "build_parallel_interference_graph",
    "check_theorem1",
    "check_theorem2_edge",
    "classify_edges",
    "edge_weight_function",
    "h_star_metric",
    "optimal_pig_coloring",
    "pinter_color",
    "reference_pinter_color",
]

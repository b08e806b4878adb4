"""Equivalence suite: the compact Pinter kernel against its oracle.

:func:`repro.core.coloring.pinter_color` (index bitrows and worklists)
must reproduce :func:`repro.core.coloring.reference_pinter_color` (the
networkx procedure) field for field: the coloring with its insertion
order, the spill list, the selection order, the removed false edges in
order and orientation, the reduced graph's edges, every
``AllocationError`` message, the ``color.round`` event and the
``color.*`` counters.  ``color.simplify_passes`` is among them, which
pins the ``(pass, position)`` simplify worklist to the oracle's
index-ordered multi-pass scan.

The full option matrix (edge policy x optimism x bias x weight config)
runs on the source-fuzz corpus, the paper examples and small random
blocks at r in {4, 8, 16}; the random blocks of 64 and 128
instructions run every policy and optimism setting, with bias, at the
same register counts.
"""

import io
import itertools
import json

import networkx as nx
import pytest

from repro.core import coloring as coloring_module
from repro.core.coloring import (
    banked_pinter_color,
    pinter_color,
    reference_pinter_color,
)
from repro.core.edge_weights import (
    DEFAULT_CONFIG,
    TRADITIONAL_CONFIG,
    EdgeWeightConfig,
)
from repro.core.parallel_interference import (
    EdgeOrigin,
    build_parallel_interference_graph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.frontend import compile_source
from repro.machine.presets import two_unit_superscalar
from repro.obs import collecting_metrics, set_tracer
from repro.obs.trace import Tracer
from repro.regalloc.classes import BankedBudget
from repro.regalloc.coalesce import build_bias_map
from repro.regalloc.spill import make_cost_function
from repro.utils.errors import AllocationError, BudgetExceededError
from repro.workloads import (
    RandomBlockConfig,
    SourceFuzzConfig,
    dot_product,
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
    figure6_diamond,
    random_block,
    random_source,
)

POLICIES = ("node", "global", "lazy")
REGISTERS = (4, 8, 16)
CONFIGS = {
    "default": DEFAULT_CONFIG,
    "traditional": TRADITIONAL_CONFIG,
    "parallel-heavy": EdgeWeightConfig(1.0, 4.0, 5.0),
}


class _Case:
    """One input: its PIG plus the spill cost and mov bias built from it."""

    def __init__(self, name, fn, machine):
        self.name = name
        self.pig = build_parallel_interference_graph(fn, machine)
        self.cost = make_cost_function(fn)
        self.bias = build_bias_map(self.pig.interference)


@pytest.fixture(scope="module")
def small_cases():
    machine = two_unit_superscalar()
    cases = [
        _Case("fuzz{}".format(seed), compile_source(random_source(
            SourceFuzzConfig(seed=seed, num_statements=16)
        )), machine)
        for seed in range(6)
    ]
    cases.append(_Case("example1", example1(), example1_machine_model()))
    cases.append(_Case("example2", example2(), example2_machine_model()))
    cases.append(_Case("figure6", figure6_diamond(), machine))
    for size in (16, 32):
        cases.append(_Case(
            "block{}".format(size),
            random_block(RandomBlockConfig(size=size, seed=size)),
            machine,
        ))
    return cases


@pytest.fixture(scope="module")
def large_cases():
    machine = two_unit_superscalar()
    return [
        _Case(
            "block{}".format(size),
            random_block(RandomBlockConfig(size=size, seed=size)),
            machine,
        )
        for size in (64, 128)
    ]


def _signature(result):
    """Every field by web index, order and orientation included."""
    return {
        "coloring": [(w.index, c) for w, c in result.coloring.items()],
        "spilled": [w.index for w in result.spilled],
        "selection_order": [w.index for w in result.selection_order],
        "removed_false_edges": [
            (a.index, b.index) for a, b in result.removed_false_edges
        ],
        "reduced_graph": [
            (a.index, b.index) for a, b in result.reduced_graph.edges()
        ],
    }


def _observe(colorer, pig, registers, **options):
    """``(outcome, counters, events)`` of one run: the result signature
    or the error message, plus what it emitted."""
    sink = io.StringIO()
    previous = set_tracer(Tracer(sink))
    try:
        with collecting_metrics() as registry:
            try:
                outcome = _signature(colorer(pig, registers, **options))
            except AllocationError as exc:
                outcome = {"error": str(exc)}
    finally:
        set_tracer(previous)
    events = [
        (e["kind"], e["name"], e.get("value"), e["attrs"])
        for e in map(json.loads, sink.getvalue().splitlines())
    ]
    return outcome, registry.snapshot()["counters"], events


def _assert_equivalent(pig, registers, label, **options):
    fast = _observe(pinter_color, pig, registers, **options)
    slow = _observe(reference_pinter_color, pig, registers, **options)
    assert fast[0] == slow[0], label
    assert fast[1] == slow[1], label
    assert fast[2] == slow[2], label
    return fast


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("biased", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("optimistic", [False, True], ids=["pess", "opt"])
@pytest.mark.parametrize("policy", POLICIES)
def test_option_matrix(small_cases, policy, optimistic, biased, config_name):
    for case, registers in itertools.product(small_cases, REGISTERS):
        _assert_equivalent(
            case.pig, registers,
            "{} r={}".format(case.name, registers),
            cost=case.cost,
            weight_config=CONFIGS[config_name],
            edge_policy=policy,
            optimistic=optimistic,
            bias=case.bias if biased else None,
        )


@pytest.mark.parametrize("optimistic", [False, True], ids=["pess", "opt"])
@pytest.mark.parametrize("policy", POLICIES)
def test_large_blocks(large_cases, policy, optimistic):
    # The oracle's "global" policy rescans every false edge per
    # sacrifice: about 14 s a run at n=128, so it stops at n=64 here.
    cases = large_cases[:1] if policy == "global" else large_cases
    for case, registers in itertools.product(cases, REGISTERS):
        _assert_equivalent(
            case.pig, registers,
            "{} r={}".format(case.name, registers),
            cost=case.cost,
            edge_policy=policy,
            optimistic=optimistic,
            bias=case.bias,
        )


def test_large_blocks_sacrifice_and_spill(large_cases):
    # The large blocks must exercise every step, or the suite above
    # would pin only the simplify loop.
    _, counters, _ = _observe(
        pinter_color, large_cases[-1].pig, 8, cost=large_cases[-1].cost
    )
    assert counters["color.false_edges_removed"] > 100
    assert counters["color.simplify_passes"] > counters["color.rounds"]
    pessimistic, _, _ = _observe(
        pinter_color, large_cases[-1].pig, 4, cost=large_cases[-1].cost
    )
    assert pessimistic["spilled"]


def test_non_integral_weights_match(small_cases):
    # 0.1 + 0.7 + ... rounds differently in another order, so h* from
    # class counts would diverge; such configs run on the oracle.
    config = EdgeWeightConfig(0.1, 0.7, 1.3)
    for case, policy in itertools.product(small_cases, POLICIES):
        _assert_equivalent(
            case.pig, 4, "{} {}".format(case.name, policy),
            cost=case.cost, weight_config=config, edge_policy=policy,
        )


def test_shared_value_model(small_cases):
    case = small_cases[-1]
    model = SchedulingValueModel.build(case.pig)
    for policy in ("node", "global"):
        _assert_equivalent(
            case.pig, 4, policy, cost=case.cost, edge_policy=policy,
            value_model=model,
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_banked_split_file(policy, monkeypatch):
    pig = build_parallel_interference_graph(
        dot_product(4), two_unit_superscalar()
    )
    budget = BankedBudget(2, 3)
    fast = banked_pinter_color(pig, budget, edge_policy=policy)
    monkeypatch.setattr(
        coloring_module, "pinter_color", reference_pinter_color
    )
    slow = banked_pinter_color(pig, budget, edge_policy=policy)
    assert set(fast) == set(slow) == {"int", "float"}
    for register_class in fast:
        assert _signature(fast[register_class]) == _signature(
            slow[register_class]
        )
    # The float side of dot4 is the pressured one.
    assert slow["float"].removed_false_edges or slow["float"].spilled


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------


def _example1_with(make_graph):
    """Example 1's PIG with its graph replaced by ``make_graph(webs)``,
    *webs* in index order."""
    pig = build_parallel_interference_graph(example1(), two_unit_superscalar())
    sub = pig.copy()
    sub.graph = make_graph(sorted(pig.graph.nodes(), key=lambda w: w.index))
    return sub


def _single(webs):
    graph = nx.Graph()
    graph.add_node(webs[0])
    return graph


def _clique_of_five(webs):
    graph = nx.Graph()
    graph.add_nodes_from(webs[:5])
    for a, b in itertools.combinations(webs[:5], 2):
        graph.add_edge(a, b, origin=EdgeOrigin.INTERFERENCE)
    return graph


@pytest.mark.parametrize("optimistic", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_empty_and_single_node(policy, optimistic):
    for nodes, make_graph in ((0, lambda _webs: nx.Graph()), (1, _single)):
        fast = _assert_equivalent(
            _example1_with(make_graph), 4, str(nodes),
            edge_policy=policy, optimistic=optimistic,
        )
        assert fast[0]["spilled"] == []
        assert len(fast[0]["coloring"]) == nodes


@pytest.mark.parametrize("policy", POLICIES)
def test_all_spill_temporaries_raise_the_same_error(policy):
    # A clique of webs that all cost +inf to spill cannot be relieved.
    outcome = _assert_equivalent(
        _example1_with(_clique_of_five), 2, policy,
        cost=lambda _web: float("inf"), edge_policy=policy,
    )[0]
    assert outcome["error"].startswith("irreducible register pressure: 5 ")


# The pessimistic "no free color" error has no test: it is unreachable
# in both colorers.  A node is pushed only when fewer than r of its
# working neighbors remain, only those are colored before it, so a free
# color always exists.


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class _Expire:
    """A deadline callback that raises on its *limit*-th poll."""

    def __init__(self, limit):
        self.limit = limit
        self.polls = 0

    def __call__(self):
        self.polls += 1
        if self.polls >= self.limit:
            raise BudgetExceededError("budget exhausted (test)")


@pytest.mark.parametrize("registers", [4, 8])
def test_deadline_is_polled_and_preempts(large_cases, registers):
    # Both colorers poll at the same steps, so they poll equally often;
    # polling changes no result, and a raising poll preempts the run.
    case = large_cases[-1]
    polls = []
    for colorer in (pinter_color, reference_pinter_color):
        counting = _Expire(limit=10 ** 9)
        result = colorer(
            case.pig, registers, cost=case.cost, check_deadline=counting
        )
        plain = colorer(case.pig, registers, cost=case.cost)
        assert _signature(result) == _signature(plain)
        polls.append(counting.polls)
        with pytest.raises(BudgetExceededError):
            colorer(
                case.pig, registers, cost=case.cost,
                check_deadline=_Expire(2),
            )
    assert polls[0] == polls[1] >= 2


"""Tests for the combined coloring procedure, edge weights and h*."""

import pytest

from repro.core.coloring import optimal_pig_coloring, pinter_color
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
    build_parallel_interference_graph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.regalloc.chaitin import validate_coloring
from repro.workloads import (
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
    figure6_diamond,
    independent_chains,
)
from repro.machine.presets import two_unit_superscalar


def example1_pig():
    return build_parallel_interference_graph(
        example1(), example1_machine_model()
    )


def example2_pig():
    return build_parallel_interference_graph(
        example2(), example2_machine_model()
    )


class TestEdgeWeights:
    def test_weight_by_origin(self):
        config = EdgeWeightConfig(1.0, 2.0, 3.0)
        assert config.weight_for(EdgeOrigin.INTERFERENCE) == 1.0
        assert config.weight_for(EdgeOrigin.FALSE) == 2.0
        assert config.weight_for(EdgeOrigin.BOTH) == 3.0

    def test_traditional_zeroes_false_edges(self):
        assert TRADITIONAL_CONFIG.weight_for(EdgeOrigin.FALSE) == 0.0
        assert TRADITIONAL_CONFIG.weight_for(EdgeOrigin.BOTH) == 1.0

    def test_edge_weight_function(self):
        pig = example1_pig()
        weight = edge_weight_function(pig)
        webs = {str(w.register): w for w in pig.webs}
        assert weight(webs["s2"], webs["s4"]) == DEFAULT_CONFIG.parallelism_weight
        assert weight(webs["s1"], webs["s2"]) == DEFAULT_CONFIG.shared_weight

    def test_h_star_isolated_node_infinite(self):
        pig = example2_pig()
        webs = {str(w.register): w for w in pig.webs}
        metric = h_star_metric(pig, lambda w: 1.0)
        assert metric(webs["s9"]) == float("inf")

    def test_h_star_traditional_equals_classic_h(self):
        """"if all the edges in E − E_r have weight 0 then we get the
        traditional h function" — on interference edges of weight 1,
        h* = cost/interference-degree."""
        pig = example2_pig()
        metric = h_star_metric(pig, lambda w: 10.0, TRADITIONAL_CONFIG)
        for web in pig.webs:
            ideg = pig.interference_degree(web)
            if ideg:
                assert metric(web) == pytest.approx(10.0 / ideg)

    def test_classify_edges(self):
        pig = example1_pig()
        counts = classify_edges(pig)
        assert counts == {
            "interference_only": 3,
            "false_only": 1,
            "shared": 2,
        }


class TestSchedulingValueModel:
    def test_equal_ep_pairs_most_valuable(self):
        pig = example2_pig()
        model = SchedulingValueModel.build(pig)
        instrs = pig.function.entry.instructions
        s1, s2, s6 = instrs[0], instrs[1], instrs[5]
        # s1 and s6 both have EP 0-ish; s1/s2 likewise.
        assert model.pair_value(s1, s6) >= model.pair_value(s1, instrs[8])

    def test_edge_value_of_false_edge_positive(self):
        pig = example1_pig()
        model = SchedulingValueModel.build(pig)
        webs = {str(w.register): w for w in pig.webs}
        assert model.edge_value(webs["s2"], webs["s4"]) > 0.0

    def test_edge_value_no_pairs_zero(self):
        pig = example1_pig()
        model = SchedulingValueModel.build(pig)
        webs = {str(w.register): w for w in pig.webs}
        # s1-s3 is interference-only: no contributing false pair.
        assert model.edge_value(webs["s1"], webs["s3"]) == 0.0

    @pytest.mark.parametrize("engine", ["bitset", "reference"])
    def test_edge_value_is_the_best_contributing_pair(self, engine):
        # The definition-row fast path against the definition: the max
        # pair_value over every (def of a, def of b) E_f pair in a's
        # region, on multi-definition webs across regions (the diamond
        # joins) and on a spilled block, for both dependence engines.
        from repro.frontend import compile_source
        from repro.workloads import RandomBlockConfig, random_block
        from repro.workloads import SourceFuzzConfig, random_source

        functions = [
            figure6_diamond(),
            random_block(RandomBlockConfig(size=48, seed=3)),
        ] + [
            compile_source(random_source(SourceFuzzConfig(seed=seed)))
            for seed in range(4)
        ]
        for fn in functions:
            pig = build_parallel_interference_graph(
                fn, two_unit_superscalar(), engine=engine
            )
            model = SchedulingValueModel.build(pig)
            fdg_of = {
                instr.uid: fdg
                for fdg in pig.false_graphs
                for instr in fdg.instructions
            }
            for web_a, web_b in pig.all_edges():
                for a, b in ((web_a, web_b), (web_b, web_a)):
                    values = [
                        model.pair_value(da.instruction, db.instruction)
                        for da in a.definitions
                        if da.instruction.uid in fdg_of
                        for db in b.definitions
                        if fdg_of[da.instruction.uid].has_false_edge(
                            da.instruction, db.instruction
                        )
                    ]
                    assert model.edge_value(a, b) == max(values, default=0.0)


class TestPinterColoring:
    def test_enough_registers_no_sacrifice(self):
        pig = example2_pig()
        result = pinter_color(pig, 4)
        assert not result.has_spills
        assert result.removed_false_edges == []
        assert result.num_colors_used == 4
        validate_coloring(pig.graph, result.coloring)

    def test_pressure_sacrifices_false_edges_before_spilling(self):
        """Example 2 with r=3: the PIG needs 4, the interference graph
        only 3 — the procedure must shed false edges, never spill."""
        pig = example2_pig()
        result = pinter_color(pig, 3)
        assert not result.has_spills
        assert result.removed_false_edges
        assert result.num_colors_used == 3
        validate_coloring(result.reduced_graph, result.coloring)

    def test_true_pressure_spills(self):
        fn = independent_chains(chains=5, length=2)
        machine = two_unit_superscalar()
        pig = build_parallel_interference_graph(fn, machine)
        result = pinter_color(pig, 2)
        assert result.has_spills

    def test_spilled_nodes_not_colored(self):
        fn = independent_chains(chains=5, length=2)
        machine = two_unit_superscalar()
        pig = build_parallel_interference_graph(fn, machine)
        result = pinter_color(pig, 2)
        for web in result.spilled:
            assert web not in result.coloring

    def test_node_vs_global_edge_policy(self):
        pig_a = example2_pig()
        pig_b = example2_pig()
        node = pinter_color(pig_a, 3, edge_policy="node")
        globl = pinter_color(pig_b, 3, edge_policy="global")
        assert not node.has_spills and not globl.has_spills
        # both succeed; global may shed different/more edges.
        assert node.num_colors_used == globl.num_colors_used == 3

    def test_original_pig_untouched(self):
        pig = example2_pig()
        edges_before = len(pig.all_edges())
        pinter_color(pig, 3)
        assert len(pig.all_edges()) == edges_before

    def test_deterministic(self):
        a = pinter_color(example2_pig(), 3)
        b = pinter_color(example2_pig(), 3)
        assert {str(k.register): v for k, v in a.coloring.items()} == {
            str(k.register): v for k, v in b.coloring.items()
        }
        assert len(a.removed_false_edges) == len(b.removed_false_edges)

    def test_parallelism_sacrificed_property(self):
        result = pinter_color(example2_pig(), 3)
        assert result.parallelism_sacrificed == len(result.removed_false_edges)


class TestOptimalColoring:
    def test_example1_optimal(self):
        pig = example1_pig()
        coloring = optimal_pig_coloring(pig)
        assert len(set(coloring.values())) == 3
        validate_coloring(pig.graph, coloring)

    def test_example2_optimal(self):
        pig = example2_pig()
        coloring = optimal_pig_coloring(pig)
        assert len(set(coloring.values())) == 4

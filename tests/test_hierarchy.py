"""Hierarchy construction, tree conversion, prediction, and certification."""

import functools
import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut
from treecut import (ArgumentError, Graph, HierarchicalDecomposition, InternalError,
                     Partition, boundary_capacity, certify_well_expanding, check_laminar,
                     construct_hierarchy, default_gamma, expansion_bound,
                     generate_diamond, generate_dumbbell, generate_grid, hierarchy,
                     opt_congestion, predict_congestion, quality_ratio, textio,
                     to_tree_sparsifier)
from treecut.hierarchy import HierarchyConfig, TreeNode, TreeSparsifier
from treecut.textio import tree_to_json

from conftest import bisection_tree, philox, random_connected_graph, two_cliques_bridge


@pytest.fixture(scope="class")
def bottleneck():
    """two_cliques_bridge(8, cap=100) and a build per seed on it, each made once."""
    graph = two_cliques_bridge(8, cap=100)

    @functools.cache
    def build(seed):
        return construct_hierarchy(graph, HierarchyConfig(), philox(seed))

    return graph, build


def synthetic_decomposition():
    verts = range(256)
    level1 = Partition.trivial(verts)
    level2 = Partition.of([frozenset(range(64 * i, 64 * (i + 1))) for i in range(4)])
    return HierarchicalDecomposition((level1, level2))


class TestExpansionBound:
    def test_root_is_one(self):
        h = synthetic_decomposition()
        assert expansion_bound(h, frozenset(range(256)), 0) == 1

    def test_quarter_cluster_value(self):
        # n=256: loglog = 3; parent 256, cluster 64: 3 * 3 * log2(8) = 27
        h = synthetic_decomposition()
        assert expansion_bound(h, frozenset(range(64)), 1) == 27

    def test_same_size_as_parent(self):
        levels = (Partition.trivial(range(4)),
                  Partition.of([{0, 1, 2, 3}]))
        # a persisted cluster: ratio 2, bound 3 * loglog(4) * 1 = 3
        h = HierarchicalDecomposition(levels)
        assert expansion_bound(h, frozenset(range(4)), 1) == 3

    def test_small_n_clamps_loglog(self):
        levels = (Partition.trivial(range(2)), Partition.singletons(range(2)))
        h = HierarchicalDecomposition(levels)
        assert expansion_bound(h, frozenset({0}), 1) == Fraction(3.0 * math.log2(4.0))

    def test_bound_rounds_every_log_up_exactly(self):
        # n = 20: ceil log2 ceil log2 20 = 3; ceil(40 / 7) = 6: ceil log2 6 = 3
        bound = hierarchy._bound_for(20, 20, 7)
        assert type(bound) is Fraction and bound == 27


class TestConstructHierarchy:
    def test_two_vertices(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        h = construct_hierarchy(g, rng=philox(0))
        assert h.levels[0].clusters == (frozenset({0, 1}),)
        assert h.levels[1] == Partition.singletons(range(2))
        assert h.height == 2

    def test_single_vertex_rejected(self):
        with pytest.raises(ArgumentError):
            construct_hierarchy(Graph.from_edges(1, []), rng=philox(0))

    def test_structure_on_fuzzed_graphs(self):
        for seed in range(15):
            graph = random_connected_graph(seed, max_n=14, max_cap=4)
            h = construct_hierarchy(graph, rng=philox(500 + seed))
            assert check_laminar(h)
            assert h.is_complete()
            assert h.height <= 2 * math.ceil(math.log2(graph.n)) + 2

    def test_deterministic_per_seed(self):
        graph = random_connected_graph(9, max_n=12)
        runs = [construct_hierarchy(graph, rng=philox(77)).levels
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_builds_on_one_graph_share_their_singletons(self, bottleneck):
        # a kept hierarchy costs one set per vertex less: every build on the
        # graph reuses the graph's singleton clusters, leaves included
        graph, build = bottleneck
        trees = [to_tree_sparsifier(build(seed), graph) for seed in (4, 5)]
        leaves = [{leaf.leaf_vertex: leaf.cluster for leaf in tree.leaves()}
                  for tree in trees]
        assert all(leaves[0][v] is leaves[1][v] for v in range(graph.n))

    def test_builds_on_one_graph_share_their_vertex_set(self, bottleneck):
        # every build's trivial top level and its tree's root hold the
        # graph's one set of all vertices
        graph, build = bottleneck
        builds = [build(seed) for seed in (4, 5)]
        tops = [h.levels[0].clusters[0] for h in builds]
        assert tops[0] is tops[1] is graph._all_vertices
        assert tops[0] == frozenset(range(graph.n))
        roots = [to_tree_sparsifier(h, graph).root.cluster for h in builds]
        assert roots[0] is roots[1] is tops[0]

    def test_builds_on_one_graph_share_their_first_and_last_levels(self, bottleneck):
        # the whole-vertex level and the all-singleton level depend on the
        # graph alone: a height-3 build (seed 4) and a star (seed 83, the
        # first seed from 0 on whose build is a star) both keep the graph's
        # one copy of each
        graph, build = bottleneck
        builds = [build(seed) for seed in (4, 83)]
        assert [h.height for h in builds] == [3, 2]
        assert builds[0].levels[0] is builds[1].levels[0] is graph._whole_partition
        assert builds[0].levels[-1] is builds[1].levels[-1] is graph._singleton_partition
        assert graph._whole_partition == Partition.trivial(range(graph.n))
        assert graph._singleton_partition == Partition.singletons(range(graph.n))

    def test_multilevel_on_capacitated_bottleneck(self, bottleneck):
        graph, build = bottleneck
        h = build(4)
        assert h.is_complete() and check_laminar(h)
        sizes = {len(c) for c in h.levels[1].clusters}
        assert h.height >= 3 or sizes == {1}
        # the suite's only height-3 hierarchy: an 8-clique split off first;
        # the digest pins every seeded choice of the construction
        text = textio.tree_to_json(to_tree_sparsifier(h, graph))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "638adc0a5d76f6889cf2b49f9aaa174fa47682a627eaa7e0be997aeaf64bc84c")


class TestPostConditions:
    """construct_hierarchy's structural checks hold with and without -O."""

    def test_broken_laminarity_raises(self, monkeypatch, double_k4):
        monkeypatch.setattr(hierarchy, "check_laminar", lambda _d: False)
        with pytest.raises(InternalError):
            construct_hierarchy(double_k4, rng=philox(0))

    def test_broken_laminarity_exits_3_under_optimize(self, tmp_path):
        graph_file = tmp_path / "g.el"
        graph_file.write_text("0 1 1\n1 2 1\n0 2 1\n")
        script = ("import sys\n"
                  "from treecut import cli, hierarchy\n"
                  "hierarchy.check_laminar = lambda _d: False\n"
                  "sys.exit(cli.run_cli(['build', '--graph', sys.argv[1]]))\n")
        src = os.path.dirname(os.path.dirname(treecut.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script, str(graph_file)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "not laminar" in done.stderr


class TestTreeSparsifier:
    def test_two_vertex_star(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        tree = to_tree_sparsifier(construct_hierarchy(g, rng=philox(0)), g)
        leaves = tree.leaves()
        assert len(tree.nodes) == 3 and len(leaves) == 2
        assert all(leaf.cap == 1 for leaf in leaves)
        assert tree.root.parent is None

    def test_triangle_leaf_caps(self):
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        tree = to_tree_sparsifier(construct_hierarchy(g, rng=philox(1)), g)
        assert sorted(leaf.cap for leaf in tree.leaves()) == [2, 2, 2]

    def test_diamond_leaf_caps_match_degrees(self):
        g = generate_diamond(1)
        tree = to_tree_sparsifier(construct_hierarchy(g, rng=philox(2)), g)
        degrees = g.degree_list()
        for leaf in tree.leaves():
            assert leaf.cap == degrees[leaf.leaf_vertex]

    def test_incomplete_decomposition_rejected(self, path3):
        partial = HierarchicalDecomposition((Partition.trivial(range(3)),))
        with pytest.raises(ArgumentError):
            to_tree_sparsifier(partial, path3)

    def test_singleton_chains_deduplicated(self):
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        h = construct_hierarchy(g, rng=philox(3))
        tree = to_tree_sparsifier(h, g)
        clusters = [n.cluster for n in tree.nodes]
        assert len(clusters) == len(set(clusters))

    @pytest.mark.parametrize("graph", [generate_grid(3, 4), generate_diamond(2),
                                       two_cliques_bridge(4, cap=7),
                                       random_connected_graph(5, max_n=9, max_cap=5)])
    def test_star_is_the_root_over_one_leaf_per_vertex(self, graph):
        # the graph's shared star columns read as the nodes the level-by-level
        # construction would make: the root, then vertex v's leaf with its
        # cut around {v} as cap
        levels = (Partition.trivial(range(graph.n)), Partition.singletons(range(graph.n)))
        tree = to_tree_sparsifier(HierarchicalDecomposition(levels), graph)
        everything = frozenset(range(graph.n))
        expected = [TreeNode(0, None, 0, everything)] + [
            TreeNode(v + 1, 0, boundary_capacity(graph, {v}, everything), frozenset({v}), v)
            for v in range(graph.n)]
        assert tree_to_json(tree) == tree_to_json(TreeSparsifier(expected, graph.n))
        assert [(nd.cluster, nd.leaf_vertex) for nd in tree.nodes] == \
            [(nd.cluster, nd.leaf_vertex) for nd in expected]

    def test_a_cap_set_on_one_tree_leaves_the_others(self):
        # two builds of one graph share the star's columns until a cap is set
        graph = generate_grid(3, 3)
        first, second = (to_tree_sparsifier(construct_hierarchy(graph, rng=philox(s)), graph)
                         for s in (0, 1))
        before = tree_to_json(second)
        first.nodes[-1].cap = 99
        assert first.nodes[-1].cap == 99 and first.leaves()[-1].cap == 99
        assert tree_to_json(second) == before
        assert second.nodes[-1].cap == graph.degree_list()[-1]

    def test_nodes_read_like_a_list_of_tree_nodes(self, path3):
        tree = to_tree_sparsifier(construct_hierarchy(path3, rng=philox(0)), path3)
        nodes = tree.nodes
        assert len(nodes) == 4 and [nd.id for nd in nodes] == [0, 1, 2, 3]
        assert nodes[-1].leaf_vertex == 2 and [nd.id for nd in nodes[1:3]] == [1, 2]
        assert repr(nodes[1]) == repr(TreeNode(1, 0, 1, frozenset({0}), 0))
        with pytest.raises(IndexError):
            nodes[4]
        with pytest.raises(AttributeError):
            nodes[1].cluster = frozenset({1})


def cluster_sum_prediction(tree, demand):
    """The reference prediction: the demand summed over every non-root node's
    whole cluster, divided by the node's cap, maximised over the nodes."""
    values = {v: Fraction(x) for v, x in demand.items()}
    best = Fraction(0)
    for node in tree.nodes:
        if node.parent is None:
            continue
        crossing = abs(sum((values.get(v, Fraction(0)) for v in node.cluster),
                           Fraction(0)))
        if crossing:
            best = max(best, crossing / node.cap)
    return best


@pytest.fixture(scope="class")
def prediction_trees(bottleneck):
    """Built and hand-made trees, each also round-tripped through JSON; the
    first is the height-3 build on two_cliques_bridge(8, cap=100)."""
    graph, build = bottleneck
    assert build(4).height == 3
    trees = [to_tree_sparsifier(build(4), graph), bisection_tree(graph)]
    for seed in range(3):
        other = random_connected_graph(700 + seed, max_n=12, max_cap=5)
        trees.append(to_tree_sparsifier(construct_hierarchy(other, rng=philox(seed)),
                                        other))
        trees.append(bisection_tree(other))
    return trees + [textio.tree_from_json(textio.tree_to_json(tree)) for tree in trees]


class TestPredictCongestion:
    def test_zero_demand(self, path3):
        tree = to_tree_sparsifier(construct_hierarchy(path3, rng=philox(0)), path3)
        assert predict_congestion(tree, {}) == 0

    def test_single_edge_unit_demand(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        tree = to_tree_sparsifier(construct_hierarchy(g, rng=philox(0)), g)
        assert predict_congestion(tree, {0: 1, 1: -1}) == 1

    def test_unbalanced_rejected(self, path3):
        tree = to_tree_sparsifier(construct_hierarchy(path3, rng=philox(0)), path3)
        with pytest.raises(ArgumentError):
            predict_congestion(tree, {0: 1})

    @pytest.mark.parametrize("vertex", [99, -1])
    def test_vertex_outside_graph_rejected(self, vertex):
        graph = generate_dumbbell(4)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)
        with pytest.raises(ArgumentError, match=f"vertex {vertex} "):
            predict_congestion(tree, {0: 3, vertex: -3})

    def test_never_exceeds_optimum(self):
        for seed in range(10):
            graph = random_connected_graph(seed, max_n=9, max_cap=4)
            tree = to_tree_sparsifier(
                construct_hierarchy(graph, rng=philox(seed)), graph)
            rng = philox(300 + seed)
            for _ in range(10):
                u = int(rng.integers(graph.n))
                v = int(rng.integers(graph.n))
                if u == v:
                    continue
                demand = {u: 3, v: -3}
                assert predict_congestion(tree, demand) <= \
                    opt_congestion(graph, demand)

    def test_positively_homogeneous(self, double_k4):
        tree = to_tree_sparsifier(
            construct_hierarchy(double_k4, rng=philox(5)), double_k4)
        demand = {0: 1, 7: -1}
        base = predict_congestion(tree, demand)
        assert predict_congestion(tree, {0: 6, 7: -6}) == 6 * base

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_the_cluster_sum(self, prediction_trees, data):
        # the support-indexed prediction is the whole-cluster formula, exactly;
        # zero entries at non-vertices are accepted and ignored
        tree = data.draw(st.sampled_from(prediction_trees))
        value = st.one_of(st.integers(-9, 9),
                          st.fractions(-9, 9, max_denominator=6))
        demand = data.draw(st.dictionaries(st.integers(0, tree.n - 1), value,
                                           max_size=6))
        sink = data.draw(st.integers(0, tree.n - 1))
        demand[sink] = demand.get(sink, 0) - sum(demand.values())
        if data.draw(st.booleans()):
            demand.update({99: 0, -1: Fraction(0)})
        predicted = predict_congestion(tree, demand)
        assert type(predicted) is Fraction
        assert predicted == cluster_sum_prediction(tree, demand)

    def test_index_built_once_per_tree(self, monkeypatch):
        builds = []
        index = TreeSparsifier.__dict__["_nodes_at"]

        def counting(tree):
            builds.append(tree)
            return index.func(tree)

        spy = cached_property(counting)
        spy.__set_name__(TreeSparsifier, "_nodes_at")
        monkeypatch.setattr(TreeSparsifier, "_nodes_at", spy)
        graph = generate_grid(3, 3)
        trees = [to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph),
                 bisection_tree(graph)]
        for tree in trees:
            for u in range(graph.n):
                demand = {u: 2, (u + 4) % graph.n: -2}
                assert predict_congestion(tree, demand) == \
                    cluster_sum_prediction(tree, demand)
        assert builds == trees

    def test_cap_edited_after_a_prediction_is_read(self):
        graph = generate_grid(2, 2)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)
        demand = {0: 5, 3: -5}
        assert predict_congestion(tree, demand) == Fraction(5, 2)
        for node in tree.nodes:
            if node.parent is not None:
                node.cap = 1
        assert predict_congestion(tree, demand) == 5 == \
            cluster_sum_prediction(tree, demand)


class TestDemandValueTypes:
    """A plain int demand value stays an int; any other is read as a Fraction,
    and the answers and the errors do not depend on which."""

    CASTS = (int, Fraction, np.int64)

    def test_int_fraction_and_numpy_values_agree(self):
        nonzero = 0
        for seed in range(20):
            graph = random_connected_graph(seed, max_n=9, max_cap=4)
            trees = (to_tree_sparsifier(construct_hierarchy(graph, rng=philox(seed)),
                                        graph), bisection_tree(graph))
            values = philox(700 + seed).integers(-5, 6, graph.n).tolist()
            values[-1] -= sum(values)
            for tree in trees:
                answers = []
                for cast in self.CASTS:
                    demand = {v: cast(x) for v, x in enumerate(values)}
                    answers.append((predict_congestion(tree, demand),
                                    opt_congestion(graph, demand)))
                assert all(type(x) is Fraction for pair in answers for x in pair)
                assert answers[0] == answers[1] == answers[2], seed
                nonzero += answers[0][0] > 0
        assert nonzero >= 30

    @pytest.mark.parametrize("demand, message, predicts", [
        ({0: 1, 9: -1}, "demand vertex 9 is not a vertex of the graph (0..3)", True),
        # the vertex check comes first, then the sum, then integrality
        ({9: 1, 1: -2}, "demand vertex 9 is not a vertex of the graph (0..3)", True),
        ({0: 1, 1: -2}, "demand must sum to zero", True),
        ({0: Fraction(3, 2), 1: -1}, "demand must sum to zero", True),
        ({0: Fraction(3, 2), 1: Fraction(-3, 2)}, "demand values must be integral", False),
        ({0: 1.5, 1: -1.5}, "demand values must be integral", False)])
    def test_errors_keep_their_messages_and_order(self, demand, message, predicts):
        graph = generate_grid(2, 2)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)
        for cast in self.CASTS:
            given = {v: cast(x) if type(x) is int else x for v, x in demand.items()}
            with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
                opt_congestion(graph, given)
            if predicts:
                with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
                    predict_congestion(tree, given)
            else:
                assert predict_congestion(tree, given) == Fraction(3, 4)

    @pytest.mark.parametrize("caps", [(0, 1), (1, 0), (0, 0)])
    def test_zero_cap_below_the_root_raises(self, caps):
        nodes = [TreeNode(0, None, 0, frozenset({0, 1}))] + [
            TreeNode(v + 1, 0, cap, frozenset({v}), v) for v, cap in enumerate(caps)]
        tree = TreeSparsifier(nodes, 2)
        for cast in self.CASTS:
            with pytest.raises(ZeroDivisionError):
                predict_congestion(tree, {0: cast(2), 1: cast(-2)})
            assert predict_congestion(tree, {0: cast(0), 1: cast(0)}) == 0


class TestCertify:
    def test_default_gamma_is_exact(self):
        # total capacity 3: q* = ceil log2 6 = 3; 2718 = floor(1000 e)
        g = Graph.from_edges(2, [(0, 1, 3)])
        assert default_gamma(g) == Fraction(1, 2718 * 3)
        assert default_gamma(g) >= 1 / (1000 * math.e * 3)

    def test_two_vertex_graph_passes(self):
        g = Graph.from_edges(2, [(0, 1, 3)])
        h = construct_hierarchy(g, rng=philox(0))
        report = certify_well_expanding(g, h, default_gamma(g))
        assert report.all_pass
        assert {e.status for e in report.entries} <= {"pass", "leaf"}

    def test_oversize_clusters_skipped(self):
        graph = random_connected_graph(3, max_n=30, min_n=25, max_cap=2)
        h = construct_hierarchy(graph, rng=philox(1))
        report = certify_well_expanding(graph, h, default_gamma(graph))
        assert any(e.status == "skipped" for e in report.entries)

    def test_small_fuzz_mostly_passes(self):
        passes = 0
        for seed in range(8):
            graph = random_connected_graph(seed, max_n=10, max_cap=3)
            h = construct_hierarchy(graph, rng=philox(200 + seed))
            report = certify_well_expanding(graph, h, default_gamma(graph))
            passes += report.all_pass
        assert passes >= 7


class TestQualityRatio:
    def test_single_edge_always_ratio_one(self):
        g = Graph.from_edges(2, [(0, 1, 2)])
        tree = to_tree_sparsifier(construct_hierarchy(g, rng=philox(0)), g)
        worst, rows = quality_ratio(g, tree, [{0: 5, 1: -5}, {0: 1, 1: -1}, {}])
        assert worst == 1
        assert [r["ratio"] for r in rows] == [1, 1, 1]

    def test_reports_per_demand(self, double_k4):
        tree = to_tree_sparsifier(
            construct_hierarchy(double_k4, rng=philox(2)), double_k4)
        worst, rows = quality_ratio(double_k4, tree, [{0: 2, 7: -2}])
        assert rows[0]["predict"] <= rows[0]["opt"]
        assert worst >= 1

    @pytest.fixture
    def grid(self):
        """The 2x2 grid, where every cut around one vertex is 2, and its tree."""
        graph = generate_grid(2, 2)
        return graph, to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)

    def test_caps_below_the_graphs_cuts_are_an_argument_error(self, grid):
        # with every cap at 1 the tree predicts 5 for a demand whose optimum
        # is 5/2; the fault is in the tree, not the program
        graph, tree = grid
        for node in tree.nodes:
            if node.parent is not None:
                node.cap = 1
        with pytest.raises(ArgumentError, match="tree node 1 has cap 1, below the "
                                                "graph's cut capacity 2"):
            quality_ratio(graph, tree, [{0: 5, 3: -5}])

    def test_sound_caps_blame_the_optimum(self, grid, monkeypatch):
        graph, tree = grid
        monkeypatch.setattr(hierarchy, "opt_congestion", lambda *_a: Fraction(1, 100))
        with pytest.raises(InternalError, match="exceeded the exact optimum"):
            quality_ratio(graph, tree, [{0: 5, 3: -5}])

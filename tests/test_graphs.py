"""Graph primitives and brute-force oracles."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut
from treecut import (ArgumentError, Graph, InternalError, OversizeError, Partition,
                     VertexWeights, boundary_capacity, boundary_degree_map,
                     check_expanding, check_laminar, fuse, graphs)

from conftest import connected_graphs, philox, weighted_graphs
from oracles import (boundary_capacity_by_complement, boundary_degrees_by_edges,
                     brute_force_sparsest_cut, capacity)


class TestGraphConstruction:
    def test_parallel_edges_aggregate(self):
        g = Graph.from_edges(2, [(0, 1, 2), (1, 0, 3)])
        assert g.edges == ((0, 1, 5),)

    def test_self_loop_rejected(self):
        with pytest.raises(ArgumentError):
            Graph.from_edges(2, [(0, 0, 1), (0, 1, 1)])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ArgumentError):
            Graph.from_edges(2, [(0, 1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ArgumentError):
            Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)])

    def test_disconnected_allowed_when_asked(self):
        g = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)], require_connected=False)
        assert not g.is_connected()

    @pytest.mark.parametrize("edge", [(0, 1, 1.5), (0, 1, True), (0.0, 1, 1),
                                      (0, 1, "2"), (True, 1, 1)])
    def test_non_int_edge_rejected(self, edge):
        with pytest.raises(ArgumentError) as info:
            Graph.from_edges(2, [edge])
        assert repr(edge) in str(info.value)


def union_find_connected(graph: Graph) -> bool:
    """Whether the edges join every vertex, by a union-find over ``graph.edges``."""
    root = list(range(graph.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v, _c in graph.edges:
        root[find(u)] = find(v)
    return len({find(v) for v in range(graph.n)}) <= 1


def random_graph(seed: int) -> Graph:
    """A seeded random graph, often disconnected: n in 1..12 and up to 2n
    random edges."""
    rng = philox(seed)
    n = int(rng.integers(1, 13))
    ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)).tolist()
    return Graph.from_edges(n, [(u, v, int(rng.integers(1, 6))) for u, v in ends if u != v],
                            require_connected=False)


class TestArcLayout:
    """``Graph._arc_layout`` against a scan of ``graph.edges``: every edge walk
    and the router's pinned games read its order."""

    @staticmethod
    def _assert_matches_edges(graph):
        to, cap, head = graph._arc_layout
        assert len(head) == graph.n
        for v in range(graph.n):
            assert [a >> 1 for a in head[v]] == \
                [idx for idx, (a, b, _c) in enumerate(graph.edges) if v in (a, b)]
            for a in head[v]:
                u, w, c = graph.edges[a >> 1]
                assert to[a ^ 1] == v
                assert {to[a], v} == {u, w}
                assert cap[a] == cap[a ^ 1] == c
        assert graph.is_connected() == union_find_connected(graph)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed):
        self._assert_matches_edges(random_graph(seed))

    def test_isolated_vertex(self):
        graph = Graph.from_edges(4, [(0, 1, 2), (1, 2, 3)], require_connected=False)
        assert graph._arc_layout[2][3] == []
        assert not graph.is_connected()
        self._assert_matches_edges(graph)

    def test_single_vertex_is_connected(self):
        graph = Graph.from_edges(1, [])
        assert graph.is_connected()
        self._assert_matches_edges(graph)


class TestBoundaryCapacity:
    def test_full_ground_has_no_boundary(self, path3):
        assert boundary_capacity(path3, {0, 1, 2}, {0, 1, 2}) == 0

    def test_empty_set(self, path3):
        assert boundary_capacity(path3, set(), {0, 1, 2}) == 0

    def test_path_interior(self, path3):
        assert boundary_capacity(path3, {1}, {0, 1, 2}) == 2

    def test_subset_outside_ground_rejected(self, path3):
        with pytest.raises(ArgumentError):
            boundary_capacity(path3, {0}, {1, 2})

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.data())
    def test_complement_symmetry(self, graph, data):
        ground = set(range(graph.n))
        subset = {v for v in ground if data.draw(st.booleans())}
        assert boundary_capacity(graph, subset, ground) == \
            boundary_capacity(graph, ground - subset, ground)

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(), st.data())
    def test_matches_the_complement(self, graph, data):
        # random subsets of the whole graph, as its shared set and as a
        # range, and of a random ground, as a set and as a list
        ground = {v for v in range(graph.n) if data.draw(st.booleans())}
        for g in (graph._all_vertices, range(graph.n), ground, sorted(ground)):
            subset = {v for v in g if data.draw(st.booleans())}
            assert boundary_capacity(graph, subset, g) == \
                boundary_capacity_by_complement(graph, subset, g)


class TestPartitionBoundaryDegree:
    def test_trivial_partition_is_zero(self, path3):
        part = Partition.trivial(range(3))
        assert boundary_degree_map(path3, part).total({0, 1, 2}) == 0

    def test_singletons_on_path(self, path3):
        part = Partition.singletons(range(3))
        assert boundary_degree_map(path3, part).total({1}) == 2

    def test_double_k4_total_is_twice_edges(self, double_k4):
        part = Partition.singletons(range(8))
        assert boundary_degree_map(double_k4, part).total(range(8)) == 26

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=8))
    def test_additive_over_clusters(self, graph):
        part = Partition.singletons(range(graph.n))
        degrees = boundary_degree_map(graph, part)
        assert degrees.total(range(graph.n)) == sum(degrees.total(c) for c in part.clusters)

    def test_counts_edges_leaving_ground(self, path3):
        part = Partition.singletons({1})
        assert boundary_degree_map(path3, part).total({1}) == 2

    @pytest.mark.parametrize("vertex", [3, -1])
    def test_vertex_outside_the_graph_rejected(self, path3, vertex):
        # the map reads each ground vertex's adjacency, so a vertex the
        # graph lacks is an error, not an isolated vertex
        with pytest.raises(ArgumentError, match="vertex outside the graph"):
            boundary_degree_map(path3, Partition.singletons({0, vertex}))

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(), st.data())
    def test_matches_the_all_edges_scan(self, graph, data):
        # the map reads only the edges at the ground's vertices; a random
        # partition of a random ground, proper in most draws, so that edges
        # leaving the ground count as well as edges between clusters
        outside = data.draw(st.sets(st.integers(0, graph.n - 1), max_size=graph.n - 1))
        ground = [v for v in range(graph.n) if v not in outside]
        labels = data.draw(st.lists(st.integers(0, 3), min_size=len(ground),
                                    max_size=len(ground)))
        part = Partition.of({v for v, label in zip(ground, labels) if label == cluster}
                            for cluster in set(labels))
        assert dict(boundary_degree_map(graph, part)) == \
            boundary_degrees_by_edges(graph, part)


class TestFuse:
    def test_fuse_existing_cluster_is_identity(self, path3):
        part = Partition.of([{0, 1}, {2}])
        assert fuse(part, {0, 1}, path3) == part

    def test_fuse_whole_edge(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        part = fuse(Partition.singletons(range(2)), {0, 1}, g)
        assert part.clusters == (frozenset({0, 1}),)
        assert boundary_degree_map(g, part).total() == 0

    def test_triangle_fuse(self):
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        part = fuse(Partition.singletons(range(3)), {0, 1}, g)
        assert set(part.clusters) == {frozenset({0, 1}), frozenset({2})}
        assert boundary_degree_map(g, part).total() == 4

    def test_empty_fuse_rejected(self, path3):
        with pytest.raises(ArgumentError):
            fuse(Partition.singletons(range(3)), set(), path3)

    def test_violated_growth_bound_raises(self, monkeypatch, path3):
        # crediting no boundary capacity puts the bound below the real boundary
        monkeypatch.setattr(graphs, "boundary_capacity", lambda *_a: 0)
        with pytest.raises(InternalError):
            fuse(Partition.singletons(range(3)), {0, 1}, path3)

    def test_violated_growth_bound_raises_under_optimize(self):
        script = ("import sys\n"
                  "from treecut import Graph, InternalError, Partition\n"
                  "from treecut import fuse, graphs\n"
                  "graphs.boundary_capacity = lambda *_a: 0\n"
                  "g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])\n"
                  "try:\n"
                  "    fuse(Partition.singletons(range(3)), {0, 1}, g)\n"
                  "except InternalError:\n"
                  "    sys.exit(3)\n")
        src = os.path.dirname(os.path.dirname(treecut.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 3, done.stderr

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=9), st.data())
    def test_fuse_boundary_growth_bound(self, graph, data):
        verts = sorted(data.draw(
            st.sets(st.integers(0, graph.n - 1), min_size=2, max_size=graph.n)))
        part = Partition.singletons(verts)
        merged = data.draw(st.sets(st.sampled_from(verts), min_size=1))
        before = boundary_degree_map(graph, part)
        after_part = fuse(part, merged, graph)  # the bound is asserted inside
        after = boundary_degree_map(graph, after_part)
        rest = set(verts) - merged
        outside = set(range(graph.n)) - set(verts)
        bound = (before.total() - before.total(merged)
                 + 2 * sum(capacity(graph, u, v) for u in merged for v in rest)
                 + sum(capacity(graph, u, v) for u in merged for v in outside))
        assert after.total() <= bound


class TestSparsestCutOracle:
    def test_double_k4_bridge(self, double_k4):
        cut, sparsity = brute_force_sparsest_cut(
            double_k4, VertexWeights.degrees(double_k4))
        assert sparsity == Fraction(1, 13)
        assert cut.vertices in (frozenset(range(4)), frozenset(range(4, 8)))

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        _cut, sparsity = brute_force_sparsest_cut(g, VertexWeights({0: 1, 1: 1}))
        assert sparsity == 1

    def test_k4_at_most_one(self):
        g = Graph.from_edges(4, [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
        _cut, sparsity = brute_force_sparsest_cut(g, VertexWeights.degrees(g))
        assert sparsity <= 1

    def test_zero_weights_rejected(self, path3):
        with pytest.raises(ArgumentError):
            brute_force_sparsest_cut(path3, VertexWeights({}))

    def test_oversize_refused(self):
        g = Graph.from_edges(25, [(i, i + 1, 1) for i in range(24)])
        with pytest.raises(OversizeError):
            brute_force_sparsest_cut(g, VertexWeights.degrees(g))

    def test_single_support_rejected(self, path3):
        with pytest.raises(ArgumentError):
            brute_force_sparsest_cut(path3, VertexWeights({1: 7}))

    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs(max_n=8), st.integers(0, 2 ** 32 - 1))
    def test_beats_random_cuts(self, graph_weights, seed):
        graph, weights = graph_weights
        if sum(1 for w in weights.values() if w != 0) <= 1:
            weights = VertexWeights.degrees(graph)
        _cut, best = brute_force_sparsest_cut(graph, weights)
        rng = philox(seed)
        total = weights.total()
        ground = range(graph.n)
        for _ in range(1000):
            mask = int(rng.integers(1, 2 ** graph.n - 1))
            subset = {v for v in ground if (mask >> v) & 1}
            w = weights.total(subset)
            if w == 0 or 2 * w > total:
                continue
            ratio = Fraction(boundary_capacity(graph, subset, ground), w)
            assert best <= ratio


class TestCheckExpanding:
    def test_single_vertex(self, path3):
        ok, witness = check_expanding(path3, {0}, VertexWeights({0: 5}), 100)
        assert ok and witness is None

    def test_disconnected_piece_fails(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        ok, witness = check_expanding(g, {0, 3}, VertexWeights({0: 1, 3: 1}),
                                      Fraction(1, 1000))
        assert not ok
        assert witness.capacity == 0

    def test_double_k4_threshold(self, double_k4):
        deg = VertexWeights.degrees(double_k4)
        assert check_expanding(double_k4, range(8), deg, Fraction(1, 13))[0]
        ok, witness = check_expanding(double_k4, range(8), deg, Fraction(1, 12))
        assert not ok
        assert witness.vertices in (frozenset(range(4)), frozenset(range(4, 8)))

    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs(max_n=7), st.fractions(min_value=0, max_value=2))
    def test_monotone_in_quality(self, graph_weights, quality):
        graph, weights = graph_weights
        ok_high, _ = check_expanding(graph, range(graph.n), weights, quality)
        if ok_high:
            assert check_expanding(graph, range(graph.n), weights, quality / 2)[0]


class TestCheckLaminar:
    def test_single_level(self):
        assert check_laminar([Partition.trivial(range(4))])

    def test_two_levels(self):
        levels = [Partition.trivial(range(2)), Partition.singletons(range(2))]
        assert check_laminar(levels)

    def test_straddling_cluster_fails(self):
        levels = [Partition.trivial(range(4)),
                  Partition.of([{0, 1}, {2, 3}]),
                  Partition.of([{0}, {1, 2}, {3}])]
        assert not check_laminar(levels)

    def test_missing_root_fails(self):
        assert not check_laminar([Partition.of([{0}, {1}])])

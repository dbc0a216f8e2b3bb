"""Two-way trimming, border routability, and the cluster partition routine."""

from fractions import Fraction

import pytest

from treecut import (ArgumentError, Graph, Partition, VertexWeights,
                     boundary_capacity, boundary_degree_map, check_border_routable,
                     check_expanding, oracle_params, partition_cluster, two_way_trim)
from treecut import partition as partition_module
from treecut.graphs import incident_capacity

from conftest import philox, random_connected_graph, two_cliques_bridge


def degree_pi(graph, cluster):
    return boundary_degree_map(graph, Partition.singletons(cluster))


class TestBorderRoutable:
    def test_no_internal_cut_is_vacuous(self, path3):
        assert not check_border_routable(path3, {0, 1, 2}, {0, 1}, 10, 2)
        # U = whole cluster: no edges toward the rest of the cluster
        assert check_border_routable(path3, {0, 1, 2}, {0, 1, 2}, 10, 2)

    def test_no_border_with_cut_fails(self):
        # cluster is everything, so there is no outer border to route to
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert not check_border_routable(g, {0, 1, 2}, {0, 1}, 1000, 2)

    def test_single_hop_routing(self):
        # U = {1}: one unit arrives from inside the cluster and leaves to 0
        g = Graph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)])
        assert check_border_routable(g, {1, 2, 3}, {1}, 2, 2)
        assert not check_border_routable(g, {1, 2, 3}, {1}, 5, Fraction(1, 4))

    def test_bad_arguments(self, path3):
        with pytest.raises(ArgumentError):
            check_border_routable(path3, {0}, {0, 1}, 1, 2)
        with pytest.raises(ArgumentError):
            check_border_routable(path3, {0, 1}, {0}, 0, 2)


class TestTwoWayTrim:
    def test_double_k4_contract(self, double_k4):
        cluster = frozenset(range(8))
        seed = frozenset(range(4))
        pi = degree_pi(double_k4, cluster)
        phi = Fraction(1, 4)
        result = two_way_trim(double_k4, cluster, seed, pi, phi, 1)
        parts = (result.kept, result.buffer, result.routable)
        assert frozenset().union(*parts) == cluster
        assert sum(map(len, parts)) == len(cluster)
        assert result.kept <= cluster - seed
        kept_cut = boundary_capacity(double_k4, result.kept, cluster)
        assert kept_cut <= 2 * boundary_capacity(double_k4, seed, cluster)
        low_weight = pi.total(result.buffer | result.routable)
        assert low_weight <= 11 * pi.total(seed)
        assert check_border_routable(double_k4, cluster, result.routable,
                                     1 / phi, 2)

    def test_expansion_of_trimmed_remainder(self, double_k4):
        cluster = frozenset(range(8))
        seed = frozenset(range(4))
        pi = degree_pi(double_k4, cluster)
        phi = Fraction(1, 4)
        delta = Fraction(1, 2)
        result = two_way_trim(double_k4, cluster, seed, pi, phi, delta)
        remainder = result.kept | result.buffer
        if remainder:
            inner = incident_capacity(
                double_k4, remainder,
                frozenset(range(8)) - result.buffer)
            weights = {v: inner.get(v, 0) if v in result.buffer else 0
                       for v in remainder}
            buffer_border = incident_capacity(
                double_k4, remainder, set(range(double_k4.n)) - result.buffer)
            combined = {v: (buffer_border.get(v, 0) if v in remainder else 0)
                        + (pi.get(v, 0) if v in result.kept else 0)
                        for v in remainder}
            ok, _w = check_expanding(double_k4, remainder, combined,
                                     Fraction(1, 25) * delta * phi)
            assert ok

    def test_boundary_sparsity_case(self):
        # seed cut capacity exactly phi * pi(seed)
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        pi = VertexWeights({0: 4, 1: 2, 2: 2, 3: 1})
        result = two_way_trim(g, {0, 1, 2, 3}, {0}, pi, Fraction(1, 4), 1)
        assert result.kept | result.buffer | result.routable == frozenset(range(4))

    def test_sparse_requirement_enforced(self, double_k4):
        pi = VertexWeights({v: 1 for v in range(3)})  # seed weight 3, cut 1
        with pytest.raises(ArgumentError):
            two_way_trim(double_k4, range(8), range(4), pi, Fraction(1, 4), 1)

    def test_fuzz_three_way_partition(self):
        for seed in range(25):
            rng = philox(seed)
            graph = random_connected_graph(seed, max_n=10, max_cap=4)
            if graph.n < 3:
                continue
            cluster = frozenset(range(graph.n))
            pick = frozenset(
                int(v) for v in rng.choice(graph.n, size=graph.n // 3 + 1,
                                           replace=False))
            if not pick or pick == cluster:
                continue
            pi = degree_pi(graph, cluster)
            cut = boundary_capacity(graph, pick, cluster)
            if cut > Fraction(1, 4) * pi.total(pick):
                continue
            result = two_way_trim(graph, cluster, pick, pi, Fraction(1, 4),
                                  Fraction(1, 3))
            union = result.kept | result.buffer | result.routable
            assert union == cluster
            assert len(result.kept) + len(result.buffer) + len(result.routable) \
                == len(cluster)
            assert check_border_routable(graph, cluster, result.routable, 4, 2)


class TestPartitionCluster:
    def test_whole_graph_has_no_bad_child(self):
        for seed in range(8):
            graph = random_connected_graph(40 + seed, max_n=10, max_cap=3)
            cluster = frozenset(range(graph.n))
            result = partition_cluster(graph, cluster,
                                       Partition.singletons(cluster),
                                       Fraction(1, 4), philox(seed))
            assert result.bad_child == frozenset()
            assert result.partition.ground == cluster

    def test_whole_graph_expands_against_result(self):
        for seed in range(5):
            graph = random_connected_graph(60 + seed, max_n=9, max_cap=2)
            cluster = frozenset(range(graph.n))
            result = partition_cluster(graph, cluster,
                                       Partition.singletons(cluster),
                                       Fraction(1, 4), philox(seed))
            pi_after = boundary_degree_map(graph, result.partition)
            qstar = oracle_params(max(2, 2 * graph.total_capacity()))[0]
            quality = Fraction(1, 4) / (500 * qstar)
            ok, witness = check_expanding(graph, cluster, pi_after, quality)
            assert ok, (seed, witness)

    def test_disconnected_cluster_returns_bad_child(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        result = partition_cluster(g, {0, 3}, Partition.singletons({0, 3}),
                                   Fraction(1, 4), philox(0))
        assert result.bad_child in (frozenset({0}), frozenset({3}))
        assert result.bad_child in result.partition.clusters
        assert check_border_routable(g, {0, 3}, result.bad_child, 4, 2)

    def test_capacitated_bottleneck_cluster(self):
        # heavy cliques force the oracle to see the bridge
        graph = two_cliques_bridge(8, cap=100)
        cluster = frozenset(range(16))
        result = partition_cluster(graph, cluster,
                                   Partition.singletons(cluster),
                                   Fraction(1, 4), philox(4))
        # the cluster is the whole graph: no border, so no bad child
        assert result.bad_child == frozenset()
        assert max(map(len, result.partition.clusters)) <= 8
        assert any(len(c) > 1 for c in result.partition.clusters)

    def test_trim_branch_with_injected_oracle(self, monkeypatch):
        # heavy border at vertex 1 forces the trim branch for T = {1, 2}
        g = Graph.from_edges(6, [(0, 1, 200), (1, 2, 50), (2, 3, 1),
                                 (3, 4, 50), (4, 5, 50)])
        cluster = frozenset({1, 2, 3, 4})
        pi = degree_pi(g, cluster)
        assert pi == {1: 250, 2: 51, 3: 51, 4: 100}

        def oracle(graph, weights, phi, rng, within):
            return frozenset({1, 2})

        monkeypatch.setattr(partition_module, "sparsest_cut_apx", oracle)
        before = Partition.singletons(cluster)
        result = partition_cluster(g, cluster, before, Fraction(1, 4), philox(0))
        child = result.bad_child
        assert child == frozenset({1, 2})
        assert child in result.partition.clusters
        assert check_border_routable(g, cluster, child, 4, 2)
        # balanced bad child inequalities
        deg_after = boundary_degree_map(g, result.partition)
        deg_before = boundary_degree_map(g, before)
        tau = oracle_params(pi.total())[2]
        assert Fraction(deg_after.total(child)) >= tau / 20 * deg_after.total()
        cut = boundary_capacity(g, child, cluster)
        assert deg_after.total() <= deg_before.total() + 2 * cut

    def test_fuse_branch_reduces_weight(self, monkeypatch):
        # interior-heavy side gets fused, then the loop finishes cleanly
        g = Graph.from_edges(6, [(0, 1, 50), (1, 2, 50), (2, 3, 1),
                                 (3, 4, 50), (4, 5, 50)])
        cluster = frozenset({1, 2, 3, 4})
        calls = []

        def oracle(graph, weights, phi, rng, within):
            calls.append(dict(weights))
            if len(calls) == 1:
                return frozenset({1, 2})  # sparse side, light border: fused
            return frozenset()

        monkeypatch.setattr(partition_module, "sparsest_cut_apx", oracle)
        result = partition_cluster(g, cluster, Partition.singletons(cluster),
                                   Fraction(1, 4), philox(0))
        assert result.bad_child == frozenset()
        assert frozenset({1, 2}) in result.partition.clusters
        assert len(calls) == 2
        assert sum(calls[1].values()) < sum(calls[0].values())

    def test_contract_on_fuzzed_subclusters(self):
        for seed in range(12):
            rng = philox(700 + seed)
            graph = random_connected_graph(seed, max_n=9, max_cap=3, min_n=4)
            size = int(rng.integers(2, graph.n))
            cluster = frozenset(
                int(v) for v in rng.choice(graph.n, size=size, replace=False))
            result = partition_cluster(graph, cluster,
                                       Partition.singletons(cluster),
                                       Fraction(1, 4), philox(seed))
            assert result.partition.ground == cluster
            child = result.bad_child
            assert 2 * len(child) <= len(cluster)
            if child:
                assert child in result.partition.clusters
                assert check_border_routable(graph, cluster, child, 4, 2)
            assert max(map(len, result.partition.clusters)) <= max(1, len(cluster) / 2)

    def test_precondition_checks(self, path3):
        with pytest.raises(ArgumentError):
            partition_cluster(path3, {0, 1}, Partition.singletons({0, 1}),
                              Fraction(1, 2), philox(0))
        with pytest.raises(ArgumentError):
            partition_cluster(path3, {0, 1}, Partition.singletons({0, 1, 2}),
                              Fraction(1, 4), philox(0))

    def test_singleton_cluster_trivial(self, path3):
        result = partition_cluster(path3, {1}, Partition.singletons({1}),
                                   Fraction(1, 4), philox(0))
        assert result.bad_child == frozenset()
        assert result.partition.clusters == (frozenset({1}),)

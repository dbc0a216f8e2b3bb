"""Graph generators and demand samplers."""

from fractions import Fraction

import pytest

from treecut import (ArgumentError, construct_hierarchy, diamond_adversarial_demands,
                     diamond_structure, generate_diamond, generate_dumbbell,
                     generate_erdos_renyi, generate_grid, generators,
                     random_pair_demands, to_tree_sparsifier)

from conftest import bisection_tree, philox
from oracles import capacity


def bfs_distance(graph, start, goal):
    frontier = {start}
    seen = {start}
    hops = 0
    while frontier:
        if goal in frontier:
            return hops
        nxt = set()
        for v in frontier:
            for w, _i, _c in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
        hops += 1
    raise AssertionError("unreachable goal")


class TestDiamond:
    def test_order_zero(self):
        g = generate_diamond(0)
        assert (g.n, g.m) == (2, 1)

    def test_edge_counts_grow_fourfold(self):
        for order in range(4):
            assert generate_diamond(order).m == 4 ** order

    def test_terminal_distance(self):
        for order in (1, 2, 3):
            g = generate_diamond(order)
            assert bfs_distance(g, 0, 1) == 2 ** order

    def test_unit_capacities_and_connected(self):
        g = generate_diamond(3)
        assert all(c == 1 for _u, _v, c in g.edges)
        assert g.is_connected()

    def test_deterministic_ids(self):
        assert generate_diamond(2).edges == generate_diamond(2).edges

    def test_order_out_of_range(self):
        with pytest.raises(ArgumentError):
            generate_diamond(9)
        with pytest.raises(ArgumentError):
            generate_diamond(-1)


def cluster_sum_chooser(tree):
    """The reference tree-load chooser: every candidate path scored by summing
    the accumulated demand over the whole cluster of each node inside it."""

    def choose(paths, demands_so_far):
        accumulated = {}
        for demand in demands_so_far:
            for v, x in demand.items():
                accumulated[v] = accumulated.get(v, Fraction(0)) + Fraction(x)
        best_idx, best_score = 0, None
        for idx, (first, second) in enumerate(paths):
            span = first.span | second.span
            score = Fraction(0)
            for node in tree.nodes:
                if node.parent is None or not node.cluster <= span:
                    continue
                crossing = abs(sum((accumulated.get(v, Fraction(0))
                                    for v in node.cluster), Fraction(0)))
                if crossing:
                    score = max(score, crossing / node.cap)
            if best_score is None or score > best_score:
                best_idx, best_score = idx, score
        return best_idx

    return choose


class TestAdversarialDemands:
    def test_order_one(self):
        demands = diamond_adversarial_demands(1)
        assert len(demands) == 2
        assert all(max(d.values()) == 1 for d in demands)

    def test_order_two_values(self):
        demands = diamond_adversarial_demands(2)
        values = [max(d.values()) for d in demands]
        assert values == [2, 2, 1, 1]

    def test_all_balanced(self):
        for order in (1, 2, 3):
            for demand in diamond_adversarial_demands(order):
                assert sum(demand.values()) == 0

    def test_tree_chooser_is_deterministic(self):
        graph, _root = diamond_structure(2)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)
        first = diamond_adversarial_demands(2, tree=tree)
        second = diamond_adversarial_demands(2, tree=tree)
        assert first == second

    def test_order_zero_rejected(self):
        with pytest.raises(ArgumentError):
            diamond_adversarial_demands(0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_tree_chooser_matches_the_cluster_sums(self, order, monkeypatch):
        # random caps break the diamond's symmetry, so from order 3 on some
        # tree steers the sequence off the first sub-path
        graph, _root = diamond_structure(order)
        trees = [None, bisection_tree(graph),
                 to_tree_sparsifier(construct_hierarchy(graph, rng=philox(order)), graph)]
        for seed in range(4):
            tree = bisection_tree(graph)
            rng = philox(seed)
            for node in tree.nodes[1:]:
                node.cap = int(rng.integers(1, 10))
            trees.append(tree)
        chosen = [repr(diamond_adversarial_demands(order, tree)) for tree in trees]
        assert order < 3 or len(set(chosen)) > 1
        monkeypatch.setattr(generators, "_tree_load_chooser", cluster_sum_chooser)
        assert chosen == [repr(diamond_adversarial_demands(order, tree))
                          for tree in trees]

    def test_tree_of_another_graph_rejected(self):
        graph, _root = diamond_structure(1)
        with pytest.raises(ArgumentError, match="the tree has 4 vertices, "
                                                "the order-2 diamond 12"):
            diamond_adversarial_demands(2, tree=bisection_tree(graph))


class TestOtherGenerators:
    def test_dumbbell_shape(self):
        g = generate_dumbbell(4, 2)
        assert g.n == 8
        assert g.m == 2 * 6 + 2
        assert capacity(g, 0, 4) == 1 and capacity(g, 1, 5) == 1

    def test_dumbbell_validation(self):
        with pytest.raises(ArgumentError):
            generate_dumbbell(1)
        with pytest.raises(ArgumentError):
            generate_dumbbell(4, 5)

    def test_erdos_renyi_connected_and_seeded(self):
        a = generate_erdos_renyi(12, 0.3, philox(5))
        b = generate_erdos_renyi(12, 0.3, philox(5))
        assert a.edges == b.edges
        assert a.is_connected()

    def test_grid_edges(self):
        g = generate_grid(3, 2)
        assert g.n == 6
        assert g.m == (3 - 1) * 2 + 3 * (2 - 1)  # horizontal + vertical runs
        assert g.is_connected()

    def test_grid_m_formula(self):
        g = generate_grid(4, 4)
        assert g.m == 2 * 4 * 3

    def test_random_pair_demands_balanced(self):
        g = generate_grid(3, 3)
        demands = random_pair_demands(g, 20, 5, philox(9))
        assert len(demands) == 20
        for demand in demands:
            assert sum(demand.values()) == 0
            assert len(demand) == 2

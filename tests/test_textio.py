"""Text format round trips and diagnostics."""

import json

import pytest

from treecut import (InputError, construct_hierarchy, generate_diamond, predict_congestion,
                     to_tree_sparsifier)
from treecut.textio import (format_demands, format_edge_list, parse_demands,
                            parse_edge_list, parse_vertex_weights, tree_from_json,
                            tree_to_dot, tree_to_json)

from conftest import philox, random_connected_graph


class TestEdgeList:
    def test_round_trip_bit_identical(self):
        graph = generate_diamond(2)
        text = format_edge_list(graph)
        assert format_edge_list(parse_edge_list(text)) == text

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n0 1 2\n1 2 1  # tail comment\n")
        assert g.edges == ((0, 1, 2), (1, 2, 1))

    def test_line_numbered_diagnostics(self):
        with pytest.raises(InputError) as err:
            parse_edge_list("0 1 1\n0 x 1\n")
        assert err.value.line == 2

    def test_bad_field_count(self):
        with pytest.raises(InputError) as err:
            parse_edge_list("0 1\n")
        assert err.value.line == 1

    def test_self_loop_flagged(self):
        with pytest.raises(InputError) as err:
            parse_edge_list("2 2 1\n")
        assert err.value.line == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            parse_edge_list("# nothing\n")


class TestWeights:
    def test_parse_and_merge(self):
        weights = parse_vertex_weights("0 3\n1 0\n0 2\n")
        assert weights == {0: 5, 1: 0}

    def test_negative_rejected(self):
        with pytest.raises(InputError) as err:
            parse_vertex_weights("0 3\n1 -2\n")
        assert err.value.line == 2


class TestTreeJson:
    def test_round_trip_preserves_predictions(self):
        graph = random_connected_graph(3, max_n=10)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(3)), graph)
        clone = tree_from_json(tree_to_json(tree))
        assert clone.n == tree.n
        rng = philox(11)
        for _ in range(15):
            u = int(rng.integers(graph.n))
            v = int(rng.integers(graph.n))
            if u == v:
                continue
            demand = {u: 2, v: -2}
            assert predict_congestion(clone, demand) == \
                predict_congestion(tree, demand)

    def test_dot_output_mentions_every_edge(self):
        graph = generate_diamond(1)
        tree = to_tree_sparsifier(construct_hierarchy(graph, rng=philox(0)), graph)
        dot = tree_to_dot(tree)
        assert dot.count("->") == len(tree.nodes) - 1

    def test_malformed_json(self):
        with pytest.raises(InputError):
            tree_from_json("{not json")
        with pytest.raises(InputError):
            tree_from_json('{"nodes": []}')

    @staticmethod
    def star(n=3):
        nodes = [{"id": 0, "parent": None, "cap": 0}]
        nodes += [{"id": v + 1, "parent": 0, "cap": 1, "leaf_vertex": v} for v in range(n)]
        return {"n": n, "nodes": nodes}

    @pytest.mark.parametrize("node, change, message", [
        (1, "not an object", "node entry 1"),
        (2, {"cap": "3"}, "node 2"),
        (2, {"leaf_vertex": 1.0}, "node 2"),
        (2, {"id": 1}, "node 1"),
        (3, {"parent": 9}, "node 3"),
        (2, {"leaf_vertex": -1}, "node 2"),
        (3, {"leaf_vertex": 0}, "node 3"),
        (2, {"cap": 0}, "node 2"),
    ], ids=["entry", "cap", "leaf-float", "duplicate-id", "unknown-parent", "leaf-negative",
            "leaf-twice", "zero-cap"])
    def test_malformed_node_is_named(self, node, change, message):
        data = self.star()
        if isinstance(change, dict):
            data["nodes"][node].update(change)
        else:
            data["nodes"][node] = change
        with pytest.raises(InputError, match=message):
            tree_from_json(json.dumps(data))

    @pytest.mark.parametrize("n", ["4", 4.9], ids=["string", "float"])
    def test_non_integer_n_rejected(self, n):
        data = self.star(4)
        data["n"] = n
        with pytest.raises(InputError, match="'n'"):
            tree_from_json(json.dumps(data))

    def test_root_is_the_parentless_node_wherever_it_is_listed(self):
        data = {"n": 2, "nodes": [
            {"id": 0, "parent": 2, "cap": 1, "leaf_vertex": 0},
            {"id": 1, "parent": 2, "cap": 1, "leaf_vertex": 1},
            {"id": 2, "parent": None, "cap": 0}]}
        tree = tree_from_json(json.dumps(data))
        assert tree.root.id == 2 and tree.root.parent is None
        assert tree.root.cluster == frozenset({0, 1})

    def test_root_must_span_every_vertex(self):
        data = self.star()
        data["n"] = 4
        with pytest.raises(InputError, match="root"):
            tree_from_json(json.dumps(data))
        data = self.star()
        data["nodes"][1]["parent"] = None
        with pytest.raises(InputError, match="root"):
            tree_from_json(json.dumps(data))


class TestDemands:
    def test_round_trip(self):
        demands = [{0: 3, 2: -3}, {1: 1, 4: -1}]
        assert parse_demands(format_demands(demands)) == demands

    def test_unbalanced_rejected(self):
        with pytest.raises(InputError):
            parse_demands("[[[0, 2]]]")

    def test_non_list_rejected(self):
        with pytest.raises(InputError):
            parse_demands('{"a": 1}')

    @pytest.mark.parametrize("text", ["[[[0, 1.5], [1, -1.5]]]", "[[[0, true], [1, -1]]]",
                                      '[[["0", 1], [1, -1]]]', "[[[0, 1, 2]]]"],
                             ids=["fraction", "bool", "string", "triple"])
    def test_non_integer_pair_rejected(self, text):
        with pytest.raises(InputError, match="demand 0"):
            parse_demands(text)

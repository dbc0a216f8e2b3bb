"""Shared fixtures, strategies, and deterministic instance generators."""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from treecut import Graph, VertexWeights, boundary_capacity
from treecut import cutmatch
from treecut.hierarchy import TreeNode, TreeSparsifier


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_connected_graph(seed: int, max_n: int = 12, max_cap: int = 8,
                           min_n: int = 2, extra_factor: float = 1.0) -> Graph:
    """Spanning tree plus random extra edges; connected by construction."""
    rng = philox(seed)
    n = int(rng.integers(min_n, max_n + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.append((u, v, int(rng.integers(1, max_cap + 1))))
    for _ in range(int(rng.integers(0, max(1, int(n * extra_factor)) + 1))):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            edges.append((min(u, v), max(u, v), int(rng.integers(1, max_cap + 1))))
    return Graph.from_edges(n, edges)


class PlayedRound(NamedTuple):
    active: frozenset[int]
    left: np.ndarray
    right: np.ndarray
    dropped: frozenset[int]


@contextmanager
def played_rounds():
    """Record every round games play: active units, proposal sides, dropped units.

    ``CutMatchingGame.step`` calls the matching player through the module
    global ``cutmatch.matching_player_step`` with the game and both proposal
    sides, so wrapping that name records the game's own round; the active
    units are read from the game before the matching player answers.
    """
    rounds: list[PlayedRound] = []
    play = cutmatch.matching_player_step

    def recording(game, left, right):
        active = frozenset(np.flatnonzero(game.active_mask).tolist())
        dropped, matching = play(game, left, right)
        rounds.append(PlayedRound(active, left, right, dropped))
        return dropped, matching

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cutmatch, "matching_player_step", recording)
        yield rounds


def two_cliques_bridge(size: int, cap: int = 1, bridge_cap: int = 1) -> Graph:
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, cap))
    edges.append((size - 1, size, bridge_cap))
    return Graph.from_edges(2 * size, edges)


def bisection_tree(graph: Graph) -> TreeSparsifier:
    """A hand-made tree whose clusters halve the vertex range 0..n-1 down to
    singletons, each non-root node capped by the graph's cut around it."""
    nodes: list[TreeNode] = []

    def add(cluster: range, parent: int | None):
        cap = 0 if parent is None else boundary_capacity(graph, cluster, range(graph.n))
        node = TreeNode(len(nodes), parent, cap, frozenset(cluster),
                        cluster[0] if len(cluster) == 1 else None)
        nodes.append(node)
        if len(cluster) > 1:
            half = len(cluster) // 2
            add(cluster[:half], node.id)
            add(cluster[half:], node.id)

    add(range(graph.n), None)
    return TreeSparsifier(nodes, graph.n)


@pytest.fixture
def double_k4() -> Graph:
    return two_cliques_bridge(4)


@pytest.fixture
def double_k8() -> Graph:
    return two_cliques_bridge(8)


@pytest.fixture
def k8() -> Graph:
    return Graph.from_edges(8, [(i, j, 1) for i in range(8) for j in range(i + 1, 8)])


@pytest.fixture
def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1, 1), (1, 2, 1)])


@st.composite
def connected_graphs(draw, max_n: int = 10, max_cap: int = 6):
    n = draw(st.integers(2, max_n))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, draw(st.integers(1, max_cap))))
    extras = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.integers(1, max_cap)), max_size=2 * n))
    for u, v, c in extras:
        if u != v:
            edges.append((min(u, v), max(u, v), c))
    return Graph.from_edges(n, edges)


@st.composite
def weighted_graphs(draw, max_n: int = 10, max_cap: int = 6, max_w: int = 6):
    graph = draw(connected_graphs(max_n=max_n, max_cap=max_cap))
    weights = VertexWeights({
        v: draw(st.integers(0, max_w)) for v in range(graph.n)})
    return graph, weights

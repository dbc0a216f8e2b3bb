"""Graph generators and demand samplers for the CLI and the test benches."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ArgumentError
from .graphs import Graph

DIAMOND_ORDER_CAP = 8

#: samples generate_erdos_renyi draws before it gives up on a connected graph
ER_MAX_TRIES = 200


@dataclass(frozen=True)
class DiamondNode:
    """One recursive diamond between two terminals.

    Order-0 diamonds are single edges; higher orders hold four quarter
    diamonds meeting at the two middle vertices.
    """

    s: int
    t: int
    order: int
    parts: tuple["DiamondNode", ...] | None
    span: frozenset[int]


def diamond_structure(order: int) -> tuple[Graph, DiamondNode]:
    """Recursive diamond graph plus its construction tree."""
    if not 0 <= order <= DIAMOND_ORDER_CAP:
        raise ArgumentError(f"diamond order must lie in [0, {DIAMOND_ORDER_CAP}]")
    edges: list[tuple[int, int, int]] = []
    counter = [2]

    def build(s: int, t: int, k: int) -> DiamondNode:
        if k == 0:
            edges.append((s, t, 1))
            return DiamondNode(s, t, 0, None, frozenset((s, t)))
        left = counter[0]
        right = counter[0] + 1
        counter[0] += 2
        parts = (build(s, left, k - 1), build(left, t, k - 1),
                 build(s, right, k - 1), build(right, t, k - 1))
        span = frozenset().union(*(p.span for p in parts))
        return DiamondNode(s, t, k, parts, span)

    root = build(0, 1, order)
    graph = Graph.from_edges(counter[0], edges)
    return graph, root


def generate_diamond(order: int) -> Graph:
    return diamond_structure(order)[0]


def generate_dumbbell(clique_size: int, bridges: int = 1) -> Graph:
    """Two cliques of the given size joined by unit bridges."""
    if clique_size < 2 or not 1 <= bridges <= clique_size:
        raise ArgumentError("need clique size >= 2 and 1 <= bridges <= clique size")
    edges = []
    for side in (0, clique_size):
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((side + i, side + j, 1))
    for b in range(bridges):
        edges.append((b, clique_size + b, 1))
    return Graph.from_edges(2 * clique_size, edges)


def generate_erdos_renyi(n: int, p: float, rng) -> Graph:
    """Random graph with unit capacities, redrawn until connected."""
    if n < 2 or not 0 < p <= 1:
        raise ArgumentError("need n >= 2 and 0 < p <= 1")
    for _ in range(ER_MAX_TRIES):
        edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            return Graph.from_edges(n, edges)
        except ArgumentError:
            continue
    raise ArgumentError(f"no connected sample after {ER_MAX_TRIES} draws; raise p")


def generate_grid(width: int, height: int) -> Graph:
    if width < 1 or height < 1 or width * height < 2:
        raise ArgumentError("grid needs at least two vertices")
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1, 1))
            if y + 1 < height:
                edges.append((v, v + width, 1))
    return Graph.from_edges(width * height, edges)


def random_pair_demands(graph: Graph, count: int, magnitude: int, rng
                        ) -> list[dict[int, int]]:
    """Balanced single-commodity demands between random distinct vertex pairs."""
    if graph.n < 2 or count < 0 or magnitude < 1:
        raise ArgumentError("need two vertices, count >= 0, magnitude >= 1")
    demands = []
    for _ in range(count):
        u = int(rng.integers(graph.n))
        v = int(rng.integers(graph.n - 1))
        if v >= u:
            v += 1
        value = int(rng.integers(1, magnitude + 1))
        demands.append({u: value, v: -value})
    return demands


# ---------------------------------------------------------------------------
# adversarial demands on the diamond
# ---------------------------------------------------------------------------


def _tree_load_chooser(tree) -> Callable:
    """Prefer the sub-path whose span already carries the highest tree load."""

    def choose(paths, demands_so_far):
        accumulated: dict[int, Fraction] = {}
        for demand in demands_so_far:
            for v, x in demand.items():
                accumulated[v] = accumulated.get(v, Fraction(0)) + Fraction(x)
        loads = [(tree.nodes[pos], abs(crossing))
                 for pos, crossing in tree.crossings(accumulated).items() if crossing]
        best_idx, best_score = 0, None
        for idx, (first, second) in enumerate(paths):
            span = first.span | second.span
            score = max((load / node.cap for node, load in loads
                         if node.cluster <= span), default=Fraction(0))
            if best_score is None or score > best_score:
                best_idx, best_score = idx, score
        return best_idx

    return choose


def diamond_adversarial_demands(order: int, tree=None) -> list[dict[int, int]]:
    """The recursive demand sequence that stresses any single tree of cuts.

    At depth i it sends 2**(order-i) units from both endpoints of the current
    sub-path to its middle vertex, then recurses into one of its quarter
    sub-paths: the one the supplied tree already predicts the highest load
    for, or the first without a tree.
    """
    if order < 1:
        raise ArgumentError("adversarial demands need order >= 1")
    graph, structure = diamond_structure(order)
    if tree is not None and tree.n != graph.n:
        raise ArgumentError(f"the tree has {tree.n} vertices, the order-{order} "
                            f"diamond {graph.n}")
    chooser = _tree_load_chooser(tree) if tree is not None else \
        (lambda paths, demands: 0)

    demands: list[dict[int, int]] = []
    top = structure.parts
    path = [(top[0], top[1]), (top[2], top[3])]
    current = path[chooser(path, demands)]
    for depth in range(1, order + 1):
        first, second = current
        value = 1 << (order - depth)
        x, mid, y = first.s, first.t, second.t
        demands.append({x: value, mid: -value})
        demands.append({y: value, mid: -value})
        if first.order == 0:
            break
        options = [(first.parts[0], first.parts[1]),
                   (first.parts[2], first.parts[3]),
                   (second.parts[0], second.parts[1]),
                   (second.parts[2], second.parts[3])]
        current = options[chooser(options, demands)]
    return demands

"""Text formats: edge lists, weight sidecars, tree files, DOT, demand lists."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError
from .graphs import Graph, VertexWeights
from .hierarchy import TreeNode, TreeSparsifier


def parse_edge_list(text: str) -> Graph:
    """Parse "u v cap" lines with '#' comments into a graph.

    Vertex count is one past the largest id seen.  Diagnostics carry line
    numbers.
    """
    edges: list[tuple[int, int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"expected 'u v cap', got {raw!r}", lineno)
        try:
            u, v, cap = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"non-integer field in {raw!r}", lineno) from None
        if u < 0 or v < 0:
            raise InputError("vertex ids must be non-negative", lineno)
        if u == v:
            raise InputError(f"self-loop at vertex {u}", lineno)
        if cap < 1:
            raise InputError(f"capacity must be positive, got {cap}", lineno)
        edges.append((u, v, cap))
        top = max(top, u, v)
    if not edges:
        raise InputError("edge list is empty")
    try:
        return Graph.from_edges(top + 1, edges)
    except Exception as exc:
        raise InputError(str(exc)) from exc


def format_edge_list(graph: Graph) -> str:
    lines = [f"{u} {v} {c}" for u, v, c in graph.edges]
    return "\n".join(lines) + "\n"


def parse_vertex_weights(text: str) -> VertexWeights:
    """Parse "v w" sidecar lines into vertex weights."""
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected 'v w', got {raw!r}", lineno)
        try:
            v, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"non-integer field in {raw!r}", lineno) from None
        if v < 0 or w < 0:
            raise InputError("ids and weights must be non-negative", lineno)
        out[v] = out.get(v, 0) + w
    return VertexWeights(out)


# ---------------------------------------------------------------------------
# tree sparsifier files
# ---------------------------------------------------------------------------


def tree_to_json(tree: TreeSparsifier) -> str:
    nodes = []
    for node in tree.nodes:
        entry: dict = {"id": node.id, "parent": node.parent, "cap": node.cap}
        if node.leaf_vertex is not None:
            entry["leaf_vertex"] = node.leaf_vertex
        nodes.append(entry)
    return json.dumps({"n": tree.n, "nodes": nodes}, indent=1)


def tree_from_json(text: str) -> TreeSparsifier:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    try:
        n = data["n"]
        raw_nodes = data["nodes"]
    except (KeyError, TypeError) as exc:
        raise InputError("tree file needs 'n' and 'nodes'") from exc
    if not _is_int(n):
        raise InputError(f"tree file 'n' must be an integer, got {n!r}")
    if not isinstance(raw_nodes, list):
        raise InputError("tree file 'nodes' must be a list")
    by_id: dict[int, TreeNode] = {}
    leaf_at: dict[int, int] = {}
    for pos, entry in enumerate(raw_nodes):
        node = _tree_node(entry, pos, n)
        if node.id in by_id:
            raise InputError(f"tree node {node.id} appears twice")
        if node.leaf_vertex in leaf_at:
            raise InputError(f"tree node {node.id} repeats leaf vertex {node.leaf_vertex} "
                             f"of node {leaf_at[node.leaf_vertex]}")
        if node.leaf_vertex is not None:
            leaf_at[node.leaf_vertex] = node.id
        by_id[node.id] = node
    roots = [node for node in by_id.values() if node.parent is None]
    if len(roots) != 1:
        raise InputError(f"tree must have one root, found {len(roots)}")
    children: dict[int, list[TreeNode]] = {node_id: [] for node_id in by_id}
    for node in by_id.values():
        if node.parent is None:
            continue
        if node.parent not in by_id:
            raise InputError(f"tree node {node.id} names unknown parent {node.parent}")
        if node.cap < 1:
            raise InputError(f"tree node {node.id} needs a positive cap, got {node.cap}")
        children[node.parent].append(node)
    # top-down order from the root; a node it misses hangs off a parent cycle
    order = [roots[0]]
    for node in order:
        order.extend(children[node.id])
    if len(order) < len(by_id):
        stray = min(set(by_id) - {node.id for node in order})
        raise InputError(f"tree node {stray} lies on or below a parent cycle")
    # rebuild clusters bottom-up from the leaves
    members: dict[int, set[int]] = {
        node.id: set() if node.leaf_vertex is None else {node.leaf_vertex}
        for node in order}
    for node in reversed(order):
        node.cluster = frozenset(members[node.id])
        if not node.cluster:
            raise InputError(f"tree node {node.id} spans no leaves")
        if node.parent is not None:
            members[node.parent] |= node.cluster
    if len(order[0].cluster) != n:
        raise InputError("the root must span every vertex 0..n-1 exactly once")
    return TreeSparsifier(sorted(order, key=lambda nd: nd.id), n)


def _tree_node(entry, pos: int, n: int) -> TreeNode:
    """One tree file entry with integer fields and a leaf vertex inside 0..n-1."""
    if not isinstance(entry, dict):
        raise InputError(f"tree node entry {pos} is not an object")
    fields = {key: entry.get(key) for key in ("id", "parent", "cap", "leaf_vertex")}
    name = (f"tree node {fields['id']}" if _is_int(fields["id"])
            else f"tree node entry {pos}")
    for key, value in fields.items():
        if not (_is_int(value) or value is None and key in ("parent", "leaf_vertex")):
            raise InputError(f"{name}: field {key!r} must be an integer, got {value!r}")
    leaf = fields["leaf_vertex"]
    if leaf is not None and not 0 <= leaf < n:
        raise InputError(f"{name}: leaf vertex {leaf} is outside 0..{n - 1}")
    return TreeNode(fields["id"], fields["parent"], fields["cap"], frozenset(), leaf)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def tree_to_dot(tree: TreeSparsifier) -> str:
    lines = ["digraph treecut {"]
    for node in tree.nodes:
        if node.leaf_vertex is not None:
            lines.append(f'  n{node.id} [label="v{node.leaf_vertex}" shape=box];')
        else:
            lines.append(f'  n{node.id} [label="{len(node.cluster)}"];')
    for node in tree.nodes:
        if node.parent is not None:
            lines.append(f'  n{node.parent} -> n{node.id} [label="{node.cap}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# demands
# ---------------------------------------------------------------------------


def parse_demands(text: str) -> list[dict[int, int]]:
    """Demand batches as JSON: a list of demands, each a list of [vertex, value]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InputError("demand file must hold a list of demands")
    demands = []
    for i, entry in enumerate(data):
        if not (isinstance(entry, list) and all(
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
                for pair in entry)):
            raise InputError(f"demand {i} must be [vertex, value] integer pairs")
        demand: dict[int, int] = {}
        for v, x in entry:
            demand[v] = demand.get(v, 0) + x
        if sum(demand.values()) != 0:
            raise InputError(f"demand {i} does not sum to zero")
        demands.append(demand)
    return demands


def format_demands(demands: Sequence[Mapping[int, int]]) -> str:
    data = [sorted([int(v), int(x)] for v, x in d.items()) for d in demands]
    return json.dumps(data)


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
        else str(value.numerator)

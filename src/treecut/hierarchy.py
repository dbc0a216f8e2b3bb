"""Hierarchy construction, tree cut sparsifiers, and quality certification."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cutmatch import ceil_log2, oracle_params
from .errors import ArgumentError, InternalError
from .flow import _demand_values, opt_congestion
from .graphs import (Graph, Partition, boundary_capacity, boundary_degree_map,
                     check_expanding, check_laminar)
from .partition import partition_cluster


@dataclass(frozen=True, slots=True)
class HierarchicalDecomposition:
    """A refinement chain of partitions, the first being the whole vertex set."""

    levels: tuple[Partition, ...]

    @property
    def n(self) -> int:
        return len(self.levels[0].ground)

    @property
    def height(self) -> int:
        return len(self.levels)

    def is_complete(self) -> bool:
        return all(len(c) == 1 for c in self.levels[-1].clusters)

    def parent_of(self, level: int, cluster: frozenset[int]) -> frozenset[int]:
        if level == 0:
            return cluster
        return self.levels[level - 1].cluster_of(min(cluster))


def expansion_bound(decomposition: HierarchicalDecomposition,
                    cluster: Iterable[int], level: int) -> Fraction:
    """Per-cluster expansion bound: 1 at the root, otherwise scaled by how
    much smaller the cluster is than its parent (integer ceil-logs base 2)."""
    cl = frozenset(cluster)
    if level == 0:
        return Fraction(1)
    parent = decomposition.parent_of(level, cl)
    return _bound_for(decomposition.n, len(parent), len(cl))


def _bound_for(n: int, parent_size: int, size: int) -> Fraction:
    """3 * max(1, ceil log log n) * ceil log(ceil(2 * parent_size / size))."""
    loglog = max(1, ceil_log2(ceil_log2(n)))
    return Fraction(3 * loglog * ceil_log2(-(-2 * parent_size // size)))


@dataclass
class HierarchyConfig:
    phi_cap: Fraction = Fraction(1, 4)


def _singletons(graph: Graph, vertices: Iterable[int]) -> Partition:
    """``Partition.singletons`` on the graph's shared singleton clusters, so the
    hierarchies built on one graph hold one set per vertex between them."""
    cells = graph._singleton_clusters
    return Partition(tuple(cells[v] for v in sorted(vertices)))


def construct_hierarchy(graph: Graph, config: HierarchyConfig | None = None,
                        rng=None) -> HierarchicalDecomposition:
    """Build a complete hierarchical decomposition level by level.

    Each cluster is refined by partition_cluster at an expansion target that
    shrinks with its depth; bad children split their cluster in place and are
    reprocessed.  The result is laminar with singleton leaves, and every
    cluster has at most half the vertices of its grandparent.
    """
    cfg = config or HierarchyConfig()
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    n = graph.n
    if n < 2:
        raise ArgumentError("hierarchy construction needs at least two vertices")
    everything = graph._all_vertices
    level_budget = 2 * ceil_log2(n) + 2

    root_phi = min(Fraction(1), cfg.phi_cap)  # the root's bound is 1; cap applies
    root = partition_cluster(graph, everything, graph._singleton_partition,
                             root_phi, rng)
    if root.bad_child:
        raise InternalError("the root cluster has no border and cannot split off a child")
    levels: list[Partition] = [graph._whole_partition, root.partition]

    while any(len(c) > 1 for c in levels[-1].clusters):
        if len(levels) >= level_budget:
            raise InternalError("hierarchy exceeded its level budget")
        prev = levels[-2]
        # the level's clusters, each with its partition so far, and a heap of
        # (least vertex, cluster) of those still to process: disjoint, so no tie
        sub: dict[frozenset[int], Partition] = {}
        pending: list[tuple[int, frozenset[int]]] = []
        for cl in levels[-1].clusters:
            if len(cl) == 1:
                sub[cl] = Partition.trivial(cl)
            else:
                sub[cl] = _singletons(graph, cl)
                pending.append((min(cl), cl))
        heapq.heapify(pending)

        guard = 0
        while pending:
            guard += 1
            if guard > 20 * n + 100:
                raise InternalError("cluster processing failed to converge")
            least, target = heapq.heappop(pending)
            parent = prev.cluster_of(least)
            phi = min(1 / _bound_for(n, len(parent), len(target)), cfg.phi_cap)
            before = sub[target]
            result = partition_cluster(graph, target, before, phi, rng)
            if not result.bad_child:
                sub[target] = result.partition
                continue

            child = result.bad_child
            rest = target - child
            rest_partition = Partition.of(set(result.partition.clusters) - {child})
            del sub[target]
            sub[child] = Partition.trivial(child)
            sub[rest] = rest_partition
            heapq.heappush(pending, (min(child), child))
            if _balanced_split(graph, before, result.partition, child):
                heapq.heappush(pending, (min(rest), rest))

        levels[-1] = Partition.of(sub)
        next_level = Partition.of(c for part in sub.values() for c in part.clusters)
        # an all-singleton level is the one the graph keeps for every build
        levels.append(graph._singleton_partition if len(next_level) == n
                      else next_level)

    decomposition = HierarchicalDecomposition(tuple(levels))
    if not check_laminar(decomposition):
        raise InternalError("hierarchy levels are not laminar")
    if not decomposition.is_complete():
        raise InternalError("hierarchy does not end in singletons")
    _check_grandparent_halving(decomposition)
    return decomposition


def _balanced_split(graph: Graph, before: Partition, after: Partition,
                    child: frozenset[int]) -> bool:
    """Did the bad child event keep the boundary weight balanced?

    When true both split parts need reprocessing; otherwise the remainder is
    already expanding against its partition and only the child recurses.
    """
    deg_after = boundary_degree_map(graph, after)
    deg_before = boundary_degree_map(graph, before)
    total_after = deg_after.total()
    if total_after < 2:
        return False
    progress = oracle_params(max(deg_before.total(), 2))[2]
    cut = boundary_capacity(graph, child, after.ground)
    return (Fraction(deg_after.total(child)) >= progress / 20 * total_after
            and total_after <= deg_before.total() + 2 * cut)


def _check_grandparent_halving(decomposition: HierarchicalDecomposition):
    levels = decomposition.levels
    for i in range(2, len(levels)):
        for cluster in levels[i].clusters:
            grand = decomposition.parent_of(i - 1,
                                            decomposition.parent_of(i, cluster))
            if grand == cluster:
                continue  # a persisted singleton chain is its own ancestor
            if 2 * len(cluster) > len(grand):
                raise InternalError("grandparent halving violated")


# ---------------------------------------------------------------------------
# tree cut sparsifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TreeNode:
    id: int
    parent: int | None
    cap: int
    cluster: frozenset[int]
    leaf_vertex: int | None = None


class TreeSparsifier:
    """Rooted tree over the laminar cluster family; edges carry cut capacities.

    The nodes are kept as columns, one entry per node in order: parent id,
    cap, cluster and leaf vertex, and the ids when they are not the
    positions 0, 1, ...  The columns are tuples, so equal trees may share
    them; ``nodes`` reads them as ``TreeNode``s, afresh on each call.
    """

    def __init__(self, nodes: Sequence[TreeNode], n: int):
        ids = [nd.id for nd in nodes]
        self._ids = None if ids == list(range(len(ids))) else tuple(ids)
        self._parents = tuple(nd.parent for nd in nodes)
        self._caps = tuple(nd.cap for nd in nodes)
        self._clusters = tuple(nd.cluster for nd in nodes)
        self._leaf_vertices = tuple(nd.leaf_vertex for nd in nodes)
        self.n = n

    @classmethod
    def _of_columns(cls, parents: tuple[int | None, ...], caps: tuple[int, ...],
                    clusters: tuple[frozenset[int], ...],
                    leaf_vertices: tuple[int | None, ...], n: int) -> "TreeSparsifier":
        """A built tree, whose ids are the positions."""
        tree = cls.__new__(cls)
        tree._ids, tree._parents, tree._caps = None, parents, caps
        tree._clusters, tree._leaf_vertices = clusters, leaf_vertices
        tree.n = n
        return tree

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        ids = range(len(self._parents)) if self._ids is None else self._ids
        return tuple(map(TreeNode, ids, self._parents, self._caps, self._clusters,
                         self._leaf_vertices))

    @property
    def root(self) -> TreeNode:
        """The parentless node; a parsed tree may list it anywhere."""
        return self.nodes[self._parents.index(None)]

    def leaves(self) -> list[TreeNode]:
        return [node for node in self.nodes if node.leaf_vertex is not None]

    @cached_property
    def _nodes_at(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex v, the positions in ``nodes`` of the non-root nodes
        whose cluster holds v.  Built once per tree from the clusters."""
        at: list[list[int]] = [[] for _ in range(self.n)]
        for pos, (parent, cluster) in enumerate(zip(self._parents, self._clusters)):
            if parent is not None:
                for v in cluster:
                    if 0 <= v < self.n:
                        at[v].append(pos)
        return tuple(tuple(positions) for positions in at)

    def crossings(self, values: Mapping[int, int | Fraction]
                  ) -> dict[int, int | Fraction]:
        """Signed demand crossing each non-root node's cut, keyed by the node's
        position in ``nodes``, for every node above a nonzero entry of
        ``values``; a node missing from the result has crossing 0.  Each
        nonzero entry must be at a vertex in 0..n-1."""
        nodes_at = self._nodes_at
        out: dict[int, Fraction] = {}
        for v, x in values.items():
            if x:
                for pos in nodes_at[v]:
                    out[pos] = out.get(pos, 0) + x
        return out


def to_tree_sparsifier(decomposition: HierarchicalDecomposition,
                       graph: Graph) -> TreeSparsifier:
    """Collapse the refinement chain into a tree with boundary capacities."""
    if not check_laminar(decomposition):
        raise ArgumentError("decomposition is not laminar")
    if not decomposition.is_complete():
        raise ArgumentError("decomposition must end in singletons")
    if graph.n > 1 and decomposition.levels == (graph._whole_partition,
                                                graph._singleton_partition):
        return TreeSparsifier._of_columns(*graph._star_columns, graph.n)
    everything = graph._all_vertices
    parents: list[int | None] = []
    caps: list[int] = []
    clusters: list[frozenset[int]] = []
    by_cluster: dict[frozenset[int], int] = {}
    for level, part in enumerate(decomposition.levels):
        for cluster in sorted(part.clusters, key=min):
            if cluster in by_cluster:
                continue
            if level == 0:
                parents.append(None)
                caps.append(0)
            else:
                parents.append(by_cluster[decomposition.parent_of(level, cluster)])
                caps.append(boundary_capacity(graph, cluster, everything))
            by_cluster[cluster] = len(clusters)
            clusters.append(cluster)
    leaf_vertices = tuple(min(c) if len(c) == 1 else None for c in clusters)
    return TreeSparsifier._of_columns(tuple(parents), tuple(caps), tuple(clusters),
                                      leaf_vertices, graph.n)


def predict_congestion(tree: TreeSparsifier, demand: Mapping[int, object]) -> Fraction:
    """Max over tree cuts of demand crossing the cut divided by its capacity.

    Cost: one pass over the demand's nonzero entries, each adding to the tree
    nodes whose clusters hold its vertex, plus the tree's vertex-to-node
    index, built on the first call for a tree (``TreeSparsifier._nodes_at``).
    The demand is checked and read by ``flow._demand_values``: a plain int
    value stays an int and any other is read as a Fraction.  The largest ratio is picked by cross-multiplying, and one
    Fraction is built from it.
    """
    caps = tree._caps
    num, den = 0, 1
    for pos, crossing in tree.crossings(_demand_values(tree.n, demand)).items():
        if abs(crossing) * den > num * caps[pos]:
            num, den = abs(crossing), caps[pos]
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

#: clusters above this size are skipped by the exhaustive certifier
CERTIFY_SIZE_CAP = 20


def default_gamma(graph: Graph) -> Fraction:
    """The construction's expansion-quality constant 1/(1000 e q*) for this
    graph, with 1000 e rounded down to 2718 so that gamma never falls below it."""
    quality = oracle_params(max(2, 2 * graph.total_capacity()))[0]
    return Fraction(1, 2718 * quality)


@dataclass
class ClusterCertificate:
    level: int
    cluster: frozenset[int]
    status: str  # "pass" | "fail" | "skipped" | "leaf"
    quality: Fraction | None = None
    witness: frozenset[int] | None = None


@dataclass
class CertifyReport:
    entries: list[ClusterCertificate]
    gamma: Fraction

    @property
    def all_pass(self) -> bool:
        return all(e.status in ("pass", "leaf") for e in self.entries)

    def worst(self) -> ClusterCertificate | None:
        failures = [e for e in self.entries if e.status == "fail"]
        return failures[0] if failures else None


def certify_well_expanding(graph: Graph, decomposition: HierarchicalDecomposition,
                           gamma) -> CertifyReport:
    """Brute-force check that every non-leaf cluster expands against its children."""
    gamma = Fraction(gamma)
    entries: list[ClusterCertificate] = []
    levels = decomposition.levels
    for level in range(len(levels) - 1):
        child_weights = boundary_degree_map(graph, levels[level + 1])
        for cluster in sorted(levels[level].clusters, key=min):
            if len(cluster) == 1:
                entries.append(ClusterCertificate(level, cluster, "leaf"))
                continue
            if len(cluster) > CERTIFY_SIZE_CAP:
                entries.append(ClusterCertificate(level, cluster, "skipped"))
                continue
            quality = gamma / expansion_bound(decomposition, cluster, level)
            weights = {v: child_weights.get(v, 0) for v in cluster}
            ok, witness = check_expanding(graph, cluster, weights, quality)
            entries.append(ClusterCertificate(
                level, cluster, "pass" if ok else "fail", quality,
                witness.vertices if witness else None))
    return CertifyReport(entries, gamma)


def undercut_node(graph: Graph, tree: TreeSparsifier) -> tuple[TreeNode, int] | None:
    """The first non-root node whose cap is below the graph's cut capacity
    around its cluster, with that cut; None when every cap is sound.

    Such a cap lets the tree predict more than the optimal congestion.
    """
    for node in tree.nodes:
        if node.parent is not None:
            cut = boundary_capacity(graph, node.cluster, graph._all_vertices)
            if node.cap < cut:
                return node, cut
    return None


def quality_ratio(graph: Graph, tree: TreeSparsifier,
                  demands: Sequence[Mapping[int, object]]
                  ) -> tuple[Fraction, list[dict]]:
    """Evaluate predicted versus optimal congestion over a demand batch.

    A prediction above the optimum raises ``ArgumentError`` when a tree cap
    undercuts the graph's cut (see ``undercut_node``), and ``InternalError``
    when every cap is sound, since then the optimum is at fault.
    """
    rows = []
    worst = Fraction(1)
    for demand in demands:
        predicted = predict_congestion(tree, demand)
        optimal = opt_congestion(graph, demand)
        if predicted > optimal:
            undercut = undercut_node(graph, tree)
            if undercut:
                node, cut = undercut
                raise ArgumentError(f"tree node {node.id} has cap {node.cap}, below the "
                                    f"graph's cut capacity {cut} around its cluster")
            raise InternalError("tree prediction exceeded the exact optimum")
        ratio = optimal / predicted if predicted else Fraction(1)
        worst = max(worst, ratio)
        rows.append({"predict": predicted, "opt": optimal, "ratio": ratio})
    return worst, rows

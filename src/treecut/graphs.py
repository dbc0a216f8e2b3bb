"""Graph, weight-function, and partition primitives plus brute-force oracles.

Vertices are integers 0..n-1.  Graphs are undirected with positive integer
capacities; parallel edges are aggregated on ingestion.  Each graph keeps
one adjacency, the arc layout ``Graph._arc_layout``, which every edge walk
and every max flow reads.  All cut arithmetic is exact (Python integers /
fractions).  numpy holds the float edge capacities that the cut-matching
game's load checks read (``Graph._capacities``) and enumerates subsets
inside the brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InternalError, OversizeError

#: hard cap for the exponential-enumeration oracles
BRUTE_FORCE_VERTEX_CAP = 24

#: chunk size (in masks) for vectorized subset enumeration
_CHUNK = 1 << 20


class VertexWeights(dict):
    """A vertex weight function, stored sparsely as vertex -> value.

    Missing vertices weigh 0.  Values are integers for the combinatorial
    weight functions and may be fractions for flow source/target functions.
    """

    def total(self, subset: Iterable[int] | None = None):
        if subset is None:
            return sum(self.values())
        return sum(self.get(v, 0) for v in subset)

    @classmethod
    def degrees(cls, graph: "Graph") -> "VertexWeights":
        """Capacity-weighted degrees."""
        return cls({v: d for v, d in enumerate(graph.degree_list()) if d > 0})


@dataclass(frozen=True)
class Graph:
    """Undirected capacitated graph with aggregated integer edge capacities."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]],
                   require_connected: bool = True) -> "Graph":
        """Build a graph, aggregating parallel edges and validating invariants."""
        if n < 1:
            raise ArgumentError("graph needs at least one vertex")
        agg: dict[tuple[int, int], int] = {}
        for u, v, c in edges:
            if not all(type(x) is int for x in (u, v, c)):
                raise ArgumentError(f"edge ({u!r}, {v!r}, {c!r}) must have int endpoints "
                                    "and capacity")
            if not (0 <= u < n and 0 <= v < n):
                raise ArgumentError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ArgumentError(f"self-loop at vertex {u} is not allowed")
            if c < 1:
                raise ArgumentError(f"edge ({u},{v}) has non-positive capacity {c}")
            key = (u, v) if u < v else (v, u)
            agg[key] = agg.get(key, 0) + c
        g = cls(n, tuple(sorted((u, v, c) for (u, v), c in agg.items())))
        if require_connected and not g.is_connected():
            raise ArgumentError("graph is disconnected; expected a connected input")
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_capacity(self) -> int:
        return sum(c for _u, _v, c in self.edges)

    def degree_list(self) -> list[int]:
        """Capacity-weighted degrees, a fresh list on every call."""
        return list(self._degrees)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        """Capacity-weighted degrees, summed once; the graph is immutable."""
        deg = [0] * self.n
        for u, v, c in self.edges:
            deg[u] += c
            deg[v] += c
        return tuple(deg)

    @cached_property
    def _capacities(self) -> np.ndarray:
        """Edge capacities as a read-only float array in edge order; a
        capacity below 2^53 is held exactly."""
        caps = np.array([c for _u, _v, c in self.edges], dtype=float)
        caps.flags.writeable = False
        return caps

    # -- connectivity ------------------------------------------------------

    @cached_property
    def _connected(self) -> bool:
        """Whether one search from vertex 0 over the arcs reaches every
        vertex; computed once, since the graph is immutable."""
        if self.n <= 1:
            return True
        to, _cap, head = self._arc_layout
        seen, stack = {0}, [0]
        while stack:
            for a in head[stack.pop()]:
                if (w := to[a]) not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _all_vertices(self) -> frozenset[int]:
        """All vertices as one frozenset, built once and shared; ``verts is
        graph._all_vertices`` tells the whole graph (``flow._vertex_set``)."""
        return frozenset(range(self.n))

    @cached_property
    def _singleton_clusters(self) -> tuple[frozenset[int], ...]:
        """{v} for every vertex, built once; every hierarchy on the graph shares them."""
        return tuple(frozenset((v,)) for v in range(self.n))

    @cached_property
    def _whole_partition(self) -> "Partition":
        """All vertices as one cluster: every hierarchy's first level on the graph."""
        return Partition((self._all_vertices,))

    @cached_property
    def _singleton_partition(self) -> "Partition":
        """Every vertex its own cluster: the root's starting partition and the
        last level of every hierarchy on the graph."""
        return Partition(self._singleton_clusters)

    @cached_property
    def _star_nodes(self) -> tuple["TreeNode", ...]:
        """The nodes of the star tree, the root over one leaf per vertex whose
        cap is the vertex's degree: the tree of every hierarchy whose levels
        are the whole set and the singletons, built once and shared by every
        such tree on the graph."""
        cells = self._singleton_clusters
        return (TreeNode(0, None, 0, self._all_vertices),
                *(TreeNode(v + 1, 0, deg, cells[v], v)
                  for v, deg in enumerate(self._degrees)))

    @cached_property
    def _arc_layout(self) -> tuple[list[int], list[int], list[list[int]]]:
        """The graph's one adjacency, which every edge walk and every max flow
        reads: (arc heads, base capacities, arcs out of each vertex).

        Edge e = (u, v) owns arcs 2e (u to v) and 2e + 1 (v to u), so the
        arc a leaves vertex ``to[a ^ 1]`` and belongs to edge ``a >> 1``.
        With the super-source n and super-sink n + 1, vertex v owns the
        source pair 2m + 2v (n to v), 2m + 2v + 1 and the sink pair
        2m + 2n + 2v (v to n + 1), 2m + 2n + 2v + 1, whose base capacity is
        0, so there are 2m + 4n arcs.  Vertex v's list holds only its edge
        arcs, in edge order, and there is none for the super-terminals: a
        max flow lists the terminal arcs of its own terminals
        (``flow._run_max_flow``).  Built once, since the graph is immutable;
        each flow keeps its own residuals.
        """
        n = self.n
        to: list[int] = []
        cap: list[int] = []
        head: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v, c) in enumerate(self.edges):
            to += (v, u)
            cap += (c, c)
            head[u].append(2 * e)
            head[v].append(2 * e + 1)
        for v in range(n):
            to += (v, n)
        for v in range(n):
            to += (n + 1, v)
        cap += [0] * (4 * n)
        return to, cap, head


@dataclass(frozen=True)
class Cut:
    """A vertex subset together with its boundary capacity in some ground set."""

    vertices: frozenset[int]
    capacity: int


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a ground set by non-empty clusters."""

    clusters: tuple[frozenset[int], ...]

    def __post_init__(self):
        index: dict[int, int] = {}
        for pos, cluster in enumerate(self.clusters):
            if not cluster:
                raise ArgumentError("partition clusters must be non-empty")
            for v in cluster:
                if v in index:
                    raise ArgumentError(f"vertex {v} appears in two clusters")
                index[v] = pos
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, clusters: Iterable[Iterable[int]]) -> "Partition":
        normalized = tuple(sorted((frozenset(c) for c in clusters), key=min))
        return cls(normalized)

    @classmethod
    def singletons(cls, vertices: Iterable[int]) -> "Partition":
        return cls(tuple(frozenset((v,)) for v in sorted(vertices)))

    @classmethod
    def trivial(cls, vertices: Iterable[int]) -> "Partition":
        return cls((frozenset(vertices),))

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(self._index)

    def cluster_of(self, v: int) -> frozenset[int]:
        return self.clusters[self._index[v]]

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """A node of a tree over a laminar cluster family: its id, its parent's
    id (None at the root), the capacity of its cluster's cut and, at a leaf,
    the cluster's one vertex."""

    id: int
    parent: int | None
    cap: int
    cluster: frozenset[int]
    leaf_vertex: int | None = None


# ---------------------------------------------------------------------------
# boundary and partition operations
# ---------------------------------------------------------------------------


def boundary_capacity(graph: Graph, subset: Iterable[int], ground: Iterable[int]) -> int:
    """cap(S, ground - S): capacity of edges of G[ground] leaving ``subset``.

    Only S's own arcs are read, O(vol(S)); a set or frozenset ``subset`` or
    ``ground`` is read in place, any other is first copied into a set.
    """
    s = subset if isinstance(subset, (set, frozenset)) else set(subset)
    g = ground if isinstance(ground, (set, frozenset)) else set(ground)
    if not s <= g:
        raise ArgumentError("subset must be contained in the ground set")
    to, cap, head = graph._arc_layout
    return sum(cap[a] for v in s for a in head[v] if to[a] not in s and to[a] in g)


def boundary_degree_map(graph: Graph, partition: Partition) -> VertexWeights:
    """Per-vertex capacity of boundary edges of the partition.

    An edge is a boundary edge when its endpoints lie in different clusters,
    or when exactly one endpoint lies inside the partition's ground set.
    Only the arcs at the ground's vertices are read, O(vol(ground)).
    """
    index, (to, cap, head) = partition._index, graph._arc_layout
    if not graph._all_vertices.issuperset(index):
        raise ArgumentError("partition holds a vertex outside the graph")
    out: dict[int, int] = {}
    for u, cid in index.items():
        total = 0
        for a in head[u]:
            if index.get(to[a]) != cid:
                total += cap[a]
        if total:
            out[u] = total
    return VertexWeights(out)


def incident_capacity(graph: Graph, sources: Iterable[int],
                      targets: Iterable[int]) -> VertexWeights:
    """For each source vertex, the capacity of its edges into ``targets``."""
    tset = set(targets)
    to, cap, head = graph._arc_layout
    out: dict[int, int] = {}
    for v in sources:
        total = 0
        for a in head[v]:
            if to[a] in tset:
                total += cap[a]
        if total:
            out[v] = total
    return VertexWeights(out)


def fuse(partition: Partition, merged: Iterable[int], graph: Graph) -> Partition:
    """Replace a partition X by (X - T) | {T}.

    Every cluster loses the vertices of T, emptied clusters vanish, and T is
    added as a cluster of its own.  The boundary growth bound of the fuse
    operation on the graph is checked.
    """
    t = frozenset(merged)
    if not t:
        raise ArgumentError("cannot fuse an empty set")
    ground = partition.ground
    if not t <= ground:
        raise ArgumentError("fused set must be contained in the ground set")
    # a cluster that T misses is kept as it is, so sets stay shared
    new_clusters = [c if t.isdisjoint(c) else c - t for c in partition.clusters]
    new_clusters = [c for c in new_clusters if c]
    new_clusters.append(t)
    fused = Partition.of(new_clusters)
    before = boundary_degree_map(graph, partition)
    after = boundary_degree_map(graph, fused)
    # 2 cap(T, ground - T) + cap(T, V - ground), from T's own arcs
    bound = (before.total(ground) - before.total(t)
             + boundary_capacity(graph, t, ground)
             + boundary_capacity(graph, t, graph._all_vertices))
    if after.total(ground) > bound:
        raise InternalError("fuse boundary bound violated")
    return fused


# ---------------------------------------------------------------------------
# brute-force oracles (exponential enumeration, exact arithmetic)
# ---------------------------------------------------------------------------


def _mask_tables(graph: Graph, verts: Sequence[int], weights: Mapping[int, int],
                 lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut capacity and weight totals for all subset masks in [lo, hi).

    Bit i of a mask corresponds to verts[i].  Values fit in int64 as long as
    totals stay below 2**62, which the callers guard.
    """
    pos = {v: i for i, v in enumerate(verts)}
    masks = np.arange(lo, hi, dtype=np.int64)
    caps = np.zeros(hi - lo, dtype=np.int64)
    for u, v, c in graph.edges:
        if u in pos and v in pos:
            crossing = ((masks >> pos[u]) ^ (masks >> pos[v])) & 1
            caps += c * crossing
    wts = np.zeros(hi - lo, dtype=np.int64)
    for v, w in weights.items():
        if v in pos and w:
            wts += int(w) * ((masks >> pos[v]) & 1)
    return caps, wts


def _check_enumeration_size(verts: Sequence[int], totals: Iterable[int]):
    if len(verts) > BRUTE_FORCE_VERTEX_CAP:
        raise OversizeError(
            f"refusing exponential enumeration over {len(verts)} > "
            f"{BRUTE_FORCE_VERTEX_CAP} vertices")
    if any(t >= (1 << 62) for t in totals):
        raise OversizeError("weights too large for vectorized enumeration")


def _mask_set(mask: int, verts: Sequence[int]) -> frozenset[int]:
    return frozenset(verts[i] for i in range(len(verts)) if (mask >> i) & 1)


def check_expanding(graph: Graph, cluster: Iterable[int], pi: Mapping[int, int],
                    quality) -> tuple[bool, Cut | None]:
    """Exhaustively test whether G[cluster] is pi-expanding with the given quality.

    Every X inside the cluster with pi(X) <= pi(cluster - X) must satisfy
    cap(X, cluster - X) >= quality * pi(X); on failure the first violating
    subset (by mask order) is returned as a witness.
    """
    verts = sorted(set(cluster))
    q = Fraction(quality)
    if q < 0:
        raise ArgumentError("quality must be non-negative")
    total_pi = sum(int(pi.get(v, 0)) for v in verts)
    _check_enumeration_size(verts, [total_pi, graph.total_capacity()])
    if len(verts) <= 1 or total_pi == 0 or q == 0:
        return True, None

    qf = float(q)
    nmasks = 1 << len(verts)
    for lo in range(1, nmasks, _CHUNK):
        hi = min(lo + _CHUNK, nmasks)
        caps, wts = _mask_tables(graph, verts, pi, lo, hi)
        small_side = (wts > 0) & (2 * wts <= total_pi)
        suspect = small_side & (caps < qf * wts * (1 + 1e-9) + 1e-9)
        for off in np.nonzero(suspect)[0]:
            if int(caps[off]) * q.denominator < q.numerator * int(wts[off]):
                witness = _mask_set(lo + int(off), verts)
                return False, Cut(witness, int(caps[off]))
    return True, None


def check_laminar(decomposition) -> bool:
    """Validate a refinement chain: one root partition, each level refining it."""
    levels = getattr(decomposition, "levels", decomposition)
    levels = list(levels)
    if not levels:
        return False
    if len(levels[0].clusters) != 1:
        return False
    ground = levels[0].ground
    for prev, cur in zip(levels, levels[1:]):
        if cur.ground != ground:
            return False
        for cluster in cur.clusters:
            anchor = prev.cluster_of(min(cluster))
            if not cluster <= anchor:
                return False
    return True

"""Reference oracles that only the tests call.

The boundary capacity by the ground's complement, the all-edges boundary
degree scan, the fair cut/flow property check, the exact sparsest cut by
subset enumeration, the flow readings they use, the round trip of a path
decomposition, a max flow on the full terminal layout by the Dinic that
labels every phase from the source, and the expansion certificate's try
computed the plain way.  The package keeps the oracles that ``certify`` and
the benchmark call (``check_expanding`` and ``brute_force_opt_congestion``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from treecut import ArgumentError, InternalError
from treecut.cutmatch import (CERTIFY_VERTEX_CAP, SCREEN_VERTICES, _rump_shift, _screen,
                              _screen_start, ceil_log2)
from treecut.flow import PathFlow, _exact_weights, _vertex_set
from treecut.graphs import (_CHUNK, Cut, Graph, Partition, _check_enumeration_size,
                            _mask_set, _mask_tables, boundary_capacity, incident_capacity)


# ---------------------------------------------------------------------------
# edge lookups
# ---------------------------------------------------------------------------


def neighbour_lists(graph: Graph) -> list[list[tuple[int, int]]]:
    """(neighbour, edge index) pairs at each vertex, in edge order, from a
    scan of ``graph.edges``: a reference that does not read the arc layout."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for idx, (u, v, _c) in enumerate(graph.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    return adj


def edge_index(graph: Graph, u: int, v: int) -> int | None:
    """The index of edge {u, v}, None when there is none."""
    return next((idx for idx, (a, b, _c) in enumerate(graph.edges)
                 if (a, b) in ((u, v), (v, u))), None)


def capacity(graph: Graph, u: int, v: int) -> int:
    """The capacity of edge {u, v}, 0 when there is none."""
    idx = edge_index(graph, u, v)
    return 0 if idx is None else graph.edges[idx][2]


def edges_within(graph: Graph, subset: Iterable[int]) -> list[tuple[int, int, int, int]]:
    """Edges with both endpoints in ``subset`` as (edge index, u, v, cap)."""
    keep = set(subset)
    return [(i, u, v, c) for i, (u, v, c) in enumerate(graph.edges)
            if u in keep and v in keep]


def boundary_capacity_by_complement(graph: Graph, subset: Iterable[int],
                                    ground: Iterable[int]) -> int:
    """``boundary_capacity`` by S's edges into the complement ground - S,
    taken as a set."""
    s, g = set(subset), set(ground)
    if not s <= g:
        raise ArgumentError("subset must be contained in the ground set")
    return incident_capacity(graph, s, g - s).total()


def boundary_degrees_by_edges(graph: Graph, partition: Partition) -> dict[int, int]:
    """``boundary_degree_map`` by a scan over every edge: an edge between two
    clusters counts at both ends, and an edge leaving the ground at its end
    inside."""
    ground = partition.ground
    out: dict[int, int] = {}
    for u, v, c in graph.edges:
        u_in, v_in = u in ground, v in ground
        if u_in and v_in:
            if partition._index[u] != partition._index[v]:
                out[u] = out.get(u, 0) + c
                out[v] = out.get(v, 0) + c
        elif u_in:
            out[u] = out.get(u, 0) + c
        elif v_in:
            out[v] = out.get(v, 0) + c
    return out


# ---------------------------------------------------------------------------
# flow readings
# ---------------------------------------------------------------------------
#
# A flow is an edge-flow dict as ``SolvedFlow.edge_flow()`` returns it:
# ``nums[e]`` is the signed numerator of the flow on edge e, oriented from
# its lower endpoint to its higher one, in units of 1/denom; an absent edge
# carries no flow.


def flow_value(graph: Graph, nums: Mapping[int, int], denom: int, u: int,
               v: int) -> Fraction:
    """The flow from u to v on edge {u, v}; 0 on an absent edge."""
    idx = edge_index(graph, u, v)
    if idx is None or idx not in nums:
        return Fraction(0)
    num = nums[idx]
    eu, _ev, _c = graph.edges[idx]
    return Fraction(num if u == eu else -num, denom)


def flow_net_numerator(graph: Graph, nums: Mapping[int, int], v: int) -> int:
    """Numerator of the net flow out of ``v``."""
    total = 0
    for _w, idx in neighbour_lists(graph)[v]:
        num = nums.get(idx, 0)
        eu = graph.edges[idx][0]
        total += num if v == eu else -num
    return total


def flow_net(graph: Graph, nums: Mapping[int, int], denom: int, v: int) -> Fraction:
    return Fraction(flow_net_numerator(graph, nums, v), denom)


def accumulate(graph: Graph, paths: Sequence[PathFlow]) -> dict[int, int]:
    """Re-sum the paths into an edge-flow dict (round-trip check helper).

    This is the decomposed flow less its circulations; for a cycle-free
    flow, exactly that flow.
    """
    nums: dict[int, int] = {}
    for p in paths:
        for a, b in zip(p.vertices, p.vertices[1:]):
            idx = edge_index(graph, a, b)
            sign = 1 if a == graph.edges[idx][0] else -1
            nums[idx] = nums.get(idx, 0) + sign * p.weight
    return {k: v for k, v in nums.items() if v}


# ---------------------------------------------------------------------------
# max flow on the full terminal layout
# ---------------------------------------------------------------------------


class ForwardLevelDinic:
    """Dinic that labels every phase from the source: the solver as it was
    before pair demands were labelled from the sink, kept as a reference.

    Each phase labels the arcs with residual left by a BFS from s, which
    stops once it labels t, and pushes a blocking flow along them; phases run
    until t is unreachable.  ``level`` keeps the last, failing BFS's labels.
    """

    def __init__(self, to: list[int], head: list[list[int]], res: list[int]):
        self.n = len(head)
        self.to = to
        self.head = head
        self.res = res

    def _bfs(self, s: int, t: int) -> list[int]:
        to, res, head = self.to, self.res, self.head
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for v in queue:
            nxt = level[v] + 1
            for idx in head[v]:
                w = to[idx]
                if level[w] < 0 and res[idx] > 0:
                    level[w] = nxt
                    if w == t:
                        return level
                    queue.append(w)
        return level

    def _blocking(self, s: int, t: int, level: list[int]) -> int:
        to, res, head = self.to, self.res, self.head
        pushed_total = 0
        cursor = [0] * self.n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                bottleneck = min(res[idx] for idx in path)
                for idx in path:
                    res[idx] -= bottleneck
                    res[idx ^ 1] += bottleneck
                pushed_total += bottleneck
                for pos, idx in enumerate(path):
                    if res[idx] == 0:
                        del path[pos:]
                        break
                v = to[path[-1]] if path else s
                continue
            arcs = head[v]
            end = len(arcs)
            nxt = level[v] + 1
            pos = cursor[v]
            while pos < end:
                idx = arcs[pos]
                if res[idx] > 0 and level[to[idx]] == nxt:
                    break
                pos += 1
            cursor[v] = pos
            if pos < end:
                path.append(idx)
                v = to[idx]
                continue
            if v == s:
                return pushed_total
            level[v] = -1  # dead end
            last = path.pop()
            v = to[last ^ 1]
            cursor[v] += 1

    def solve(self, s: int, t: int) -> int:
        flow = 0
        while (level := self._bfs(s, t))[t] >= 0:
            flow += self._blocking(s, t, level)
        self.level = level
        return flow


@dataclass(frozen=True)
class FullLayoutSolve:
    """What ``full_layout_solve`` returns: the flow value, the minimal minimum
    cut's source side, the final residuals, whether every supply is routed,
    and the arc lists and starting residuals the solver was handed."""

    value: int
    cut: frozenset[int]
    res: list[int]
    saturated: bool
    head: list[list[int]]
    start: list[int]


def full_layout_solve(graph: Graph, supply: Mapping[int, int | Fraction],
                      demand: Mapping[int, int | Fraction],
                      within: Iterable[int] | None = None, cap_scale=1) -> FullLayoutSolve:
    """The solve ``flow._run_max_flow`` runs, done the plain way: on the layout
    with every terminal arc (each vertex lists its edge arcs, its source
    reverse arc and its sink arc, and the super-source and super-sink list
    their arcs to every vertex), residuals filled arc by arc, by
    ``ForwardLevelDinic``; the cut is its last BFS's labelled vertices.
    """
    to, _cap, layout_head = graph._arc_layout
    n, m2 = graph.n, 2 * graph.m
    head = [[*layout_head[v], m2 + 2 * v + 1, m2 + 2 * n + 2 * v] for v in range(n)]
    head.append([m2 + 2 * v for v in range(n)])
    head.append([m2 + 2 * n + 2 * v + 1 for v in range(n)])
    denom = math.lcm(Fraction(cap_scale).denominator,
                     *(Fraction(x).denominator for part in (supply, demand)
                       for x in part.values()))
    verts = set(range(n)) if within is None else set(within)
    res = [0] * len(to)
    for idx, (u, v, c) in enumerate(graph.edges):
        if u in verts and v in verts:
            res[2 * idx] = res[2 * idx + 1] = int(c * cap_scale * denom)
    for base, terminals in ((m2, supply), (m2 + 2 * n, demand)):
        for v, x in terminals.items():
            if x and v in verts:
                res[base + 2 * v] = int(x * denom)
    start = list(res)
    dinic = ForwardLevelDinic(to, head, res)
    value = dinic.solve(n, n + 1)
    cut = frozenset(v for v in range(n) if dinic.level[v] >= 0)
    return FullLayoutSolve(value, cut, res, value == sum(supply.values()) * denom,
                           head, start)


# ---------------------------------------------------------------------------
# fair cut/flow pairs
# ---------------------------------------------------------------------------


#: verify_fair_cut property indices
FAIRNESS_PROPERTIES = {
    0: "flow feasibility",
    1: "net sources do not send too much",
    2: "net targets do not absorb too much",
    3: "net sources outside the cut are nearly saturated",
    4: "net targets inside the cut are nearly saturated",
    5: "cut edges are nearly saturated and carry no reverse flow",
    6: "cut capacity plus absorbed target weight bounded by alpha * source weight",
    7: "cut capacity plus outside source weight bounded by alpha * outside target weight",
}


def verify_fair_cut(graph: Graph, source_w: Mapping[int, object],
                    target_w: Mapping[int, object], alpha, cut: Iterable[int],
                    nums: Mapping[int, int], denom: int,
                    within: Iterable[int] | None = None,
                    cap_scale: int = 1) -> tuple[bool, list[int]]:
    """Exhaustively check the fair cut/flow properties of ``cut`` and the edge
    flow ``nums`` in units of 1/``denom``; returns violated indices.

    Weights are checked as ``fair_cut`` checks them, and a ``within`` vertex
    outside the graph is named.
    """
    alpha = Fraction(alpha)
    n = graph.n
    verts = _vertex_set(graph, within)
    source_w = _exact_weights(source_w, n, verts)
    target_w = _exact_weights(target_w, n, verts)
    u_side = frozenset(cut)
    violated: set[int] = set()

    for idx, u, v, c in edges_within(graph, verts):
        if abs(flow_value(graph, nums, denom, u, v)) > cap_scale * c:
            violated.add(0)

    cut_cap = 0
    for idx, u, v, c in edges_within(graph, verts):
        if (u in u_side) != (v in u_side):
            cut_cap += c
            inner, outer = (u, v) if u in u_side else (v, u)
            if flow_value(graph, nums, denom, inner, outer) * alpha < \
                    Fraction(cap_scale * c):
                violated.add(5)

    s_total_u = t_total_u = Fraction(0)
    s_total_out = t_total_out = Fraction(0)
    for v in verts:
        s = Fraction(source_w.get(v, 0))
        t = Fraction(target_w.get(v, 0))
        if v in u_side:
            s_total_u += s
            t_total_u += t
        else:
            s_total_out += s
            t_total_out += t
        net = s - t
        f = flow_net(graph, nums, denom, v)
        if net >= 0 and not (0 <= f <= net):
            violated.add(1)
        if net <= 0 and not (net <= f <= 0):
            violated.add(2)
        if net >= 0 and v not in u_side and f * alpha < net:
            violated.add(3)
        if net <= 0 and v in u_side and f * alpha > net:
            violated.add(4)

    if Fraction(cut_cap * cap_scale) + t_total_u > alpha * s_total_u:
        violated.add(6)
    if Fraction(cut_cap * cap_scale) + s_total_out > alpha * t_total_out:
        violated.add(7)
    return not violated, sorted(violated)


# ---------------------------------------------------------------------------
# exact sparsest cut (exponential enumeration, exact arithmetic)
# ---------------------------------------------------------------------------


def brute_force_sparsest_cut(graph: Graph, pi: Mapping[int, int]) -> tuple[Cut, Fraction]:
    """Exact sparsest cut by subset enumeration.

    Minimizes cap(S, V-S) / pi(S) over all S with 0 < pi(S) <= pi(V-S);
    ties resolved toward the lexicographically smallest bitmask.
    """
    verts = list(range(graph.n))
    total_pi = sum(int(pi.get(v, 0)) for v in verts)
    if any(int(pi.get(v, 0)) < 0 for v in verts):
        raise ArgumentError("pi must be non-negative")
    if total_pi == 0:
        raise ArgumentError("pi must not be identically zero")
    if sum(1 for v in verts if pi.get(v, 0)) == 1:
        raise ArgumentError("no valid cut: all weight sits on a single vertex")
    _check_enumeration_size(verts, [total_pi, graph.total_capacity()])

    nmasks = 1 << graph.n
    best_ratio = None
    best_mask = None
    for lo in range(1, nmasks, _CHUNK):
        hi = min(lo + _CHUNK, nmasks)
        caps, wts = _mask_tables(graph, verts, pi, lo, hi)
        valid = (wts > 0) & (2 * wts <= total_pi)
        if not valid.any():
            continue
        ratios = np.where(valid, caps / np.maximum(wts, 1), np.inf)
        floor = ratios.min()
        # near-minimal candidates get exact comparison
        cand = np.nonzero(ratios <= floor * (1 + 1e-9) + 1e-12)[0]
        for off in cand:
            mask = lo + int(off)
            ratio = Fraction(int(caps[off]), int(wts[off]))
            if best_ratio is None or ratio < best_ratio or \
                    (ratio == best_ratio and mask < best_mask):
                best_ratio, best_mask = ratio, mask
    if best_mask is None:
        raise InternalError("no valid cut found despite two weighted vertices")
    subset = _mask_set(best_mask, verts)
    return Cut(subset, boundary_capacity(graph, subset, verts)), best_ratio


# ---------------------------------------------------------------------------
# the expansion certificate's try, computed the plain way
# ---------------------------------------------------------------------------


def reference_expansion_matrix(pi: np.ndarray, links: tuple[np.ndarray, np.ndarray, np.ndarray],
                               mu: Fraction) -> np.ndarray | None:
    """b P K for mu = a/b, P = sum pi and K = L_W - mu diag(pi) +
    ((mu + 1)/P) pi pi^T, filled by fancy indexing from the deduplicated
    links (heads, tails, counts), heads < tails; None when an entry could
    reach 2^53 or a diagonal entry is not positive, both read from float
    arrays.  ``CutMatchingGame._certified``'s matrix must equal it bit for bit."""
    heads, tails, counts = links
    a, b, total = mu.numerator, mu.denominator, int(pi.sum())
    degree = np.bincount(heads, counts, len(pi)) + np.bincount(tails, counts, len(pi))
    top = int(pi.max())
    bound = b * total * int(degree.max(initial=0)) + a * total * top + (a + b) * top * top
    if bound >= 1 << 53:
        return None
    weights = pi.astype(float)
    scale = float(b * total)
    diagonal = scale * degree - (a * total) * weights + (a + b) * weights * weights
    if not (diagonal > 0).all():
        return None
    matrix = np.outer(weights, weights * (a + b))
    matrix[heads, tails] -= scale * counts
    matrix[tails, heads] -= scale * counts
    matrix[np.diag_indices_from(matrix)] = diagonal
    return matrix


def reference_proves_positive_definite(matrix: np.ndarray) -> bool:
    """The shifted Cholesky proof on a copy of ``matrix``: scaled by the
    largest power of two that keeps every entry below 2^53, its trace read
    from its float diagonal, the shift subtracted through
    ``np.diag_indices_from``."""
    matrix = matrix.copy()
    top = int(max(matrix.max(), -matrix.min()))
    if top.bit_length() < 53:
        matrix *= float(1 << (53 - top.bit_length()))
    diagonal = np.diagonal(matrix)
    if not (diagonal >= 0).all():
        return False
    trace = sum(int(x) for x in diagonal.tolist())
    matrix[np.diag_indices_from(matrix)] -= _rump_shift(len(matrix), trace)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


class ReferenceTry:
    """``CutMatchingGame._certified`` for one game, computed the plain way.

    At each ``attempt`` the rounds played since the last one are folded into
    the deduplicated links by ``np.unique`` over the links so far and the new
    pairs, mu is a ``Fraction`` from an exact scan of every edge's load
    ratio, and the matrix and the proof are ``reference_expansion_matrix``
    and ``reference_proves_positive_definite``.  Above SCREEN_VERTICES the
    same Lanczos screen runs on those links, with a Ritz vector of its own.
    """

    def __init__(self, game):
        self.game = game
        empty = np.empty(0, dtype=np.int64)
        self.links = (empty, empty, empty)
        self.folded = 0
        self.ritz = None
        self.ended = "early"

    def fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        game = self.game
        fresh = game.matchings[self.folded:]
        self.folded = len(game.matchings)
        if fresh:
            size = len(game._weights)
            ends = game._slot[np.concatenate(fresh)]
            low, high = ends.min(axis=1), ends.max(axis=1)
            apart = low != high
            heads, tails, counts = self.links
            keys, inverse = np.unique(np.concatenate(
                [heads * size + tails, low[apart] * size + high[apart]]), return_inverse=True)
            counts = np.bincount(inverse, np.concatenate(
                [counts, np.ones(int(apart.sum()), dtype=np.int64)])).astype(np.int64)
            self.links = (keys // size, keys % size, counts)
        return self.links

    def mu(self) -> Fraction:
        """2 rho phi/q*, rho the largest load(e)/cap(e) over every edge."""
        game = self.game
        rho = max((Fraction(load, cap) for load, (_u, _v, cap)
                   in zip(game.load.tolist(), game.graph.edges) if load), default=Fraction(0))
        return 2 * rho * game.expansion_target

    def attempt(self) -> tuple[bool, np.ndarray | None]:
        """The try's verdict and b P K as built, None when no matrix was;
        ``ended`` names the step the try ended at: "early" (no try),
        "screen", "checks" (the entry bound or the diagonal), "refused" or
        "proved"."""
        game = self.game
        size = len(game._weights)
        self.ended = "early"
        if game.deleted or game.round < ceil_log2(game.k) or size > CERTIFY_VERTEX_CAP:
            return False, None
        links = self.fold()
        mu = self.mu()
        self.ended = "screen"
        if size > SCREEN_VERTICES:
            start = _screen_start(size)
            if self.ritz is not None:
                start = start + self.ritz
            estimate, self.ritz = _screen(game._weights, links, start)
            if not estimate > mu:
                return False, None
        self.ended = "checks"
        matrix = reference_expansion_matrix(game._weights, links, mu)
        if matrix is None:
            return False, None
        verdict = reference_proves_positive_definite(matrix)
        self.ended = "proved" if verdict else "refused"
        return verdict, matrix

"""Reference oracles that only the tests call.

The fair cut/flow property check, the exact sparsest cut by subset
enumeration, the flow readings they use, the round trip of a path
decomposition and a max flow on the full terminal layout.  The package keeps
the oracles that ``certify`` and the benchmark call (``check_expanding`` and
``brute_force_opt_congestion``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from treecut import ArgumentError, InternalError
from treecut.flow import FlowAssignment, PathFlow, _Dinic, _exact_weights, _vertex_set
from treecut.graphs import (_CHUNK, Cut, Graph, _check_enumeration_size, _mask_set,
                            _mask_tables, boundary_capacity)


# ---------------------------------------------------------------------------
# edge lookups
# ---------------------------------------------------------------------------


def edge_index(graph: Graph, u: int, v: int) -> int | None:
    """The index of edge {u, v}, None when there is none."""
    return next((idx for w, idx, _c in graph.neighbors(u) if w == v), None)


def capacity(graph: Graph, u: int, v: int) -> int:
    """The capacity of edge {u, v}, 0 when there is none."""
    idx = edge_index(graph, u, v)
    return 0 if idx is None else graph.edges[idx][2]


def edges_within(graph: Graph, subset: Iterable[int]) -> list[tuple[int, int, int, int]]:
    """Edges with both endpoints in ``subset`` as (edge index, u, v, cap)."""
    keep = set(subset)
    return [(i, u, v, c) for i, (u, v, c) in enumerate(graph.edges)
            if u in keep and v in keep]


# ---------------------------------------------------------------------------
# flow readings
# ---------------------------------------------------------------------------


def flow_value(flow: FlowAssignment, u: int, v: int) -> Fraction:
    """The flow from u to v on edge {u, v}; 0 on an absent edge."""
    idx = edge_index(flow.graph, u, v)
    if idx is None or idx not in flow.nums:
        return Fraction(0)
    num = flow.nums[idx]
    eu, _ev, _c = flow.graph.edges[idx]
    return Fraction(num if u == eu else -num, flow.denom)


def flow_net_numerator(flow: FlowAssignment, v: int) -> int:
    """Numerator of the net flow out of ``v``."""
    total = 0
    for _w, idx, _c in flow.graph.neighbors(v):
        num = flow.nums.get(idx, 0)
        eu = flow.graph.edges[idx][0]
        total += num if v == eu else -num
    return total


def flow_net(flow: FlowAssignment, v: int) -> Fraction:
    return Fraction(flow_net_numerator(flow, v), flow.denom)


def accumulate(graph: Graph, paths: Sequence[PathFlow], denom: int) -> FlowAssignment:
    """Re-sum the paths into a flow assignment (round-trip check helper).

    This is the decomposed flow less its circulations; for a cycle-free
    flow, exactly that flow.
    """
    nums: dict[int, int] = {}
    for p in paths:
        for a, b in zip(p.vertices, p.vertices[1:]):
            idx = edge_index(graph, a, b)
            sign = 1 if a == graph.edges[idx][0] else -1
            nums[idx] = nums.get(idx, 0) + sign * p.weight
    return FlowAssignment(graph, denom, {k: v for k, v in nums.items() if v})


# ---------------------------------------------------------------------------
# max flow on the full terminal layout
# ---------------------------------------------------------------------------


def full_layout_solve(graph: Graph, supply: Mapping[int, int | Fraction],
                      demand: Mapping[int, int | Fraction],
                      within: Iterable[int] | None = None, cap_scale=1):
    """The solve ``flow._run_max_flow`` runs, on the layout with every terminal
    arc: each vertex lists its edge arcs, its source reverse arc and its sink
    arc, and the super-source and super-sink list every vertex.

    Returns (value, the last BFS's labels, the final residuals, the arc lists
    and the starting residuals), the residuals filled arc by arc.
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
    dinic = _Dinic(to, head, res)
    value = dinic.solve(n, n + 1)
    return value, dinic.level, res, head, start


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
                    flow: FlowAssignment, within: Iterable[int] | None = None,
                    cap_scale: int = 1) -> tuple[bool, list[int]]:
    """Exhaustively check the fair cut/flow properties; returns violated indices.

    Weights are checked as ``fair_cut`` checks them, and a ``within`` vertex
    outside the graph is named.
    """
    alpha = Fraction(alpha)
    n = graph.n
    verts = _vertex_set(n, within)
    source_w = _exact_weights(source_w, n, verts)
    target_w = _exact_weights(target_w, n, verts)
    u_side = frozenset(cut)
    violated: set[int] = set()

    for idx, u, v, c in edges_within(graph, verts):
        if abs(flow_value(flow, u, v)) > cap_scale * c:
            violated.add(0)

    cut_cap = 0
    for idx, u, v, c in edges_within(graph, verts):
        if (u in u_side) != (v in u_side):
            cut_cap += c
            inner, outer = (u, v) if u in u_side else (v, u)
            if flow_value(flow, inner, outer) * alpha < Fraction(cap_scale * c):
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
        f = flow_net(flow, v)
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

"""Exact max flow, fair cut/flow pairs, path decomposition, and congestion oracles.

Every max flow goes through ``_run_max_flow`` and comes back as one
``SolvedFlow``: exact int or Fraction inputs in, one ``denom`` (the lcm of
their denominators) that makes them integers, and the value and the
saturation test read from the solver.  ``max_flow`` and ``fair_cut`` hand
back that solve itself, and ``opt_congestion`` reads it step by step.  The
solver is a plain Dinic on the graph's arc layout, built once per graph
(``Graph._arc_layout``), in which a vertex lists only its edge arcs.  A max
flow fills a fresh residual list, scaling the edge capacities and leaving
every terminal arc 0 but its own terminals', and hands the solver a shallow
copy of the arc lists that adds terminal arcs only at its supply and demand
vertices, so a phase never scans the terminal arcs of the other vertices.
A BFS stops once it labels the sink.  The residual cut and the edge flow, in
units of 1/denom, are built only when a caller reads them, from the
residuals as they are.  ``path_decomposition`` is the one place that deals
with circulations: its walks cancel the cycles they meet and drop whatever
circulation is left, so a cycle-free flow is reproduced edge-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import ne
from typing import Iterable, Mapping

from .errors import ArgumentError, ConsistencyError, InternalError
from .graphs import Graph, _check_enumeration_size, _mask_tables, boundary_capacity

import numpy as np


# ---------------------------------------------------------------------------
# flow assignment
# ---------------------------------------------------------------------------


@dataclass
class FlowAssignment:
    """Antisymmetric per-edge flow in fixed-denominator units.

    ``nums[e]`` is the signed numerator of the flow on edge e, oriented from
    the stored lower endpoint to the higher one; the actual flow value is
    nums[e] / denom.  Absent edges carry zero flow.
    """

    graph: Graph
    denom: int = 1
    nums: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Dinic solver
# ---------------------------------------------------------------------------


class _Dinic:
    """Max flow on a graph's arc layout (``Graph._arc_layout``) and one residual list.

    Arcs come in mutually reverse pairs ``idx`` and ``idx ^ 1``; only ``res``
    belongs to this solver, the arc heads and most arc lists are the layout's,
    shared by every flow on the graph (``head`` is the flow's own list of
    them, see ``_run_max_flow``).  Each phase levels the arcs with residual left by BFS and pushes a
    blocking flow along them; phases run until the sink is unreachable.
    """

    def __init__(self, to: list[int], head: list[list[int]], res: list[int]):
        self.n = len(head)
        self.to = to
        self.head = head
        self.res = res

    def _bfs(self, s: int, t: int) -> list[int]:
        # stop once t is labelled: a vertex at or beyond t's level lies on no
        # level path to t, so the blocking flow is the same without it; a BFS
        # that misses t labels everything reachable from s
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
                # retreat to the first saturated arc on the path
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
        """The max flow value; ``self.level`` keeps the last, failing BFS's labels."""
        flow = 0
        while (level := self._bfs(s, t))[t] >= 0:
            flow += self._blocking(s, t, level)
        self.level = level
        return flow


@dataclass
class SolvedFlow:
    """A solved max flow in units of 1/``denom``: what every max flow returns.

    ``value``: the flow value.  ``saturated``: the flow routes every given
    supply.  ``level``: the labels of the solver's last BFS, the one that
    missed the sink.  ``cut`` and ``flow`` are built on first read.
    """

    graph: Graph = field(repr=False)
    res: list[int] = field(repr=False)
    value: int
    denom: int
    saturated: bool
    level: list[int] = field(repr=False)

    @cached_property
    def cut(self) -> frozenset[int]:
        """The minimal minimum cut's source side: the vertices the last BFS labelled."""
        level = self.level
        return frozenset(v for v in range(self.graph.n) if level[v] >= 0)

    @cached_property
    def flow(self) -> FlowAssignment:
        return FlowAssignment(self.graph, self.denom, self.edge_flow())

    def edge_flow(self) -> dict[int, int]:
        """Net edge flow numerators, keyed by edge index in edge order.

        Edge e carries flow exactly when its arcs' residuals differ: both start
        at the same capacity (0 outside ``within``), and pushing f along one
        moves them 2f apart.  Those edges are found at C speed, and only they
        are read; residuals stay Python ints, which may exceed 64 bits.  The
        flow is read as the solver left it, circulations included.
        """
        res, m = self.res, self.graph.m
        used = compress(range(m), map(ne, res[1:2 * m:2], res[0:2 * m:2]))
        return {idx: (res[2 * idx + 1] - res[2 * idx]) // 2 for idx in used}


def _every_vertex(n: int, within: Iterable[int] | None) -> bool:
    """Whether ``within`` is None or ``range(n)``, told without a pass."""
    return within is None or isinstance(within, range) and within == range(n)


def _vertex_set(n: int, within: Iterable[int] | None) -> range | set[int]:
    """``within`` as a vertex set, ``range(n)`` when it holds every vertex;
    a vertex outside 0..n-1 is named."""
    if _every_vertex(n, within):
        return range(n)
    verts = set(within)
    for v in verts:
        if v not in range(n):
            raise ArgumentError(f"within holds {v!r}, not a vertex of the graph "
                                f"(0..{n - 1})")
    return range(n) if len(verts) == n else verts


def _run_max_flow(graph: Graph, supply: Mapping[int, int | Fraction],
                  demand: Mapping[int, int | Fraction], within: Iterable[int] | None = None,
                  cap_scale: int | Fraction = 1) -> SolvedFlow:
    """Exact max flow between virtual terminals; every max flow goes through here.

    Supplies, demands and ``cap_scale`` are ints or Fractions; ``denom``, the
    lcm of their denominators, makes them integers.  The solve fills a fresh
    residual list: edge capacities times ``cap_scale * denom`` (0 for edges
    leaving ``within``), then 0 for every terminal arc but the scaled
    terminals'.  The solver gets a shallow copy of the layout's arc lists in
    which a vertex with a supply also lists its source reverse arc, one with
    a demand its sink arc after that, and the super-source and super-sink
    list only those vertices, in vertex order.  Every arc left out keeps
    residual 0 throughout, so the solver skips it with or without it.  Its
    ``value``, ``saturated`` (value == sum of the supplies * denom), lazily
    built ``cut`` and ``flow`` are in units of 1/denom.
    """
    to, cap, head = graph._arc_layout
    n, m2 = graph.n, 2 * graph.m
    denom = math.lcm(cap_scale.denominator,
                     *(x.denominator for part in (supply, demand) for x in part.values()))
    edge_scale = int(cap_scale * denom)
    verts = _vertex_set(n, within)
    if isinstance(verts, range):
        res = cap[:m2] if edge_scale == 1 else [c * edge_scale for c in cap[:m2]]
        res += [0] * (4 * n)
    else:
        res = [0] * len(to)
        for v in verts:
            for idx in head[v]:
                if to[idx] in verts:
                    res[idx] = cap[idx] * edge_scale
    sources: list[int] = []
    sinks: list[int] = []
    for base, terminals, ends in ((m2, supply, sources), (m2 + 2 * n, demand, sinks)):
        for v, x in terminals.items():
            if x < 0:
                raise ArgumentError("supplies and demands must be non-negative")
            if x and v in verts:
                res[base + 2 * v] = int(x * denom)
                ends.append(v)
    sources.sort()
    sinks.sort()
    heads = head[:n]
    for v in sources:
        heads[v] = [*heads[v], m2 + 2 * v + 1]
    for v in sinks:
        heads[v] = [*heads[v], m2 + 2 * n + 2 * v]
    heads.append([m2 + 2 * v for v in sources])
    heads.append([m2 + 2 * n + 2 * v + 1 for v in sinks])

    dinic = _Dinic(to, heads, res)
    value = dinic.solve(n, n + 1)
    saturated = value == sum(supply.values()) * denom
    return SolvedFlow(graph, res, value, denom, saturated, dinic.level)


def _exact_weights(weights: Mapping[int, object], n: int,
                   verts) -> dict[int, int | Fraction]:
    """The entries of ``weights`` at ``verts``; every entry must be at a
    vertex in 0..n-1 and a non-negative int or Fraction, and the first that
    is not is named."""
    out: dict[int, int | Fraction] = {}
    for v, w in weights.items():
        if not 0 <= v < n:
            raise ArgumentError(f"weight at vertex {v}: not a vertex of the graph "
                                f"(0..{n - 1})")
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise ArgumentError(f"weight at vertex {v} is {w!r}, not an int or Fraction")
        if w < 0:
            raise ArgumentError(f"weight at vertex {v} is negative")
        if v in verts:
            out[v] = w
    return out


def max_flow(graph: Graph, supply: Mapping[int, int | Fraction],
             demand: Mapping[int, int | Fraction],
             within: Iterable[int] | None = None) -> SolvedFlow:
    """Maximum flow from a super-source over ``supply`` to a super-sink over ``demand``.

    Supplies and demands are ints or Fractions; the value and the flow are in
    units of 1/denom, the lcm of their denominators.
    """
    every = range(graph.n)
    return _run_max_flow(graph, _exact_weights(supply, graph.n, every),
                         _exact_weights(demand, graph.n, every), within)


# ---------------------------------------------------------------------------
# fair cuts
# ---------------------------------------------------------------------------


def fair_cut(graph: Graph, source_w: Mapping[int, object], target_w: Mapping[int, object],
             within: Iterable[int] | None = None, cap_scale: int = 1) -> SolvedFlow:
    """Compute a 1-fair (s, t)-cut/flow pair via the terminal reduction.

    Net weights s(v)-t(v) become capacities of arcs from a super-source (when
    positive) or to a super-sink (when negative).  The cut is the residual
    reachable side minus the terminal; the exact max flow saturates its edges,
    the net sources outside it and the net targets inside it, so the pair is
    1-fair, hence alpha-fair for every alpha >= 1 (the tests' ``verify_fair_cut``
    in ``tests/oracles.py`` checks any alpha).  ``denom`` is the least common
    denominator of the net weights.
    """
    verts = _vertex_set(graph.n, within)
    supply, demand = _net_terminals(graph, source_w, target_w, verts)
    return _run_max_flow(graph, supply, demand, verts, cap_scale)


def _net_terminals(graph: Graph, source_w: Mapping[int, object],
                   target_w: Mapping[int, object], verts) -> tuple[dict, dict]:
    """The terminal reduction's net supplies s(v)-t(v) > 0 and net demands
    t(v)-s(v) > 0 at the vertices of ``verts``."""
    net = _exact_weights(source_w, graph.n, verts)
    for v, w in _exact_weights(target_w, graph.n, verts).items():
        net[v] = net.get(v, 0) - w
    supply = {v: x for v, x in net.items() if x > 0}
    demand = {v: -x for v, x in net.items() if x < 0}
    return supply, demand


def _fair_cut_is_empty(graph: Graph, supply: int | Fraction, demand: int | Fraction,
                       within: Iterable[int] | None, cap_scale: int) -> bool:
    """Whether a cut bound proves that ``fair_cut`` returns the empty cut on
    weights with net supply S = ``supply`` and net demand D = ``demand``, the
    totals of ``_net_terminals`` over every vertex; False proves nothing.

    The bound is taken only when ``within`` is every vertex (None or
    ``range(n)``) and the graph is connected; anything else returns False.
    Capacities are positive ints, so when S <= D and S <= cap_scale
    every proper nonempty X has cap_scale * cap(dX) >= cap_scale >= S >=
    supply(X) - demand(X), and X = V has supply(X) - demand(X) = S - D <= 0.
    By Gale's condition the max flow then saturates every net supply, the
    empty source side is a minimum cut, and so the minimal one, the fair
    cut, is empty.
    """
    if not _every_vertex(graph.n, within) or not graph.is_connected():
        return False
    return supply <= demand and supply <= cap_scale


# ---------------------------------------------------------------------------
# path decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFlow:
    start: int
    end: int
    vertices: tuple[int, ...]
    weight: int  # in numerator units of the decomposed assignment


def path_decomposition(graph: Graph, flow: FlowAssignment) -> tuple[PathFlow, ...]:
    """Peel a flow into weighted paths from excess to deficit vertices.

    Each walk follows remaining flow from an excess vertex to a deficit; when
    it comes back to a vertex already on it, it cancels that cycle (the
    cycle's smallest remaining arc flow comes off each of its arcs) and walks
    on.  Flow left once every excess is drained is a circulation and is
    dropped.  So the paths keep every vertex's net flow, and on a cycle-free
    flow their per-edge weights sum to the flow exactly.
    """
    net = [0] * graph.n
    for idx, num in flow.nums.items():
        u, v, _c = graph.edges[idx]
        net[u] += num
        net[v] -= num
    excess = {v: num for v, num in enumerate(net) if num}

    # outgoing remaining flow per vertex
    out: dict[int, list[list[int]]] = {}
    for idx, num in flow.nums.items():
        if num == 0:
            continue
        u, v, _c = graph.edges[idx]
        a, b = (u, v) if num > 0 else (v, u)
        out.setdefault(a, []).append([b, abs(num)])
    cursor = {v: 0 for v in out}

    paths: list[PathFlow] = []
    for start in sorted(v for v, e in excess.items() if e > 0):
        while excess.get(start, 0) > 0:
            arcs: list[list[int]] = []
            walk = {start: 0}  # the walk's vertices in order, to the arcs before each
            v = start
            while excess.get(v, 0) >= 0:
                lst = out.get(v, [])
                while cursor.get(v, 0) < len(lst) and lst[cursor[v]][1] == 0:
                    cursor[v] += 1
                if cursor.get(v, 0) >= len(lst):
                    raise ConsistencyError(f"flow is not conservative at vertex {v}")
                arc = lst[cursor[v]]
                arcs.append(arc)
                v = arc[0]
                if v in walk:
                    # the walk closed a cycle at v: cancel it and walk on from v
                    cycle = arcs[walk[v]:]
                    del arcs[walk[v]:]
                    slack = min(a[1] for a in cycle)
                    for a in cycle:
                        a[1] -= slack
                        del walk[a[0]]
                walk[v] = len(arcs)
            bottleneck = min(excess[start], -excess[v], min(a[1] for a in arcs))
            for arc in arcs:
                arc[1] -= bottleneck
            excess[start] -= bottleneck
            excess[v] += bottleneck
            paths.append(PathFlow(start, v, tuple(walk), bottleneck))

    if len(paths) > graph.m + graph.n:
        raise InternalError("path decomposition exceeded the m + n path bound")
    return tuple(paths)


# ---------------------------------------------------------------------------
# optimal congestion for a single-commodity demand
# ---------------------------------------------------------------------------


def _demand_parts(graph: Graph, demand: Mapping[int, object]):
    """The demand's positive and negative parts as {vertex: int} maps; a
    plain int stays an int, any other value is read as a Fraction."""
    d = {v: x if type(x) is int else Fraction(x) for v, x in demand.items() if x}
    for v in d:
        if not 0 <= v < graph.n:
            raise ArgumentError(f"demand vertex {v} is not a vertex of the graph "
                                f"(0..{graph.n - 1})")
    if sum(d.values()) != 0:
        raise ArgumentError("demand must sum to zero")
    if any(x.denominator != 1 for x in d.values()):
        raise ArgumentError("demand values must be integral")
    pos = {v: int(x) for v, x in d.items() if x > 0}
    neg = {v: int(-x) for v, x in d.items() if x < 0}
    return pos, neg


def opt_congestion(graph: Graph, demand: Mapping[int, object]) -> Fraction:
    """Exact optimal congestion for routing a balanced single-commodity demand.

    The optimum is the largest cut ratio d(S) / cap(S), found by Dinkelbach's
    iteration from the best singleton cut: a flow at lambda either saturates,
    so lambda is optimal, or its residual min cut S has a strictly larger
    ratio, which becomes the next lambda.  Typically 1-3 max-flows.
    """
    pos, neg = _demand_parts(graph, demand)
    if not pos:
        return Fraction(0)
    if not graph.is_connected():
        raise ArgumentError("optimal congestion requires a connected graph")

    deg = graph._degrees
    lam = max(Fraction(x, deg[v]) for part in (pos, neg) for v, x in part.items())
    while True:
        solved = _run_max_flow(graph, pos, neg, cap_scale=lam)
        if solved.saturated:
            return lam
        side = solved.cut
        d_side = sum(pos.get(v, 0) - neg.get(v, 0) for v in side)
        cap = boundary_capacity(graph, side, range(graph.n))
        if not cap or d_side <= lam * cap:
            raise InternalError("Dinkelbach step did not raise the cut ratio; "
                                "unreachable for valid input")
        lam = Fraction(d_side, cap)


def brute_force_opt_congestion(graph: Graph, demand: Mapping[int, object]) -> Fraction:
    """Independent oracle: max over all cuts of |d(S)| / cap(S, V-S)."""
    pos, neg = _demand_parts(graph, demand)
    if not pos:
        return Fraction(0)
    verts = list(range(graph.n))
    dmap = {v: int(Fraction(x)) for v, x in demand.items() if x}
    _check_enumeration_size(verts, [graph.total_capacity(),
                                    sum(abs(x) for x in dmap.values())])
    best = Fraction(0)
    nmasks = 1 << (graph.n - 1)  # fix the top vertex outside S
    for lo in range(1, nmasks, 1 << 20):
        hi = min(lo + (1 << 20), nmasks)
        caps, dS = _mask_tables(graph, verts, dmap, lo, hi)
        absd = np.abs(dS)
        with np.errstate(divide="ignore"):
            ratios = np.where(absd > 0, absd / np.maximum(caps, 1), 0.0)
        cand = np.nonzero(ratios >= ratios.max() * (1 - 1e-9) - 1e-12)[0]
        for off in cand:
            if caps[off] == 0:
                if absd[off] > 0:
                    raise ArgumentError("demand crosses a zero-capacity cut")
                continue
            ratio = Fraction(int(absd[off]), int(caps[off]))
            if ratio > best:
                best = ratio
    return best

"""Exact max flow, fair cut/flow pairs, path decomposition, and congestion oracles.

Every max flow goes through ``_run_max_flow`` and comes back as one
``SolvedFlow``: exact int or Fraction inputs in, one ``denom`` (the lcm of
their denominators) that makes them integers, and the value and the
saturation test read from the solver.  ``fair_cut`` hands back that solve
itself, and ``opt_congestion`` reads it step by step, one step for a pair
demand.  The solver is a plain Dinic on the graph's arc layout, built once
per graph (``Graph._arc_layout``), in which a vertex lists only its edge
arcs.  A max flow fills a fresh residual list, scaling the edge capacities
and leaving every terminal arc 0 but its own terminals', and hands the
solver only the terminal arcs at its terminals: the super-source's arcs to
the supply vertices, a sink arc at each demand vertex and the super-sink's
arcs back to them.  A pair solve, one supply vertex and one demand vertex,
labels its phases from the sink, so its blocking flows walk only into
vertices that could reach the sink when the phase began; every other solve
labels from the source.  Either BFS stops once it labels the other
terminal, and both push the same flow.  The residual cut and the edge flow,
a ``{edge index: numerator}`` dict in units of 1/denom, are built only when
a caller reads them, from the residuals as they are.  ``path_decomposition``
is the one place that deals with circulations: its walks cancel the cycles
they meet and drop whatever circulation is left, so a cycle-free flow is
reproduced edge-exactly.
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
# Dinic solver
# ---------------------------------------------------------------------------


class _Dinic:
    """Max flow on a graph's arc layout (``Graph._arc_layout``) and one residual list.

    Arcs come in mutually reverse pairs ``idx`` and ``idx ^ 1``; only ``res``
    belongs to this solver, the arc heads and most arc lists are the layout's,
    shared by every flow on the graph (``head`` is the flow's own list of
    them, see ``_run_max_flow``).  Each phase labels the vertices by BFS over
    the arcs with residual left and pushes a blocking flow along the arcs
    that lie on shortest s-t paths; phases run until the sink is
    unreachable.  A pair solve, whose source and sink each list one arc (one
    supply vertex, one demand vertex), labels each phase from the sink, over
    reversed residual arcs, so its blocking flow walks only into vertices
    that could reach the sink when the phase began; every other solve labels
    from the source.  Both labelings admit the same s-t shortest paths, in
    the same cursor order, so both push the same augmenting paths and leave
    the same residuals.  The source side is kept for a solve with many
    terminals because it is faster there: replaying every max flow of a
    seed-1 build both ways (from the sink with each supply vertex's arc back
    to the super-source listed) gave equal values, cuts and residuals, the
    source side in a median 0.081 s against 0.088 s for dumbbell 80's 70
    flows and 4.62 s against 5.52 s for grid 51x51's 122 (Python 3.11,
    two-core VM).
    """

    def __init__(self, to: list[int], head: list[list[int]], res: list[int]):
        self.n = len(head)
        self.to = to
        self.head = head
        self.res = res

    def _source_levels(self, s: int, t: int) -> tuple[list[int], list[int]]:
        # stop once t is labelled: a vertex at or beyond t's level lies on no
        # level path to t, so the blocking flow is the same without it; a BFS
        # that misses t labels everything reachable from s, which its queue
        # lists, s first
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
                        return level, queue
                    queue.append(w)
        return level, queue

    def _sink_levels(self, s: int, t: int) -> list[int]:
        # distances to t over reversed residual arcs, until s is labelled:
        # every vertex closer to t than s is labelled by then
        to, res, head = self.to, self.res, self.head
        dist = [-1] * self.n
        dist[t] = 0
        queue = [t]
        for v in queue:
            nxt = dist[v] + 1
            for idx in head[v]:
                w = to[idx]
                if dist[w] < 0 and res[idx ^ 1] > 0:
                    dist[w] = nxt
                    if w == s:
                        return dist
                    queue.append(w)
        return dist

    def _blocking(self, s: int, t: int, labels: list[int], step: int) -> int:
        # an admissible arc leads to a vertex labelled ``step`` past its tail:
        # one level further from s (+1) or one step closer to t (-1)
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
            nxt = labels[v] + step
            pos = cursor[v]
            while pos < end:
                idx = arcs[pos]
                if res[idx] > 0 and labels[to[idx]] == nxt:
                    break
                pos += 1
            cursor[v] = pos
            if pos < end:
                path.append(idx)
                v = to[idx]
                continue
            if v == s:
                return pushed_total
            labels[v] = -1  # dead end
            last = path.pop()
            v = to[last ^ 1]
            cursor[v] += 1

    def solve(self, s: int, t: int) -> int:
        """The max flow value.

        ``self.reached`` keeps the vertices the last, failing source-side BFS
        labelled, s first, or None after a pair solve, labelled from the sink,
        which stops once the flow routes everything s can send.
        """
        head = self.head
        flow = 0
        if not len(head[s]) == len(head[t]) == 1:  # not a pair: label from s
            while True:
                level, self.reached = self._source_levels(s, t)
                if level[t] < 0:
                    return flow
                flow += self._blocking(s, t, level, 1)
        # a pair: the sink-side BFS reaches s over the supply vertex's arc
        # back to it, listed only here
        (arc,) = head[s]
        v = self.to[arc]
        head[v] = [*head[v], arc ^ 1]
        supply = self.res[arc]
        while flow < supply and (dist := self._sink_levels(s, t))[s] >= 0:
            flow += self._blocking(s, t, dist, -1)
        self.reached = None
        return flow

    def source_side(self, s: int, t: int) -> frozenset[int]:
        """The vertices other than s that a residual search from s labels: the
        last source-side BFS's, or one new search after a sink-side solve."""
        reached = self.reached
        if reached is None:
            reached = self._source_levels(s, t)[1]
        return frozenset(reached[1:])


@dataclass
class SolvedFlow:
    """A solved max flow in units of 1/``denom``: what every max flow returns.

    ``value``: the flow value.  ``saturated``: the flow routes every given
    supply.  ``solver``: the ``_Dinic`` that solved it, whose residual search
    from the super-source gives the cut.  ``cut`` is built on first read, and
    ``edge_flow()`` on each call.
    """

    graph: Graph = field(repr=False)
    res: list[int] = field(repr=False)
    value: int
    denom: int
    saturated: bool
    solver: _Dinic = field(repr=False)

    @cached_property
    def cut(self) -> frozenset[int]:
        """The minimal minimum cut's source side: the vertices a residual
        search from the super-source labels."""
        n = self.graph.n
        return self.solver.source_side(n, n + 1)

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


def _vertex_set(graph: Graph, within: Iterable[int] | None) -> frozenset[int]:
    """``within`` as a frozenset: ``graph._all_vertices`` itself when it is
    None, is that set or holds every vertex, so ``verts is
    graph._all_vertices`` tells the whole graph; a stray vertex is named."""
    everything = graph._all_vertices
    if within is None or within is everything:
        return everything
    verts = frozenset(within)
    graph._check_vertices(verts, "within")
    return everything if len(verts) == graph.n else verts


def _run_max_flow(graph: Graph, supply: Mapping[int, int | Fraction],
                  demand: Mapping[int, int | Fraction], within: Iterable[int] | None = None,
                  cap_scale: int | Fraction = 1) -> SolvedFlow:
    """Exact max flow between virtual terminals; every max flow goes through here.

    Supplies, demands and ``cap_scale`` are ints or Fractions; ``denom``, the
    lcm of their denominators, makes them integers.  The solve fills a fresh
    residual list: edge capacities times ``cap_scale * denom``, copied from
    the layout when ``within`` is the whole graph (``_vertex_set``) and
    filled vertex by vertex otherwise, with 0 for edges leaving ``within``;
    then 0 for every terminal arc but the scaled terminals'.  The solver gets
    a shallow copy of the layout's arc lists in which a vertex with a demand
    also lists its sink arc, the super-source lists its arcs to the supply
    vertices, in vertex order, and the super-sink lists its arcs back to the
    demand vertices; ``_Dinic.solve`` picks the side it labels from by the
    two lists' lengths, and a pair solve adds the supply vertex's arc back
    to the super-source.  No search and no phase needs an arc left out: the
    other terminal arcs keep residual 0 throughout, and a phase labelled
    from the source never takes an arc into the super-source (level 0) nor
    reads the super-sink's list.  Its ``value``, ``saturated`` (value == sum
    of the supplies * denom), lazily built ``cut`` and ``edge_flow()`` are
    in units of 1/denom.
    """
    to, cap, head = graph._arc_layout
    n, m2 = graph.n, 2 * graph.m
    denom = math.lcm(cap_scale.denominator,
                     *(x.denominator for part in (supply, demand) for x in part.values()))
    edge_scale = int(cap_scale * denom)
    verts = _vertex_set(graph, within)
    if verts is graph._all_vertices:
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
    heads = list(head)
    for v in sinks:
        heads[v] = [*heads[v], m2 + 2 * n + 2 * v]
    heads += ([m2 + 2 * v for v in sources], [m2 + 2 * n + 2 * v + 1 for v in sinks])

    dinic = _Dinic(to, heads, res)
    value = dinic.solve(n, n + 1)
    saturated = value == sum(supply.values()) * denom
    return SolvedFlow(graph, res, value, denom, saturated, dinic)


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
    verts = _vertex_set(graph, within)
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

    The bound is taken only when ``within`` holds every vertex (see
    ``_vertex_set``) and the graph is connected; anything else returns False.
    Capacities are positive ints, so when S <= D and S <= cap_scale
    every proper nonempty X has cap_scale * cap(dX) >= cap_scale >= S >=
    supply(X) - demand(X), and X = V has supply(X) - demand(X) = S - D <= 0.
    By Gale's condition the max flow then saturates every net supply, the
    empty source side is a minimum cut, and so the minimal one, the fair
    cut, is empty.
    """
    if _vertex_set(graph, within) is not graph._all_vertices or not graph.is_connected():
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
    weight: int  # in numerator units of the decomposed flow


def path_decomposition(graph: Graph, nums: Mapping[int, int]) -> tuple[PathFlow, ...]:
    """Peel a flow into weighted paths from excess to deficit vertices.

    ``nums`` maps an edge index to the signed numerator of its flow, oriented
    from the edge's lower endpoint to its higher one, as
    ``SolvedFlow.edge_flow()`` returns it; an absent edge carries no flow.

    Each walk follows remaining flow from an excess vertex to a deficit; when
    it comes back to a vertex already on it, it cancels that cycle (the
    cycle's smallest remaining arc flow comes off each of its arcs) and walks
    on.  Flow left once every excess is drained is a circulation and is
    dropped.  So the paths keep every vertex's net flow, and on a cycle-free
    flow their per-edge weights sum to the flow exactly.
    """
    net = [0] * graph.n
    for idx, num in nums.items():
        u, v, _c = graph.edges[idx]
        net[u] += num
        net[v] -= num
    excess = {v: num for v, num in enumerate(net) if num}

    # outgoing remaining flow per vertex
    out: dict[int, list[list[int]]] = {}
    for idx, num in nums.items():
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


def _demand_values(n: int, demand: Mapping[int, object]) -> dict[int, int | Fraction]:
    """The demand's nonzero values; a plain int stays an int, any other value
    is read as a Fraction.  Each must be at a vertex in 0..n-1, and they must
    sum to zero."""
    d = {v: x if type(x) is int else Fraction(x) for v, x in demand.items() if x}
    for v in d:
        if not 0 <= v < n:
            raise ArgumentError(f"demand vertex {v} is not a vertex of the graph "
                                f"(0..{n - 1})")
    if sum(d.values()) != 0:
        raise ArgumentError("demand must sum to zero")
    return d


def _demand_parts(graph: Graph, demand: Mapping[int, object]):
    """The demand's positive and negative parts as {vertex: int} maps, once
    ``_demand_values`` passes it; every value must be integral."""
    d = _demand_values(graph.n, demand)
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
    ratio, which becomes the next lambda.  A pair demand {u: x, v: -x} takes
    one max flow: a flow that does not saturate leaves both terminal arcs
    (capacity x * denom) with residual, so S holds u and not v and is a
    minimum u-v cut, and x / cap(S) is already the optimum.  A demand with
    more terminals iterates on, typically to 2-3 max flows.
    """
    pos, neg = _demand_parts(graph, demand)
    if not pos:
        return Fraction(0)
    if not graph.is_connected():
        raise ArgumentError("optimal congestion requires a connected graph")

    deg = graph._degrees
    lam = max(Fraction(x, deg[v]) for part in (pos, neg) for v, x in part.items())
    pair = len(pos) == len(neg) == 1
    while True:
        solved = _run_max_flow(graph, pos, neg, cap_scale=lam)
        if solved.saturated:
            return lam
        side = solved.cut
        d_side = sum(pos.get(v, 0) - neg.get(v, 0) for v in side)
        cap = boundary_capacity(graph, side, graph._all_vertices)
        if not cap or d_side <= lam * cap:
            raise InternalError("Dinkelbach step did not raise the cut ratio; "
                                "unreachable for valid input")
        lam = Fraction(d_side, cap)
        if pair:
            return lam


def brute_force_opt_congestion(graph: Graph, demand: Mapping[int, object]) -> Fraction:
    """Independent oracle: max over all cuts of |d(S)| / cap(S, V-S)."""
    pos, neg = _demand_parts(graph, demand)
    if not pos:
        return Fraction(0)
    verts = list(range(graph.n))
    dmap = {**pos, **{v: -x for v, x in neg.items()}}
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

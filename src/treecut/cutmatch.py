"""Vertex-weighted non-stop cut-matching game and the sparse cut oracle on top of it.

The game runs on integral weight units rather than vertices: each vertex
contributes pi(v) units, ``game.vertex_of`` maps each unit to its vertex
(each vertex's units contiguous, so a sorted unit array is grouped by
vertex), and the cut player never sees the graph.  Per round
``cut_player_step(game)`` pushes a random vector through the slowed walk over
past matchings, scaling once per block of passes, and sweeps it into two
sorted unit arrays: one value sort, with a tie at the split between the
sides split by unit index, as a stable sort by (value, unit) would.
``matching_player_step(game, left, right)`` takes them, deletes a sparse
fair-cut side, matches the surviving proposal units locally and across
integral routed paths whose congestion it tracks, and returns the matching
as a pair array sorted by proposal unit, the partners read in stable order
of the pairs' start vertices; ``step`` builds the walk permutation from it.
The game holds ``matchings``, ``perms``, ``active_mask``, ``deleted``, the
per-edge ``load`` and ``max_load_ratio``.  Per-unit work is numpy array
work; Python loops run once per vertex or routed path.

The fair cut is solved only when a cut bound cannot prove it empty
(``flow._fair_cut_is_empty``, whose docstring holds the bound), and a round
the bound certifies routes without a flow too, to the nearest sinks by BFS
(``_route_certified``, whose docstring holds the capacity proof).  The bound
is taken only on the whole graph, told by identity: until its first deletion,
a whole-graph game's vertices not deleted are ``graph._all_vertices`` itself.  Every
other round (a game within a proper subset, any round after a deletion, a
supply above the bound) solves the exact max flow and decomposes it into
paths.  The sweep proposes at most ceil(a/8) of the a active units against
ceil(a/2), so a root game on a connected graph deletes nothing while
3 <= a <= 8 * cap_multiplier, 9600 units at the root oracle's phi/20 = 1/80
(congestion factor 800).

A game that has deleted nothing stops "certified" as soon as its matchings,
contracted to its weighted vertices, prove them (phi/q*)-expanding
(``CutMatchingGame._certified``, whose docstring holds the argument): an
exact proof, by a shifted Cholesky of an integer matrix, not a
high-probability bound.  The contracted matchings are kept as they grow,
each round's pairs folded in once with their degrees, and a try checks in a
fixed order, reading the entry bound and the diagonal from those degrees
before it builds the one n x n matrix it factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InternalError
from .flow import (_fair_cut_is_empty, _run_max_flow, _vertex_set, fair_cut,
                   path_decomposition)
from .graphs import Graph, VertexWeights

#: fairness factor of the matching player's fair cuts
MATCH_FAIRNESS = Fraction(3, 2)

#: largest unit count whose exact walk potential the test diagnostics
#: evaluate; the benchmark corpora (bench/workloads.py) split on it
POTENTIAL_UNIT_CAP = 512

#: a game on k units plays at most ROUND_COEFF * ceil_log2(k)^2 rounds
ROUND_COEFF = 10

#: a block of ``_apply_walk`` passes grows values at most 2^WALK_BLOCK_BITS-fold
WALK_BLOCK_BITS = 256

#: a game certifies its expansion only on at most this many weighted
#: vertices; the proof factors a dense matrix of that order
CERTIFY_VERTEX_CAP = 2500

#: above this many weighted vertices a Lanczos screen of SCREEN_STEPS steps
#: decides whether a proof is worth its dense factorisation: below it a
#: failed proof costs less than the screen (the benchmark's games have at
#: most 144), above it a proof every round made grid 32x32 slower
SCREEN_VERTICES = 256
SCREEN_STEPS = 24


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ArgumentError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def slowdown_for(k: int) -> int:
    """Mixing slow-down: the largest power of two at most r, the largest
    integer with 400^r <= k^3 (r <= 3 ln k / (2 ln 20), the convergence
    bound), or at most 2 when r < 2."""
    raw = 2
    while 400 ** (raw + 1) <= k ** 3:
        raw += 1
    return 1 << (raw.bit_length() - 1)


def oracle_params(pi_total: int) -> tuple[int, Fraction, Fraction]:
    """Quality, balance, and progress parameters of the sparse cut oracle.

    Returns (quality q*, balance floor beta*, progress floor tau*) =
    (q, 1/(2q), 1/(440q)) for q = ceil_log2(pi_total), so that downstream
    threshold comparisons stay exact rationals.
    """
    if pi_total < 2:
        raise ArgumentError("oracle parameters need total weight at least 2")
    quality = ceil_log2(pi_total)
    return quality, Fraction(1, 2 * quality), Fraction(1, 440 * quality)


# ---------------------------------------------------------------------------
# cut player: walk operators and sweep cut
# ---------------------------------------------------------------------------


def _apply_walk(vec: np.ndarray, perms: Sequence[np.ndarray], mask: np.ndarray,
                slowdown: int) -> np.ndarray:
    """Matrix-free application of the centered, slowed walk operator.

    ``vec`` is one vector of length k or a k x m block of column vectors.
    A mixing pass ``(1 - 1/s) * y + (1/s) * y[perm]`` for the slowdown s runs
    as ``y += y[perm]``, after ``y *= s - 1`` when s > 2, and y is scaled by
    (1/s)^b once per block of b = WALK_BLOCK_BITS // ceil_log2(s) passes and
    for the passes left before each centering.  For a power of two s, as
    ``slowdown_for`` returns, the bits are the per-pass formula's: scaling by
    a power of two commutes with rounding while no value is subnormal or
    overflows.  A unit-norm input such as ``cut_player_step``'s cannot
    overflow; a value the walk shrinks below 2^-1022, far past the game's
    potential stop, or an input near 1e+-300 can round differently.
    """
    y = vec.astype(float, order="C", copy=True)
    count = int(mask.sum())
    # every unit active: the centering needs no mask
    active = None if count == len(mask) else mask
    share = 1.0 / slowdown
    lag = float(slowdown - 1)
    block = WALK_BLOCK_BITS // ceil_log2(slowdown)
    passes = [*reversed(perms), *perms]
    for _ in range(slowdown):
        _center(y, active, count)
        for start in range(0, len(passes), block):
            chunk = passes[start:start + block]
            if lag == 1.0:
                for perm in chunk:
                    y += y[perm]
            else:
                for perm in chunk:
                    moved = y[perm]
                    y *= lag
                    y += moved
            y *= share ** len(chunk)
        _center(y, active, count)
    return y


def _center(y: np.ndarray, active: np.ndarray | None, count: int) -> None:
    """Zero the inactive rows of the C-ordered ``y`` in place and subtract
    the mean of the ``count`` active rows; ``active`` None means every row.
    With every row active, ``y[active]`` would be a C-ordered copy of y,
    summed in the same order as y itself, so both branches give the same
    bits."""
    if active is None:
        y -= y.sum(axis=0) / count
    else:
        y[~active] = 0.0
        y[active] -= y[active].sum(axis=0) / count


def _unit_array(units, k: int) -> np.ndarray:
    """Distinct units in 0..k-1 as a sorted int array, else an argument error.

    Units must be integers in one dimension: a float or bool input is
    refused by its dtype, not truncated or read as a mask, and a 0-d or 2-D
    array by its shape.  An input that is already strictly increasing is not
    sorted again and may come back as the same array.
    """
    if not isinstance(units, np.ndarray):
        units = list(units)
        units = np.array(units) if units else np.empty(0, dtype=np.intp)
    if units.ndim != 1:
        raise ArgumentError(f"units must be a 1-D array, not {units.ndim}-D")
    if units.dtype.kind not in "iu":
        raise ArgumentError(f"units must be integers, not {units.dtype}")
    units = units.astype(np.intp, copy=False)
    increasing = bool((units[1:] > units[:-1]).all())
    if not increasing:
        units = np.sort(units)
    if len(units) and not 0 <= units[0] <= units[-1] < k:
        raise ArgumentError("units must lie in 0..k-1")
    if not increasing and not np.diff(units).all():
        raise ArgumentError("a unit appears more than once")
    return units


def sweep_cut(active: Iterable[int] | np.ndarray, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """Split the active units around a separation level of the walk values.

    Returns (proposal side, response side, separation level), the sides as
    sorted unit arrays.  The proposal side is small (at most ceil(a/8) of the
    a distinct active units), far from the level, and carries at least 1/80
    of the active mass, up to a rounding share of 1e-12 of it at every
    scale; the response side holds at least half the units.  Both
    orientations are tried.  For centered values, such as the walk's,
    failure of both is a bug; values whose mean carries most of their mass
    can fail both too.  Either way it raises InternalError.  A vector with
    no spread, all active values equal and not zero, has no unit far from
    any level that splits it: its proposal side is the ceil(a/8) highest
    units, its response side the rest and its level their value.  Units
    are ordered by (value, unit index): the values are sorted once, and a tie
    that straddles the split goes by unit index, its highest units to the
    response side of the "low" orientation and its lowest to that of the
    "high" one.  All per-unit work is array work.  ``values`` is a 1-D
    array, and the squares of the active values must sum to a finite float.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ArgumentError(f"sweep values must be a 1-D array, not {vals.ndim}-D")
    act = _unit_array(active, len(vals))
    a = len(act)
    if a < 2:
        raise ArgumentError("sweep cut needs at least two active units")
    vals = vals[act]
    # equal values have equal squares, so the order among ties changes no
    # sum below; _sweep_orientation splits ties by unit index itself
    svals = np.sort(vals)
    squares = svals ** 2
    total = float(squares.sum())
    if not math.isfinite(total):
        raise ArgumentError("sweep values must be finite")
    median = svals[(a - 1) // 2]
    mass_low = float(squares[:svals.searchsorted(median)].sum())
    mass_high = float(squares[svals.searchsorted(median, "right"):].sum())

    first = "low" if mass_low >= mass_high else "high"
    for side in (first, "high" if first == "low" else "low"):
        res = _sweep_orientation(act, vals, svals, total, a, side)
        if res is not None:
            return res
    if svals[0] == svals[-1]:
        # no spread: every level ties every unit, and the ceil(a/8) highest
        # units carry at least an eighth of the mass
        cap_small = -(-a // 8)
        return act[a - cap_small:], act[:a - cap_small], float(svals[0])
    raise InternalError("sweep cut failed in both orientations")


def _sweep_orientation(act, vals, svals, total, a, side):
    # array methods rather than numpy's function wrappers, which cost about
    # as much as the work itself at a few hundred units
    half = -(-a // 2)       # ceil(a/2) response units
    cap_small = -(-a // 8)  # ceil(a/8) proposal units
    # the response side is the half units at one end of the (value, unit
    # index) order, the level the value at its inner end
    if side == "low":
        split = a - half
        resp, cut = vals >= svals[split], svals[split - 1] == svals[split]
    else:
        split = half - 1
        resp, cut = vals <= svals[split], svals[split + 1] == svals[split]
    level = svals[split]
    if cut or level == 0.0:
        # the units tied with the level, in unit order, and the rank of the
        # level's unit among them
        ties = (vals == level).nonzero()[0]
        rank = split - int(svals.searchsorted(level))
        if cut and side == "low":
            resp[ties[:rank]] = False
        elif cut:
            resp[ties[rank + 1:]] = False
        # -0.0 == 0.0: the level takes the sign of that unit's own zero
        level = vals[ties[rank]]
    level = float(level)
    pool_pos = (~resp).nonzero()[0]
    pool = vals[pool_pos]
    gap = pool - level
    is_far = gap * gap >= pool * pool / 9.0
    far = pool_pos[is_far]
    # farthest from the level first, ties by unit index; only units at most
    # as far as the cap_small-th farthest can be among the first cap_small
    key = -np.abs(gap[is_far])
    if len(far) > cap_small:
        bound = key.copy()
        bound.partition(cap_small - 1)
        near = (key <= bound[cap_small - 1]).nonzero()[0]
        far, key = far[near], key[near]
    # far is in unit order, so a stable sort breaks key ties by unit index
    top = far[key.argsort(kind="stable")[:cap_small]]

    # the proposal mass: pow(x, 2), which can differ from x * x in the last
    # bit, summed from left to right as the builtin sum of floats was before
    # Python 3.12 made it compensated
    picked = float(np.float_power(vals[top], 2).cumsum()[-1]) if len(top) else 0.0
    if picked + 1e-12 * total < total / 80.0:
        return None
    # act is sorted, so sorted positions give sorted units
    top.sort()
    return act[top], act[resp.nonzero()[0]], level


def cut_player_step(game: "CutMatchingGame") -> tuple[np.ndarray, np.ndarray]:
    """One cut-player move: project a random direction through the walk,
    sweep; returns the proposal and response sides as sorted unit arrays."""
    mask = game.active_mask
    active = mask.nonzero()[0]
    if len(active) < 2:
        raise ArgumentError("cut player needs at least two active units")
    r = game.rng.standard_normal(game.k)
    r /= math.sqrt(r @ r)
    u = _apply_walk(r, game.perms, mask, game.slowdown)
    drift = abs(float(u.sum()))
    # rounding scale: the walk contracts a unit vector, so absolute float noise
    # is relative to 1/sqrt(k) even when the output itself underflows
    scale = max(float(np.abs(u).max()), game.k ** -0.5)
    # written so that a NaN output fails it too
    if not drift <= 1e-9 * game.k * scale:
        raise InternalError("walk output lost orthogonality to the constant vector")
    # k * ||u||^2 is an unbiased estimate of the potential; it is the game's
    # only convergence signal
    game.last_projection_energy = float(u @ u)
    left, right, _level = sweep_cut(active, u)
    return left, right


# ---------------------------------------------------------------------------
# matching player
# ---------------------------------------------------------------------------


def _nonzero_counts(counts: np.ndarray) -> dict[int, int]:
    """The nonzero entries of a per-vertex count array, as {vertex: count}."""
    verts = counts.nonzero()[0]
    return dict(zip(verts.tolist(), counts[verts].tolist()))


def _ranks(x: np.ndarray) -> np.ndarray:
    """Each entry's rank among the earlier entries equal to it."""
    order = x.argsort(kind="stable")
    ordered = x[order]
    rank = np.empty_like(x)
    rank[order] = np.arange(len(x)) - ordered.searchsorted(ordered)
    return rank


def _route_certified(graph: Graph, supply: np.ndarray, demand: np.ndarray
                     ) -> tuple[np.ndarray, dict[int, int]]:
    """Nearest-sink routing of a matching round that ``_fair_cut_is_empty``
    certified: returns the paths as the (source, sink, units) rows of an
    (r, 3) int array and the load per edge index.

    ``supply`` and ``demand`` are int arrays of the leftover proposal and
    response units at each of the n vertices, L - R and R - L after pairing
    min(L, R) at each vertex, nonzero at disjoint vertices.  Sources go in
    ascending order; each runs a BFS over ``graph._adj`` and takes the units
    left at each sink as the BFS reaches it, nearest first, until the
    source's units are used up.  A path's weight is the units it moves, and
    an edge's load is the plain sum of the weights of the paths over it: at
    least the |net flow| on the edge, equal to it when no two paths cross
    the edge in opposite directions, so it is a sound congestion bound.  A
    source whose BFS runs out of sinks is left short, for the caller's count
    to catch.

    The capacity proof holds for any router of simple paths.
    ``matching_player_step`` certifies a round with cap_scale 3c (c the cap
    multiplier) on net supply S = sum (3L - 2R)+, at most the net demand
    D = sum (2R - 3L)+ and at most 3c, with the alive vertices every vertex
    of a connected graph.  Where L >= R, 3L - 2R >= 3(L - R), so the
    leftover supply L' = sum (L - R)+ is at most S/3 <= c.  A simple path
    crosses an edge at most once, so any set of simple paths that carries
    the L' units puts at most L' <= c on an edge, at most half its per-round
    capacity 2c * cap(e): no capacity can bind, and the cut player wins
    against any matching that embeds with low congestion
    (Khandekar-Rao-Vazirani), so the paths may be chosen for speed.  S <= D
    gives 3 sum L <= 2 sum R, so the leftover demand
    sum (R - L)+ = L' + sum R - sum L is at least L'.  The graph is
    connected, so every BFS reaches a sink while any demand is left.
    """
    adj, edges = graph._adj, graph.edges
    room, units = demand.tolist(), supply.tolist()
    # per vertex: the last source whose BFS reached it, and the edge it came by
    seen, via = [-1] * graph.n, [-1] * graph.n
    rows: list[int] = []  # (source, sink, units) rows, one after another
    load: dict[int, int] = {}
    for start in supply.nonzero()[0].tolist():
        need, taken, queue = units[start], [], [start]
        seen[start], via[start] = start, -1
        for v in queue:
            for w, idx in adj[v]:
                if seen[w] != start:
                    seen[w], via[w] = start, idx
                    queue.append(w)
                    if got := room[w]:
                        take = min(need, got)
                        room[w] = got - take
                        taken.append((w, take))
                        need -= take
                        if not need:
                            break
            if not need:
                break
        for sink, take in taken:
            v = sink
            while (idx := via[v]) >= 0:
                a, b, _c = edges[idx]
                v = a if b == v else b
                load[idx] = load.get(idx, 0) + take
            rows += (start, sink, take)
    return np.array(rows, dtype=np.intp).reshape(-1, 3), load


def matching_player_step(game: "CutMatchingGame", left: Iterable[int] | np.ndarray,
                         right: Iterable[int] | np.ndarray
                         ) -> tuple[frozenset[int], np.ndarray]:
    """Answer a bisection of the game's active units: delete a sparse fair-cut
    side, match the rest.

    ``left`` and ``right`` hold distinct units, such as the sorted arrays
    ``sweep_cut`` returns.  Returns the dropped units and the matching, a
    (p, 2) array of (proposal, response) unit rows sorted by proposal unit:
    at each vertex its r-th proposal unit pairs with its r-th response unit,
    and the rest route along integral paths, each taking the next units by
    offset at its two ends.  A round whose fair cut the cut bound proves
    empty (``flow._fair_cut_is_empty``) skips that max flow and routes by
    ``_route_certified``, an edge's load being the summed weight of the
    paths over it.  Any other round routes along the exact matching flow's
    path decomposition, an edge's load being its |net flow|.  Failure to
    match all survivors would contradict the fair cut and raises an internal
    error.  Routes within the game's vertices not yet deleted, zero-weight
    vertices included, so that every edge leaving a deleted region is
    visible to some fair cut and the deleted set stays sparse against
    full-graph capacities.
    """
    graph, vertex_of, k, n = game.graph, game.vertex_of, game.k, game.graph.n
    lft, rgt = _unit_array(left, k), _unit_array(right, k)
    active, in_left = game.active_mask, np.zeros(k, dtype=bool)
    in_left[lft] = True
    if not (active[lft].all() and active[rgt].all()) or in_left[rgt].any():
        raise ArgumentError("proposal sides must be disjoint subsets of the active units")
    alive = game.vertices - game.deleted if game.deleted else game.vertices

    cap = game.cap_multiplier
    # the instance with targets count / MATCH_FAIRNESS and capacities times cap,
    # times the fairness's numerator: integral, with the same minimal min cut
    up, down = MATCH_FAIRNESS.numerator, MATCH_FAIRNESS.denominator
    n_left = np.bincount(vertex_of[lft], minlength=n)
    n_right = np.bincount(vertex_of[rgt], minlength=n)
    net = up * n_left - down * n_right

    # skip the fair cut's max flow when a cut bound proves its cut empty (alive
    # is game.vertices itself until a deletion, graph._all_vertices on a whole graph)
    # net supply S = sum (net)+, and net demand S - sum net = sum (-net)+
    supply = int(np.maximum(net, 0).sum())
    certified = _fair_cut_is_empty(graph, supply, supply - int(net.sum()), alive,
                                   up * cap)
    if certified:
        cut_side = frozenset()
    else:
        cut_side = fair_cut(graph, _nonzero_counts(up * n_left),
                            _nonzero_counts(down * n_right), within=alive,
                            cap_scale=up * cap).cut
    game.deleted |= cut_side
    # an empty cut leaves the fair cut's own vertex set to route within
    dropped, survivors = frozenset(), alive
    if cut_side:
        in_cut = np.zeros(n, dtype=bool)
        in_cut[list(cut_side)] = True
        dropped = frozenset((active & in_cut[vertex_of]).nonzero()[0].tolist())
        survivors = alive - cut_side
        lft, rgt = lft[~in_cut[vertex_of[lft]]], rgt[~in_cut[vertex_of[rgt]]]
        n_left[in_cut] = n_right[in_cut] = 0

    # min(L, R) units pair locally at each vertex; the routed paths take the
    # units left over
    local = np.minimum(n_left, n_right)
    verts = local.nonzero()[0]
    spare_left, spare_right = n_left - local, n_right - local
    rows = np.empty((0, 3), dtype=np.intp)  # (start, end, weight) of each path
    round_load: dict[int, int] = {}  # signed edge flow, or summed path weights
    if spare_left.any():
        if certified:
            # no capacity binds in a certified round: the nearest sinks will do
            rows, round_load = _route_certified(graph, spare_left, spare_right)
        else:
            solved = _run_max_flow(graph, _nonzero_counts(spare_left),
                                   _nonzero_counts(spare_right), within=survivors,
                                   cap_scale=2 * cap)
            if not solved.saturated:
                raise InternalError("matching flow failed to saturate all sources; "
                                    "the fair cut contract was violated")
            # the paths put at most an edge's flow on it, exactly that when
            # the flow has no circulation: the flow is the round's load bound
            round_load = solved.edge_flow()
            rows = np.array([(p.start, p.end, p.weight)
                             for p in path_decomposition(graph, round_load)],
                            dtype=np.intp).reshape(-1, 3)
    # (start, end, weight) rows, the local pairs first
    paired = len(verts)
    ends = np.empty((paired + len(rows), 3), dtype=np.intp)
    ends[:paired, :2] = verts[:, None]
    ends[:paired, 2] = local[verts]
    ends[paired:] = rows
    src, dst = ends[:, :2].repeat(ends[:, 2], axis=0).T
    dst_rank = _ranks(dst)
    if (np.bincount(src, minlength=n) > n_left).any() or (dst_rank >= n_right[dst]).any():
        raise InternalError("a flow path carries more than its end units")
    if len(src) < len(lft):
        raise InternalError("not every surviving proposal unit was matched")
    routed = len(round_load)
    eidx = np.fromiter(round_load, dtype=np.intp, count=routed)
    load = np.abs(np.fromiter(round_load.values(), dtype=np.int64, count=routed))
    # loads stay below 2^53, so the check on float capacities is exact: a
    # product that rounds is at least 2^53
    capacity = graph._capacities[eidx]
    if (load > 2 * cap * capacity).any():
        raise InternalError("per-round embedding load too high")
    total = game.load[eidx] + load
    game.load[eidx] = total
    # loads only grow, so the largest ratio over the routed edges updates
    # the maximum exactly
    game.max_load_ratio = float((total / capacity).max(initial=game.max_load_ratio))
    # a sorted unit array holds the n(v) units at v from offset first(v) on,
    # and the r-th row unit at v is the one at first(v) + r; each vertex
    # starts exactly n_left(v) row units, so the row units in stable order of
    # their starts run through lft unit by unit
    first = n_right.cumsum() - n_right
    pairs = np.empty((len(lft), 2), dtype=np.intp)
    pairs[:, 0] = lft
    pairs[:, 1] = rgt[first[dst] + dst_rank][src.argsort(kind="stable")]
    return dropped, pairs


# ---------------------------------------------------------------------------
# the expansion certificate
# ---------------------------------------------------------------------------


def _rump_shift(size: int, trace: int) -> int:
    """The integer shift c that makes a completed floating-point Cholesky of
    A - cI prove A positive definite (Rump, "Verification of positive
    definiteness", BIT 2006), for a symmetric ``size`` x ``size`` matrix A of
    integers below 2^53 with a non-negative diagonal and this trace.

    A Cholesky that runs to completion on the n x n matrix B, in any order of
    summation, gives R^T R = B + E with |E| <= d d^T, d_i^2 = gamma b_ii /
    (1 - gamma) for gamma = gamma_{n+1} = (n+1)u / (1 - (n+1)u), u = 2^-53,
    plus an underflow term of order n eta (n + max b_ii), eta = 2^-1074.  So
    ||E|| < c once c exceeds gamma / (1 - gamma) * tr(A) = (n+1) tr(A) /
    (2^53 - 2(n+1)) by that term, and A - cI + E = R^T R >= 0 leaves A >=
    (c - ||E||) I > 0.  c = floor((n+1) tr(A) / (2^53 - 2(n+1))) + 1
    exceeds that fraction, whose denominator is below 2^53, by at least
    2^-53, far more than the underflow term; and an integer c keeps A - cI
    exact in floats.
    """
    return (size + 1) * trace // ((1 << 53) - 2 * (size + 1)) + 1


def _proves_positive_definite(matrix: np.ndarray, trace: int) -> bool:
    """Whether a shifted floating-point Cholesky proves the symmetric
    ``matrix``, a float array of integers below 2^53 with a positive diagonal
    summing to ``trace``, positive definite.

    True is a proof (``_rump_shift``); False proves nothing either way.  The
    matrix is first scaled by the largest power of two that keeps every
    entry below 2^53, which is exact, so that rounding the shift up to an
    integer costs nothing; it is scaled and shifted in place, and so spent.
    """
    size = len(matrix)
    top = int(max(matrix.max(), -matrix.min()))
    factor = 1 << max(53 - top.bit_length(), 0)
    if factor > 1:
        matrix *= float(factor)
    # a strided view of the diagonal, shifted in place
    matrix.reshape(-1)[::size + 1] -= _rump_shift(size, trace * factor)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _expansion_matrix(pi: np.ndarray, degree: np.ndarray, keys: np.ndarray, a: int,
                      b: int) -> tuple[np.ndarray, int] | None:
    """b P K as a float array of exact integers and its trace, for mu = a/b,
    P = sum pi and K = L_W - mu diag(pi) + ((mu + 1)/P) pi pi^T; None when an
    entry could reach 2^53, or when a diagonal entry is not positive, which
    rules a positive definite K out.

    ``pi`` holds positive integer weights, ``degree`` the int64 degrees of
    the contracted matchings W, and ``keys`` W's matched pairs, one key
    row * len(pi) + column for each orientation of each pair, repeated by
    its count.  Both tests read only ``degree``, before any n x n array
    exists; the matrix is then one ``np.outer``, with b P taken off in place
    at each key.  Every product and sum is an integer below the bound, so
    the entries are exact in any order of summation.
    """
    total, top = int(pi.sum()), int(pi.max())
    scale = b * total
    if scale * int(degree.max(initial=0)) + a * total * top + (a + b) * top * top >= 1 << 53:
        return None
    diagonal = scale * degree - (a * total) * pi + (a + b) * pi * pi
    if not diagonal.min() > 0:
        return None
    size = len(pi)
    weights = pi.astype(float)
    matrix = np.outer(weights, weights * (a + b))
    # b P off each entry once per key, in place; a strided view of the diagonal
    flat = matrix.reshape(-1)
    np.subtract.at(flat, keys, float(scale))
    flat[::size + 1] = diagonal
    return matrix, sum(diagonal.tolist())


def _screen_start(size: int) -> np.ndarray:
    """The screen's fixed start vector: unit-norm Gaussian from a
    constant-seeded stream, so the game's own random stream is untouched."""
    start = np.random.Generator(np.random.Philox(0)).standard_normal(size)
    return start / math.sqrt(start @ start)


def _screen(pi: np.ndarray, links: tuple[np.ndarray, np.ndarray, np.ndarray],
            start: np.ndarray) -> tuple[float, np.ndarray]:
    """A Lanczos estimate of lambda_2 of D^-1/2 L_W D^-1/2, D = diag(pi): the
    smallest Ritz value after at most SCREEN_STEPS steps from ``start``,
    never below the true value up to rounding, and its Ritz vector.  Costs
    one pass over the links a step, and no n x n matrix."""
    heads, tails, counts = links
    n = len(pi)
    root = np.sqrt(pi.astype(float))
    inv = 1.0 / root
    degree = np.bincount(heads, counts, n) + np.bincount(tails, counts, n)
    steps = min(SCREEN_STEPS, n - 1)
    # row 0 is the kernel vector sqrt(pi), the rest the Lanczos vectors
    basis = np.empty((steps + 1, n))
    basis[0] = root / math.sqrt(pi.sum())
    alpha, beta = np.zeros(steps), np.zeros(steps)
    vec = start - basis[0] * (basis[0] @ start)
    size = 0
    for j in range(steps):
        norm = math.sqrt(vec @ vec)
        # an invariant subspace ends the iteration early
        if not norm > 1e-10 * max(abs(alpha[:j]).max(initial=0.0), 1e-300):
            break
        basis[j + 1] = vec / norm
        if j:
            beta[j - 1] = norm
        x = basis[j + 1] * inv
        out = degree * x
        out -= np.bincount(heads, counts * x[tails], n)
        out -= np.bincount(tails, counts * x[heads], n)
        out *= inv
        alpha[j] = basis[j + 1] @ out
        # full re-orthogonalisation, twice, against the kernel vector too
        for _ in range(2):
            out -= basis[:j + 2].T @ (basis[:j + 2] @ out)
        vec, size = out, j + 1
    if not size:
        return 0.0, start
    tri = np.diag(alpha[:size]) + np.diag(beta[:size - 1], 1) + np.diag(beta[:size - 1], -1)
    values, vectors = np.linalg.eigh(tri)
    return float(values[0]), vectors[:, 0] @ basis[1:size + 1]


# ---------------------------------------------------------------------------
# the game and the sparse cut oracle
# ---------------------------------------------------------------------------


@dataclass
class RoundRecord:
    round: int
    active: int
    deleted: int
    matched: int
    max_load_ratio: float
    potential: float


class CutMatchingGame:
    """State and driver for one run of the cut-matching game on a graph.

    ``within`` restricts the instance to the subgraph induced on ``vertices``
    (``flow._vertex_set``: ``graph._all_vertices`` on the whole graph).  The
    game plays on k = pi(V) weight units; ``vertex_of``, a read-only array,
    maps each unit to its vertex, each vertex's units contiguous in vertex order.
    Each round records the cut player's projection estimate of the potential,
    and ``_evaluate_stop`` sets ``stopped`` to the first reason that holds:
    "balance" once fewer than ``balance_floor`` = (1 - beta*) * k units stay
    active; with ``early_stop`` only, "certified" once ``_certified`` proves
    the game's weighted vertices (phi/q*)-expanding, q* = ceil_log2(k), or
    "potential" once three consecutive estimates are at most
    ``potential_floor``; and "budget" after ``budget`` = ROUND_COEFF *
    ceil_log2(k)^2 rounds.  The matching player's fair cuts are at
    MATCH_FAIRNESS.

    State: ``matchings`` holds each round's (p, 2) array of (proposal,
    response) unit pairs and ``perms`` their walk permutations; ``deleted``
    holds the vertices the matching player cut off, ``load`` its routed load
    per edge index as an int64 array, and ``max_load_ratio`` the largest
    load over capacity (a capacity of 2^53 or more is rounded to a float
    first).  Fair cuts scale capacities by ``cap_multiplier`` =
    ceil(c * MATCH_FAIRNESS) for c = ``congestion_factor`` = ceil(10/phi).
    """

    def __init__(self, graph: Graph, pi: Mapping[int, int], phi: Fraction, rng,
                 early_stop: bool = True, within: Iterable[int] | None = None):
        phi = Fraction(phi)
        if not 0 < phi < 1:
            raise ArgumentError("phi must lie strictly between 0 and 1")
        self.graph = graph
        n = graph.n
        # a within vertex outside the graph is named here, not at the first step
        self.vertices = _vertex_set(graph, within)
        for v, w in pi.items():
            if not 0 <= v < n:
                raise ArgumentError(f"weight at vertex {v}: not a vertex of the graph "
                                    f"(0..{n - 1})")
            if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                raise ArgumentError(f"weight at vertex {v} is {w!r}, not a non-negative int")
        self.pi = VertexWeights({v: w for v, w in pi.items() if w > 0 and v in self.vertices})
        k = self.pi.total()
        if k < 2:
            raise ArgumentError("the game needs total weight at least 2")
        self.k = k
        self.phi = phi
        support = sorted(self.pi)
        self.vertex_of = np.repeat(np.array(support, dtype=np.intp),
                                   [self.pi[v] for v in support])
        self.vertex_of.flags.writeable = False
        self.slowdown = slowdown_for(k)
        self.budget = ROUND_COEFF * ceil_log2(k) ** 2
        self.balance_floor = (1 - oracle_params(k)[1]) * k
        self.rng = rng
        self.congestion_factor = math.ceil(Fraction(10) / phi)
        self.deleted: set[int] = set()
        self.load = np.zeros(graph.m, dtype=np.int64)
        self.max_load_ratio = 0.0
        self.active_mask = np.ones(k, dtype=bool)
        self.matchings: list[np.ndarray] = []
        self.perms: list[np.ndarray] = []
        self.records: list[RoundRecord] = []
        self.stopped: str | None = None
        self.early_stop = early_stop
        self.potential_floor = 1.0 / k ** 3
        self.last_projection_energy: float | None = None
        self._quiet_rounds = 0
        # the certificate's state: pi on the weighted vertices, each unit's
        # position among them, the contracted matchings as ``_fold`` keeps
        # them and how many rounds they hold, and the screen's Ritz vector
        self.expansion_target = phi / oracle_params(k)[0]
        self._weights = np.array([self.pi[v] for v in support], dtype=np.int64)
        self._slot = np.repeat(np.arange(len(support)), self._weights)
        self._keys = np.empty(0, dtype=np.int64)
        self._degree = np.zeros(len(support), dtype=np.int64)
        self._folded = 0
        self._ritz: np.ndarray | None = None

    # -- state views -------------------------------------------------------

    @property
    def cap_multiplier(self) -> int:
        """ceil(congestion_factor * MATCH_FAIRNESS), in integers."""
        up, down = MATCH_FAIRNESS.numerator, MATCH_FAIRNESS.denominator
        return -(-self.congestion_factor * up // down)

    @property
    def round(self) -> int:
        return len(self.matchings)

    def active_count(self) -> int:
        return int(self.active_mask.sum())

    def current_potential(self) -> float | None:
        """k times the last projection energy; None before the first round."""
        if self.last_projection_energy is None:
            return None
        return self.k * self.last_projection_energy

    # -- play ----------------------------------------------------------------

    def step(self) -> RoundRecord:
        if self.stopped is not None:
            raise InternalError("game already stopped")
        left, right = cut_player_step(self)
        dropped, pairs = matching_player_step(self, left, right)
        if dropped:
            self.active_mask[list(dropped)] = False
        self.matchings.append(pairs)
        # the pairs are disjoint, so each unit is written at most once
        perm = np.arange(self.k)
        perm[pairs[:, 0]] = pairs[:, 1]
        perm[pairs[:, 1]] = pairs[:, 0]
        self.perms.append(perm)

        rec = RoundRecord(self.round, self.active_count(), len(dropped),
                          len(pairs), self.max_load_ratio,
                          self.current_potential())
        self.records.append(rec)
        self._evaluate_stop(rec)
        return rec

    def _evaluate_stop(self, rec: RoundRecord):
        """The game's one stopping rule: balance, then certified, then
        potential, then budget."""
        if rec.active < self.balance_floor or rec.active < 2:
            self.stopped = "balance"
            return
        if self.early_stop:
            # one projection is noisy; require three consecutive quiet rounds
            if rec.potential <= self.potential_floor:
                self._quiet_rounds += 1
            else:
                self._quiet_rounds = 0
            if self._certified():
                self.stopped = "certified"
                return
            if self._quiet_rounds >= 3:
                self.stopped = "potential"
                return
        if self.round >= self.budget:
            self.stopped = "budget"

    def _certified(self) -> bool:
        """Whether the matchings so far prove every S within the game's
        vertices to have cap(boundary of S) >= (phi/q*) * min(pi(S), pi(C - S)),
        C the weighted vertices.

        Let w(u, v) count the matched unit pairs, over all rounds, whose ends
        lie at the distinct vertices u and v of C, L_W its Laplacian, P =
        pi(C), rho = max load(e)/cap(e) and mu = 2 rho phi/q*.  If
        K = L_W - mu diag(pi) + ((mu + 1)/P) pi pi^T is positive definite, the
        claim holds.  Scaled by diag(pi)^-1/2 on both sides, K has eigenvalue
        1 on sqrt(pi) and is N - mu I on its complement, N the normalised
        Laplacian, so lambda_2(N) > mu.  For S's indicator x, splitting off
        its pi-mean gives x^T L_W x > mu pi(S) pi(C - S)/P >= (mu/2)
        min(pi(S), pi(C - S)).  Each pair that crosses S was routed along a
        path of the game (a game that deleted nothing routes every pair
        within its vertices), and that path put at least one unit of
        ``load`` on the boundary of S, so at most rho cap(boundary of S)
        pairs cross it.

        Exact: mu = a/b comes from the integer loads and capacities, K is
        scaled to integers, and a shifted Cholesky proves it positive
        definite (``_proves_positive_definite``); floats only choose when to
        try.  Tries start at round ceil_log2(k), only for a game that has
        deleted nothing and has at most CERTIFY_VERTEX_CAP weighted vertices.
        A try folds in the rounds played since the last one (``_fold``), then
        checks in this order, each check able to end it: above
        SCREEN_VERTICES a Lanczos screen on the deduplicated W (``_screen``)
        must put lambda_2(N) above mu; the entry bound and the diagonal are
        read from W's degrees (``_expansion_matrix``); and only then is the
        n x n matrix built and factored.  A try that ends before the matrix
        costs O(n + m) plus the new rounds' pairs, and a screened one also
        sorts one key per pair so far; one that factors adds a few passes
        over the n x n matrix to its factorisation.
        """
        size = len(self._weights)
        if self.deleted or self.round < ceil_log2(self.k) or size > CERTIFY_VERTEX_CAP:
            return False
        self._fold()
        mu = 2 * self._load_ratio() * self.expansion_target
        a, b = mu.numerator, mu.denominator
        if size > SCREEN_VERTICES:
            # each pair's smaller key is u * n + v with u < v
            keys, counts = np.unique(np.minimum(self._keys[0::2], self._keys[1::2]),
                                     return_counts=True)
            heads, tails = np.divmod(keys, size)
            start = _screen_start(size)
            if self._ritz is not None:
                start = start + self._ritz
            estimate, self._ritz = _screen(self._weights, (heads, tails, counts), start)
            if not estimate > mu:
                return False
        built = _expansion_matrix(self._weights, self._degree, self._keys, a, b)
        return built is not None and _proves_positive_definite(*built)

    def _fold(self) -> None:
        """Fold the rounds played since the last call into the contracted
        matchings W: each pair whose ends lie at distinct positions u != v
        among the weighted vertices adds the keys u * n + v and v * n + u to
        ``_keys`` and one to ``_degree`` at u and at v."""
        fresh = self.matchings[self._folded:]
        self._folded = len(self.matchings)
        if fresh:
            size = len(self._weights)
            ends = self._slot[np.concatenate(fresh)]
            ends = ends[ends[:, 0] != ends[:, 1]]
            self._degree += np.bincount(ends.reshape(-1), minlength=size)
            # each row (u, v) times [[n, 1], [1, n]] is (u * n + v, v * n + u)
            orient = np.array([[size, 1], [1, size]])
            self._keys = np.concatenate([self._keys, (ends @ orient).reshape(-1)])

    def _load_ratio(self) -> Fraction:
        """max load(e)/cap(e) over the edges, exactly, by cross multiplication
        of the integer loads and capacities; the float ratios only pick the
        candidates."""
        ratio = self.load / self.graph._capacities
        top = ratio.max(initial=0.0)
        if not top:
            return Fraction(0)
        near = (ratio >= top * (1 - 2.0 ** -50)).nonzero()[0]
        loads, edges = self.load[near].tolist(), self.graph.edges
        best = 0, 1
        for e, load in zip(near.tolist(), loads):
            capacity = edges[e][2]
            if load * best[1] > best[0] * capacity:
                best = load, capacity
        return Fraction(*best)

    def run(self) -> frozenset[int]:
        while self.stopped is None:
            self.step()
        inactive = frozenset(self.deleted)
        complement = self.vertices - inactive
        if self.pi.total(inactive) <= self.pi.total(complement):
            return inactive
        return complement


def sparsest_cut_apx(graph: Graph, pi: Mapping[int, int], phi, rng,
                     within: Iterable[int] | None = None) -> frozenset[int]:
    """Approximate sparsest cut oracle for integral vertex weights.

    Returns the lighter side R of the inactive set after the game: R is
    phi-sparse with respect to pi, and when R is very imbalanced the rest of
    the graph is (phi / q*)-expanding with high probability.  A game that
    stops "certified" returns R empty and has proved the whole of its
    vertices (phi / q*)-expanding with certainty.
    """
    return CutMatchingGame(graph, pi, phi, rng, within=within).run()

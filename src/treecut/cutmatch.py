"""Vertex-weighted non-stop cut-matching game and the sparse cut oracle on top of it.

The game runs on integral weight units rather than vertices: each vertex
contributes pi(v) units, ``game.vertex_of`` maps each unit to its vertex, and
the cut player never sees the graph.  Per round the cut player proposes a
bisection of the active units from a slowed random walk over past matchings
plus a sweep cut; the matching player answers with a fair cut, deleting a
sparse vertex set and matching the surviving proposal across integral flow
paths whose congestion it tracks.  Both players take the game itself,
``cut_player_step(game)`` and ``matching_player_step(game, left, right)``,
and update its state there: ``matchings`` and ``perms``, ``active_mask``,
and the matching player's ``deleted``, ``edge_load`` and ``max_load_ratio``.

The matching player solves its fair cut only when a cut bound cannot prove
it empty (``flow._fair_cut_is_empty``).  With net supply S = sum of
(3L(v) - 2R(v))+ and net demand D = sum of (2R(v) - 3L(v))+ over the alive
vertices, for L(v) and R(v) a vertex's proposal and response units, the cut
is empty when G[alive] is connected, S <= D and S <= 3 * cap_multiplier.
The bound is taken only when alive is every vertex of a connected graph,
as in a root game that has deleted nothing; other games solve every cut.
Corollary: the sweep cut proposes at most ceil(a/8) of the a active units
and answers with ceil(a/2), so S <= D once a >= 3, and S <= 3 * ceil(a/8).
A game on a connected alive set therefore deletes nothing while
3 <= a <= 8 * cap_multiplier.  At the root oracle's phi/20 = 1/80 the
congestion factor is 800 and the cap multiplier 1200, so a root game on a
connected graph deletes nothing while at most 9600 units are active.

A round's per-unit work is numpy array work on sorted unit-index arrays: the
walk, the sweep cut's ordering and far filter, and the matching player's
per-vertex counts and grouping.  Python loops run once per vertex, flow path
or routed edge.  A vertex's units are contiguous, so a sorted unit array is
also grouped by vertex.
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
    Each mixing pass computes ``(1 - 1/s) * y + (1/s) * y[perm]`` for the
    slowdown s as ``((s - 1) * y + y[perm]) * (1/s)``, three array operations
    where the first form takes four at s = 2.  For a power of two s, as
    ``slowdown_for`` returns, both give the same bits, since scaling by a
    power of two is exact away from subnormals.  At s = 2 the ``(s - 1) * y``
    factor is the identity and is skipped.
    """
    y = vec.astype(float, copy=True)
    count = int(mask.sum())
    share = 1.0 / slowdown
    lag = float(slowdown - 1)
    passes = [*reversed(perms), *perms]
    for _ in range(slowdown):
        y[~mask] = 0.0
        y[mask] -= y[mask].sum(axis=0) / count
        for perm in passes:
            moved = y[perm]
            if lag != 1.0:
                y *= lag
            y += moved
            y *= share
        y[~mask] = 0.0
        y[mask] -= y[mask].sum(axis=0) / count
    return y


def _unit_array(units) -> np.ndarray:
    """Unit indices as a sorted int array."""
    if not isinstance(units, np.ndarray):
        units = np.fromiter(units, dtype=np.intp)
    return np.sort(units.astype(np.intp, copy=False))


def sweep_cut(active: Iterable[int] | np.ndarray, values: np.ndarray
              ) -> tuple[frozenset[int], frozenset[int], float]:
    """Split the active units around a separation level of the walk values.

    Returns (proposal side, response side, separation level).  The proposal
    side is small (at most ceil(a/8) units), far from the level, and carries
    at least 1/80 of the active mass; the response side holds at least half
    the units.  Both orientations are tried; failure of both is a bug.
    Units are ordered by (value, unit index); all per-unit work is array work.
    """
    act = _unit_array(active)
    a = len(act)
    if a < 2:
        raise ArgumentError("sweep cut needs at least two active units")
    vals = np.asarray(values, dtype=float)[act]
    # act is sorted, so a stable sort breaks value ties by unit index
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    median = svals[(a - 1) // 2]
    mass_low = float((svals[svals < median] ** 2).sum())
    mass_high = float((svals[svals > median] ** 2).sum())

    first = "low" if mass_low >= mass_high else "high"
    for side in (first, "high" if first == "low" else "low"):
        res = _sweep_orientation(act, vals, order, svals, a, side)
        if res is not None:
            return res
    raise InternalError("sweep cut failed in both orientations")


def _sweep_orientation(act, vals, order, svals, a, side):
    half = -(-a // 2)       # ceil(a/2) response units
    cap_small = -(-a // 8)  # ceil(a/8) proposal units
    if side == "low":
        pool_pos, resp_pos = order[: a - half], order[a - half:]
        level = float(svals[a - half])
    else:
        pool_pos, resp_pos = order[half:], order[:half]
        level = float(svals[half - 1])
    pool = vals[pool_pos]
    gap = pool - level
    is_far = gap * gap >= pool * pool / 9.0
    far = pool_pos[is_far]
    # farthest from the level first, ties by unit index
    top = far[np.lexsort((act[far], -np.abs(gap[is_far])))[:cap_small]]

    total = float((svals ** 2).sum())
    picked = sum(x ** 2 for x in vals[top].tolist())
    if picked + 1e-12 * max(total, 1.0) < total / 80.0:
        return None
    return frozenset(act[top].tolist()), frozenset(act[resp_pos].tolist()), level


def cut_player_step(game: "CutMatchingGame") -> tuple[frozenset[int], frozenset[int]]:
    """One cut-player move: project a random direction through the walk, sweep."""
    mask = game.active_mask
    count = int(mask.sum())
    if count < 2:
        raise ArgumentError("cut player needs at least two active units")
    r = game.rng.standard_normal(game.k)
    r /= np.linalg.norm(r)
    u = _apply_walk(r, game.perms, mask, game.slowdown)
    drift = abs(float(u.sum()))
    # rounding scale: the walk contracts a unit vector, so absolute float noise
    # is relative to 1/sqrt(k) even when the output itself underflows
    scale = max(float(np.abs(u).max()), game.k ** -0.5)
    if drift > 1e-9 * game.k * scale:
        raise InternalError("walk output lost orthogonality to the constant vector")
    # k * ||u||^2 is an unbiased estimate of the potential; it is the game's
    # only convergence signal
    game.last_projection_energy = float(u @ u)
    left, right, _level = sweep_cut(np.flatnonzero(mask), u)
    return left, right


# ---------------------------------------------------------------------------
# matching player
# ---------------------------------------------------------------------------


def _units_by_vertex(vertex_of: np.ndarray, units: np.ndarray) -> dict[int, list[int]]:
    """Group a sorted unit array by vertex; each vertex's units are contiguous."""
    verts = vertex_of[units]
    starts = np.flatnonzero(np.diff(verts, prepend=-1))
    flat = units.tolist()
    bounds = starts.tolist() + [len(flat)]
    return {v: flat[i:j] for v, i, j in zip(verts[starts].tolist(), bounds, bounds[1:])}


def _counts_by_vertex(vertex_of: np.ndarray, units: np.ndarray) -> dict[int, int]:
    counts = np.bincount(vertex_of[units])
    verts = np.flatnonzero(counts)
    return dict(zip(verts.tolist(), counts[verts].tolist()))


def matching_player_step(game: "CutMatchingGame", left: frozenset[int],
                         right: frozenset[int]
                         ) -> tuple[frozenset[int], tuple[tuple[int, int], ...]]:
    """Answer a bisection of the game's active units: delete a sparse fair-cut
    side, match the rest.

    Returns the dropped units and the round's matching, a sorted tuple of
    (proposal unit, response unit) pairs.  Matches every surviving proposal
    unit to a distinct response unit, pairing locally at shared vertices
    first and routing the remainder along integral flow paths.  Failure to
    match all survivors would contradict the fair cut and raises an internal
    error.

    Routes within the game's vertices not yet deleted, zero-weight vertices
    included.  That keeps the deleted set sparse against full-graph
    capacities, since every edge leaving a deleted region is then visible to
    some fair cut.
    """
    graph, vertex_of, k = game.graph, game.vertex_of, game.k
    lft, rgt = _unit_array(left), _unit_array(right)
    for x in (lft, rgt):
        if len(x) and not 0 <= x[0] <= x[-1] < k:
            raise ArgumentError("units must lie in 0..k-1")
    active = game.active_mask
    in_left = np.zeros(k, dtype=bool)
    in_left[lft] = True
    if not (active[lft].all() and active[rgt].all()) or in_left[rgt].any():
        raise ArgumentError("proposal sides must be disjoint subsets of the active units")
    alive = game.vertices - game.deleted

    cap = game.cap_multiplier
    # source weight count, target weight count / MATCH_FAIRNESS, capacities
    # times cap, all scaled by the fairness's numerator to integers: a
    # multiple of one instance has the same minimal minimum cut, so the same
    # fair cut, without a Fraction per vertex
    up, down = MATCH_FAIRNESS.numerator, MATCH_FAIRNESS.denominator
    s_weights = {v: up * count for v, count in _counts_by_vertex(vertex_of, lft).items()}
    t_weights = {v: down * count for v, count in _counts_by_vertex(vertex_of, rgt).items()}

    # the fair cut's only use here is its cut; skip the max flow when a cut
    # bound already proves that cut empty.  alive lies in the checked
    # game.vertices, so at full size it is every vertex and goes on as
    # range(n), which the flow code takes without a pass
    within = range(graph.n) if len(alive) == graph.n else alive
    if _fair_cut_is_empty(graph, s_weights, t_weights, within, up * cap):
        cut_side = frozenset()
    else:
        cut_side = fair_cut(graph, s_weights, t_weights, within=within,
                            cap_scale=up * cap).cut
    game.deleted |= cut_side
    in_cut = np.zeros(graph.n, dtype=bool)
    in_cut[list(cut_side)] = True
    dropped = frozenset(np.flatnonzero(active & in_cut[vertex_of]).tolist())

    # an empty cut leaves the fair cut's own vertex set to route within
    survivors = alive - cut_side if cut_side else within
    left_at = _units_by_vertex(vertex_of, lft[~in_cut[vertex_of[lft]]])
    right_at = _units_by_vertex(vertex_of, rgt[~in_cut[vertex_of[rgt]]])

    # pair locally first, then route the leftovers; every list is consumed
    # from its front, smallest unit first
    pairs: list[tuple[int, int]] = []
    for v, mine in left_at.items():
        theirs = right_at.get(v)
        if theirs:
            m = min(len(mine), len(theirs))
            pairs.extend(zip(mine[:m], theirs[:m]))
            del mine[:m], theirs[:m]

    leftover_s = {v: len(us) for v, us in left_at.items() if us}
    round_load: dict[int, int] = {}
    if leftover_s:
        leftover_r = {v: len(us) for v, us in right_at.items() if us}
        solved = _run_max_flow(graph, leftover_s, leftover_r, within=survivors,
                               cap_scale=2 * cap)
        if not solved.saturated:
            raise InternalError("matching flow failed to saturate all sources; "
                                "the fair cut contract was violated")
        # the paths put at most an edge's flow on it, exactly that when the
        # flow has no circulation: the flow is the round's load bound
        round_load = {eidx: abs(num) for eidx, num in solved.flow.nums.items()}
        decomp = path_decomposition(graph, solved.flow)
        for path in decomp.paths:
            mine, theirs, w = left_at[path.start], right_at[path.end], path.weight
            if len(mine) < w or len(theirs) < w:
                raise InternalError("a flow path carries more than its end units")
            pairs.extend(zip(mine[:w], theirs[:w]))
            del mine[:w], theirs[:w]

    if any(us for us in left_at.values()):
        raise InternalError("not every surviving proposal unit was matched")
    for eidx, load in round_load.items():
        capacity = graph.edges[eidx][2]
        if load > 2 * cap * capacity:
            raise InternalError("per-round embedding load too high")
        total = game.edge_load.get(eidx, 0) + load
        game.edge_load[eidx] = total
        game.max_load_ratio = max(game.max_load_ratio, total / capacity)
    return dropped, tuple(sorted(pairs))


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

    ``within`` restricts the instance to an induced subgraph.  The game plays
    on k = pi(V) weight units; ``vertex_of``, a read-only array, maps each
    unit to its vertex, with each vertex's units contiguous in vertex order.
    Each round records the cut player's projection estimate of the potential,
    and ``_evaluate_stop`` sets ``stopped`` to the first reason that holds:
    "balance" once fewer than ``balance_floor`` = (1 - beta*) * k units stay
    active, "potential" (only with ``early_stop``) once three consecutive
    estimates are at most ``potential_floor``, and "budget" after ``budget``
    = ROUND_COEFF * ceil_log2(k)^2 rounds.  The matching player's fair cuts
    are at MATCH_FAIRNESS.

    State: ``matchings`` holds each round's sorted (proposal, response) unit
    pairs and ``perms`` their walk permutations; ``deleted`` holds the
    vertices the matching player cut off, ``edge_load`` its routed load per
    edge index and ``max_load_ratio`` the largest load over capacity.  Fair
    cuts scale capacities by ``cap_multiplier`` = ceil(c * MATCH_FAIRNESS)
    for the congestion factor c = ``congestion_factor`` = ceil(10/phi).
    """

    def __init__(self, graph: Graph, pi: Mapping[int, int], phi: Fraction, rng,
                 early_stop: bool = True, within: Iterable[int] | None = None):
        phi = Fraction(phi)
        if not 0 < phi < 1:
            raise ArgumentError("phi must lie strictly between 0 and 1")
        self.graph = graph
        n = graph.n
        # a within vertex outside the graph is named here, not at the first step
        self.vertices = frozenset(_vertex_set(n, within))
        for v, w in pi.items():
            if not 0 <= v < n:
                raise ArgumentError(f"weight at vertex {v}: not a vertex of the graph "
                                    f"(0..{n - 1})")
            if not isinstance(w, int) or w < 0:
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
        self.edge_load: dict[int, int] = {}
        # loads only grow, so each round updates the maximum from the edges
        # it routed and it stays exact
        self.max_load_ratio = 0.0
        self.active_mask = np.ones(k, dtype=bool)
        self.matchings: list[tuple[tuple[int, int], ...]] = []
        self.perms: list[np.ndarray] = []
        self.records: list[RoundRecord] = []
        self.stopped: str | None = None
        self.early_stop = early_stop
        self.potential_floor = 1.0 / k ** 3
        self.last_projection_energy: float | None = None
        self._quiet_rounds = 0

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
        ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        perm = np.arange(self.k)
        perm[ends[:, 0]] = ends[:, 1]
        perm[ends[:, 1]] = ends[:, 0]
        self.perms.append(perm)

        rec = RoundRecord(self.round, self.active_count(), len(dropped),
                          len(pairs), self.max_load_ratio,
                          self.current_potential())
        self.records.append(rec)
        self._evaluate_stop(rec)
        return rec

    def _evaluate_stop(self, rec: RoundRecord):
        """The game's one stopping rule: balance, then potential, then budget."""
        if rec.active < self.balance_floor or rec.active < 2:
            self.stopped = "balance"
            return
        if self.early_stop:
            # one projection is noisy; require three consecutive quiet rounds
            if rec.potential <= self.potential_floor:
                self._quiet_rounds += 1
            else:
                self._quiet_rounds = 0
            if self._quiet_rounds >= 3:
                self.stopped = "potential"
                return
        if self.round >= self.budget:
            self.stopped = "budget"

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
    the graph is (phi / q*)-expanding with high probability.
    """
    return CutMatchingGame(graph, pi, phi, rng, within=within).run()

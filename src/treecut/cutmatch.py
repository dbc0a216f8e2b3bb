"""Vertex-weighted non-stop cut-matching game and the sparse cut oracle on top of it.

The game runs on integral weight units rather than vertices: each vertex
contributes pi(v) units, ``game.vertex_of`` maps each unit to its vertex
(each vertex's units contiguous, so a sorted unit array is grouped by
vertex), and the cut player never sees the graph.  Per round
``cut_player_step(game)`` pushes a random vector through the slowed walk over
past matchings, scaling once per block of passes, and sweeps it into two
sorted unit arrays; ``matching_player_step(game, left, right)`` takes them,
deletes a sparse fair-cut side, matches the surviving proposal units locally
and across integral routed paths whose congestion it tracks, and returns the
matching as a pair array sorted by proposal unit, from which ``step`` builds
the walk permutation.  The game holds ``matchings``, ``perms``,
``active_mask``, ``deleted``, the per-edge ``load`` and ``max_load_ratio``.
Per-unit work is numpy array work; Python loops run once per vertex or
routed path.

The fair cut is solved only when a cut bound cannot prove it empty
(``flow._fair_cut_is_empty``): with net supply S = sum of (3L(v) - 2R(v))+
and net demand D = sum of (2R(v) - 3L(v))+, for L(v) and R(v) a vertex's
proposal and response units, it is empty when the alive vertices are every
vertex of a connected graph, S <= D and S <= 3 * cap_multiplier.  The sweep
proposes at most ceil(a/8) of the a active units against ceil(a/2), so a root
game on a connected graph deletes nothing while 3 <= a <= 8 * cap_multiplier,
9600 units at the root oracle's phi/20 = 1/80 (congestion factor 800).

Such a certified round routes without a flow too (``flow._route_certified``):
its leftover supply is at most cap_multiplier, half of any edge's per-round
capacity 2 * cap_multiplier * cap(e), so no capacity can bind and each
leftover proposal unit goes to the nearest response units a BFS reaches.
The cut player wins against any matching that embeds with bounded
congestion (Khandekar-Rao-Vazirani), so the routing may be chosen for speed.
A round's load on an edge is then the plain sum of the weights of the paths
over it, an upper bound on the |net flow| that is exact unless two paths
cross the edge in opposite directions.  Every other round (a game within a
proper subset, any round after a deletion, a supply above the bound) solves
the exact max flow and decomposes it into paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InternalError
from .flow import (_fair_cut_is_empty, _route_certified, _run_max_flow, _vertex_set,
                   fair_cut, path_decomposition)
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
    # every unit active: the centering needs no mask
    active = None if mask.all() else mask
    count = int(mask.sum())
    share = 1.0 / slowdown
    lag = float(slowdown - 1)
    block = WALK_BLOCK_BITS // ceil_log2(slowdown)
    passes = [*reversed(perms), *perms]
    for _ in range(slowdown):
        _center(y, active, count)
        for start in range(0, len(passes), block):
            chunk = passes[start:start + block]
            for perm in chunk:
                moved = y[perm]
                if lag != 1.0:
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

    Units must be integers: a float or bool input is refused by its dtype,
    not truncated or read as a mask.  An input that is already strictly
    increasing is not sorted again and may come back as the same array.
    """
    if not isinstance(units, np.ndarray):
        units = list(units)
        units = np.array(units) if units else np.empty(0, dtype=np.intp)
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
    of the active mass; the response side holds at least half the units.
    Both orientations are tried; failure of both is a bug.  Units are
    ordered by (value, unit index); all per-unit work is array work.
    """
    vals = np.asarray(values, dtype=float)
    act = _unit_array(active, len(vals))
    a = len(act)
    if a < 2:
        raise ArgumentError("sweep cut needs at least two active units")
    vals = vals[act]
    # act is sorted, so a stable sort breaks value ties by unit index
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    squares = svals ** 2
    median = svals[(a - 1) // 2]
    mass_low = float(squares[svals < median].sum())
    mass_high = float(squares[svals > median].sum())
    total = float(squares.sum())

    first = "low" if mass_low >= mass_high else "high"
    for side in (first, "high" if first == "low" else "low"):
        res = _sweep_orientation(act, vals, order, svals, total, a, side)
        if res is not None:
            return res
    raise InternalError("sweep cut failed in both orientations")


def _sweep_orientation(act, vals, order, svals, total, a, side):
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
    # farthest from the level first, ties by unit index; only units at most
    # as far as the cap_small-th farthest can be among the first cap_small
    key = -np.abs(gap[is_far])
    if len(far) > cap_small:
        near = np.flatnonzero(key <= np.partition(key, cap_small - 1)[cap_small - 1])
        far, key = far[near], key[near]
    top = far[np.lexsort((act[far], key))[:cap_small]]

    # the proposal mass: pow(x, 2), which can differ from x * x in the last
    # bit, summed from left to right as a Python sum of floats is
    picked = float(np.cumsum(np.float_power(vals[top], 2))[-1]) if len(top) else 0.0
    if picked + 1e-12 * max(total, 1.0) < total / 80.0:
        return None
    # act is sorted, so sorted positions give sorted units
    return act[np.sort(top)], act[np.sort(resp_pos)], level


def cut_player_step(game: "CutMatchingGame") -> tuple[np.ndarray, np.ndarray]:
    """One cut-player move: project a random direction through the walk,
    sweep; returns the proposal and response sides as sorted unit arrays."""
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


def _nonzero_counts(counts: np.ndarray) -> dict[int, int]:
    """The nonzero entries of a per-vertex count array, as {vertex: count}."""
    verts = np.flatnonzero(counts)
    return dict(zip(verts.tolist(), counts[verts].tolist()))


def _ranks(x: np.ndarray) -> np.ndarray:
    """Each entry's rank among the earlier entries equal to it."""
    order = np.argsort(x, kind="stable")
    rank = np.empty_like(x)
    rank[order] = np.arange(len(x)) - np.searchsorted(x[order], x[order])
    return rank


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
    empty routes each leftover proposal vertex, in ascending order, to the
    nearest leftover response units by BFS (``flow._route_certified``): no
    capacity can bind there, so no max flow is needed, and an edge's load
    is the summed weight of the paths over it.  Any other round routes along
    the exact matching flow's path decomposition, an edge's load being its
    |net flow|.  Failure to match all survivors would
    contradict the fair cut and raises an internal error.  Routes within the
    game's vertices not yet deleted, zero-weight vertices included, so that
    every edge leaving a deleted region is visible to some fair cut and the
    deleted set stays sparse against full-graph capacities.
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

    # skip the fair cut's max flow when a cut bound proves its cut empty; alive
    # lies in the checked game.vertices, so at full size it goes on as range(n)
    within = range(n) if len(alive) == n else alive
    certified = _fair_cut_is_empty(graph, int(net[net > 0].sum()),
                                   int(-net[net < 0].sum()), within, up * cap)
    if certified:
        cut_side = frozenset()
    else:
        cut_side = fair_cut(graph, _nonzero_counts(up * n_left),
                            _nonzero_counts(down * n_right), within=within,
                            cap_scale=up * cap).cut
    game.deleted |= cut_side
    # an empty cut leaves the fair cut's own vertex set to route within
    dropped, survivors = frozenset(), within
    if cut_side:
        in_cut = np.zeros(n, dtype=bool)
        in_cut[list(cut_side)] = True
        dropped = frozenset(np.flatnonzero(active & in_cut[vertex_of]).tolist())
        survivors = alive - cut_side
        lft, rgt = lft[~in_cut[vertex_of[lft]]], rgt[~in_cut[vertex_of[rgt]]]
        n_left[in_cut] = n_right[in_cut] = 0

    # (start, end, weight) rows: first the local pairs at each vertex, then
    # the routed paths, which take the units left over
    local = np.minimum(n_left, n_right)
    verts = np.flatnonzero(local)
    ends = [np.column_stack((verts, verts, local[verts]))]
    leftover_s = _nonzero_counts(n_left - local)
    round_load: dict[int, int] = {}  # signed edge flow, or summed path weights
    if leftover_s:
        leftover_r = _nonzero_counts(n_right - local)
        if certified:
            # no capacity binds in a certified round: the nearest sinks will do
            rows, _walks, round_load = _route_certified(graph, leftover_s, leftover_r)
        else:
            solved = _run_max_flow(graph, leftover_s, leftover_r, within=survivors,
                                   cap_scale=2 * cap)
            if not solved.saturated:
                raise InternalError("matching flow failed to saturate all sources; "
                                    "the fair cut contract was violated")
            # the paths put at most an edge's flow on it, exactly that when
            # the flow has no circulation: the flow is the round's load bound
            round_load = solved.flow.nums
            rows = [(p.start, p.end, p.weight)
                    for p in path_decomposition(graph, solved.flow).paths]
        ends.append(np.array(rows, dtype=np.intp).reshape(-1, 3))
    ends = np.concatenate(ends)
    src, dst = np.repeat(ends[:, :2], ends[:, 2], axis=0).T
    src_rank, dst_rank = _ranks(src), _ranks(dst)
    if (src_rank >= n_left[src]).any() or (dst_rank >= n_right[dst]).any():
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
    # and the r-th row unit at v is the one at first(v) + r
    partner = np.empty_like(lft)
    partner[np.cumsum(n_left)[src] - n_left[src] + src_rank] = \
        rgt[np.cumsum(n_right)[dst] - n_right[dst] + dst_rank]
    return dropped, np.column_stack((lft, partner))


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

    State: ``matchings`` holds each round's (p, 2) array of (proposal,
    response) unit pairs and ``perms`` their walk permutations; ``deleted``
    holds the vertices the matching player cut off, ``load`` its routed load
    per edge index as an int64 array, and ``max_load_ratio`` the largest
    load over capacity (a capacity of 2^53 or more is rounded to a float
    first).  ``edge_load`` is a read-only view of ``load``: each read builds
    a fresh {edge index: load} dict of the edges that carry any, so changing
    it leaves the game unchanged.  Fair cuts scale capacities by
    ``cap_multiplier`` = ceil(c * MATCH_FAIRNESS) for c =
    ``congestion_factor`` = ceil(10/phi).
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

    # -- state views -------------------------------------------------------

    @property
    def cap_multiplier(self) -> int:
        """ceil(congestion_factor * MATCH_FAIRNESS), in integers."""
        up, down = MATCH_FAIRNESS.numerator, MATCH_FAIRNESS.denominator
        return -(-self.congestion_factor * up // down)

    @property
    def edge_load(self) -> dict[int, int]:
        """The routed load per edge index of the edges that carry any: a
        fresh dict built from ``load`` on each read."""
        return _nonzero_counts(self.load)

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

"""Vertex-weighted non-stop cut-matching game and the sparse cut oracle on top of it.

The game runs on integral weight units rather than vertices: each vertex
contributes pi(v) units, and the cut player never sees the graph.  Per round
the cut player proposes a bisection of the active units from a slowed random
walk over past matchings plus a sweep cut; the matching player answers with a
fair cut, deleting a sparse vertex set and matching the surviving proposal
across integral flow paths whose congestion it tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InternalError, OversizeError
from .flow import FlowAssignment, _run_max_flow, fair_cut, path_decomposition
from .graphs import Graph, VertexWeights

#: fairness factor of the matching player's fair cuts
MATCH_FAIRNESS = Fraction(3, 2)

#: size caps for the quadratic/dense diagnostics
POTENTIAL_UNIT_CAP = 512
DENSE_UNIT_CAP = 256

#: a game on k units plays at most ceil(ROUND_COEFF * log2(k)^2) rounds
ROUND_COEFF = 10


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ArgumentError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def slowdown_for(k: int) -> int:
    """Mixing slow-down: the largest power of two meeting the convergence bound."""
    raw = max(2, int(3 * math.log(k) / (2 * math.log(20))))
    return 1 << (raw.bit_length() - 1)


def oracle_params(n: int, pi_total: int) -> tuple[int, Fraction, Fraction]:
    """Quality, balance, and progress parameters of the sparse cut oracle.

    Returns (quality q*, balance floor beta*, progress floor tau*).  The
    balance floor uses the integer ceiling of log2 so that downstream
    threshold comparisons stay exact rationals.
    """
    if pi_total < 2:
        raise ArgumentError("oracle parameters need total weight at least 2")
    log_pi = ceil_log2(pi_total)
    quality = max(log_pi, math.ceil(math.log2(max(n, 2)) / 125))
    balance = Fraction(1, 2 * log_pi)
    progress = min(Fraction(1, 440 * quality), balance)
    return quality, balance, progress


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitMapping:
    """Contiguous unit ranges per vertex, in vertex order."""

    vertex_of: tuple[int, ...]
    first_unit: dict
    counts: dict

    @classmethod
    def from_weights(cls, pi: Mapping[int, int]) -> "UnitMapping":
        vertex_of: list[int] = []
        first: dict[int, int] = {}
        counts: dict[int, int] = {}
        for v in sorted(pi):
            w = int(pi[v])
            if w < 0:
                raise ArgumentError("unit weights must be non-negative")
            if w == 0:
                continue
            first[v] = len(vertex_of)
            counts[v] = w
            vertex_of.extend([v] * w)
        return cls(tuple(vertex_of), first, counts)

    @property
    def k(self) -> int:
        return len(self.vertex_of)

    def vertex(self, unit: int) -> int:
        return self.vertex_of[unit]

    def units_of(self, v: int) -> range:
        start = self.first_unit.get(v)
        if start is None:
            return range(0)
        return range(start, start + self.counts[v])

    def units_of_set(self, vertices: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for v in vertices:
            out.update(self.units_of(v))
        return frozenset(out)


@dataclass(frozen=True)
class Matching:
    """Unit pairs matched in one round; left units appear exactly once."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def permutation(self, k: int) -> np.ndarray:
        perm = np.arange(k)
        for i, j in self.pairs:
            perm[i], perm[j] = j, i
        return perm


# ---------------------------------------------------------------------------
# cut player: walk operators and sweep cut
# ---------------------------------------------------------------------------


def apply_mixing_step(x: np.ndarray, matching: Matching, active: Iterable[int],
                      slowdown: int) -> np.ndarray:
    """One slowed matching mix: matched coordinates exchange a 1/slowdown share."""
    if slowdown < 1:
        raise ArgumentError("slowdown must be at least 1")
    act = set(active)
    if not all(i in act and j in act for i, j in matching.pairs):
        raise ArgumentError("matched pairs must be active units")
    x = np.asarray(x, dtype=float)
    return _mix(x, matching.permutation(len(x)), slowdown)


def _mix(x: np.ndarray, perm: np.ndarray, slowdown: int) -> np.ndarray:
    share = 1.0 / slowdown
    return (1.0 - share) * x + share * x[perm]


def apply_centering(x: np.ndarray, active: Iterable[int] | np.ndarray) -> np.ndarray:
    """Zero inactive coordinates and subtract the active mean."""
    y = np.asarray(x, dtype=float).copy()
    mask = _as_mask(active, len(y))
    if not mask.any():
        raise ArgumentError("active set must be non-empty")
    y[~mask] = 0.0
    y[mask] -= y[mask].mean()
    return y


def _as_mask(active, k: int) -> np.ndarray:
    if isinstance(active, np.ndarray) and active.dtype == bool:
        return active
    mask = np.zeros(k, dtype=bool)
    mask[list(active)] = True
    return mask


def _apply_walk(vec: np.ndarray, perms: Sequence[np.ndarray], mask: np.ndarray,
                slowdown: int) -> np.ndarray:
    """Matrix-free application of the centered, slowed walk operator.

    ``vec`` is one vector of length k or a k x m block of column vectors.
    """
    y = vec.astype(float, copy=True)
    count = int(mask.sum())
    share = 1.0 / slowdown
    keep = 1.0 - share
    for _ in range(slowdown):
        y[~mask] = 0.0
        y[mask] -= y[mask].sum(axis=0) / count
        for perm in reversed(perms):
            y = keep * y + share * y[perm]
        for perm in perms:
            y = keep * y + share * y[perm]
        y[~mask] = 0.0
        y[mask] -= y[mask].sum(axis=0) / count
    return y


def sweep_cut(active: Iterable[int], values: np.ndarray
              ) -> tuple[frozenset[int], frozenset[int], float]:
    """Split the active units around a separation level of the walk values.

    Returns (proposal side, response side, separation level).  The proposal
    side is small (at most ceil(a/8) units), far from the level, and carries
    at least 1/80 of the active mass; the response side holds at least half
    the units.  Both orientations are tried; failure of both is a bug.
    """
    act = [int(i) for i in sorted(active)]
    a = len(act)
    if a < 2:
        raise ArgumentError("sweep cut needs at least two active units")
    vals = np.asarray(values, dtype=float)[act]
    order = sorted(range(a), key=lambda i: (vals[i], act[i]))
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
    far = [p for p in pool_pos if (vals[p] - level) ** 2 >= vals[p] ** 2 / 9.0]
    far.sort(key=lambda p: (-abs(vals[p] - level), act[p]))
    left = frozenset(act[p] for p in far[:cap_small])
    right = frozenset(act[p] for p in resp_pos)

    total = float((svals ** 2).sum())
    picked = sum(float(vals[p]) ** 2 for p in far[:cap_small])
    if picked + 1e-12 * max(total, 1.0) < total / 80.0:
        return None
    return left, right, level


def sweep_cut_violations(active, values, left, right, level) -> list[int]:
    """Check the sweep-cut properties; returns the indices that fail.

    1 separation, 2 side sizes, 3 per-unit distance from the level,
    4 mass captured by the proposal side, 5 disjointness.
    """
    act = [int(i) for i in sorted(active)]
    vals = np.asarray(values, dtype=float)
    a = len(act)
    bad = []
    lv = [float(vals[i]) for i in sorted(left)]
    rv = [float(vals[i]) for i in sorted(right)]
    tol = 1e-9 * max(1.0, float(np.abs(vals[act]).max(initial=0.0)))
    if lv and rv:
        ordered = (max(lv) <= level + tol <= min(rv) + 2 * tol) or \
                  (min(lv) >= level - tol >= max(rv) - 2 * tol)
        if not ordered:
            bad.append(1)
    if not (len(right) >= a / 2 and len(left) <= -(-a // 8)):
        bad.append(2)
    if any((x - level) ** 2 + tol ** 2 < x ** 2 / 9.0 for x in lv):
        bad.append(3)
    total = float((vals[act] ** 2).sum())
    if sum(x * x for x in lv) + 1e-9 * max(total, 1.0) < total / 80.0:
        bad.append(4)
    if set(left) & set(right):
        bad.append(5)
    return bad


def cut_player_step(state: "CutMatchingGame", rng=None
                    ) -> tuple[frozenset[int], frozenset[int]]:
    """One cut-player move: project a random direction through the walk, sweep."""
    rng = rng if rng is not None else state.rng
    mask = state.active_mask
    count = int(mask.sum())
    if count < 2:
        raise ArgumentError("cut player needs at least two active units")
    r = rng.standard_normal(state.k)
    r /= np.linalg.norm(r)
    u = _apply_walk(r, state.perms, mask, state.slowdown)
    drift = abs(float(u.sum()))
    # rounding scale: the walk contracts a unit vector, so absolute float noise
    # is relative to 1/sqrt(k) even when the output itself underflows
    scale = max(float(np.abs(u).max()), state.k ** -0.5)
    if drift > 1e-9 * state.k * scale:
        raise InternalError("walk output lost orthogonality to the constant vector")
    # k * ||u||^2 is an unbiased estimate of the potential; it is the game's
    # only convergence signal
    state.last_projection_energy = float(u @ u)
    left, right, _level = sweep_cut(np.nonzero(mask)[0], u)
    return left, right


# ---------------------------------------------------------------------------
# matching player
# ---------------------------------------------------------------------------


@dataclass
class MatchingPlayerState:
    """Deleted vertices, congestion bookkeeping, and the trade-off factor c."""

    congestion_factor: int
    deleted: set = field(default_factory=set)
    edge_load: dict = field(default_factory=dict)
    rounds: int = 0

    @property
    def cap_multiplier(self) -> int:
        return math.ceil(self.congestion_factor * MATCH_FAIRNESS)


def matching_player_step(graph: Graph, units: UnitMapping,
                         mp: MatchingPlayerState, active: Iterable[int],
                         left: frozenset[int], right: frozenset[int],
                         scope: Iterable[int] | None = None
                         ) -> tuple[frozenset[int], Matching]:
    """Answer a bisection: delete a sparse fair-cut side, match the rest.

    Matches every surviving proposal unit to a distinct response unit,
    pairing locally at shared vertices first and routing the remainder along
    integral flow paths.  Failure to match all survivors would contradict the
    fair cut and raises an internal error.

    ``scope`` is the routable vertex set; it must contain every vertex with
    an active unit and may add zero-weight vertices.  Including them keeps
    the deleted set sparse against full-graph capacities, since every edge
    leaving a deleted region is then visible to some fair cut.
    """
    active = frozenset(int(u) for u in active)
    left = frozenset(int(u) for u in left)
    right = frozenset(int(u) for u in right)
    if not (left <= active and right <= active and not left & right):
        raise ArgumentError("proposal sides must be disjoint subsets of the active units")
    alive = frozenset(units.vertex(u) for u in active)
    if scope is not None:
        alive_scope = frozenset(scope)
        if not alive <= alive_scope:
            raise ArgumentError("scope must contain every vertex with active units")
        alive = alive_scope

    s_counts: dict[int, int] = {}
    for u in left:
        v = units.vertex(u)
        s_counts[v] = s_counts.get(v, 0) + 1
    r_counts: dict[int, int] = {}
    for u in right:
        v = units.vertex(u)
        r_counts[v] = r_counts.get(v, 0) + 1
    t_weights = {v: Fraction(count, 1) / MATCH_FAIRNESS
                 for v, count in r_counts.items()}

    result = fair_cut(graph, s_counts, t_weights, within=alive,
                      cap_scale=mp.cap_multiplier)
    cut_side = result.cut
    mp.deleted |= cut_side
    dropped = units.units_of_set(cut_side) & active

    survivors = alive - cut_side
    left_at: dict[int, list[int]] = {}
    for u in sorted(left - dropped):
        left_at.setdefault(units.vertex(u), []).append(u)
    right_at: dict[int, list[int]] = {}
    for u in sorted(right - dropped):
        right_at.setdefault(units.vertex(u), []).append(u)

    pairs: list[tuple[int, int]] = []
    for v in sorted(left_at):
        mine, theirs = left_at[v], right_at.get(v, [])
        while mine and theirs:
            pairs.append((mine.pop(0), theirs.pop(0)))

    leftover_s = {v: len(us) for v, us in left_at.items() if us}
    round_load: dict[int, int] = {}
    if leftover_s:
        leftover_r = {v: len(us) for v, us in right_at.items() if us}
        solved = _run_max_flow(graph, leftover_s, leftover_r, within=survivors,
                               cap_scale=2 * mp.cap_multiplier)
        if solved.value != sum(leftover_s.values()):
            raise InternalError("matching flow failed to saturate all sources; "
                                "the fair cut contract was violated")
        nums = solved.edge_flow()
        # cycle-free, and the paths use up every arc: an edge's load is its flow
        round_load = {eidx: abs(num) for eidx, num in nums.items()}
        decomp = path_decomposition(graph, FlowAssignment(graph, 1, nums))
        for path in decomp.paths:
            for _ in range(path.weight):
                pairs.append((left_at[path.start].pop(0),
                              right_at[path.end].pop(0)))

    if any(us for us in left_at.values()):
        raise InternalError("not every surviving proposal unit was matched")
    for eidx, load in round_load.items():
        if load > 2 * mp.cap_multiplier * graph.edges[eidx][2]:
            raise InternalError("per-round embedding load too high")
        mp.edge_load[eidx] = mp.edge_load.get(eidx, 0) + load
    mp.rounds += 1
    return dropped, Matching(tuple(sorted(pairs)))


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
    potential: float | None = None


class CutMatchingGame:
    """State and driver for one run of the cut-matching game on a graph.

    ``within`` restricts the instance to an induced subgraph.  Each round
    records the cut player's projection estimate of the potential; with
    ``early_stop`` the game stops once three consecutive estimates are at
    most ``potential_floor``.  The paper's constants are fixed: at most
    ceil(ROUND_COEFF * log2(k)^2) rounds, and the matching player's fair
    cuts at MATCH_FAIRNESS.
    """

    def __init__(self, graph: Graph, pi: Mapping[int, int], phi: Fraction, rng,
                 early_stop: bool = True, within: Iterable[int] | None = None):
        phi = Fraction(phi)
        if not 0 < phi < 1:
            raise ArgumentError("phi must lie strictly between 0 and 1")
        self.graph = graph
        self.vertices = frozenset(within) if within is not None else frozenset(range(graph.n))
        pi_local = {v: int(pi.get(v, 0)) for v in self.vertices}
        if any(w < 0 for w in pi_local.values()):
            raise ArgumentError("pi must be non-negative")
        self.pi = VertexWeights({v: w for v, w in pi_local.items() if w > 0})
        k = self.pi.total()
        if k < 2:
            raise ArgumentError("the game needs total weight at least 2")
        self.k = k
        self.phi = phi
        self.units = UnitMapping.from_weights(self.pi)
        self.congestion_factor = math.ceil(Fraction(10) / phi)
        self.slowdown = slowdown_for(k)
        self.budget = max(1, math.ceil(ROUND_COEFF * math.log2(k) ** 2))
        self.rng = rng
        self.mp = MatchingPlayerState(self.congestion_factor)
        self.active_mask = np.ones(k, dtype=bool)
        self.matchings: list[Matching] = []
        self.perms: list[np.ndarray] = []
        self.records: list[RoundRecord] = []
        self.stopped: str | None = None
        self.early_stop = early_stop
        self.potential_floor = 1.0 / k ** 3
        self.last_projection_energy: float | None = None
        self._quiet_rounds = 0

    # -- state views -------------------------------------------------------

    @property
    def round(self) -> int:
        return len(self.matchings)

    def active_units(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.nonzero(self.active_mask)[0])

    def active_count(self) -> int:
        return int(self.active_mask.sum())

    def deleted_vertices(self) -> frozenset[int]:
        return frozenset(self.mp.deleted)

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
        scope = self.vertices - frozenset(self.mp.deleted)
        dropped, matching = matching_player_step(
            self.graph, self.units, self.mp, self.active_units(),
            left, right, scope=scope)
        if dropped:
            self.active_mask[list(dropped)] = False
        self.matchings.append(matching)
        self.perms.append(matching.permutation(self.k))

        max_ratio = 0.0
        for eidx, load in self.mp.edge_load.items():
            max_ratio = max(max_ratio, load / self.graph.edges[eidx][2])
        rec = RoundRecord(self.round, self.active_count(), len(dropped),
                          len(matching), max_ratio, self.current_potential())
        self.records.append(rec)
        self._evaluate_stop(rec)
        return rec

    def _evaluate_stop(self, rec: RoundRecord):
        k = self.k
        threshold = (1.0 - 1.0 / (2 * math.log2(k))) * k if k > 2 else 1.0
        if rec.active < threshold or rec.active < 2:
            self.stopped = "balance"
            return
        if not self.early_stop:
            return
        # one projection is noisy; require three consecutive quiet rounds
        if rec.potential <= self.potential_floor:
            self._quiet_rounds += 1
        else:
            self._quiet_rounds = 0
        if self._quiet_rounds >= 3:
            self.stopped = "potential"

    def run(self) -> frozenset[int]:
        while self.stopped is None and self.round < self.budget:
            self.step()
        inactive = self.deleted_vertices()
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


# ---------------------------------------------------------------------------
# dense diagnostics (test oriented)
# ---------------------------------------------------------------------------


def _infer_k(matchings, active_sets, k):
    if k is not None:
        return k
    if active_sets:
        return len(active_sets[0])
    raise ArgumentError("cannot infer the unit count; pass k explicitly")


def dense_flow_matrix(matchings: Sequence[Matching],
                      active_sets: Sequence[Iterable[int]] | None = None,
                      slowdown: int = 2, k: int | None = None) -> np.ndarray:
    """Explicit mixing matrix after the given matchings; doubly stochastic."""
    k = _infer_k(matchings, active_sets, k)
    if k > DENSE_UNIT_CAP:
        raise OversizeError(f"dense matrix limited to {DENSE_UNIT_CAP} units")
    share = 1.0 / slowdown
    keep = 1.0 - share
    f = np.eye(k)
    for matching in matchings:
        perm = matching.permutation(k)
        f = keep * f + share * f[perm, :]
        f = keep * f + share * f[:, perm]
    return f


def potential(matchings: Sequence[Matching], active_sets: Sequence[Iterable[int]],
              slowdown: int, k: int | None = None) -> float:
    """Convergence potential of the game state, via matrix-free column walks."""
    k = _infer_k(matchings, active_sets, k)
    if k > POTENTIAL_UNIT_CAP:
        raise OversizeError(f"potential evaluation limited to {POTENTIAL_UNIT_CAP} units")
    mask = _as_mask(active_sets[-1] if active_sets else range(k), k)
    if not mask.any():
        return 0.0
    perms = [m.permutation(k) for m in matchings]
    cols = _apply_walk(np.eye(k)[:, mask], perms, mask, slowdown)
    return float((cols * cols).sum())

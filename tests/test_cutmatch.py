"""Cut player, matching player, and the sparse cut oracle."""

import collections
import dataclasses
import hashlib
import json
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecut import (ArgumentError, CutMatchingGame, Graph, InternalError, OversizeError,
                     VertexWeights, boundary_capacity, check_expanding, cut_player_step,
                     generate_dumbbell, generate_grid, matching_player_step,
                     oracle_params, sparsest_cut_apx, sweep_cut)
from treecut.cutmatch import (POTENTIAL_UNIT_CAP, SCREEN_STEPS, SCREEN_VERTICES, RoundRecord,
                              _apply_walk, _expansion_matrix, _proves_positive_definite,
                              _screen, _screen_start, _unit_array, ceil_log2, slowdown_for)
from treecut import cutmatch as cutmatch_module
from treecut import flow as flow_module
from treecut.cutmatch import MATCH_FAIRNESS
from treecut.flow import _run_max_flow, fair_cut, path_decomposition

from conftest import philox, played_rounds, random_connected_graph, two_cliques_bridge
from oracles import ReferenceTry, brute_force_sparsest_cut, neighbour_lists
from walk_diagnostics import (dense_flow_matrix, pair_permutation, potential,
                              stable_sort_sweep_cut, sweep_cut_violations)


def load_list(edge_load: dict[int, int], m: int) -> list[int]:
    """An {edge index: load} dict as the per-edge load list of ``game.load``."""
    return [edge_load.get(idx, 0) for idx in range(m)]


def loaded_edges(game) -> list[list[int]]:
    """The [edge index, load] pairs of the edges that carry load, in edge
    order: the form the pinned load digests hash."""
    return [[idx, load] for idx, load in enumerate(game.load.tolist()) if load]


def make_game(graph, pi, phi, seed, **kw):
    return CutMatchingGame(graph, pi, phi, philox(seed), **kw)


class TestUnitMapping:
    # the game's vertex_of array maps each unit to its vertex
    def test_contiguous_ranges(self, k8):
        # each vertex's units in a row, in vertex order; zero weights hold none
        game = make_game(k8, {2: 2, 0: 1, 7: 0, 5: 3}, Fraction(1, 4), 0)
        assert game.k == 6
        assert game.vertex_of.tolist() == [0, 2, 2, 5, 5, 5]
        assert np.flatnonzero(game.vertex_of == 5).tolist() == [3, 4, 5]
        assert game.vertex_of.dtype == np.intp
        with pytest.raises(ValueError):
            game.vertex_of[0] = 1

    def test_counts_match_weights(self, k8):
        pi = {0: 3, 1: 0, 2: 4}
        game = make_game(k8, pi, Fraction(1, 4), 0)
        counts = np.bincount(game.vertex_of, minlength=k8.n)
        for v in range(k8.n):
            assert counts[v] == pi.get(v, 0)


class TestGameWeights:
    @pytest.mark.parametrize("pi, vertex", [({0: 1, 1: 1, 99: 5}, 99),
                                            ({0: 1, 1: 1, -1: 5}, -1),
                                            ({0: 2.7, 1: 1}, 0),
                                            ({0: 2, 1: -1}, 1),
                                            ({0: True, 1: True, 5: 2}, 0)])
    def test_bad_weight_is_named(self, pi, vertex):
        # a vertex outside the graph is not dropped, nor a float truncated,
        # nor a bool read as 1
        with pytest.raises(ArgumentError, match=f"weight at vertex {vertex}[: ]"):
            make_game(generate_dumbbell(4), pi, Fraction(1, 4), 0)

    @pytest.mark.parametrize("vertex", [99, -1])
    def test_within_vertex_outside_the_graph_is_named(self, path3, vertex):
        # rejected when the game is built, not at its first fair cut
        with pytest.raises(ArgumentError, match=f"within holds {vertex}, not a vertex"):
            make_game(path3, {0: 1, 1: 1, 2: 1}, Fraction(1, 4), 0,
                      within={0, 1, 2, vertex})


class TestUnitArray:
    RANGE = "units must lie in 0..k-1"
    REPEAT = "a unit appears more than once"

    @pytest.mark.parametrize("units, expected", [
        ([1, 4, 6], [1, 4, 6]),        # strictly increasing
        ([0, 6, 2, 5], [0, 2, 5, 6]),  # unsorted
        ([1, 3, 3, 5], REPEAT),        # sorted, with a duplicate
        ([-1, 2, 4], RANGE),           # negative
        ([0, 3, 7], RANGE),            # k itself
        ([2, 9, 11], RANGE),           # beyond k
        ([-2, -2, 3], RANGE),          # out of range and repeated
        ([5], [5]),
        ([], [])])
    def test_fast_path_matches_sort_path(self, units, expected):
        # the units in their own order and reversed, as a list and as int
        # arrays: a strictly increasing input skips the sort, the rest are
        # sorted, and each gives the same units or the same error
        k = 7
        outcomes = []
        for ordered in (units, units[::-1]):
            for given in (list(ordered), np.array(ordered, dtype=np.intp),
                          np.array(ordered, dtype=np.int32)):
                try:
                    got = _unit_array(given, k)
                except ArgumentError as exc:
                    outcomes.append(str(exc))
                    continue
                assert got.dtype == np.intp
                increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
                if isinstance(given, np.ndarray) and given.dtype == np.intp:
                    assert (got is given) == increasing
                outcomes.append(got.tolist())
        assert outcomes == [expected] * 6

    @pytest.mark.parametrize("units, dtype", [
        ([1.5, 3.2], "float64"),                 # increasing: the fast path
        ([3.2, 1.5], "float64"),                 # unsorted: the sort path
        (np.array([0.9, 1.9, 2.9, 3.9]), "float64"),
        (np.array([2.0, 1.0], dtype=np.float32), "float32"),
        (np.array([True, False, True, True]), "bool"),
        ([False, True], "bool"),
        ([True, False], "bool")])
    def test_non_integer_units_rejected(self, units, dtype):
        # a float was truncated to a unit and a boolean mask read as units 0
        # and 1, which failed as a repeated unit
        with pytest.raises(ArgumentError, match=f"units must be integers, not {dtype}$"):
            _unit_array(units, 4)

    def test_players_refuse_non_integer_units(self, path3):
        values = np.array([3.0, -1.0, -1.0, -1.0])
        with pytest.raises(ArgumentError, match="not float64"):
            sweep_cut(np.array([0.9, 1.9, 2.9, 3.9]), values)
        with pytest.raises(ArgumentError, match="not bool"):
            sweep_cut(np.ones(4, dtype=bool), values)
        game = make_game(path3, {0: 2, 2: 2}, Fraction(1, 4), 0)
        with pytest.raises(ArgumentError, match="not float64"):
            matching_player_step(game, [0.5], [1.5, 2.5])
        assert game.deleted == set() and not game.load.any()

    @pytest.mark.parametrize("given", ["active", "values", "left", "right"])
    def test_players_refuse_arrays_not_1d(self, path3, given):
        # a 2-D unit array failed with numpy's "truth value is ambiguous", a
        # 0-d one with an IndexError, and a 2-D or 0-d values array with a
        # TypeError
        what = "sweep values" if given == "values" else "units"
        bads = ((np.arange(8.0).reshape(4, 2), np.array(2.0)) if given == "values"
                else (np.array([[0, 1], [2, 3]]), np.array(2)))
        for bad in bads:
            args = {"active": np.arange(4), "values": np.array([3.0, -1.0, -1.0, -1.0]),
                    "left": np.array([0]), "right": np.array([2, 3])}
            args[given] = bad
            game = make_game(path3, {0: 2, 2: 2}, Fraction(1, 4), 0)
            with pytest.raises(ArgumentError,
                               match=f"{what} must be a 1-D array, not {bad.ndim}-D$"):
                if given in ("active", "values"):
                    sweep_cut(args["active"], args["values"])
                else:
                    matching_player_step(game, args["left"], args["right"])
            assert game.deleted == set() and not game.load.any()


class TestSweepCut:
    def test_outlier_lands_on_proposal_side(self):
        u = np.array([-7.0, 1, 1, 1, 1, 1, 1, 1])
        left, right, level = sweep_cut(range(8), u)
        assert frozenset(left.tolist()) == frozenset({0})
        assert sweep_cut_violations(range(8), u, left, right, level) == []

    def test_symmetric_values(self):
        u = np.array([-2.0, -2.0, 2.0, 2.0])
        left, right, level = sweep_cut(range(4), u)
        assert sweep_cut_violations(range(4), u, left, right, level) == []
        assert len(left) == 1 and len(right) >= 2

    def test_two_units(self):
        u = np.array([1.5, -1.5])
        left, right, level = sweep_cut(range(2), u)
        assert len(left) == 1 and len(right) == 1
        assert left.tolist() != right.tolist()
        assert sweep_cut_violations(range(2), u, left, right, level) == []

    def test_uncentered_vector_is_not_cut_short(self):
        # the mean of [10]*7 + [11] carries nearly all its mass, so no unit is
        # far from a level that splits it: the sweep fails at every scale
        # rather than return a proposal side with too little mass
        for scale in (1.0, 2.0 ** -40):
            with pytest.raises(InternalError, match="failed in both orientations"):
                sweep_cut(range(8), np.array([10.0] * 7 + [11.0]) * scale)

    def test_constant_vector_has_no_spread(self):
        # a constant nonzero vector, such as the residue of centering
        # [63.17] * 3, has its ceil(a/8) highest units as the proposal side
        for value in (5.0, -(2.0 ** -47)):
            left, right, level = sweep_cut(range(9), np.full(9, value))
            assert (left.tolist(), right.tolist()) == ([7, 8], list(range(7)))
            assert type(level) is float and level == value
        residue = np.array([63.17] * 3) - np.mean([63.17] * 3)
        assert (residue == 2.0 ** -47).all()
        left, right, level = sweep_cut(range(3), residue)
        assert sweep_cut_violations(range(3), residue, left, right, level) == []

    def test_all_zero_vector_still_valid(self):
        u = np.zeros(6)
        left, right, level = sweep_cut(range(6), u)
        assert sweep_cut_violations(range(6), u, left, right, level) == []

    def test_too_few_units_rejected(self):
        with pytest.raises(ArgumentError):
            sweep_cut([3], np.zeros(5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        # a NaN was sorted as a plain value and an inf became the whole
        # proposal side
        values = np.array([0.1, bad, -0.3, 0.5, 0.2, -0.1, 0.0, 0.4])
        with pytest.raises(ArgumentError, match="must be finite"):
            sweep_cut(np.arange(8), values)
        # only the active units' values are read
        left, right, _level = sweep_cut([0, 2, 3, 4, 5, 6, 7], values)
        assert 1 not in left.tolist() + right.tolist()

    def test_out_of_range_active_unit_rejected(self):
        # a negative unit would read the last value instead
        for active in ([-1, 0, 1], [0, 1, 5]):
            with pytest.raises(ArgumentError, match="0..k-1"):
                sweep_cut(active, np.array([3.0, -1.0, -1.0, -1.0, 0.0]))

    def test_repeated_active_unit_rejected(self):
        # unit 0 counted twice would make a = 4 where three units are active
        values = np.array([5.0, -1.0, -1.0, -3.0])
        for active in ([0, 0, 1, 2], np.array([2, 1, 2, 0])):
            with pytest.raises(ArgumentError, match="more than once"):
                sweep_cut(active, values)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
           st.integers(0, 30))
    @example([-85.30533763854449] * 6 + [-85.3053376385445, -85.30533763854449], 0)
    def test_properties_on_random_vectors(self, values, inactive_pad):
        # centered exactly: subtracting the float np.mean can leave a
        # near-constant residue that is not centered, such as the example's,
        # which sweep_cut rightly refuses; rounding the exact residues keeps
        # their signs, so a list that is not constant keeps values of both
        # signs
        mean = sum(map(Fraction, values)) / len(values)
        vals = np.array([float(Fraction(x) - mean) for x in values])
        full = np.concatenate([vals, np.zeros(inactive_pad)])
        active = range(len(values))
        left, right, level = sweep_cut(active, full)
        assert sweep_cut_violations(active, full, left, right, level) == []


# -- loop references: the per-unit Python loops the array code replaced,
# -- kept verbatim, and a unit-by-unit nearest-sink router for the rounds the
# -- cut bound certifies; the array code must reproduce their results exactly.
# -- The far test squares by multiplying where the loops call pow, which can
# -- differ by 1 ulp, so a verdict could only flip with both sides within 1 ulp.

def loop_sweep_cut(active, values):
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
        res = loop_sweep_orientation(act, vals, order, svals, a, side)
        if res is not None:
            return res
    if min(vals) == max(vals):
        # no spread: the ceil(a/8) highest units are the proposal side
        cap_small = -(-a // 8)
        return frozenset(act[a - cap_small:]), frozenset(act[:a - cap_small]), float(vals[0])
    raise InternalError("sweep cut failed in both orientations")


def loop_sweep_orientation(act, vals, order, svals, a, side):
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
    # from left to right: since Python 3.12 the builtin sum is compensated
    picked = 0.0
    for p in far[:cap_small]:
        picked += float(vals[p]) ** 2
    if picked + 1e-12 * total < total / 80.0:
        return None
    return left, right, level


def bfs_tree(graph, start):
    """{vertex: (hops, parent, edge from the parent)} of a full BFS from
    ``start`` over each vertex's edges in edge order, in the order it
    reaches them."""
    adj = neighbour_lists(graph)
    tree, queue = {start: (0, None, None)}, collections.deque([start])
    while queue:
        v = queue.popleft()
        for w, eidx in adj[v]:
            if w not in tree:
                tree[w] = (tree[v][0] + 1, v, eidx)
                queue.append(w)
    return tree


def loop_route_certified(graph, supply, demand):
    """Nearest-sink routing unit by unit, from {vertex: units} supplies and
    demands: each source in ascending order sends one unit at a time to the
    sinks in the order a full BFS from it reaches them, and each unit adds 1
    to its path's edges.  Returns the units per (source, sink) as [source,
    sink, units] rows in the order first used, and the load per edge index."""
    room = dict(demand)
    sent: dict[tuple[int, int], int] = {}
    load: dict[int, int] = {}
    for start in sorted(supply):
        need, tree = supply[start], bfs_tree(graph, start)
        for sink in tree:
            while need and room.get(sink):
                need -= 1
                room[sink] -= 1
                sent[start, sink] = sent.get((start, sink), 0) + 1
                v = sink
                while v != start:
                    _hops, v, eidx = tree[v]
                    load[eidx] = load.get(eidx, 0) + 1
    return [[start, sink, units] for (start, sink), units in sent.items()], load


def loop_matching_player_step(game, left, right, edge_load):
    """The matching player as loops; adds the round's routed load to the
    {edge index: load} dict ``edge_load``, not to the game."""
    graph = game.graph
    vertex = [v for v in sorted(game.pi) for _ in range(game.pi[v])]
    active = frozenset(u for u in range(game.k) if game.active_mask[u])
    left = frozenset(int(u) for u in left)
    right = frozenset(int(u) for u in right)
    if not (left <= active and right <= active and not left & right):
        raise ArgumentError("proposal sides must be disjoint subsets of the active units")
    alive = game.vertices - game.deleted

    s_counts: dict[int, int] = {}
    for u in left:
        v = vertex[u]
        s_counts[v] = s_counts.get(v, 0) + 1
    r_counts: dict[int, int] = {}
    for u in right:
        v = vertex[u]
        r_counts[v] = r_counts.get(v, 0) + 1
    t_weights = {v: Fraction(count, 1) / MATCH_FAIRNESS
                 for v, count in r_counts.items()}

    result = fair_cut(graph, s_counts, t_weights, within=alive,
                      cap_scale=game.cap_multiplier)
    cut_side = result.cut
    game.deleted |= cut_side
    dropped = frozenset(u for u in active if vertex[u] in cut_side)

    survivors = alive - cut_side
    left_at: dict[int, list[int]] = {}
    for u in sorted(left - dropped):
        left_at.setdefault(vertex[u], []).append(u)
    right_at: dict[int, list[int]] = {}
    for u in sorted(right - dropped):
        right_at.setdefault(vertex[u], []).append(u)

    pairs: list[tuple[int, int]] = []
    for v in sorted(left_at):
        mine, theirs = left_at[v], right_at.get(v, [])
        while mine and theirs:
            pairs.append((mine.pop(0), theirs.pop(0)))

    # the cut bound: every vertex of a connected graph alive, net supply at
    # most net demand and at most the fair cut's capacity scale
    up, down = MATCH_FAIRNESS.numerator, MATCH_FAIRNESS.denominator
    net_supply = net_demand = 0
    for v in range(graph.n):
        net = up * s_counts.get(v, 0) - down * r_counts.get(v, 0)
        if net > 0:
            net_supply += net
        else:
            net_demand -= net
    certified = (alive == frozenset(range(graph.n)) and graph.is_connected()
                 and net_supply <= net_demand and net_supply <= up * game.cap_multiplier)
    if certified and cut_side:
        raise InternalError("a certified round cut vertices off")

    leftover_s = {v: len(us) for v, us in left_at.items() if us}
    leftover_r = {v: len(us) for v, us in right_at.items() if us}
    rows, round_load = [], {}
    if leftover_s and certified:
        rows, round_load = loop_route_certified(graph, leftover_s, leftover_r)
    elif leftover_s:
        solved = _run_max_flow(graph, leftover_s, leftover_r, within=survivors,
                               cap_scale=2 * game.cap_multiplier)
        if solved.value != sum(leftover_s.values()):
            raise InternalError("matching flow failed to saturate all sources; "
                                "the fair cut contract was violated")
        nums = solved.edge_flow()
        round_load = {eidx: abs(num) for eidx, num in nums.items()}
        rows = [(path.start, path.end, path.weight)
                for path in path_decomposition(graph, nums)]
    for start, end, weight in rows:
        for _ in range(weight):
            pairs.append((left_at[start].pop(0), right_at[end].pop(0)))

    if any(us for us in left_at.values()):
        raise InternalError("not every surviving proposal unit was matched")
    for eidx, load in round_load.items():
        if load > 2 * game.cap_multiplier * graph.edges[eidx][2]:
            raise InternalError("per-round embedding load too high")
        edge_load[eidx] = edge_load.get(eidx, 0) + load
    return dropped, tuple(sorted(pairs)), certified


def side_sets(result):
    """A sweep result with its sides as frozensets, for the loop references;
    each side must come as a sorted array of distinct units."""
    if result is None:
        return None
    left, right, level = result
    for side in (left, right):
        assert side.dtype == np.intp and (np.diff(side) > 0).all()
    return frozenset(left.tolist()), frozenset(right.tolist()), level


def fuzz_sweep_vectors(seed, count):
    """Seeded sweep-cut inputs: ties, signed zeros, inactive units, k up to 900."""
    rng = philox(seed)
    for i in range(count):
        k = int(rng.integers(2, 900)) if i % 10 == 0 else int(rng.integers(2, 60))
        kind = i % 5
        if kind == 0:      # many ties
            values = rng.integers(-3, 4, size=k).astype(float)
        elif kind == 1:    # signed zeros among ties
            values = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], size=k)
        elif kind == 2:    # a centered walk-like vector
            values = rng.standard_normal(k)
            values -= values.mean()
        elif kind == 3:    # one heavy outlier, either sign
            values = rng.standard_normal(k) * 1e-3
            values[int(rng.integers(k))] = float(rng.choice([-1.0, 1.0])) * 50.0
        else:              # skewed magnitudes
            values = rng.standard_normal(k) ** 3 * float(rng.choice([1e-9, 1.0, 1e6]))
        if rng.random() < 0.5:
            active = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        else:
            active = np.arange(k)
        yield active, values


class TestSweepCutMatchesLoops:
    def test_fuzzed_vectors_give_the_loop_result(self):
        calls = 0
        for active, values in fuzz_sweep_vectors(2024, 2400):
            as_set = frozenset(int(u) for u in active)
            try:
                expected = loop_sweep_cut(as_set, values)
            except (ArgumentError, InternalError) as exc:
                with pytest.raises(type(exc)):
                    sweep_cut(np.sort(active), values)
                continue
            for given in (as_set, np.sort(active), list(active)):
                assert side_sets(sweep_cut(given, values)) == expected
            calls += 1
        assert calls >= 2000

    def test_sweep_scales_with_its_values(self):
        # scaling by 2^-40 is exact at these magnitudes, so the sweep must
        # pick the same sides at the scaled level, or fail at both scales;
        # its 1/80 mass check must not pass on small values alone
        swept = 0
        for active, values in fuzz_sweep_vectors(7, 2000):
            if len(active) < 2:
                continue
            outcomes = []
            for scale in (1.0, 2.0 ** -40):
                try:
                    left, right, level = sweep_cut(np.sort(active), values * scale)
                except InternalError:
                    outcomes.append(None)
                else:
                    outcomes.append((left.tolist(), right.tolist(), level / scale))
            assert outcomes[0] == outcomes[1], (active, values)
            swept += outcomes[0] is not None
        assert swept >= 1900, swept

    def test_both_orientations_match(self):
        seen = {"low": 0, "high": 0, "none": 0}
        for active, values in fuzz_sweep_vectors(7, 2000):
            act = sorted(int(u) for u in active)
            a = len(act)
            if a < 2:
                continue
            vals = np.asarray(values, dtype=float)[act]
            order = sorted(range(a), key=lambda i: (vals[i], act[i]))
            svals = vals[order]
            arr_order = np.argsort(vals, kind="stable")
            assert arr_order.tolist() == order
            for side in ("low", "high"):
                expected = loop_sweep_orientation(act, vals, order, svals, a, side)
                got = cutmatch_module._sweep_orientation(
                    np.array(act), vals, svals, float((svals ** 2).sum()), a, side)
                assert side_sets(got) == expected
                seen[side if expected is not None else "none"] += 1
        assert min(seen.values()) > 0


def same_sweep(active, values):
    """``sweep_cut`` against the stable-argsort reference: the same sides
    and the level with the same bits, or the same error.  Returns the
    orientation taken, or the error's message, and whether a tie straddled
    the split."""
    try:
        expected = stable_sort_sweep_cut(active, values)
    except (ArgumentError, InternalError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sweep_cut(active, values)
        return str(exc), False
    left, right, level = sweep_cut(active, values)
    for got, want in zip((left, right), expected[:2]):
        assert got.dtype == np.intp and got.tolist() == want.tolist()
    assert type(level) is float and level.hex() == expected[2].hex()
    vals = np.asarray(values, dtype=float)
    act = np.sort(np.asarray(list(active), dtype=np.intp))
    # the response side of "low" holds the unit last in (value, unit) order
    last = act[np.lexsort((act, vals[act]))[-1]]
    side = "low" if last in right else "high"
    # the level's own unit is on the response side; a tie straddles the
    # split when another unit at the level is not
    return side, bool((vals[np.setdiff1d(act, right)] == level).any())


class TestSweepCutMatchesStableSort:
    """The sweep sorts the values once and splits a tie at the level by
    unit index; the stable-argsort sweep it replaced is the reference."""

    def test_ties_straddling_the_split(self):
        seen = collections.Counter()
        rng = philox(23)
        for i in range(3000):
            k = int(rng.integers(2, 70))
            values = rng.integers(-3, 4, size=k).astype(float)
            active = np.flatnonzero(rng.random(k) < 0.8) if i % 2 else np.arange(k)
            if len(active) < 2:
                continue
            side, straddles = same_sweep(active, values)
            seen[side, straddles] += 1
        assert min(seen[side, True] for side in ("low", "high")) >= 100, seen

    def test_unsorted_active_units(self):
        rng = philox(29)
        for i in range(600):
            k = int(rng.integers(2, 90))
            values = rng.integers(-2, 3, size=k) * 0.5 if i % 2 else rng.standard_normal(k)
            active = rng.permutation(k)[:int(rng.integers(2, k + 1))]
            for given in (active, active.tolist(), frozenset(active.tolist())):
                same_sweep(given, values)

    def test_non_finite_values_and_signed_zeros(self):
        # an active NaN or inf is refused by both; an inactive one is never
        # read; a zero level takes the sign of its own unit's zero
        rng = philox(31)
        seen = collections.Counter()
        for i in range(2000):
            k = int(rng.integers(2, 60))
            values = rng.choice([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.0], size=k)
            if i % 3 == 0:
                values[int(rng.integers(k))] = rng.choice([np.nan, np.inf, -np.inf])
            active = np.flatnonzero(rng.random(k) < 0.9) if i % 2 else np.arange(k)
            if len(active) < 2:
                continue
            side, straddles = same_sweep(active, values)
            if side not in ("low", "high"):
                seen[side] += 1
            else:
                seen[sweep_cut(active, values)[2].hex()] += 1
                seen["straddles"] += straddles
        keys = ("sweep values must be finite", "0x0.0p+0", "-0x0.0p+0", "straddles")
        assert min(seen[key] for key in keys) >= 100, seen

    def test_walk_outputs_of_a_seeded_game(self, monkeypatch):
        captured = []
        real_sweep = cutmatch_module.sweep_cut

        def recording(active, values):
            captured.append((active.copy(), values.copy()))
            return real_sweep(active, values)

        monkeypatch.setattr(cutmatch_module, "sweep_cut", recording)
        graph = generate_grid(6, 6)
        make_game(graph, VertexWeights.degrees(graph), Fraction(1, 4), 7).run()
        assert len(captured) >= 20
        for active, values in captured:
            same_sweep(active, values)


class TestMatchingPlayerMatchesLoop:
    def test_random_rounds_give_the_loop_result(self):
        # "routing" counts rounds routed by the max flow, "certified" those
        # the cut bound certified, routed to the nearest sinks; each graph
        # also plays a game without its last vertex, which is never certified
        seen = {"rounds": 0, "dropping": 0, "routing": 0, "certified": 0}
        for seed in range(120):
            rng = philox(4000 + seed)
            graph = random_connected_graph(seed, max_n=10, max_cap=4)
            pi = VertexWeights({v: int(rng.integers(0, 7)) for v in range(graph.n)})
            # no phi in (0, 1) gives the congestion factors 1, 2 and 5
            factor = int(rng.choice([1, 2, 5, 40]))
            for within in (None, range(graph.n - 1)):
                if pi.total(within) < 2:
                    continue
                game_loop, game_array = (make_game(graph, pi, Fraction(1, 4), seed,
                                                   within=within) for _ in range(2))
                for game in (game_loop, game_array):
                    game.congestion_factor = factor
                loop_load: dict[int, int] = {}
                for _round in range(4):
                    units = np.flatnonzero(game_loop.active_mask).tolist()
                    if len(units) < 2:
                        break
                    rng.shuffle(units)
                    cut = int(rng.integers(0, len(units) // 2 + 1))
                    left = frozenset(units[:cut])
                    right = frozenset(units[cut:cut + int(rng.integers(0, len(units) - cut + 1))])
                    loads_before = dict(loop_load)
                    dropped, pairs, certified = loop_matching_player_step(game_loop, left,
                                                                          right, loop_load)
                    got = matching_player_step(game_array, left, right)
                    assert (got[0], tuple(map(tuple, got[1].tolist()))) == (dropped, pairs)
                    routed = loop_load != loads_before
                    assert game_array.load.tolist() == load_list(loop_load, graph.m)
                    assert game_array.deleted == game_loop.deleted
                    assert game_array.max_load_ratio == max(
                        (load / graph.edges[e][2] for e, load in loop_load.items()),
                        default=0.0)
                    for game in (game_loop, game_array):
                        game.active_mask[list(dropped)] = False
                    seen["rounds"] += 1
                    seen["dropping"] += bool(dropped)
                    seen["routing"] += routed and not certified
                    seen["certified"] += routed and certified
        assert seen["rounds"] >= 400 and min(seen.values()) >= 30, seen

    def test_certified_round_with_shared_sink_and_local_pair(self, monkeypatch):
        # a star around vertex 0: vertex 2 pairs one unit locally and routes
        # two, split over two sinks, vertex 1 routes two, and sink 0 takes
        # rows from both sources; the rows start at 2, 1, 1, 2, 2, so a
        # proposal vertex's row units are not one run
        routed = []
        real_route = cutmatch_module._route_certified

        def recording(*args):
            result = real_route(*args)
            routed.append(result[0].tolist())
            return result

        monkeypatch.setattr(cutmatch_module, "_route_certified", recording)
        star = Graph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        pi = {0: 3, 1: 2, 2: 4, 3: 4}
        game_loop, game_array = (make_game(star, pi, Fraction(1, 4), 0) for _ in range(2))
        left, right = frozenset({3, 4, 5, 6, 7}), frozenset({0, 1, 2, 8, 9, 10, 11, 12})
        loop_load: dict[int, int] = {}
        dropped, pairs, certified = loop_matching_player_step(game_loop, left, right,
                                                              loop_load)
        got_dropped, got_pairs = matching_player_step(game_array, left, right)
        assert certified and routed == [[[1, 0, 2], [2, 0, 1], [2, 3, 1]]]
        assert (got_dropped, tuple(map(tuple, got_pairs.tolist()))) == (dropped, pairs)
        assert pairs == ((3, 0), (4, 1), (5, 8), (6, 2), (7, 9))
        assert game_array.load.tolist() == load_list(loop_load, star.m) == [2, 2, 1]

    def test_integer_fair_cut_weights_cut_like_fractions(self, monkeypatch):
        # the fair cut on source 3c, target 2c and capacities times 3 cap is
        # the one on source c, target 2c/3 and capacities times cap; a round
        # that calls no fair cut takes the empty cut, and the Fraction-weight
        # fair cut must be empty there too
        real_fair_cut = cutmatch_module.fair_cut
        calls = []

        def recording(graph, source_w, target_w, within=None, cap_scale=1):
            result = real_fair_cut(graph, source_w, target_w, within=within,
                                   cap_scale=cap_scale)
            calls.append((source_w, target_w, result.cut))
            return result

        monkeypatch.setattr(cutmatch_module, "fair_cut", recording)
        seen = {"rounds": 0, "cutting": 0, "thirds": 0, "certified": 0}
        for seed in range(300):
            rng = philox(9000 + seed)
            graph = random_connected_graph(seed, max_n=10, max_cap=4)
            pi = VertexWeights({v: int(rng.integers(0, 9)) for v in range(graph.n)})
            if pi.total() < 2:
                continue
            game = make_game(graph, pi, Fraction(1, 4), seed)
            game.congestion_factor = int(rng.choice([1, 2, 5, 40]))
            units = rng.permutation(game.k)
            cut = int(rng.integers(0, game.k // 2 + 1))
            left = frozenset(units[:cut].tolist())
            right = frozenset(units[cut:].tolist())
            calls.clear()
            dropped, _matching = matching_player_step(game, left, right)
            s_counts, t_counts = {}, {}
            for side, counts in ((left, s_counts), (right, t_counts)):
                for u in side:
                    v = int(game.vertex_of[u])
                    counts[v] = counts.get(v, 0) + 1
            t_fractions = {v: Fraction(c) / MATCH_FAIRNESS for v, c in t_counts.items()}
            expected = real_fair_cut(graph, s_counts, t_fractions, within=range(graph.n),
                                     cap_scale=game.cap_multiplier).cut
            if calls:
                (source_w, target_w, got), = calls
                assert all(type(w) is int for part in (source_w, target_w)
                           for w in part.values())
            else:
                got = frozenset()
                assert not dropped and not game.deleted
                seen["certified"] += 1
            assert got == expected, seed
            seen["rounds"] += 1
            seen["cutting"] += bool(got)
            seen["thirds"] += any(w.denominator == 3 for w in t_fractions.values())
        assert seen["rounds"] >= 250 and min(seen.values()) >= 40, seen

    def test_out_of_range_unit_rejected(self, path3):
        game = make_game(path3, {0: 1, 2: 1}, Fraction(1, 4), 0)
        for bad in (-1, 2):
            with pytest.raises(ArgumentError, match="0..k-1"):
                matching_player_step(game, frozenset({0}), frozenset({1, bad}))
            with pytest.raises(ArgumentError, match="0..k-1"):
                matching_player_step(game, frozenset({bad}), frozenset({1}))


class TestCertifiedRouting:
    """``_route_certified`` on the matching rounds the cut bound certifies."""

    @staticmethod
    def _round(seed):
        """(graph, L, R, S, D): a connected graph, proposal and response unit
        counts L and R per vertex, some vertex with L > R, and the net supply
        S = sum (3L - 2R)+, at most the net demand D = sum (2R - 3L)+."""
        rng = philox(15000 + seed)
        graph = random_connected_graph(14000 + seed, max_n=14, extra_factor=0.5,
                                       max_cap=int(rng.choice([1, 4])))
        while True:
            left = [int(rng.integers(1, 4)) if rng.random() < 0.4 else 0
                    for _ in range(graph.n)]
            right = [int(rng.integers(1, 7)) if rng.random() < 0.6 else 0
                     for _ in range(graph.n)]
            net = [3 * x - 2 * y for x, y in zip(left, right)]
            supply = sum(x for x in net if x > 0)
            if supply <= -sum(x for x in net if x < 0) and any(
                    x > y for x, y in zip(left, right)):
                return graph, left, right, supply, -sum(x for x in net if x < 0)

    def test_rows_and_load_are_the_loop_routing_within_the_bound(self):
        seen = {"rounds": 0, "multi-hop paths": 0, "split sources": 0, "shared edges": 0}
        for seed in range(500):
            graph, left, right, net_supply, net_demand = self._round(seed)
            cap = -(-net_supply // 3)
            assert flow_module._fair_cut_is_empty(graph, net_supply, net_demand, None,
                                                  3 * cap), seed
            supply = {v: x - y for v, (x, y) in enumerate(zip(left, right)) if x > y}
            demand = {v: y - x for v, (x, y) in enumerate(zip(left, right)) if y > x}
            spare = np.array(left) - np.array(right)
            rows, load = cutmatch_module._route_certified(
                graph, np.maximum(spare, 0), np.maximum(-spare, 0))
            assert rows.dtype == np.intp and rows.shape == (len(rows), 3), seed
            rows = rows.tolist()
            assert (rows, load) == loop_route_certified(graph, supply, demand), seed

            sent, absorbed, last_hops = {}, {}, {}
            for start, end, weight in rows:
                assert start in supply and end in demand and weight > 0, seed
                # each source's sinks nearest first
                hops = bfs_tree(graph, start)[end][0]
                assert hops >= last_hops.get(start, 0), seed
                last_hops[start] = hops
                sent[start] = sent.get(start, 0) + weight
                absorbed[end] = absorbed.get(end, 0) + weight
                seen["multi-hop paths"] += hops > 1
            assert sent == supply, seed
            assert all(absorbed[v] <= demand[v] for v in absorbed), seed
            spare = sum(supply.values())
            assert spare <= cap and max(load.values()) <= spare, seed
            seen["rounds"] += 1
            seen["split sources"] += any(
                sum(start == v for start, _end, _weight in rows) > 1 for v in supply)
            seen["shared edges"] += any(x > 1 for x in load.values())
        assert seen["rounds"] == 500 and min(seen.values()) >= 50, seen


class TestCutPlayerStep:
    def test_golden_deterministic_split(self, k8):
        # frozen after the first implementation run (seed 12345, one round)
        def play():
            game = make_game(k8, {v: 1 for v in range(8)}, Fraction(1, 4), 12345)
            game.step()
            return cut_player_step(game)

        left, right = play()
        assert sorted(left) == [5]
        assert sorted(right) == [1, 2, 6, 7]
        again = play()
        assert (again[0].tolist(), again[1].tolist()) == (left.tolist(), right.tolist())

    def test_walk_output_is_centered(self, k8):
        game = make_game(k8, {v: 2 for v in range(8)}, Fraction(1, 4), 3)
        for _ in range(4):
            game.step()
        # orthogonality is asserted inside the step; reaching here is the test
        assert game.round == 4

    def test_nan_walk_output_is_refused(self, k8, monkeypatch):
        # a NaN drift compared False with "drift > bound" and reached the sweep
        game = make_game(k8, {v: 2 for v in range(8)}, Fraction(1, 4), 3)
        monkeypatch.setattr(cutmatch_module, "_apply_walk",
                            lambda vec, *_args: np.full_like(vec, np.nan))
        with pytest.raises(InternalError, match="orthogonality"):
            cut_player_step(game)


class TestDenseDiagnostics:
    def test_no_matchings_is_identity(self):
        assert np.allclose(dense_flow_matrix([], 2, 5), np.eye(5))

    def test_full_matching_blocks(self):
        perms = [pair_permutation(((0, 1), (2, 3)), 4)]
        # slowdown 2: one mixing pass each side collapses the pair block
        f2 = dense_flow_matrix(perms, 2, 4)
        assert np.allclose(f2[:2, :2], [[0.5, 0.5], [0.5, 0.5]])
        # slowdown 4 keeps 5/8 of the mass in place
        f4 = dense_flow_matrix(perms, 4, 4)
        assert np.allclose(f4[:2, :2], [[0.625, 0.375], [0.375, 0.625]])
        assert np.allclose(f4[2:, 2:], [[0.625, 0.375], [0.375, 0.625]])

    def test_row_sums_exactly_one(self):
        rng = philox(7)
        perms = [pair_permutation(((2 * i, 2 * i + 1) for i in range(4)), 8)
                 for _ in range(5)]
        f = dense_flow_matrix(perms, 2, 8)
        assert np.abs(f.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(f.sum(axis=1) - 1).max() < 1e-12
        assert (f >= -1e-15).all()

    def test_oversize_refused(self):
        with pytest.raises(OversizeError):
            dense_flow_matrix([], 2, 300)

    def test_mixing_power_identity(self):
        # N^(4*slowdown) == I - lam * (I_active - M) with the closed-form lam
        rng = philox(11)
        k = 16
        for slowdown in (2, 4, 8):
            active = sorted(rng.choice(k, size=12, replace=False))
            pairs = tuple((int(active[2 * i]), int(active[2 * i + 1]))
                          for i in range(4))
            m = np.zeros((k, k))
            i_act = np.zeros((k, k))
            for v in active:
                i_act[v, v] = 1.0
                m[v, v] = 1.0
            for i, j in pairs:
                m[i, i] = m[j, j] = 0.0
                m[i, j] = m[j, i] = 1.0
            n_mat = np.eye(k) - (i_act - m) / slowdown
            power = np.linalg.matrix_power(n_mat, 4 * slowdown)
            lam = 0.5 - 0.5 * (1 - 2 / slowdown) ** (4 * slowdown)
            assert lam >= 0.25
            assert np.abs(power - (np.eye(k) - lam * (i_act - m))).max() < 1e-9


def formula_apply_walk(vec, perms, mask, slowdown):
    """The walk as ``keep * y + share * y[perm]``, four array operations a pass."""
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


def random_matching_perm(rng, k, mask):
    """The permutation of a random matching on some of the masked units."""
    units = rng.permutation(np.flatnonzero(mask))
    units = units[:2 * int(rng.integers(0, len(units) // 2 + 1))]
    return pair_permutation(zip(units[0::2].tolist(), units[1::2].tolist()), k)


class TestWalkMatchesFormula:
    def test_bit_equal_at_power_of_two_slowdowns(self):
        # every unit is active in half the trials, one vector and blocks
        # alike, where the walk centers without the mask
        rng = philox(808)
        seen = set()
        for trial in range(240):
            slowdown = (2, 4, 8)[trial % 3]
            k = int(rng.integers(2, 70))
            mask = rng.random(k) < rng.uniform(0.3, 1.0)
            if trial % 4 < 2:
                mask[:] = True
            if mask.sum() < 2:
                mask[:2] = True
            perms = [random_matching_perm(rng, k, mask)
                     for _ in range(int(rng.integers(0, 12)))]
            block = trial % 2 == 1
            vec = rng.standard_normal((k, int(rng.integers(1, 6))) if block else k)
            vec *= float(rng.choice([1e-6, 1.0, 1e6]))
            got = _apply_walk(vec, perms, mask, slowdown)
            expected = formula_apply_walk(vec, perms, mask, slowdown)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (trial, slowdown, block)
            seen.add((slowdown, block, bool(mask.all())))
        assert len(seen) == 12

    def test_bit_equal_across_rescale_blocks(self):
        # histories of 40-600 matchings on unit-norm inputs: each walk runs
        # more passes than one rescale block holds, at every power of two
        rng = philox(909)
        seen = set()
        for trial in range(24):
            slowdown = (2, 4, 8)[trial % 3]
            block = cutmatch_module.WALK_BLOCK_BITS // (slowdown.bit_length() - 1)
            k = int(rng.integers(4, 40))
            mask = rng.random(k) < rng.uniform(0.3, 0.9)
            mask[:2] = True
            mask[int(rng.integers(2, k))] = False
            perms = clustered_history(rng, k, int(rng.integers(max(40, block // 2 + 1), 601)))
            assert 2 * len(perms) > block
            blocked = trial % 2 == 1
            vec = rng.standard_normal((k, int(rng.integers(1, 6))) if blocked else k)
            vec /= np.linalg.norm(vec, axis=0)
            got = _apply_walk(vec, perms, mask, slowdown)
            expected = formula_apply_walk(vec, perms, mask, slowdown)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (trial, slowdown, blocked)
            seen.add((slowdown, blocked))
        assert len(seen) == 6


def clustered_history(rng, k, count):
    """Permutations of random matchings within two fixed halves of all k
    units, inactive ones included.  The walk keeps the difference between
    the halves, so its values stay far from subnormal however long the
    history; on one well-mixed set they would reach it."""
    halves = np.array_split(rng.permutation(k), 2)
    perms = []
    for _ in range(count):
        pairs = []
        for half in halves:
            units = rng.permutation(half)[:2 * int(rng.integers(0, len(half) // 2 + 1))]
            pairs += zip(units[0::2].tolist(), units[1::2].tolist())
        perms.append(pair_permutation(pairs, k))
    return perms


class TestPotential:
    def test_initial_value_is_k_minus_one(self):
        for k in (4, 9, 16):
            value = potential([], range(k), slowdown_for(k), k)
            assert abs(value - (k - 1)) < 1e-9

    def test_single_active_unit_gives_zero(self):
        value = potential([pair_permutation(((0, 1),), 4)], [2], 2, 4)
        assert abs(value) < 1e-12

    def test_oversize_refused(self):
        with pytest.raises(OversizeError):
            potential([], range(600), 2, 600)

    def test_projection_estimate_is_unbiased(self, k8):
        # the game's stop signal k * ||walk(r)||^2 averages to the potential
        game = make_game(k8, {v: 2 for v in range(8)}, Fraction(1, 4), 5,
                         early_stop=False)
        k = game.k
        rng = philox(77)
        for rounds in (0, 3, 5, 8):
            while game.round < rounds:
                game.step()
            exact = potential(game.perms, game.active_mask, game.slowdown, k)
            r = rng.standard_normal((k, 2000))
            r /= np.linalg.norm(r, axis=0)
            walked = _apply_walk(r, game.perms, game.active_mask, game.slowdown)
            estimate = k * float((walked * walked).sum(axis=0).mean())
            assert estimate == pytest.approx(exact, rel=0.1)

    def test_monotone_during_game(self, k8):
        game = make_game(k8, {v: 4 for v in range(8)}, Fraction(1, 4), 2,
                         early_stop=False)
        values = [game.k - 1.0]
        for _ in range(25):
            if game.stopped:
                break
            game.step()
            values.append(potential(game.perms, game.active_mask, game.slowdown, game.k))
        tol = 1e-9 * game.k
        assert all(b <= a + tol for a, b in zip(values, values[1:]))


class TestMatchingPlayer:
    def test_empty_proposal(self, path3):
        game = make_game(path3, {0: 1, 2: 1}, Fraction(1, 4), 0)
        dropped, matching = matching_player_step(game, frozenset(), frozenset({1}))
        assert dropped == frozenset() and len(matching) == 0

    def test_single_edge_tiny_instance(self):
        # sink capacity 2/3 cannot absorb a full unit, so the fair cut
        # swallows the whole instance and both units are dropped
        g = Graph.from_edges(2, [(0, 1, 1)])
        game = make_game(g, {0: 1, 1: 1}, Fraction(1, 100), 0)
        assert game.congestion_factor == 1000
        assert game.cap_multiplier == 1500
        dropped, matching = matching_player_step(game, frozenset({0}), frozenset({1}))
        survivors_matched = frozenset(i for i, _j in matching)
        assert survivors_matched == frozenset({0}) - dropped
        assert game.deleted == {0, 1} and dropped == frozenset({0, 1})

    @pytest.mark.parametrize("factor", range(1, 61))
    def test_cap_multiplier_is_exact(self, path3, factor):
        # the integer property against the Fraction formula it replaced
        game = make_game(path3, {0: 1, 2: 1}, Fraction(1, 4), 0)
        game.congestion_factor = factor
        assert game.cap_multiplier == math.ceil(factor * MATCH_FAIRNESS)

    def test_local_pairing_uses_no_flow(self, path3):
        # two proposal units and three responders at the same vertex: the
        # vertex is a net target, nothing is deleted, pairing stays local
        game = make_game(path3, {0: 5, 2: 2}, Fraction(1, 4), 0)
        dropped, matching = matching_player_step(game, frozenset({0, 1}),
                                                 frozenset({2, 3, 4}))
        assert dropped == frozenset()
        assert len(matching) == 2
        assert all(game.vertex_of[i] == game.vertex_of[j] == 0
                   for i, j in matching)
        assert not game.load.any()

    def test_cross_edge_matching_tracks_load(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        game = make_game(g, {0: 1, 1: 2}, Fraction(1, 4), 0)
        dropped, matching = matching_player_step(game, frozenset({0}), frozenset({1, 2}))
        assert dropped == frozenset()
        assert tuple(map(tuple, matching.tolist())) == ((0, 1),)
        assert game.load.tolist() == [1]

    def test_load_is_an_int64_array_per_edge(self):
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 2)])
        game = make_game(g, {0: 1, 2: 2}, Fraction(1, 4), 0)
        matching_player_step(game, frozenset({0}), frozenset({1, 2}))
        assert game.load.tolist() == [1, 1] and game.load.dtype == np.int64
        assert game.max_load_ratio == 1.0

    @pytest.fixture
    def flow_builds(self, monkeypatch):
        """Counts edge flows built (SolvedFlow.edge_flow calls), matching
        max flows and the matching player's path decompositions."""
        counts = {"edge_flows": 0, "matching_flows": 0, "decompositions": 0}
        edge_flow = flow_module.SolvedFlow.edge_flow
        run, decompose = cutmatch_module._run_max_flow, cutmatch_module.path_decomposition

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(flow_module.SolvedFlow, "edge_flow",
                            counting("edge_flows", edge_flow))
        monkeypatch.setattr(cutmatch_module, "_run_max_flow", counting("matching_flows", run))
        monkeypatch.setattr(cutmatch_module, "path_decomposition",
                            counting("decompositions", decompose))
        return counts

    def test_only_the_matching_flow_is_built(self, flow_builds, path3):
        # a certified round routes to the nearest sinks and builds no flow
        g = Graph.from_edges(2, [(0, 1, 1)])
        game = make_game(g, {0: 1, 1: 2}, Fraction(1, 4), 0)
        matching_player_step(game, frozenset({0}), frozenset({1, 2}))
        assert game.load.tolist() == [1]
        assert flow_builds == {"edge_flows": 0, "matching_flows": 0, "decompositions": 0}

        game = make_game(path3, {0: 5, 2: 2}, Fraction(1, 4), 0)
        matching_player_step(game, frozenset({0, 1}), frozenset({2, 3, 4}))
        assert flow_builds == {"edge_flows": 0, "matching_flows": 0, "decompositions": 0}

        # rounds the cut bound leaves open build the matching flow, one edge
        # flow and one decomposition: a game within a proper subset, and a
        # net supply of 9 above the capacity scale 3 * 2 at factor 1, on an
        # edge wide enough for the fair cut to stay empty
        wide = Graph.from_edges(2, [(0, 1, 5)])
        for game, left, right in (
                (make_game(path3, {0: 1, 1: 2}, Fraction(1, 4), 0, within={0, 1}),
                 {0}, {1, 2}),
                (make_game(wide, {0: 3, 1: 9}, Fraction(1, 4), 0), {0, 1, 2}, range(3, 12))):
            game.congestion_factor = 1
            before = dict(flow_builds)
            dropped, matching = matching_player_step(game, frozenset(left), frozenset(right))
            assert not dropped and len(matching) == len(left) and game.load.any()
            assert {key: flow_builds[key] - before[key] for key in before} == {
                "edge_flows": 1, "matching_flows": 1, "decompositions": 1}

    def test_game_builds_one_edge_flow_per_matching_flow(self, flow_builds, double_k4):
        # the root game's rounds are all certified and build no flow; a game
        # without vertex 7 solves, and decomposes, one flow per routing round
        pi = VertexWeights.degrees(double_k4)
        game = make_game(double_k4, pi, Fraction(1, 4), 3)
        game.run()
        assert game.round > 0 and game.load.any()
        assert flow_builds == {"edge_flows": 0, "matching_flows": 0, "decompositions": 0}

        game = make_game(double_k4, pi, Fraction(1, 4), 3, within=range(7))
        game.run()
        assert game.round > 0
        assert flow_builds["edge_flows"] == flow_builds["matching_flows"] == \
            flow_builds["decompositions"] > 0

    def test_certified_root_game_solves_no_fair_cut(self, flow_builds, monkeypatch):
        # dumbbell 12 at the oracle's root sparsity phi/20 = 1/80: every
        # proposal's net supply is far below the capacity scale 3 * 1200, so
        # the cut bound answers every fair cut and every routing round goes
        # to the nearest sinks, without a max flow or a path decomposition
        fair_cuts = []
        real_fair_cut = cutmatch_module.fair_cut

        def recording(*args, **kwargs):
            fair_cuts.append(args)
            return real_fair_cut(*args, **kwargs)

        monkeypatch.setattr(cutmatch_module, "fair_cut", recording)
        graph = generate_dumbbell(12)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 3)
        routing = 0
        while game.stopped is None:
            before = int(game.load.sum())
            game.step()
            routing += int(game.load.sum()) > before
        assert game.round > 0 and routing > 0
        assert fair_cuts == []
        assert flow_builds == {"edge_flows": 0, "matching_flows": 0, "decompositions": 0}

    @pytest.mark.parametrize("paths, load, message", [
        ([], {}, "not every surviving proposal unit was matched"),
        ([(0, 1, 2)], {0: 2}, "a flow path carries more than its end units"),
        ([(0, 1, 1)], {0: 2 * 1500 + 1}, "per-round embedding load too high")])
    def test_certified_routing_is_checked(self, monkeypatch, paths, load, message):
        # the nearest-sink routing of a certified round passes the checks the
        # max-flow routing does: a faulty router is caught, not trusted; each
        # path is a (source, sink, units) row over edge 0
        g = Graph.from_edges(2, [(0, 1, 1)])
        game = make_game(g, {0: 1, 1: 2}, Fraction(1, 100), 0)
        assert game.cap_multiplier == 1500
        rows = np.array(paths, dtype=np.intp).reshape(-1, 3)
        monkeypatch.setattr(cutmatch_module, "_route_certified",
                            lambda *_args: (rows, load))
        with pytest.raises(InternalError, match=message):
            matching_player_step(game, frozenset({0}), frozenset({1, 2}))
        assert not game.load.any()

    @pytest.mark.parametrize("left, right", [([0, 0], [5, 6, 7]),
                                             ([0], [5, 6, 6]),
                                             (np.array([1, 0, 1]), np.array([5]))])
    def test_repeated_unit_rejected(self, left, right):
        # a repeated proposal unit would be matched twice, and the walk
        # permutation built from those pairs would not be an involution
        graph = generate_dumbbell(4)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 4), 0)
        with pytest.raises(ArgumentError, match="more than once"):
            matching_player_step(game, left, right)
        assert game.deleted == set() and not game.load.any()

    def test_overlapping_sides_rejected(self, path3):
        game = make_game(path3, {0: 1, 2: 1}, Fraction(1, 4), 0)
        with pytest.raises(ArgumentError):
            matching_player_step(game, frozenset({0}), frozenset({0}))

    def test_inactive_unit_rejected(self, path3):
        game = make_game(path3, {0: 1, 2: 2}, Fraction(1, 4), 0)
        game.active_mask[2] = False
        with pytest.raises(ArgumentError, match="active units"):
            matching_player_step(game, frozenset({0}), frozenset({1, 2}))


def run_game_with_invariants(graph, pi, phi, seed, max_rounds, congestion_factor=None):
    """Play a game, checking the matching-player invariants after each round.

    Without the potential stop the game ends on balance, on its budget or
    after ``max_rounds`` rounds.  ``congestion_factor`` replaces the one phi
    gives, as no phi in (0, 1) gives a factor below 11.
    """
    game = CutMatchingGame(graph, pi, phi, philox(seed), early_stop=False)
    if congestion_factor is not None:
        game.congestion_factor = congestion_factor
    c = game.congestion_factor
    survivor_ok = True
    with played_rounds() as rounds:
        while game.stopped is None and game.round < max_rounds:
            game.step()
            played = rounds[-1]

            # inactive units and deleted vertices stay in lockstep
            assert (~game.active_mask == np.isin(game.vertex_of, list(game.deleted))).all()
            # the union of deleted vertices is 1/c-sparse, exactly
            inactive = frozenset(game.deleted)
            if inactive:
                cap = boundary_capacity(graph, inactive & game.vertices, game.vertices)
                assert c * cap <= game.pi.total(inactive)
            # cumulative embedding load within 4 c t cap(e)
            for eidx, load in enumerate(game.load.tolist()):
                assert load <= 4 * c * game.round * graph.edges[eidx][2]
            # the per-round survivor bound, whenever the sweep sizes allowed it
            a = len(played.active)
            if len(played.left) <= a / 8 and len(played.right) >= a / 2:
                if 5 * len(played.active - played.dropped) < a:
                    survivor_ok = False
    assert len(rounds) == game.round
    assert survivor_ok
    return game


class TestGameInvariants:
    def test_fuzzed_games(self):
        # the first dozen games cannot delete: with k <= 23 a proposal holds
        # at most 3 units, so its net supply of at most 9 stays below the
        # fair cut's capacity scale of at least 54 at the factors phi gives,
        # and the cut bound proves every fair cut empty.  The second dozen
        # play at factor 1 or 2 on heavier weights, and most of them delete
        deleting = 0
        for seed in range(24):
            rng = philox(900 + seed)
            graph = random_connected_graph(seed, max_n=8, max_cap=3)
            heavy = seed >= 12
            pi = VertexWeights({v: int(rng.integers(0, 20 if heavy else 6))
                                for v in range(graph.n)})
            if pi.total() < 2:
                pi = VertexWeights.degrees(graph)
            phi = Fraction(int(rng.integers(1, 10)), 10)
            factor = int(rng.choice([1, 2])) if heavy else None
            game = run_game_with_invariants(graph, pi, phi, seed, max_rounds=40,
                                            congestion_factor=factor)
            deleting += bool(game.deleted)
        assert deleting >= 6, deleting

    def test_active_set_shrinks_monotonically(self, double_k8):
        deg = VertexWeights.degrees(double_k8)
        game = make_game(double_k8, deg, Fraction(1, 4), 2)
        sizes = [game.active_count()]
        while game.stopped is None and game.round < 30:
            game.step()
            sizes.append(game.active_count())
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_deletion_budget_respected_before_stop(self):
        graph = two_cliques_bridge(8, cap=100)
        deg = VertexWeights.degrees(graph)
        game = make_game(graph, deg, Fraction(1, 4), 3)
        game.run()
        k = game.k
        bound = Fraction(k, 2 * math.ceil(math.log2(k)))
        for rec in game.records[:-1]:
            assert k - rec.active <= bound

    def test_balance_stops_at_exactly_the_integer_floor(self, k8):
        # k = 129 units: the floor is (1 - 1/(2 * 8)) * 129 = 120 + 15/16, so
        # 121 active units play on and 120 stop the game; the float floor
        # (1 - 1/(2 log2 129)) * 129 = 119.8 would let 120 play on
        game = make_game(k8, {0: 122, **{v: 1 for v in range(1, 8)}}, Fraction(1, 4), 0)
        assert game.balance_floor == Fraction(1935, 16)
        game._evaluate_stop(RoundRecord(1, 121, 8, 0, 0.0, 1.0))
        assert game.stopped is None
        game._evaluate_stop(RoundRecord(2, 120, 1, 0, 0.0, 1.0))
        assert game.stopped == "balance"

    def test_budget_is_exact(self):
        # ROUND_COEFF * ceil(log2 114)^2 = 10 * 7^2, not ceil(10 * log2(114)^2)
        graph = generate_dumbbell(8)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 3)
        assert (game.k, game.budget) == (114, 490)

    def test_budget_stop_ends_the_game(self, k8):
        # four units on an expander: nothing is deleted, and without the
        # potential stop the game plays its whole budget of 10 * ceil(log2 4)^2
        game = make_game(k8, {v: 1 for v in range(4)}, Fraction(1, 4), 0, early_stop=False)
        assert game.run() == frozenset()
        assert (game.stopped, game.round, game.budget) == ("budget", 40, 40)
        assert all(rec.active == game.k for rec in game.records)
        with pytest.raises(InternalError):
            game.step()

    @pytest.mark.parametrize("per_vertex, phi", [
        pytest.param(4, Fraction(1, 2), id="4"), pytest.param(65, Fraction(1, 8), id="65")])
    def test_potential_stop_needs_three_quiet_rounds(self, per_vertex, phi):
        # one signal on both sides of POTENTIAL_UNIT_CAP (k = 32 and k = 520),
        # on a path whose sparsest cut lies below phi/q*: no certificate can
        # end the game, so only the potential rule can
        path8 = Graph.from_edges(8, [(v, v + 1, 1) for v in range(7)])
        pi = {v: per_vertex for v in range(8)}
        game = make_game(path8, pi, phi, 0)
        assert brute_force_sparsest_cut(path8, pi)[1] < game.expansion_target
        assert (game.k > POTENTIAL_UNIT_CAP) == (per_vertex == 65)
        assert game.current_potential() is None
        game.run()
        assert game.stopped == "potential"
        assert all(isinstance(rec.potential, float) for rec in game.records)
        quiet = [rec.potential <= game.potential_floor for rec in game.records]
        assert quiet[-3:] == [True, True, True]
        assert not any(all(quiet[i:i + 3]) for i in range(len(quiet) - 3))

    def test_seeded_root_game_is_pinned(self):
        # dumbbell 8 at the oracle's root sparsity phi/20 = 1/80: the digests
        # pin every round's matching and the routed load it left on the edges
        graph = generate_dumbbell(8)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 3)
        assert game.run() == frozenset()
        # the certificate ends it at round 15 of the 42 the potential rule
        # played; the digests are those of the first 15 rounds at that rule
        assert (game.stopped, game.round, game.k) == ("certified", 15, 114)
        pairs = json.dumps([m.tolist() for m in game.matchings])
        assert hashlib.sha256(pairs.encode()).hexdigest() == (
            "15e070ed68bb34b732eccff664881ab39486801f9d88407fdbe34b9913f3fe1c")
        # each round's walk permutation is its pairs swapped one by one
        assert all((perm == pair_permutation(m, game.k)).all()
                   for m, perm in zip(game.matchings, game.perms, strict=True))
        load = json.dumps(loaded_edges(game))
        assert hashlib.sha256(load.encode()).hexdigest() == (
            "c1fb370bec100578e05f0f565b9a1e9257f62fa169cb61bfbe0d6d2c191e3e0e")
        # every RoundRecord field, max_load_ratio and potential included
        records = json.dumps([dataclasses.astuple(r) for r in game.records])
        assert hashlib.sha256(records.encode()).hexdigest() == (
            "33431bb9f125f421b7475c79c911b6f225add9355847357a55ac7af65416251f")

    def test_seeded_large_root_game_is_pinned(self):
        # grid 12x12 at phi/80 with degree weights, k = 528 > POTENTIAL_UNIT_CAP
        # as in the build-large corpus: the same three digests as above
        graph = generate_grid(12, 12)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 3)
        assert game.run() == frozenset()
        # certified at round 14 of the potential rule's 59, as above
        assert (game.stopped, game.round, game.k) == ("certified", 14, 528)
        pairs = json.dumps([m.tolist() for m in game.matchings])
        assert hashlib.sha256(pairs.encode()).hexdigest() == (
            "325bc66171153177879a04548d7ae7b4136fff7ec5abf7b3a8188feefa91d5c2")
        assert all((perm == pair_permutation(m, game.k)).all()
                   for m, perm in zip(game.matchings, game.perms, strict=True))
        load = json.dumps(loaded_edges(game))
        assert hashlib.sha256(load.encode()).hexdigest() == (
            "3b1e44e802c4671796c430198316df39576ab79fd14fda37bc56185d42ed38cb")
        records = json.dumps([dataclasses.astuple(r) for r in game.records])
        assert hashlib.sha256(records.encode()).hexdigest() == (
            "a48c458a1a5cad240bc03523ccb62e839dd392f71651ca283ebc20acd2dd77c3")

    def test_seeded_deleting_game_is_pinned(self):
        # two 8-cliques on a bridge at phi/80 with degree weights: besides
        # certified rounds it runs fair cuts, matching max flows and their
        # path decompositions, and its last round deletes one clique; the
        # same three digests as above
        graph = two_cliques_bridge(8, cap=100)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 0)
        assert game.run() == frozenset(range(8, 16))
        assert (game.stopped, game.round, game.k) == ("balance", 28, 11202)
        assert game.deleted == set(range(8, 16))
        pairs = json.dumps([m.tolist() for m in game.matchings])
        assert hashlib.sha256(pairs.encode()).hexdigest() == (
            "a49d73c6023e04e2e50563db817cb1e508e2f33142a512e06f2cc877dd68d8fb")
        assert all((perm == pair_permutation(m, game.k)).all()
                   for m, perm in zip(game.matchings, game.perms, strict=True))
        load = json.dumps(loaded_edges(game))
        assert hashlib.sha256(load.encode()).hexdigest() == (
            "6269e53250283bca3415558defb3b100a4b10395ba9922406312e2876d076e12")
        records = json.dumps([dataclasses.astuple(r) for r in game.records])
        assert hashlib.sha256(records.encode()).hexdigest() == (
            "ca679e25a8e117eadac5d32c70ff39b26d5dbcd60933e36ef88831e42649271f")


class TestExpansionCertificates:
    def test_flow_matrix_expansion_bound(self):
        # quality of the dense mixing matrix against every unit subset
        graph = random_connected_graph(5, max_n=6, max_cap=2)
        pi = VertexWeights({v: 2 for v in range(graph.n)})
        game = CutMatchingGame(graph, pi, Fraction(1, 2), philox(8),
                               early_stop=False)
        k = game.k
        if k > 12:
            pytest.skip("fixture too large for subset enumeration")
        for _ in range(12):
            if game.stopped:
                break
            game.step()
        f = dense_flow_matrix(game.perms, game.slowdown, k)
        active = np.flatnonzero(game.active_mask).tolist()
        pot = potential(game.perms, active, game.slowdown, k)
        floor = 0.25 - pot ** (1 / (2 * game.slowdown)) if pot > 0 else 0.25
        ones = np.ones(k)
        for mask in range(1, 1 << k):
            subset = [i for i in range(k) if (mask >> i) & 1]
            inside = len(set(subset) & set(active))
            if 2 * inside > len(active) or inside == 0:
                continue
            indicator = np.zeros(k)
            indicator[subset] = 1.0
            crossing = indicator @ f @ (ones - indicator)
            assert crossing >= floor * inside - 1e-7

    def test_final_matching_graph_expands(self):
        # a game that stops on "potential" leaves a union of matchings that
        # expands on the units; one that stops "certified" has proved its
        # vertices (phi/q*)-expanding, which must hold exactly.  The random
        # graphs' games stop "certified"; the path's sparsest cut, 1/6, lies
        # below phi/q* = 3/16, so its games can only stop on "potential"
        path6 = Graph.from_edges(6, [(v, v + 1, 1) for v in range(5)])
        stops = collections.Counter()
        successes = 0
        for seed in range(6):
            graph = random_connected_graph(30 + seed, max_n=6, max_cap=2)
            pi = VertexWeights({v: 1 for v in range(graph.n)})
            if pi.total() < 4 or pi.total() > 12:
                pi = VertexWeights({v: 2 for v in range(min(graph.n, 6))})
            for graph, pi, phi in ((graph, pi, Fraction(1, 3)),
                                   (path6, {v: 2 for v in range(6)}, Fraction(3, 4))):
                game = CutMatchingGame(graph, pi, phi, philox(seed), early_stop=True)
                game.run()
                stops[game.stopped] += 1
                if game.stopped == "certified":
                    assert check_expanding(graph, range(graph.n), game.pi,
                                           game.expansion_target)[0]
                elif game.stopped == "potential":
                    successes += units_expand(game)
        assert stops["certified"] >= 5 and stops["potential"] >= 5, stops
        assert successes >= stops["potential"] - 1


def units_expand(game) -> bool:
    """Whether every set of at most half the active units has at least as
    many matched pairs leaving it, over all rounds, as active units inside."""
    k = game.k
    active = frozenset(np.flatnonzero(game.active_mask).tolist())
    degree = np.zeros((k, k))
    for matching in game.matchings:
        for i, j in matching:
            degree[i, j] += 1
            degree[j, i] += 1
    for mask in range(1, 1 << k):
        subset = {i for i in range(k) if (mask >> i) & 1}
        inside = len(subset & active)
        if 2 * inside > len(active) or inside == 0:
            continue
        crossing = sum(degree[i, j] for i in subset for j in range(k)
                       if j not in subset)
        if crossing < inside:
            return False
    return True


def contracted_lambda2(game) -> float:
    """lambda_2 of D^-1/2 L_W D^-1/2 for the game's contracted matchings W
    and D = diag(pi), by a dense eigensolver."""
    game._fold()
    weights = game._weights.astype(float)
    size = len(weights)
    w = np.bincount(game._keys, minlength=size * size).reshape(size, size)
    laplacian = np.diag(w.sum(axis=1)) - w
    return float(np.linalg.eigvalsh(laplacian / np.sqrt(np.outer(weights, weights)))[1])


def pair_keys(heads, tails, counts, size) -> np.ndarray:
    """The keys the game keeps for the links (heads, tails, counts): each
    orientation of each pair, repeated by its count."""
    return np.concatenate([np.repeat(heads * size + tails, counts),
                           np.repeat(tails * size + heads, counts)])


def proves(weights, keys, mu) -> bool:
    weights = np.asarray(weights, dtype=np.int64)
    degree = np.bincount(keys // len(weights), minlength=len(weights))
    mu = Fraction(mu)
    built = _expansion_matrix(weights, degree, keys, mu.numerator, mu.denominator)
    return built is not None and _proves_positive_definite(*built)


class TestExpansionProof:
    @pytest.mark.parametrize("n", [2, 3, 8, 40, 300])
    def test_complete_graph_is_decided_at_its_exact_eigenvalue(self, n):
        # H = K_n with unit weights: lambda_2 = n exactly, so K is positive
        # definite below mu = n, singular at it and indefinite above it
        heads, tails = np.triu_indices(n, 1)
        keys = pair_keys(heads, tails, np.ones(len(heads), dtype=np.int64), n)
        ones = [1] * n
        assert proves(ones, keys, n - Fraction(1, 1000))
        assert not proves(ones, keys, n)
        assert not proves(ones, keys, n + Fraction(1, 1000))

    def test_oversized_entries_are_not_tried(self):
        # b P times an entry reaches 2^53: no matrix, so no proof
        keys, degree = np.array([1, 2]), np.array([1, 1])
        assert _expansion_matrix(np.array([1, 1]), degree, keys, 1, 1 << 52) is None
        assert proves([1, 1], keys, Fraction(1, 1 << 40))

    @pytest.mark.parametrize("source", ["random", "dumbbell", "k8"])
    def test_certified_games_expand_by_enumeration(self, source):
        # every certified game on n <= 12 vertices: the exact sparsest cut
        # is at least phi/q*, and at least the tightest mu the proof accepts,
        # just below the contracted lambda_2, over 2 rho
        cases = []
        for seed in range(12):
            rng = philox(93_000 + seed)
            if source == "random":
                graph = random_connected_graph(seed, max_n=12, max_cap=3)
            elif source == "dumbbell":
                graph = generate_dumbbell(3 + seed % 4)
            else:
                graph = Graph.from_edges(8, [(u, v, 1) for u in range(8)
                                             for v in range(u + 1, 8)])
            pi = VertexWeights({v: int(rng.integers(1, 6)) for v in range(graph.n)})
            cases.append((graph, pi, Fraction(1, int(rng.choice([2, 4, 8, 16]))), seed))
        certified = 0
        for graph, pi, phi, seed in cases:
            game = make_game(graph, pi, phi, seed)
            game.run()
            if game.stopped != "certified":
                continue
            certified += 1
            sparsest = brute_force_sparsest_cut(graph, pi)[1]
            assert sparsest >= game.expansion_target
            rho = game._load_ratio()
            tight = Fraction(contracted_lambda2(game) * (1 - 1e-6)).limit_denominator(10 ** 6)
            assert proves(game._weights, game._keys, tight)
            assert tight / (2 * rho) <= sparsest
        assert certified >= 6

    @pytest.mark.parametrize("n", [SCREEN_STEPS - 4, 3 * SCREEN_STEPS])
    def test_screen_estimates_lambda_2_from_above(self, n):
        # a weighted cycle: the smallest Ritz value is never below lambda_2,
        # and with n - 1 steps, all of the complement of sqrt(pi), it is it
        rng = philox(n)
        weights = rng.integers(1, 9, n)
        heads = np.arange(n)
        tails = (heads + 1) % n
        heads, tails = np.minimum(heads, tails), np.maximum(heads, tails)
        links = (heads, tails, rng.integers(1, 5, n))
        w = np.zeros((n, n))
        w[heads, tails] = w[tails, heads] = links[2]
        normalised = (np.diag(w.sum(axis=1)) - w) / np.sqrt(np.outer(weights, weights))
        exact = np.linalg.eigvalsh(normalised)[1]
        estimate, ritz = _screen(weights, links, _screen_start(n))
        assert estimate >= exact * (1 - 1e-9)
        if n - 1 <= SCREEN_STEPS:
            assert estimate == pytest.approx(exact, rel=1e-9)
        assert ritz.shape == (n,)

    def test_screened_game_stops_at_the_first_provable_round(self):
        # 289 weighted vertices, above SCREEN_VERTICES: the screen decides when
        # to try, and the game stops at the first round from ceil_log2(k) on
        # where the dense lambda_2 exceeds mu
        graph = generate_grid(17, 17)
        pi = VertexWeights.degrees(graph)
        assert len(pi) > SCREEN_VERTICES
        probe = make_game(graph, pi, Fraction(1, 80), 1, early_stop=False)
        first = None
        while first is None:
            probe.step()
            mu = 2 * probe._load_ratio() * probe.expansion_target
            if probe.round >= ceil_log2(probe.k) and contracted_lambda2(probe) > mu:
                first = probe.round
        game = make_game(graph, pi, Fraction(1, 80), 1)
        game.run()
        assert (game.stopped, game.round) == ("certified", first)

    def test_a_game_that_deleted_never_stops_certified(self):
        # K8 with a pendant vertex that the fair cut deletes: the rest is an
        # expander the certificate would prove, but the matchings routed
        # before the deletion may cross the deleted vertex
        graph = Graph.from_edges(9, [(u, v, 3) for u in range(8) for v in range(u + 1, 8)]
                                 + [(0, 8, 1)])
        pi = {**VertexWeights.degrees(graph), 8: 8}
        deleting = 0
        for seed in range(10):
            game = make_game(graph, pi, Fraction(1, 4), seed)
            game.congestion_factor = 1
            game.run()
            if game.deleted:
                deleting += 1
                assert game.stopped != "certified"
        assert deleting >= 5


def replay_tries(monkeypatch, game) -> collections.Counter:
    """Play ``game`` to its stop and check each of its certificate tries
    against ``ReferenceTry`` on the same state: the same verdict, the same
    b P K bit for bit (signed zeros too) or no matrix on both sides, the
    trace of its diagonal, and the same links for the screen.  Returns how
    many tries ended at each step, as ``ReferenceTry.ended`` names them."""
    reference = ReferenceTry(game)
    seen: dict[str, object] = {}
    real_proof, real_screen = cutmatch_module._proves_positive_definite, cutmatch_module._screen

    def proof(matrix, trace):
        seen["matrix"], seen["trace"] = matrix.copy(), trace
        return real_proof(matrix, trace)

    def screen(weights, links, start):
        seen["links"] = links
        return real_screen(weights, links, start)

    monkeypatch.setattr(cutmatch_module, "_proves_positive_definite", proof)
    monkeypatch.setattr(cutmatch_module, "_screen", screen)
    ended: collections.Counter = collections.Counter()

    def checked():
        seen.clear()
        expected, matrix = reference.attempt()
        verdict = CutMatchingGame._certified(game)
        assert verdict == expected, game.round
        ended[reference.ended] += 1
        if "links" in seen:
            assert all(x.dtype == y.dtype and np.array_equal(x, y)
                       for x, y in zip(seen["links"], reference.links))
        if matrix is None:
            assert "matrix" not in seen
        else:
            built = seen["matrix"]
            assert built.dtype == matrix.dtype and built.shape == matrix.shape
            assert np.array_equal(built, matrix) and built.tobytes() == matrix.tobytes()
            assert seen["trace"] == sum(int(x) for x in np.diagonal(matrix).tolist())
        return verdict

    monkeypatch.setattr(game, "_certified", checked)
    game.run()
    return ended


class TestCertificateTry:
    """The game's try against ``oracles.ReferenceTry``, at every try of
    seeded games, and the order of its checks."""

    def test_random_games_replay_the_reference(self, monkeypatch):
        ended = collections.Counter()
        for seed in range(16):
            rng = philox(94_000 + seed)
            # every fourth graph has capacities up to 2^50, at which the
            # entry bound stops most tries
            graph = random_connected_graph(seed, max_n=40, min_n=3,
                                           max_cap=1 << 50 if seed % 4 == 3 else 8)
            pi = VertexWeights({v: int(rng.integers(1, 6)) for v in range(graph.n)})
            phi = Fraction(1, int(rng.choice([4, 16, 80])))
            ended += replay_tries(monkeypatch, make_game(graph, pi, phi, seed))
        assert all(ended[step] for step in ("early", "checks", "refused", "proved")), ended

    @pytest.mark.parametrize("graph", [generate_dumbbell(8), generate_dumbbell(12),
                                       generate_grid(6, 6), generate_grid(17, 17)],
                             ids=["dumbbell8", "dumbbell12", "grid6x6", "grid17x17"])
    def test_root_games_replay_the_reference(self, monkeypatch, graph):
        # the root oracle's game: degree weights at phi/20 = 1/80
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 1)
        ended = replay_tries(monkeypatch, game)
        assert game.stopped == "certified" and ended["proved"] == 1, ended
        if graph.n > SCREEN_VERTICES:
            assert ended["screen"], ended

    def test_tries_stopped_by_the_checks_build_no_square_array(self, monkeypatch):
        # dumbbell 18's root game at seed 3 tries from round 10 and, until
        # round 16, fails the diagonal test on every try, with no n x n
        # array built; it certifies at round 22, as it does unpatched
        graph = generate_dumbbell(18)
        game = make_game(graph, VertexWeights.degrees(graph), Fraction(1, 80), 3)

        def refuse(*args, **kwargs):
            raise AssertionError("an n x n array was built")

        tried = []
        real_matrix = cutmatch_module._expansion_matrix

        def matrix(*args):
            built = real_matrix(*args)
            tried.append((game.round, built is None))
            return built

        monkeypatch.setattr(cutmatch_module, "_expansion_matrix", matrix)
        with monkeypatch.context() as patched:
            patched.setattr(np, "outer", refuse)
            patched.setattr(np.linalg, "cholesky", refuse)
            patched.setattr(np, "subtract", types.SimpleNamespace(at=refuse))
            while game.round < 16:
                game.step()
            # the entry bound: b P times a degree of 1 reaches 2^53
            assert real_matrix(np.array([1, 1]), np.array([1, 1]), np.array([1, 2]),
                               1, 1 << 52) is None
        assert tried == [(r, True) for r in range(10, 17)]
        game.run()
        assert (game.stopped, game.round) == ("certified", 22)


class TestSparsestCutOracle:
    def test_expander_returns_empty(self, k8):
        deg = VertexWeights.degrees(k8)
        assert sparsest_cut_apx(k8, deg, Fraction(1, 8), philox(0)) == frozenset()

    def test_bottleneck_cut_is_sparse(self):
        graph = two_cliques_bridge(8, cap=100)
        deg = VertexWeights.degrees(graph)
        cut = sparsest_cut_apx(graph, deg, Fraction(1, 4), philox(3))
        assert cut
        cap = boundary_capacity(graph, cut, range(graph.n))
        assert cap <= Fraction(1, 4) * deg.total(cut)
        assert deg.total(cut) <= deg.total(set(range(graph.n)) - cut)

    def test_concentrated_weight(self, path3):
        cut = sparsest_cut_apx(path3, VertexWeights({1: 5, 2: 1}),
                               Fraction(1, 2), philox(4))
        assert VertexWeights({1: 5, 2: 1}).total(cut) <= 3

    def test_tiny_weight_rejected(self, path3):
        with pytest.raises(ArgumentError):
            sparsest_cut_apx(path3, VertexWeights({0: 1}), Fraction(1, 2), philox(0))

    def test_bad_phi_rejected(self, path3):
        with pytest.raises(ArgumentError):
            sparsest_cut_apx(path3, VertexWeights.degrees(path3), 1, philox(0))


class TestOracleParams:
    def test_values(self):
        qstar, beta, tau = oracle_params(56)
        assert qstar == 6
        assert beta == Fraction(1, 12)
        assert tau == Fraction(1, 440 * 6)

    def test_quality_floor(self):
        qstar, beta, tau = oracle_params(2)
        assert qstar == 1 and beta == Fraction(1, 2)
        assert tau == Fraction(1, 440)


def float_slowdown(k):
    """The slow-down as the float formula floor(3 ln k / (2 ln 20)), floored to a power of two."""
    raw = max(2, int(3 * math.log(k) / (2 * math.log(20))))
    return 1 << (raw.bit_length() - 1)


class TestSlowdown:
    def test_matches_the_float_formula(self):
        # the range crosses the step from 2 to 4 at k = 2948
        assert all(slowdown_for(k) == float_slowdown(k) for k in range(2, 20_001))

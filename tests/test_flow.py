"""Max flow, fair cuts, path decomposition, and congestion oracles."""

import importlib
import math
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecut import (ArgumentError, Graph, SolvedFlow, VertexWeights,
                     brute_force_opt_congestion, fair_cut, generate_dumbbell,
                     generate_grid, opt_congestion, path_decomposition,
                     random_pair_demands)
from treecut import flow as flow_module

from conftest import connected_graphs, philox, random_connected_graph
from oracles import (accumulate, edge_index, flow_net, flow_net_numerator, flow_value,
                     full_layout_solve, verify_fair_cut)
from test_acceptance import balanced_fuzz_demand


def arc_flow(graph, arcs):
    """An edge-flow dict with a unit flow on each (u, v) arc, its edges in the
    order given."""
    nums = {}
    for u, v in arcs:
        idx = edge_index(graph, u, v)
        nums[idx] = 1 if u == graph.edges[idx][0] else -1
    return nums


def cut_and_flow(solved):
    """A solve's cut, edge flow and denominator, as ``verify_fair_cut`` reads them."""
    return solved.cut, solved.edge_flow(), solved.denom


class TestMaxFlow:
    """The one max-flow entry point, ``_run_max_flow``, and the weight checks
    ``fair_cut`` runs before it."""

    def test_zero_terminals(self, path3):
        solved = flow_module._run_max_flow(path3, {}, {})
        assert solved.value == 0 and solved.edge_flow() == {}

    def test_bottleneck_edge(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        solved = flow_module._run_max_flow(g, {0: 2}, {1: 2})
        assert solved.value == 1
        assert flow_value(g, solved.edge_flow(), solved.denom, 0, 1) == 1

    def test_double_k4_bridge_limits(self, double_k4):
        assert flow_module._run_max_flow(double_k4, {0: 9}, {7: 9}).value == 1

    def test_respects_induced_subgraph(self, path3):
        assert flow_module._run_max_flow(path3, {0: 1}, {2: 1}, within={0, 2}).value == 0

    def test_float_terminal_rejected(self, path3):
        with pytest.raises(ArgumentError, match="vertex 0"):
            fair_cut(path3, {0: 2.5}, {2: 2})
        with pytest.raises(ArgumentError, match="vertex 0 is True"):
            fair_cut(path3, {0: True}, {2: 2})

    @pytest.mark.parametrize("supply, demand, within, vertex", [
        ({99: 5}, {2: 5}, None, 99),
        ({0: 5}, {-1: 5}, None, -1),
        ({0: 1}, {2: 1}, {0, 1, 99}, 99),
        ({0: 1}, {2: 1}, {0, 1, 2, -1}, -1)])
    def test_vertex_outside_graph_rejected(self, path3, supply, demand, within, vertex):
        with pytest.raises(ArgumentError, match=f"{vertex}[:,] not a vertex of the graph"):
            fair_cut(path3, supply, demand, within=within)

    def test_every_max_flow_returns_the_solve(self, path3):
        third = Fraction(1, 3)
        solves = (fair_cut(path3, {0: third}, {2: 1}),
                  flow_module._run_max_flow(path3, {0: third}, {2: 1}))
        assert all(type(solved) is SolvedFlow for solved in solves)
        assert [(solved.value, solved.denom, solved.saturated) for solved in solves] == \
            [(1, 3, True)] * 2


class TestVertexSet:
    """``_vertex_set``: ``graph._all_vertices`` itself for every whole-graph
    ``within``, so that ``is`` tells the whole graph, and a checked frozenset
    otherwise."""

    @pytest.mark.parametrize("make", [
        lambda g: None, lambda g: g._all_vertices, lambda g: range(g.n),
        lambda g: list(range(g.n)), lambda g: set(range(g.n)),
        lambda g: (v for v in range(g.n))],
        ids=["none", "all-vertices", "range", "list", "set", "generator"])
    def test_every_vertex_is_the_graphs_own_set(self, double_k4, make):
        assert flow_module._vertex_set(double_k4, make(double_k4)) is double_k4._all_vertices

    @pytest.mark.parametrize("within", [[0, 3, 5], {1, 2}, range(1, 8), frozenset({4})])
    def test_a_proper_subset_is_an_equal_frozenset(self, double_k4, within):
        verts = flow_module._vertex_set(double_k4, within)
        assert type(verts) is frozenset and verts == frozenset(within)
        assert verts is not double_k4._all_vertices

    @pytest.mark.parametrize("within, vertex", [({0, 1, 8}, 8), ([-1, 0], -1),
                                                (range(9), 8), (["a"], "'a'")])
    def test_a_stray_vertex_is_named(self, double_k4, within, vertex):
        with pytest.raises(ArgumentError, match=re.escape(
                f"within holds {vertex}, not a vertex of the graph (0..7)")):
            flow_module._vertex_set(double_k4, within)


class TestFairCut:
    def test_equal_weights_give_empty_cut(self, path3):
        weights = {v: 3 for v in range(3)}
        result = fair_cut(path3, weights, weights)
        assert result.cut == frozenset()
        assert result.edge_flow() == {}

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        result = fair_cut(g, {0: 2}, {1: 2})
        assert result.cut == frozenset({0})
        assert flow_value(g, result.edge_flow(), result.denom, 0, 1) == 1
        ok, violated = verify_fair_cut(g, {0: 2}, {1: 2}, 1, *cut_and_flow(result))
        assert ok, violated

    def test_double_k4_degree_weights(self, double_k4):
        deg = VertexWeights.degrees(double_k4)
        sources = {v: deg[v] for v in range(4)}
        targets = {v: deg[v] for v in range(4, 8)}
        result = fair_cut(double_k4, sources, targets)
        assert result.cut == frozenset(range(4))
        # the bridge saturates
        assert flow_value(double_k4, result.edge_flow(), result.denom, 3, 4) == 1
        ok, violated = verify_fair_cut(double_k4, sources, targets, 1,
                                       *cut_and_flow(result))
        assert ok, violated

    def test_rational_weights_scale_exactly(self, path3):
        sources = {0: Fraction(3, 2)}
        targets = {2: Fraction(3, 2)}
        result = fair_cut(path3, sources, targets)
        ok, violated = verify_fair_cut(path3, sources, targets, Fraction(3, 2),
                                       *cut_and_flow(result))
        assert ok, violated
        assert flow_net(path3, result.edge_flow(), result.denom, 0) == Fraction(1)

    def test_float_weight_rejected(self, path3):
        with pytest.raises(ArgumentError, match="vertex 0"):
            fair_cut(path3, {0: 2.5}, {2: 1})
        with pytest.raises(ArgumentError, match="vertex 0 is True"):
            fair_cut(path3, {0: True}, {2: 1})

    def test_negative_weights_rejected(self, path3):
        with pytest.raises(ArgumentError):
            fair_cut(path3, {0: -1}, {2: 1})

    @pytest.mark.parametrize("source_w, target_w, within, vertex", [
        ({99: 5}, {2: 5}, None, 99),
        ({0: 5}, {-1: 5}, {0, 1}, -1),
        ({0: 1}, {2: 1}, {0, 1, 99}, 99),
        ({0: 1}, {2: 1}, {0, 1, 2, -1}, -1)])
    def test_vertex_outside_graph_rejected(self, path3, source_w, target_w, within,
                                           vertex):
        with pytest.raises(ArgumentError, match=f"{vertex}[:,] not a vertex of the graph"):
            fair_cut(path3, source_w, target_w, within=within)

    def test_weights_outside_within_are_dropped(self, path3):
        result = fair_cut(path3, {0: 1, 2: 5}, {1: 1}, within={0, 1})
        assert (result.value, result.saturated, result.cut) == (1, True, frozenset())

    def test_fuzz_always_verifies(self):
        for seed in range(60):
            rng = philox(seed)
            graph = random_connected_graph(seed, max_n=9, max_cap=6)
            s = {v: int(rng.integers(0, 7)) for v in range(graph.n)}
            t = {v: int(rng.integers(0, 7)) for v in range(graph.n)}
            result = fair_cut(graph, s, t)
            for alpha in (1, Fraction(3, 2)):
                ok, violated = verify_fair_cut(graph, s, t, alpha,
                                               *cut_and_flow(result))
                assert ok, (seed, alpha, violated)

    def test_no_reverse_flow_into_cut(self):
        for seed in range(30):
            rng = philox(1000 + seed)
            graph = random_connected_graph(seed, max_n=8)
            s = {v: int(rng.integers(0, 5)) for v in range(graph.n)}
            t = {v: int(rng.integers(0, 5)) for v in range(graph.n)}
            result = fair_cut(graph, s, t)
            nums = result.edge_flow()
            for u, v, _c in graph.edges:
                if (u in result.cut) != (v in result.cut):
                    inner, outer = (u, v) if u in result.cut else (v, u)
                    assert flow_value(graph, nums, result.denom, outer, inner) <= 0


class TestEmptyCutBound:
    """``_fair_cut_is_empty`` against the fair cut it stands in for."""

    @staticmethod
    def _instance(seed):
        """Int sources, int or Fraction targets and a capacity scale in
        1..24 on a sparse connected graph, half of the time with unit
        capacities, or, a quarter of the time, on two disjoint connected
        parts; ``within`` is None, ``range(n)`` or a random subset, a third
        of the time each."""
        rng = philox(12000 + seed)
        graph = random_connected_graph(11000 + seed, max_n=10, extra_factor=0.3,
                                       max_cap=int(rng.choice([1, 4])))
        if rng.random() < 0.25:
            other = random_connected_graph(13000 + seed, max_n=6, max_cap=4)
            graph = Graph.from_edges(graph.n + other.n, list(graph.edges) + [
                (u + graph.n, v + graph.n, c) for u, v, c in other.edges],
                require_connected=False)
        source_w = {v: int(rng.integers(1, 9)) for v in range(graph.n) if rng.random() < 0.4}
        target_w = {v: Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 4)))
                    for v in range(graph.n) if rng.random() < 0.6}
        kind = int(rng.integers(3))
        if kind == 0:
            within = None
        elif kind == 1:
            within = range(graph.n)
        else:
            keep = rng.uniform(0.3, 0.9)
            within = frozenset(v for v in range(graph.n) if rng.random() < keep)
        return graph, source_w, target_w, within, int(rng.integers(1, 25))

    @staticmethod
    def _totals(graph, source_w, target_w):
        """Net supply and net demand of the terminal reduction over every vertex."""
        supply, demand = flow_module._net_terminals(graph, source_w, target_w,
                                                    range(graph.n))
        return sum(supply.values()), sum(demand.values())

    def test_certified_cut_is_empty_and_the_flow_saturates(self):
        # "sums pass, cut not empty" counts disconnected whole-graph instances
        # that the same sums on a connected twin certify, yet whose fair cut
        # is nonempty: only the connectivity clause keeps them uncertified
        seen = {"certified": 0, "solved": 0, "subset": 0, "disconnected": 0,
                "sums pass, cut not empty": 0}
        for seed in range(800):
            graph, source_w, target_w, within, scale = self._instance(seed)
            result = fair_cut(graph, source_w, target_w, within=within, cap_scale=scale)
            totals = self._totals(graph, source_w, target_w)
            certified = flow_module._fair_cut_is_empty(graph, *totals, within, scale)
            if certified:
                assert result.cut == frozenset() and result.saturated, seed
            seen["certified" if certified else "solved"] += 1
            if within is not None and len(within) < graph.n:
                assert not certified, seed
                seen["subset"] += 1
            elif not graph.is_connected():
                assert not certified, seed
                seen["disconnected"] += 1
                twin = Graph.from_edges(graph.n, list(graph.edges) + [(0, graph.n - 1, 1)])
                seen["sums pass, cut not empty"] += bool(
                    result.cut and flow_module._fair_cut_is_empty(
                        twin, *totals, within, scale))
        assert min(seen.values()) >= 10 and seen["certified"] >= 100, seen


class TestVerifyFairCut:
    @pytest.mark.parametrize("source_w, within", [({0: 1}, {0, 1, 2, 99}),
                                                  ({0: 1, 99: 5}, None)])
    def test_vertex_outside_graph_rejected(self, path3, source_w, within):
        with pytest.raises(ArgumentError, match="99[:,] not a vertex of the graph"):
            verify_fair_cut(path3, source_w, {2: 1}, 1, set(), {}, 1, within=within)

    def test_zero_flow_with_cut_edges_violates_saturation(self, path3):
        ok, violated = verify_fair_cut(path3, {0: 1}, {2: 1}, 1, {0}, {}, 1)
        assert not ok
        assert 5 in violated

    def test_unsaturated_outside_source_reports_property_3(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        ok, violated = verify_fair_cut(g, {0: 2}, {1: 2}, 1, set(), {}, 1)
        assert not ok
        assert violated == [3]

    def test_overfull_source_reports_property_1(self):
        g = Graph.from_edges(2, [(0, 1, 5)])
        # sends 4 but s-t headroom is 1
        ok, violated = verify_fair_cut(g, {0: 1}, {1: 1}, 1, {0}, {0: 4}, 1)
        assert not ok
        assert 1 in violated


class TestPathDecomposition:
    def test_zero_flow(self, path3):
        decomp = path_decomposition(path3, {})
        assert decomp == ()

    def test_unit_path(self, path3):
        nums = flow_module._run_max_flow(path3, {0: 1}, {2: 1}).edge_flow()
        decomp = path_decomposition(path3, nums)
        assert len(decomp) == 1
        path = decomp[0]
        assert (path.start, path.end, path.vertices, path.weight) == (0, 2, (0, 1, 2), 1)

    def test_two_parallel_routes(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (2, 3, 1)])
        nums = flow_module._run_max_flow(g, {0: 2}, {2: 2}).edge_flow()
        decomp = path_decomposition(g, nums)
        assert sum(p.weight for p in decomp) == 2
        assert all(p.start == 0 and p.end == 2 for p in decomp)

    def test_round_trip_reproduces_flow(self):
        for seed in range(40):
            rng = philox(seed)
            graph = random_connected_graph(seed, max_n=10, max_cap=5)
            s = {v: int(rng.integers(0, 5)) for v in range(graph.n)}
            t = {v: int(rng.integers(0, 5)) for v in range(graph.n)}
            nums = flow_module._run_max_flow(graph, s, t).edge_flow()
            decomp = path_decomposition(graph, nums)
            assert len(decomp) <= graph.m + graph.n
            assert accumulate(graph, decomp) == nums

    def test_circulation_gives_no_paths(self):
        g = Graph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        # edges sort as (0,1), (0,2), (1,2); this is the cycle 0->1->2->0
        assert path_decomposition(g, {0: 1, 1: -1, 2: 1}) == ()

    def test_walk_cancels_the_cycle_it_meets(self):
        g = Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1), (1, 4, 1)])
        # vertex 1's arc into the cycle 1->2->3->1 comes before its arc to 4
        flow = arc_flow(g, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
        decomp = path_decomposition(g, flow)
        assert [(p.vertices, p.weight) for p in decomp] == [((0, 1, 4), 1)]
        assert accumulate(g, decomp) == arc_flow(g, [(0, 1), (1, 4)])

    def test_circulation_off_every_walk_is_dropped(self):
        g = Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        flow = arc_flow(g, [(2, 3), (3, 4), (4, 2), (0, 1)])
        decomp = path_decomposition(g, flow)
        assert [(p.vertices, p.weight) for p in decomp] == [((0, 1), 1)]


class TestOptCongestion:
    def test_zero_demand(self, path3):
        assert opt_congestion(path3, {}) == 0
        assert brute_force_opt_congestion(path3, {}) == 0

    def test_single_edge_triple(self):
        g = Graph.from_edges(2, [(0, 1, 1)])
        assert opt_congestion(g, {0: 3, 1: -3}) == 3

    def test_double_k4_bridge_demand(self, double_k4):
        assert opt_congestion(double_k4, {0: 2, 7: -2}) == 2

    def test_star_demand(self):
        g = Graph.from_edges(4, [(3, 0, 1), (3, 1, 1), (3, 2, 1)])
        demand = {0: 1, 1: 1, 2: 1, 3: -3}
        assert opt_congestion(g, demand) == 1
        assert brute_force_opt_congestion(g, demand) == 1

    def test_unbalanced_rejected(self, path3):
        with pytest.raises(ArgumentError):
            opt_congestion(path3, {0: 1})

    def test_degree_list_is_a_fresh_copy(self, double_k4):
        # the oracle's starting ratio reads the graph's own degrees: were the
        # list shared, unit degrees would start (and end) it at 1, not 1/3
        demand = {0: 1, 1: -1}
        assert opt_congestion(double_k4, demand) == Fraction(1, 3)
        before = VertexWeights.degrees(double_k4)
        degrees = double_k4.degree_list()
        degrees[:] = [1] * double_k4.n
        assert double_k4.degree_list() == [3, 3, 3, 4, 4, 3, 3, 3]
        assert opt_congestion(double_k4, demand) == Fraction(1, 3)
        assert VertexWeights.degrees(double_k4) == before

    @pytest.mark.parametrize("oracle", [opt_congestion, brute_force_opt_congestion])
    @pytest.mark.parametrize("vertex", [3, -1])
    def test_demand_vertex_outside_graph_rejected(self, path3, oracle, vertex):
        with pytest.raises(ArgumentError, match=f"vertex {vertex}"):
            oracle(path3, {0: 1, vertex: -1})

    def test_connectivity_searched_once_per_graph(self, monkeypatch):
        searches = [0]
        original = Graph.components

        def counting(self):
            searches[0] += 1
            return original(self)

        monkeypatch.setattr(Graph, "components", counting)
        path = Graph.from_edges(6, [(i, i + 1, 1) for i in range(5)],
                                require_connected=False)
        for magnitude in range(1, 9):
            assert opt_congestion(path, {0: magnitude, 5: -magnitude}) == magnitude
        assert searches[0] == 1
        split = Graph.from_edges(4, [(0, 1, 1), (2, 3, 1)], require_connected=False)
        for _ in range(3):
            with pytest.raises(ArgumentError):
                opt_congestion(split, {0: 1, 1: -1})
        assert searches[0] == 2

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=8, max_cap=4), st.data())
    def test_matches_brute_force(self, graph, data):
        u = data.draw(st.integers(0, graph.n - 1))
        v = data.draw(st.integers(0, graph.n - 1))
        amount = data.draw(st.integers(1, 6))
        if u == v:
            return
        demand = {u: amount, v: -amount}
        assert opt_congestion(graph, demand) == \
            brute_force_opt_congestion(graph, demand)

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(max_n=7, max_cap=3), st.integers(2, 5))
    def test_scales_linearly(self, graph, factor):
        demand = {0: 2, graph.n - 1: -2}
        base = opt_congestion(graph, demand)
        scaled = opt_congestion(graph, {v: x * factor for v, x in demand.items()})
        assert scaled == base * factor


class TestDinkelbachOracle:
    """opt_congestion above the enumeration cap, and its max-flow count."""

    @pytest.mark.parametrize("graph", [generate_grid(12, 12), generate_dumbbell(12)],
                             ids=["grid12x12", "dumbbell12"])
    def test_certificate_above_enumeration_cap(self, graph):
        # cut ratios have denominators <= cap_bound, so two distinct ratios
        # differ by at least 1/cap_bound^2: routable at lam but not at
        # lam - 1/cap_bound^2 pins lam as the optimum
        cap_bound = graph.total_capacity()
        gap = Fraction(1, cap_bound * cap_bound)
        for demand in random_pair_demands(graph, 6, 4, philox(77)):
            lam = opt_congestion(graph, demand)
            pos, neg = flow_module._demand_parts(graph, demand)
            assert lam.denominator <= cap_bound
            assert flow_module._run_max_flow(graph, pos, neg, cap_scale=lam).saturated
            assert not flow_module._run_max_flow(graph, pos, neg, cap_scale=lam - gap).saturated

    @pytest.fixture
    def flow_counter(self, monkeypatch):
        counter = [0]
        original = flow_module._run_max_flow

        def counting(*args, **kwargs):
            counter[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(flow_module, "_run_max_flow", counting)
        return counter

    def test_at_most_three_flows_on_fuzz(self, flow_counter):
        worst = 0
        for seed in range(300):
            rng = philox(20_000 + seed)
            graph = random_connected_graph(seed, max_n=12, max_cap=6)
            demand = balanced_fuzz_demand(rng, graph.n)
            flow_counter[0] = 0
            opt_congestion(graph, demand)
            worst = max(worst, flow_counter[0])
        assert worst <= 3

    @pytest.mark.parametrize("size", [8, 12])
    def test_at_most_two_flows_on_bridge_demand(self, flow_counter, size):
        graph = generate_dumbbell(size)
        for magnitude in range(1, 5):
            flow_counter[0] = 0
            assert opt_congestion(graph, {0: magnitude, size: -magnitude}) == magnitude
            assert flow_counter[0] <= 2

    def test_only_failing_steps_build_the_cut(self, monkeypatch):
        solves = []
        original = flow_module._run_max_flow

        def recording(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(flow_module, "_run_max_flow", recording)
        stepped = 0
        for seed in range(100):
            rng = philox(20_000 + seed)
            graph = random_connected_graph(seed, max_n=12, max_cap=6)
            solves.clear()
            opt_congestion(graph, balanced_fuzz_demand(rng, graph.n))
            if not solves:
                continue
            *failing, final = solves
            assert final.saturated and "cut" not in final.__dict__, seed
            assert all(not s.saturated and "cut" in s.__dict__ for s in failing), seed
            stepped += bool(failing)
        assert stepped >= 10, stepped


def _networkx_max_flow(nx, graph, supply, demand, within, scale):
    """Reference value and minimal min-cut source side from networkx."""
    verts = set(range(graph.n)) if within is None else set(within)
    ref = nx.DiGraph()
    ref.add_nodes_from(["s", "t", *range(graph.n)])
    for u, v, c in graph.edges:
        if u in verts and v in verts:
            ref.add_edge(u, v, capacity=c * scale)
            ref.add_edge(v, u, capacity=c * scale)
    for v, c in supply.items():
        if v in verts:
            ref.add_edge("s", v, capacity=c)
    for v, c in demand.items():
        if v in verts:
            ref.add_edge(v, "t", capacity=c)
    residual = nx.algorithms.flow.edmonds_karp(ref, "s", "t")
    seen, stack = {"s"}, ["s"]
    while stack:
        a = stack.pop()
        for b, attrs in residual[a].items():
            if attrs["capacity"] - attrs["flow"] > 0 and b not in seen:
                seen.add(b)
                stack.append(b)
    return residual.graph["flow_value"], frozenset(seen - {"s"})


def _multi_terminal_instance(rng, graph):
    """Disjoint supply and demand vertices, a within subset or None, a scale."""
    supply, demand = {}, {}
    for v in range(graph.n):
        side = int(rng.integers(3))
        if side == 1:
            supply[v] = int(rng.integers(1, 12))
        elif side == 2:
            demand[v] = int(rng.integers(1, 12))
    within = None
    if rng.random() < 0.5:
        within = frozenset(v for v in range(graph.n) if rng.random() < 0.75)
    return supply, demand, within, int(rng.integers(1, 4))


class TestAgainstNetworkx:
    def test_max_flow_matches_reference(self):
        nx = pytest.importorskip("networkx")
        for seed in range(40):
            graph = random_connected_graph(2000 + seed, max_n=14, max_cap=9)
            rng = philox(seed)
            s = int(rng.integers(graph.n))
            t = int(rng.integers(graph.n - 1))
            if t >= s:
                t += 1
            big = graph.total_capacity() + 1
            value = flow_module._run_max_flow(graph, {s: big}, {t: big}).value
            ref = nx.DiGraph()
            ref.add_nodes_from(range(graph.n))
            for u, v, c in graph.edges:
                ref.add_edge(u, v, capacity=c)
                ref.add_edge(v, u, capacity=c)
            assert value == nx.maximum_flow_value(ref, s, t)

    def test_multi_terminal_calls_on_one_graph(self):
        # back-to-back calls on one Graph object, mixing within and scales:
        # each must match networkx and a fresh graph's answer exactly
        nx = pytest.importorskip("networkx")
        for seed in range(30):
            graph = random_connected_graph(3000 + seed, max_n=14, max_cap=9)
            rng = philox(seed)
            for _call in range(6):
                supply, demand, within, scale = _multi_terminal_instance(rng, graph)
                solved = flow_module._run_max_flow(graph, supply, demand, within, scale)
                value, reach = _networkx_max_flow(nx, graph, supply, demand, within, scale)
                assert solved.value == value
                assert solved.cut == reach
                nums = solved.edge_flow()
                fresh = flow_module._run_max_flow(Graph(graph.n, graph.edges),
                                                  supply, demand, within, scale)
                assert (fresh.value, fresh.cut, fresh.edge_flow()) == \
                    (value, reach, nums)

                verts = set(range(graph.n)) if within is None else within
                for idx, num in nums.items():
                    u, v, c = graph.edges[idx]
                    assert u in verts and v in verts and abs(num) <= c * scale
                nets = [flow_net_numerator(graph, nums, v) for v in range(graph.n)]
                for v, net in enumerate(nets):
                    # supply and demand vertices are disjoint
                    assert -demand.get(v, 0) <= net <= supply.get(v, 0)
                assert sum(net for net in nets if net > 0) == value

    def test_layout_built_once_per_graph(self):
        graph = generate_grid(4, 5)
        layout = graph._arc_layout
        to, cap, head = (list(part) for part in layout)
        assert len(to) == 2 * graph.m + 4 * graph.n and len(head) == graph.n
        rng = philox(5)
        for _call in range(8):
            supply, demand, within, scale = _multi_terminal_instance(rng, graph)
            flow_module._run_max_flow(graph, supply, demand, within, scale)
            fair_cut(graph, supply, demand, within=within, cap_scale=scale)
        assert graph._arc_layout is layout
        assert (layout[0], layout[1], layout[2]) == (to, cap, head)


def _scaling_instance(seed):
    """A connected graph with terminals, a within set and a capacity scale.

    ``within`` is None, the whole vertex set or a random subset, a third of
    the time each; the scale is log-uniform in 1..3600; a terminal's supply
    or demand lies between 0.1 and 2 times its scaled degree, so it falls
    above or below the capacity of the edges at it.  Supply and demand may
    share a vertex.
    """
    graph = random_connected_graph(5000 + seed, max_n=14, max_cap=9)
    rng = philox(6000 + seed)
    scale = round(3600 ** rng.random())
    deg = graph.degree_list()
    supply, demand = {}, {}
    for v in range(graph.n):
        for terminals in (supply, demand):
            if rng.random() < 0.4:
                terminals[v] = int(deg[v] * scale * rng.uniform(0.1, 2.0)) + 1
    kind = int(rng.integers(3))
    if kind == 0:
        within = None
    elif kind == 1:
        within = frozenset(range(graph.n))
    else:
        keep = rng.uniform(0.2, 0.9)
        within = frozenset(v for v in range(graph.n) if rng.random() < keep)
    return graph, supply, demand, within, scale


def residual_dfs_reach(solved):
    """Graph vertices reachable from the super-source in the residual graph,
    found by a depth-first walk over the residuals, as a reference."""
    graph, res = solved.graph, solved.res
    to, _cap, head = graph._arc_layout
    n, m2 = graph.n, 2 * graph.m
    # the layout lists no super-terminal arcs: the super-source's are 2m + 2v
    s_star = n
    head = [*head, [m2 + 2 * v for v in range(n)]]
    seen = {s_star}
    stack = [s_star]
    while stack:
        v = stack.pop()
        for idx in head[v]:
            w = to[idx]
            if res[idx] > 0 and w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(s_star)
    return frozenset(seen)


def full_scan_edge_flow(solved):
    """Every edge's net flow, read from its residuals one edge at a time, as a reference."""
    res = solved.res
    nums = {}
    for idx in range(solved.graph.m):
        pushed = (res[2 * idx + 1] - res[2 * idx]) // 2
        if pushed:
            nums[idx] = pushed
    return nums


def _push_circulation(graph, res, rng) -> bool:
    """Push flow around one cycle of graph arcs with residual left, if a walk finds one.

    The flow stays feasible and keeps its value; only a circulation is added.
    """
    to, _cap, head = graph._arc_layout
    m2 = 2 * graph.m
    v = int(rng.integers(graph.n))
    path, seen_at = [], {v: 0}
    for _hop in range(graph.n + 1):
        arcs = [a for a in head[v]
                if a < m2 and res[a] > 0 and not (path and a == path[-1] ^ 1)]
        if not arcs:
            return False
        arc = arcs[int(rng.integers(len(arcs)))]
        path.append(arc)
        v = to[arc]
        if v in seen_at:
            cycle = path[seen_at[v]:]
            amount = int(rng.integers(1, min(res[a] for a in cycle) + 1))
            for a in cycle:
                res[a] -= amount
                res[a ^ 1] += amount
            return True
        seen_at[v] = len(path)
    return False


class TestEdgeFlow:
    def test_pushed_edges_give_the_full_scan_result(self):
        seen = {"flows": 0, "cycles": 0}
        for seed in range(600):
            graph, supply, demand, within, scale = _scaling_instance(seed)
            solved = flow_module._run_max_flow(graph, supply, demand, within, scale)
            assert solved.cut == residual_dfs_reach(solved), seed
            # the solved flow, then the same flow plus a circulation
            for circulate in (False, True):
                if circulate and not _push_circulation(graph, solved.res,
                                                       philox(8000 + seed)):
                    break
                expected = full_scan_edge_flow(solved)
                got = solved.edge_flow()
                assert list(got.items()) == list(expected.items()), (seed, circulate)
                seen["flows"] += bool(expected)
                if circulate:
                    seen["cycles"] += self._decomposes_without_circulation(graph, got)
        assert seen["flows"] >= 450 and seen["cycles"] >= 60, seen

    @staticmethod
    def _decomposes_without_circulation(graph, nums) -> bool:
        """Check a flow's decomposition; True when it drops a circulation.

        The paths keep every vertex's net flow, and on every edge they carry
        the flow's direction and at most its amount.
        """
        again = accumulate(graph, path_decomposition(graph, nums))
        for v in range(graph.n):
            assert flow_net_numerator(graph, again, v) == \
                flow_net_numerator(graph, nums, v), v
        for idx in set(nums) | set(again):
            path_sum, net = again.get(idx, 0), nums.get(idx, 0)
            assert path_sum * net >= 0 and abs(path_sum) <= abs(net), idx
        return again != nums


class TestUnscaledSolve:
    """Plain Dinic, the one solve behind every max flow."""

    def test_value_and_reach_match_the_scaled_solve(self):
        # the reference is networkx's Edmonds-Karp on the same scaled instance:
        # every maximum flow has the same value and minimal min-cut side
        nx = pytest.importorskip("networkx")
        for seed in range(600):
            graph, supply, demand, within, scale = _scaling_instance(seed)
            solved = flow_module._run_max_flow(graph, supply, demand, within, scale)
            reference = _networkx_max_flow(nx, graph, supply, demand, within, scale)
            assert (solved.value, solved.cut) == reference, seed

    def test_whole_vertex_set_solves_like_no_within(self):
        for seed in range(60):
            graph, supply, demand, _within, scale = _scaling_instance(seed)
            free = flow_module._run_max_flow(graph, supply, demand, None, scale)
            whole = flow_module._run_max_flow(graph, supply, demand,
                                              list(range(graph.n)), scale)
            assert whole.res == free.res

    def test_fair_cut_flow_verifies_and_decomposes(self):
        for seed in range(600):
            graph, supply, demand, within, scale = _scaling_instance(seed)
            rng = philox(7000 + seed)
            target_w = {v: Fraction(x, int(rng.integers(1, 4))) for v, x in demand.items()}
            result = fair_cut(graph, supply, target_w, within=within, cap_scale=scale)
            cut, nums, denom = cut_and_flow(result)
            ok, violated = verify_fair_cut(graph, supply, target_w, 1, cut, nums, denom,
                                           within=within, cap_scale=scale)
            assert ok, (seed, violated)
            assert accumulate(graph, path_decomposition(graph, nums)) == nums

    def test_solve_override_serves_both_kinds(self, monkeypatch):
        # a subclass overriding only solve(self, s, t), as a tracing harness
        # does, is built and run for every kind of solve
        seen = []

        class Recording(flow_module._Dinic):
            def solve(self, s, t):
                value = super().solve(s, t)
                seen.append(value)
                return value

        monkeypatch.setattr(flow_module, "_Dinic", Recording)
        graph = generate_grid(3, 3)
        assert flow_module._run_max_flow(graph, {0: 5}, {8: 5}).value == 2
        assert fair_cut(graph, {0: 5}, {8: 5}).cut == frozenset({0})
        assert opt_congestion(graph, {0: 4, 8: -4}) == 2
        # the Dinkelbach iteration stops at its first lambda, 2, routing all 4
        assert seen == [2, 2, 4]


class TestTerminalArcs:
    """Each solve lists only the terminal arcs a phase can take, and solves bit
    for bit as the layout with every terminal arc at every vertex does
    (``full_layout_solve``)."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """The arc lists and the starting residuals of each solver built."""
        calls = []

        class Capturing(flow_module._Dinic):
            def __init__(self, to, head, res):
                calls.append((head, list(res)))
                super().__init__(to, head, res)

        monkeypatch.setattr(flow_module, "_Dinic", Capturing)
        return calls

    @staticmethod
    def _assert_full_layout_solve(graph, args, solved, handed):
        (head, start), = handed
        handed.clear()
        value, level, res, full_head, full_start = full_layout_solve(graph, *args)
        assert (solved.value, solved.level, solved.res) == (value, level, res)
        assert start == full_start and len(head) == len(full_head)
        n, m2 = graph.n, 2 * graph.m
        # no phase takes an arc into the super-source, and none reads the
        # super-sink's list
        into_source = {m2 + 2 * v + 1 for v in range(n)}
        assert not any(into_source.intersection(arcs) for arcs in head)
        assert head[n + 1] == []
        for arcs, full in zip(head[:n + 1], full_head):
            # the reference's list in its order, less arcs into the
            # super-source and arcs that never carry residual
            rest = iter(full)
            assert all(arc in rest for arc in arcs), (arcs, full)
            assert all(start[arc] == res[arc] == 0
                       for arc in set(full) - set(arcs) - into_source)

    def test_random_instances(self, handed):
        seen = {"shared terminals": 0, "several sources": 0, "part of the graph": 0}
        for seed in range(600):
            graph, supply, demand, within, scale = _scaling_instance(seed)
            solved = flow_module._run_max_flow(graph, supply, demand, within, scale)
            self._assert_full_layout_solve(graph, (supply, demand, within, scale),
                                           solved, handed)
            seen["shared terminals"] += bool(supply.keys() & demand.keys())
            seen["several sources"] += len(supply) > 1
            seen["part of the graph"] += within is not None and len(within) < graph.n
        assert min(seen.values()) >= 150, seen

    def test_eval_corpus_demands(self, handed, monkeypatch):
        # every Dinkelbach step of the benchmark's eval batch at seed 1
        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        ops = workloads.eval_ops(workloads.setup("eval", 1))
        handed.clear()
        real_run = flow_module._run_max_flow
        solves = []

        def checked(graph, supply, demand, within=None, cap_scale=1):
            solved = real_run(graph, supply, demand, within, cap_scale)
            self._assert_full_layout_solve(graph, (supply, demand, within, cap_scale),
                                           solved, handed)
            solves.append(solved.saturated)
            return solved

        monkeypatch.setattr(flow_module, "_run_max_flow", checked)
        for case, demand in ops:
            opt_congestion(case.graph, demand)
        assert len(ops) == 308 and len(solves) > len(ops) and not all(solves)


class TestTerminalReduction:
    @staticmethod
    def _fraction_reduction(source_w, target_w, verts):
        net = {v: Fraction(source_w.get(v, 0)) - Fraction(target_w.get(v, 0))
               for v in (set(source_w) | set(target_w)) & verts}
        denom = math.lcm(*(x.denominator for x in net.values()))
        supply = {v: int(x * denom) for v, x in net.items() if x > 0}
        demand = {v: int(-x * denom) for v, x in net.items() if x < 0}
        return denom, supply, demand

    @pytest.fixture
    def captured(self, monkeypatch):
        """The residual list each solve hands to the solver."""
        calls = []

        class Capturing(flow_module._Dinic):
            def __init__(self, to, head, res):
                calls.append(list(res))
                super().__init__(to, head, res)

        monkeypatch.setattr(flow_module, "_Dinic", Capturing)
        return calls

    @staticmethod
    def _residuals(graph, verts, supply, demand, edge_scale):
        """Terminal arcs at the supply and demand, both arcs of an edge inside
        ``verts`` at edge_scale * cap, every other arc 0 (``Graph._arc_layout``)."""
        n, m2 = graph.n, 2 * graph.m
        res = [0] * (m2 + 4 * n)
        for idx, (u, v, c) in enumerate(graph.edges):
            if u in verts and v in verts:
                res[2 * idx] = res[2 * idx + 1] = edge_scale * c
        for v, x in supply.items():
            res[m2 + 2 * v] = x
        for v, x in demand.items():
            res[m2 + 2 * n + 2 * v] = x
        return res

    @pytest.mark.parametrize("source_w, target_w, within", [
        ({0: Fraction(1, 3)}, {0: Fraction(1, 3)}, None),
        ({0: 2, 1: Fraction(1, 2), 3: Fraction(5, 6)},
         {1: Fraction(1, 2), 2: Fraction(2, 3), 4: 1}, None),
        ({0: 3, 2: Fraction(7, 4)}, {0: Fraction(3, 1), 5: Fraction(9, 4), 4: 2}, None),
        ({0: Fraction(1, 6), 1: 4}, {3: Fraction(1, 6), 5: Fraction(2, 7)}, range(5)),
        ({v: v for v in range(6)}, {v: 5 - v for v in range(6)}, None),
        ({0: Fraction(1, 2)}, {5: Fraction(2, 7)}, None),
    ])
    def test_matches_fraction_formula(self, captured, source_w, target_w, within):
        graph = generate_grid(2, 3)
        verts = set(range(graph.n)) if within is None else set(within)
        result = fair_cut(graph, source_w, target_w, within=within, cap_scale=3)
        denom, supply, demand = self._fraction_reduction(source_w, target_w, verts)
        assert result.denom == denom
        assert captured == [self._residuals(graph, verts, supply, demand, 3 * denom)]
        ok, violated = verify_fair_cut(graph, source_w, target_w, 1,
                                       *cut_and_flow(result), within=within, cap_scale=3)
        assert ok, violated

    def test_cancelling_thirds_give_denominator_one(self):
        graph = Graph.from_edges(2, [(0, 1, 1)])
        third = Fraction(1, 3)
        result = fair_cut(graph, {0: third, 1: 1}, {0: third, 1: 1})
        assert result.denom == 1 and result.cut == frozenset()


class TestLazyFairFlow:
    def test_flow_read_after_other_flows_verifies(self):
        for seed in range(20):
            rng = philox(4000 + seed)
            graph = random_connected_graph(seed, max_n=10, max_cap=6)
            s = {v: Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 4)))
                 for v in range(graph.n)}
            t = {v: int(rng.integers(0, 7)) for v in range(graph.n)}
            result = fair_cut(graph, s, t)
            assert "cut" not in result.__dict__
            for _later in range(3):
                supply, demand, within, scale = _multi_terminal_instance(rng, graph)
                flow_module._run_max_flow(graph, supply, demand, within)
                fair_cut(graph, supply, demand, within=within, cap_scale=scale)
            ok, violated = verify_fair_cut(graph, s, t, Fraction(3, 2),
                                           *cut_and_flow(result))
            assert ok, (seed, violated)
            assert result.cut is result.cut


class TestFlowOrientation:
    def test_path_flow_values(self, path3):
        nums = flow_module._run_max_flow(path3, {0: 1}, {2: 1}).edge_flow()
        assert [flow_value(path3, nums, 1, u, v) for u, v in ((0, 1), (1, 2), (2, 1))] == \
            [1, 1, -1]

    def test_negative_orientation_flipped(self, path3):
        nums = {0: -1}
        assert (flow_value(path3, nums, 2, 1, 0), flow_value(path3, nums, 2, 0, 1)) == \
            (Fraction(1, 2), Fraction(-1, 2))

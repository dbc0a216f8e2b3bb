"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported tables.
"""

import math
import time
from fractions import Fraction

import numpy as np

from treecut import (CutMatchingGame, Graph, VertexWeights,
                     boundary_capacity, brute_force_opt_congestion,
                     certify_well_expanding, check_expanding, check_laminar,
                     construct_hierarchy, default_gamma, diamond_adversarial_demands,
                     fair_cut, generate_diamond, opt_congestion, oracle_params,
                     quality_ratio, sparsest_cut_apx, to_tree_sparsifier)
from treecut.cutmatch import slowdown_for

from conftest import philox, played_rounds, random_connected_graph, two_cliques_bridge
from oracles import verify_fair_cut
from walk_diagnostics import dense_flow_matrix, pair_permutation, potential


def report(number: int, name: str, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}: {detail} "
          f"({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {number}: {name}: {detail}"


def balanced_fuzz_demand(rng, n: int, spread: int = 4, magnitude: int = 8):
    verts = rng.choice(n, size=min(n, int(rng.integers(2, spread + 1))),
                       replace=False)
    demand = {int(v): int(rng.integers(-magnitude, magnitude + 1))
              for v in verts[:-1]}
    demand[int(verts[-1])] = -sum(demand.values())
    return {v: x for v, x in demand.items() if x}


def test_01_fair_cut_soundness():
    started = time.perf_counter()
    failures = []
    for seed in range(500):
        rng = philox(10_000 + seed)
        graph = random_connected_graph(seed, max_n=12, max_cap=8)
        s = {v: int(rng.integers(0, 9)) for v in range(graph.n)}
        t = {v: int(rng.integers(0, 9)) for v in range(graph.n)}
        result = fair_cut(graph, s, t)
        for alpha in (1, Fraction(3, 2)):
            ok, violated = verify_fair_cut(graph, s, t, alpha, result.cut,
                                           result.flow)
            if not ok:
                failures.append((seed, alpha, violated))
    report(1, "fair-cut soundness", not failures,
           f"500 instances at alpha in {{1, 3/2}}, {len(failures)} violations",
           started)


def test_02_congestion_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for seed in range(300):
        rng = philox(20_000 + seed)
        graph = random_connected_graph(seed, max_n=12, max_cap=6)
        demand = balanced_fuzz_demand(rng, graph.n)
        if opt_congestion(graph, demand) != brute_force_opt_congestion(graph, demand):
            mismatches += 1
    report(2, "congestion oracle equivalence", mismatches == 0,
           f"300 fuzzed instances, {mismatches} mismatches", started)


def test_03_sparse_cut_sparsity_on_dumbbell():
    started = time.perf_counter()
    graph = two_cliques_bridge(8)
    degrees = VertexWeights.degrees(graph)
    phi = Fraction(1, 4)
    violations = 0
    nonempty = 0
    for seed in range(100):
        cut = sparsest_cut_apx(graph, degrees, phi, philox(30_000 + seed))
        if cut:
            nonempty += 1
            cap = boundary_capacity(graph, cut, range(graph.n))
            if cap > phi * degrees.total(cut):
                violations += 1
    report(3, "sparse cut sparsity (dumbbell)", violations == 0,
           f"100 runs, {nonempty} nonempty cuts, {violations} sparsity violations",
           started)


def test_04_sparse_cut_expansion_branch():
    started = time.perf_counter()
    graph = Graph.from_edges(8, [(i, j, 1) for i in range(8)
                                 for j in range(i + 1, 8)])
    degrees = VertexWeights.degrees(graph)
    phi = Fraction(1, 8)
    qstar, beta, _tau = oracle_params(degrees.total())
    good = 0
    for seed in range(50):
        cut = sparsest_cut_apx(graph, degrees, phi, philox(40_000 + seed))
        if degrees.total(cut) >= beta * degrees.total():
            continue
        rest = set(range(graph.n)) - cut
        restricted = VertexWeights({v: w for v, w in degrees.items()
                                    if v in rest and w != 0})
        ok, _w = check_expanding(graph, range(graph.n), restricted, phi / qstar)
        good += ok
    report(4, "sparse cut expansion branch", good >= 45,
           f"50 expander runs, {good} certified at quality {phi}/{qstar}", started)


def test_05_cut_player_potential():
    # on a path whose sparsest cut (1/16 and 1/32) lies below phi/q* (1/10
    # and 1/12), so that no expansion certificate can end a game early
    started = time.perf_counter()
    base = Graph.from_edges(8, [(i, i + 1, 1) for i in range(7)])
    initial_exact = abs(potential([], range(32), slowdown_for(32), 32) - 31.0) < 1e-9
    monotone = True
    converged = {32: 0, 64: 0}
    for per_vertex, k in ((4, 32), (8, 64)):
        pi = {v: per_vertex for v in range(8)}
        for seed in range(50):
            game = CutMatchingGame(base, pi, Fraction(1, 2),
                                   philox(50_000 + seed))
            values = [float(k - 1)]
            while game.stopped is None:
                game.step()
                values.append(potential(game.perms, game.active_mask, game.slowdown, k))
            tol = 1e-9 * k
            if any(b > a + tol for a, b in zip(values, values[1:])):
                monotone = False
            if values[-1] <= 1.0 / k ** 3:
                converged[k] += 1
    ok = initial_exact and monotone and all(c >= 45 for c in converged.values())
    report(5, "cut player potential", ok,
           f"phi(0) exact: {initial_exact}, monotone: {monotone}, "
           f"converged k=32: {converged[32]}/50, k=64: {converged[64]}/50", started)


def test_06_walk_identities():
    started = time.perf_counter()
    rng = philox(60_000)
    identity_ok = stochastic_ok = volume_ok = True
    for trial in range(30):
        k = int(rng.integers(4, 33))
        slowdown = int(2 ** rng.integers(1, 4))
        # random matching sequence with a bounded deletion pattern
        budget = int(k / (2 * math.log2(k)))
        deleted: set[int] = set()
        matchings = []
        for _ in range(int(rng.integers(1, 8))):
            alive = [u for u in range(k) if u not in deleted]
            rng.shuffle(alive)
            take = int(rng.integers(0, len(alive) // 2 + 1))
            matchings.append(tuple(
                (min(alive[2 * i], alive[2 * i + 1]),
                 max(alive[2 * i], alive[2 * i + 1])) for i in range(take)))
            if len(deleted) < budget and len(alive) > 2:
                deleted.add(alive[-1])
        active = [u for u in range(k) if u not in deleted]

        # closed form for the slowed mixing power
        pairs = matchings[-1]
        m = np.zeros((k, k))
        i_act = np.zeros((k, k))
        for v in active:
            i_act[v, v] = m[v, v] = 1.0
        for i, j in pairs:
            if i in deleted or j in deleted:
                continue
            m[i, i] = m[j, j] = 0.0
            m[i, j] = m[j, i] = 1.0
        n_mat = np.eye(k) - (i_act - m) / slowdown
        lam = 0.5 - 0.5 * (1 - 2 / slowdown) ** (4 * slowdown)
        power = np.linalg.matrix_power(n_mat, 4 * slowdown)
        if lam < 0.25 or np.abs(power - (np.eye(k) - lam * (i_act - m))).max() > 1e-9:
            identity_ok = False

        f = dense_flow_matrix([pair_permutation(m, k) for m in matchings], slowdown, k)
        if np.abs(f.sum(axis=0) - 1).max() > 1e-12 or \
                np.abs(f.sum(axis=1) - 1).max() > 1e-12:
            stochastic_ok = False
        ones_active = np.zeros(k)
        ones_active[active] = 1.0
        if ones_active @ f @ ones_active < (1 - 1 / math.log2(k)) * k - 1e-9:
            volume_ok = False
    ok = identity_ok and stochastic_ok and volume_ok
    report(6, "walk identities", ok,
           f"identity: {identity_ok}, doubly stochastic: {stochastic_ok}, "
           f"volume floor: {volume_ok}", started)


def test_07_matching_player_invariants():
    started = time.perf_counter()
    bad = []
    for seed in range(100):
        rng = philox(70_000 + seed)
        graph = random_connected_graph(seed, max_n=8, max_cap=3)
        pi = VertexWeights({v: int(rng.integers(0, 6)) for v in range(graph.n)})
        if pi.total() < 2:
            pi = VertexWeights.degrees(graph)
        phi = Fraction(int(rng.integers(1, 10)), 10)
        # the potential stop is off: games end on balance, budget or 40 rounds
        game = CutMatchingGame(graph, pi, phi, philox(71_000 + seed), early_stop=False)
        c = game.congestion_factor
        with played_rounds() as rounds:
            while game.stopped is None and game.round < 40:
                game.step()
                played = rounds[-1]

                lockstep = ~game.active_mask == np.isin(game.vertex_of, list(game.deleted))
                if not lockstep.all():
                    bad.append((seed, "unit-vertex lockstep"))
                inactive = frozenset(game.deleted)
                if inactive:
                    cap = boundary_capacity(graph, inactive, range(graph.n))
                    if c * cap > game.pi.total(inactive):
                        bad.append((seed, "deleted set sparsity"))
                for eidx, load in enumerate(game.load.tolist()):
                    if load > 4 * c * game.round * graph.edges[eidx][2]:
                        bad.append((seed, "embedding load"))
                a = len(played.active)
                if len(played.left) <= a / 8 and len(played.right) >= a / 2:
                    if 5 * len(played.active - played.dropped) < a:
                        bad.append((seed, "survivor bound"))
    report(7, "matching player invariants", not bad,
           f"100 fuzzed games, violations: {bad[:3] if bad else 'none'}", started)


def hierarchy_fuzz_sizes():
    sizes = []
    rng = philox(123)
    for _ in range(160):
        sizes.append(int(rng.integers(2, 17)))
    for _ in range(30):
        sizes.append(int(rng.integers(17, 41)))
    for _ in range(10):
        sizes.append(int(rng.integers(41, 65)))
    return sizes


def test_08_hierarchy_structure():
    started = time.perf_counter()
    bad = []
    for seed, n in enumerate(hierarchy_fuzz_sizes()):
        graph = random_connected_graph(80_000 + seed, max_n=n, min_n=n, max_cap=3)
        decomposition = construct_hierarchy(graph, rng=philox(81_000 + seed))
        if not decomposition.is_complete():
            bad.append((seed, "incomplete"))
        if not check_laminar(decomposition):
            bad.append((seed, "not laminar"))
        if decomposition.height > 2 * math.ceil(math.log2(graph.n)) + 2:
            bad.append((seed, "too tall"))
        levels = decomposition.levels
        for i in range(2, len(levels)):
            for cluster in levels[i].clusters:
                grand = decomposition.parent_of(
                    i - 1, decomposition.parent_of(i, cluster))
                if grand != cluster and 2 * len(cluster) > len(grand):
                    bad.append((seed, "halving"))
    report(8, "hierarchy structure", not bad,
           f"200 fuzzed graphs up to n=64, violations: {bad[:3] if bad else 'none'}",
           started)


def test_09_congestion_approximator_sandwich():
    started = time.perf_counter()
    max_ratio = Fraction(0)
    order_violations = 0
    bound_violations = 0
    for seed in range(50):
        graph = random_connected_graph(90_000 + seed, max_n=12, max_cap=4)
        decomposition = construct_hierarchy(graph, rng=philox(91_000 + seed))
        tree = to_tree_sparsifier(decomposition, graph)
        gamma = default_gamma(graph)
        loglog = max(1.0, math.log2(max(math.log2(graph.n), 1.0)))
        bound = Fraction(6.0 * loglog) * \
            Fraction(decomposition.height + math.log2(graph.n)) / gamma
        rng = philox(92_000 + seed)
        for _ in range(100):
            demand = balanced_fuzz_demand(rng, graph.n, spread=3, magnitude=4)
            if not demand:
                continue
            worst, rows = quality_ratio(graph, tree, [demand])
            row = rows[0]
            if row["predict"] > row["opt"]:
                order_violations += 1
            if row["opt"] > bound * row["predict"]:
                bound_violations += 1
            max_ratio = max(max_ratio, worst)
    ok = order_violations == 0 and bound_violations == 0
    report(9, "congestion approximator sandwich", ok,
           f"50 graphs x 100 demands, max observed ratio {float(max_ratio):.2f}, "
           f"order violations {order_violations}, bound violations {bound_violations}",
           started)


def test_10_well_expansion_certification():
    started = time.perf_counter()
    passing = 0
    for seed in range(30):
        graph = random_connected_graph(100_000 + seed, max_n=14, max_cap=3)
        decomposition = construct_hierarchy(graph, rng=philox(101_000 + seed))
        report_obj = certify_well_expanding(graph, decomposition,
                                            default_gamma(graph))
        passing += report_obj.all_pass
    report(10, "well-expansion certification", passing >= 27,
           f"30 fuzzed graphs, {passing} fully certified", started)


def test_11_diamond_demo():
    started = time.perf_counter()
    expected_edges = {2: 16, 3: 64}
    table = []
    ok = True
    for order in (2, 3):
        graph = generate_diamond(order)
        if graph.m != expected_edges[order]:
            ok = False
        decomposition = construct_hierarchy(graph, rng=philox(110_000 + order))
        tree = to_tree_sparsifier(decomposition, graph)
        demands = diamond_adversarial_demands(order, tree=tree)
        worst, rows = quality_ratio(graph, tree, demands)
        if any(row["predict"] > row["opt"] for row in rows):
            ok = False
        if worst < 1:
            ok = False
        table.append((order, graph.n, graph.m, float(worst)))
    lines = ", ".join(f"k={k}: n={n} m={m} max_ratio={r:.3f}"
                      for k, n, m, r in table)
    report(11, "diamond demo", ok, lines, started)

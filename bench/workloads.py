"""Seeded corpora, timed operations and output checks of the three workloads.

``build-small`` and ``build-large`` time what ``treecut build`` does, one
``construct_hierarchy`` + ``to_tree_sparsifier`` per op.  ``eval`` times what
``treecut eval`` does, one ``quality_ratio`` demand per op, on trees built in
set-up by the code under test.  Every library call goes through its module
attribute, so a ``spans.Recorder`` can rebind it.  The seed fixes the random
graphs, the demands and every build's random choices, so each batch of a run
repeats the same work and must produce the same outputs.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from treecut import flow, generators, graphs, hierarchy, textio
from treecut.cutmatch import POTENTIAL_UNIT_CAP

MAGNITUDE = 4
#: random pair demands scored on each tree a build workload makes
QUALITY_DEMANDS = 40
#: random pair demands per graph in the eval batch
EVAL_DEMANDS = 60
#: opt_congestion is spot-checked by subset enumeration up to this many
#: vertices; enumeration costs about 0.3 s at n = 20 and 11 s at n = 24
BRUTE_FORCE_N = 20
SPOT_CHECKS = 4
#: steps of the reference loop; about 0.34 ms on a two-core VM at its fastest
REFERENCE_STEPS = 3000


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


@dataclass(frozen=True)
class Spec:
    name: str
    make: Callable[[np.random.Generator], graphs.Graph]
    fixed_demands: Callable[[object], list] = lambda tree: []


def _er(n: int, p: float) -> Spec:
    return Spec(f"er{n}", lambda rng: generators.generate_erdos_renyi(n, p, rng))


def _grid(w: int, h: int) -> Spec:
    return Spec(f"grid{w}x{h}", lambda rng: generators.generate_grid(w, h))


def _dumbbell(size: int) -> Spec:
    # vertices 0 and ``size`` are the ends of the bridge; routing across it
    # is where a star of singleton cuts under-predicts the most
    return Spec(f"dumbbell{size}", lambda rng: generators.generate_dumbbell(size),
                lambda tree: [{0: MAGNITUDE, size: -MAGNITUDE}])


def _diamond(order: int) -> Spec:
    return Spec(f"diamond{order}", lambda rng: generators.generate_diamond(order),
                lambda tree: generators.diamond_adversarial_demands(order, tree))


#: The build corpora are many builds of similar cost rather than a few large
#: ones: the seed moves a single build's time by up to a third (the game's
#: length depends on its random walks), and a sum over more builds moves less.
CORPORA = {
    "build-small": [_er(n, 0.3) for n in (10, 14, 18, 22, 22, 26, 26, 30, 30)]
                   + [_grid(6, 6), _grid(8, 8), _dumbbell(8), _dumbbell(12), _diamond(3)],
    "build-large": [_grid(12, 12), _dumbbell(18), _er(64, 0.2), _er(64, 0.2),
                    _er(80, 0.12), _er(80, 0.12)],
    "eval": [_grid(12, 12), _er(48, 0.15), _dumbbell(12), _diamond(3), _dumbbell(8)],
}

#: weight units of each root game: build-small keeps the dense potential
#: tracker on (k <= POTENTIAL_UNIT_CAP), build-large keeps it off
UNIT_RANGE = {"build-small": (2, POTENTIAL_UNIT_CAP),
              "build-large": (POTENTIAL_UNIT_CAP + 1, math.inf),
              "eval": (2, math.inf)}


@dataclass
class Case:
    """One corpus graph, with its set-up tree and demand batch for eval."""

    spec: Spec
    graph: graphs.Graph
    decomposition: object = None
    tree: object = None
    demands: list = field(default_factory=list)


@dataclass
class Batch:
    """One timed pass over a workload's fixed batch of ops.

    ``refs`` holds the times of the reference loop run before the first op
    and after each op, so op ``i`` lies between ``refs[i]`` and ``refs[i + 1]``.
    """

    wall: float
    latencies: list[float]
    refs: list[float]
    outputs: list
    digests: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(parts: list[str]) -> str:
    return _sha("\n".join(parts))


def build(graph, seed: int, index: int):
    decomposition = hierarchy.construct_hierarchy(
        graph, hierarchy.HierarchyConfig(), rng_for(seed, 1, index))
    return decomposition, hierarchy.to_tree_sparsifier(decomposition, graph)


def tree_problems(graph, decomposition, tree) -> list[str]:
    """The hierarchy's structural guarantees, recomputed from its public fields."""
    problems = []
    if not graphs.check_laminar(decomposition):
        problems.append("not laminar")
    if not decomposition.is_complete():
        problems.append("leaves are not singletons")
    levels = decomposition.levels
    for i in range(2, len(levels)):
        for cluster in levels[i].clusters:
            grand = decomposition.parent_of(i - 1, decomposition.parent_of(i, cluster))
            if grand != cluster and 2 * len(cluster) > len(grand):
                problems.append(f"level {i}: {len(cluster)} vertices under a "
                                f"grandparent of {len(grand)}")
    if sorted(node.leaf_vertex for node in tree.leaves()) != list(range(graph.n)):
        problems.append("tree leaves are not the graph's vertices")
    return problems


def row_problems(row) -> list[str]:
    predicted, optimal, ratio = row["predict"], row["opt"], row["ratio"]
    problems = []
    if predicted > optimal:
        problems.append(f"predicted {predicted} exceeds optimal {optimal}")
    if ratio != (optimal / predicted if predicted else 1):
        problems.append(f"ratio {ratio} is not optimal/predicted")
    return problems


def _report(what: str, problems: list[str]) -> bool:
    for problem in problems:
        print(f"check failed: {what}: {problem}", file=sys.stderr)
    return bool(problems)


def setup(workload: str, seed: int) -> list[Case]:
    """Generate the corpus, round-trip it through the edge-list format and,
    for eval, build and round-trip the trees and draw the demand batch."""
    gen = rng_for(seed, 0)
    low, high = UNIT_RANGE[workload]
    cases = []
    for index, spec in enumerate(CORPORA[workload]):
        generated = spec.make(gen)
        graph = textio.parse_edge_list(textio.format_edge_list(generated))
        if graph != generated:
            raise RuntimeError(f"{spec.name}: the edge-list round trip changed the graph")
        units = 2 * graph.total_capacity()
        if not low <= units <= high:
            raise RuntimeError(f"{spec.name}: {units} weight units lie outside "
                               f"the {workload} range [{low}, {high}]")
        case = Case(spec, graph)
        if workload == "eval":
            case.decomposition, built = build(graph, seed, index)
            if _report(spec.name, tree_problems(graph, case.decomposition, built)):
                raise RuntimeError(f"{spec.name}: the set-up tree failed its checks")
            text = textio.tree_to_json(built)
            case.tree = textio.tree_from_json(text)
            if textio.tree_to_json(case.tree) != text:
                raise RuntimeError(f"{spec.name}: the tree JSON round trip changed the tree")
            case.demands = (generators.random_pair_demands(
                graph, EVAL_DEMANDS, MAGNITUDE, rng_for(seed, 2, index))
                + spec.fixed_demands(case.tree))
        cases.append(case)
    return cases


def setup_digest(cases: list[Case]) -> str:
    """Digest of everything set-up produced, to compare set-up repetitions."""
    parts = [textio.format_edge_list(c.graph) for c in cases]
    parts += [textio.tree_to_json(c.tree) for c in cases if c.tree is not None]
    parts += [textio.format_demands(c.demands) for c in cases]
    return digest(parts)


def eval_ops(cases: list[Case]) -> list[tuple[Case, dict]]:
    return [(case, demand) for case in cases for demand in case.demands]


def reference() -> int:
    """A fixed pure-Python loop, the yardstick the ops are timed against."""
    counts: dict[int, int] = {}
    kept = []
    for i in range(REFERENCE_STEPS):
        key = i & 63
        counts[key] = counts.get(key, 0) + 3 * i
        if i & 7 == 0:
            kept.append(key)
    return len(kept)


def reference_seconds() -> float:
    began = perf_counter()
    reference()
    return perf_counter() - began


def _timed(ops, run_op, recorder) -> Batch:
    outputs, latencies, refs = [], [], [reference_seconds()]
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.op = index
        began = perf_counter()
        try:
            out = run_op(index, op)
        except Exception:  # the op counts as failed; the batch goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        latencies.append(perf_counter() - began)
        outputs.append(out)
        refs.append(reference_seconds())
    return Batch(sum(latencies), latencies, refs, outputs)


def run_batch(workload: str, cases: list[Case], seed: int, recorder=None) -> Batch:
    if workload == "eval":
        def run_op(_index, op):
            case, demand = op
            return hierarchy.quality_ratio(case.graph, case.tree, [demand])[1][0]
        return _timed(eval_ops(cases), run_op, recorder)
    return _timed([c.graph for c in cases],
                  lambda index, graph: build(graph, seed, index), recorder)


def check_batch(workload: str, cases: list[Case], batch: Batch) -> None:
    """Fill in the per-op digests and the ops that raised or failed a check."""
    labels = ([c.spec.name for c, _d in eval_ops(cases)] if workload == "eval"
              else [c.spec.name for c in cases])
    for index, out in enumerate(batch.outputs):
        if out is None:
            batch.failed.add(index)
            batch.digests.append("")
            continue
        try:
            if workload == "eval":
                problems = row_problems(out)
                text = f"{out['predict']} {out['opt']} {out['ratio']}"
            else:
                decomposition, tree = out
                problems = tree_problems(cases[index].graph, decomposition, tree)
                text = textio.tree_to_json(tree)
        except Exception:  # a check that cannot run is a failed check
            traceback.print_exc(file=sys.stderr)
            problems, text = ["check raised"], ""
        if _report(labels[index], problems):
            batch.failed.add(index)
        batch.digests.append(_sha(text))


def _enumeration_problems(graph, demand, optimal) -> list[str]:
    try:
        exact = flow.brute_force_opt_congestion(graph, demand)
    except Exception:  # a check that cannot run is a failed check
        traceback.print_exc(file=sys.stderr)
        return ["enumeration raised"]
    return [] if exact == optimal else [
        f"opt_congestion {optimal} but enumeration gives {exact}"]


def score_quality(workload: str, cases: list[Case], seed: int, batch: Batch
                  ) -> list[float]:
    """Optimal/predicted ratios of the batch's trees, checked outside the timed
    region; opt_congestion is compared with enumeration on small graphs."""
    ratios = []
    if workload == "eval":
        scored = [(case, demand, row, index) for index, ((case, demand), row)
                  in enumerate(zip(eval_ops(cases), batch.outputs))]
    else:
        scored = []
        for index, (case, out) in enumerate(zip(cases, batch.outputs)):
            if out is None:
                continue
            tree = out[1]
            demands = (generators.random_pair_demands(
                case.graph, QUALITY_DEMANDS, MAGNITUDE, rng_for(seed, 2, index))
                + case.spec.fixed_demands(tree))
            try:
                rows = hierarchy.quality_ratio(case.graph, tree, demands)[1]
            except Exception:
                traceback.print_exc(file=sys.stderr)
                batch.failed.add(index)
                continue
            scored += [(case, d, row, index) for d, row in zip(demands, rows)]
    spot: dict[str, int] = {}
    for case, demand, row, index in scored:
        if row is None:
            continue
        # eval rows were checked with their batch; build rows are new here
        problems = [] if workload == "eval" else row_problems(row)
        if case.graph.n <= BRUTE_FORCE_N and spot.get(case.spec.name, 0) < SPOT_CHECKS:
            spot[case.spec.name] = spot.get(case.spec.name, 0) + 1
            problems += _enumeration_problems(case.graph, demand, row["opt"])
        if _report(case.spec.name, problems):
            batch.failed.add(index)
        ratios.append(float(row["ratio"]))
    return ratios


def shape(workload: str, cases: list[Case], batch: Batch) -> tuple[int, int]:
    """Largest hierarchy height and total tree nodes of the trees in play."""
    if workload == "eval":
        pairs = [(c.decomposition, c.tree) for c in cases]
    else:
        pairs = [out for out in batch.outputs if out is not None]
    return (max((d.height for d, _t in pairs), default=0),
            sum(len(t.nodes) for _d, t in pairs))


def digests(workload: str, cases: list[Case], batch: Batch) -> dict[str, str]:
    """SHA-256 over every tree's JSON and, for eval, over every row."""
    if workload == "eval":
        return {"trees": digest([_sha(textio.tree_to_json(c.tree)) for c in cases]),
                "rows": digest(batch.digests)}
    return {"trees": digest(batch.digests)}

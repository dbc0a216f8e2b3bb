"""Command line interface: generate / build / eval / certify / game-trace."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import textio
from .cutmatch import CutMatchingGame
from .errors import InputError, InternalError
from .generators import (generate_diamond, generate_dumbbell,
                         generate_erdos_renyi, generate_grid, random_pair_demands)
from .graphs import VertexWeights, boundary_capacity
from .hierarchy import (certify_well_expanding, construct_hierarchy, default_gamma,
                        quality_ratio, to_tree_sparsifier, undercut_node)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _make_rng(seed: int):
    return np.random.Generator(np.random.Philox(seed))


def _write_output(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n",
                             encoding="utf-8")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="fix all randomness")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecut",
        description="Build and evaluate hierarchical congestion approximators.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a generated graph as an edge list")
    _common(gen)
    gen.add_argument("--kind", required=True,
                     choices=("diamond", "dumbbell", "erdos-renyi", "grid"))
    gen.add_argument("--k", type=int, default=2, help="diamond order")
    gen.add_argument("--size", type=int, default=8, help="dumbbell clique size")
    gen.add_argument("--bridges", type=int, default=1)
    gen.add_argument("--n", type=int, default=16)
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--w", type=int, default=4)
    gen.add_argument("--h", type=int, default=4)

    build = sub.add_parser("build", help="construct a tree cut sparsifier")
    _common(build)
    build.add_argument("--graph", required=True, help="edge list path")
    build.add_argument("--format", choices=("json", "dot"), default="json",
                       help="tree output format")

    ev = sub.add_parser("eval", help="compare tree predictions against exact optima")
    _common(ev)
    ev.add_argument("--graph", required=True)
    ev.add_argument("--tree", required=True)
    ev.add_argument("--demands", default=None, help="JSON demand file")
    ev.add_argument("--random", type=int, default=0, help="sample this many pair demands")
    ev.add_argument("--magnitude", type=int, default=4)

    cert = sub.add_parser("certify", help="brute-force property reports on a small graph")
    _common(cert)
    cert.add_argument("--graph", required=True)

    trace = sub.add_parser("game-trace", help="run the sparse cut oracle, log each round")
    _common(trace)
    trace.add_argument("--graph", required=True)
    trace.add_argument("--phi", default="1/4", help="sparsity target, e.g. 1/4")
    trace.add_argument("--weights", default=None,
                       help="weight sidecar path (default: degrees)")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    rng = _make_rng(args.seed)
    if args.kind == "diamond":
        graph = generate_diamond(args.k)
    elif args.kind == "dumbbell":
        graph = generate_dumbbell(args.size, args.bridges)
    elif args.kind == "erdos-renyi":
        graph = generate_erdos_renyi(args.n, args.p, rng)
    else:
        graph = generate_grid(args.w, args.h)
    _write_output(textio.format_edge_list(graph), args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    graph = textio.parse_edge_list(_read(args.graph))
    started = time.perf_counter()
    decomposition = construct_hierarchy(graph, rng=_make_rng(args.seed))
    tree = to_tree_sparsifier(decomposition, graph)
    elapsed = time.perf_counter() - started
    sizes: dict[int, int] = {}
    for part in decomposition.levels:
        for cluster in part.clusters:
            sizes[len(cluster)] = sizes.get(len(cluster), 0) + 1
    stats = {"levels": decomposition.height,
             "cluster_size_histogram": dict(sorted(sizes.items())),
             "wall_time_s": round(elapsed, 4)}
    print(json.dumps({"stats": stats}), file=sys.stderr)
    if args.format == "dot":
        _write_output(textio.tree_to_dot(tree), args.out)
    else:
        _write_output(textio.tree_to_json(tree), args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    graph = textio.parse_edge_list(_read(args.graph))
    tree = textio.tree_from_json(_read(args.tree))
    if tree.n != graph.n:
        raise InputError("graph and tree disagree on the vertex count")
    undercut = undercut_node(graph, tree)
    if undercut:
        node, cut = undercut
        raise InputError(f"tree node {node.id} has cap {node.cap}, below the "
                         f"graph's cut capacity {cut} around its cluster")
    demands = []
    if args.demands:
        demands.extend(textio.parse_demands(_read(args.demands)))
    if args.random:
        demands.extend(random_pair_demands(graph, args.random, args.magnitude,
                                           _make_rng(args.seed)))
    worst, rows = quality_ratio(graph, tree, demands)
    payload = {
        "max_ratio": textio.fraction_str(worst),
        "rows": [{"predict": textio.fraction_str(r["predict"]),
                  "opt": textio.fraction_str(r["opt"]),
                  "ratio": textio.fraction_str(r["ratio"])} for r in rows],
    }
    _write_output(json.dumps(payload, indent=1), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    graph = textio.parse_edge_list(_read(args.graph))
    decomposition = construct_hierarchy(graph, rng=_make_rng(args.seed))
    gamma = default_gamma(graph)
    report = certify_well_expanding(graph, decomposition, gamma)
    worst = report.worst()
    payload = {
        "gamma": textio.fraction_str(gamma),
        "well_expanding": {
            "all_pass": report.all_pass,
            "entries": [{"level": e.level, "size": len(e.cluster),
                         "status": e.status} for e in report.entries],
            "worst_witness": sorted(worst.witness) if worst and worst.witness else None,
        },
    }
    _write_output(json.dumps(payload, indent=1), args.out)
    return EXIT_OK


def _cmd_game_trace(args) -> int:
    graph = textio.parse_edge_list(_read(args.graph))
    try:
        phi = Fraction(args.phi)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse phi: {args.phi!r}") from exc
    if args.weights:
        pi = textio.parse_vertex_weights(_read(args.weights))
        outside = [v for v in pi if v >= graph.n]
        if outside:
            raise InputError(f"weight vertex {min(outside)} is not a vertex of the graph "
                             f"(0..{graph.n - 1})")
    else:
        pi = VertexWeights.degrees(graph)
    game = CutMatchingGame(graph, pi, phi, _make_rng(args.seed))
    cut = game.run()
    lines = [json.dumps({"round": rec.round, "active": rec.active,
                         "deleted": rec.deleted, "matched": rec.matched,
                         "max_load_ratio": round(rec.max_load_ratio, 6),
                         "potential": rec.potential})
             for rec in game.records]
    sparsity = None
    if cut:
        cap = boundary_capacity(graph, cut, range(graph.n))
        sparsity = textio.fraction_str(Fraction(cap, pi.total(cut)))
    lines.append(json.dumps({"cut": sorted(cut), "sparsity": sparsity,
                             "stopped": game.stopped, "rounds": game.round}))
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "eval": _cmd_eval,
    "certify": _cmd_certify,
    "game-trace": _cmd_game_trace,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"treecut: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalError, AssertionError) as exc:
        print(f"treecut: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"treecut: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

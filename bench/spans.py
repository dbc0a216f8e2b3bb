"""In-memory spans around treecut's layer boundaries, recorded from outside.

No file of the package changes.  While a ``Recorder`` is installed it rebinds
the module-level names through which the layers ``flow``, ``cutmatch``,
``partition``, ``hierarchy``, ``graphs`` and ``textio`` call each other, and
puts the originals back when the ``with`` block ends.  Each call becomes one
span: name, start, end, parent span, op id and phase, plus a few attributes
read from the call's result.  Spans stay in memory and are written out as
JSONL once the run is over; the per-layer metrics are derived from the same
list (``layer_metrics``).
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

from treecut import cutmatch, flow, graphs, hierarchy, partition, textio


def _game_attrs(args, _kwargs, _result):
    game = args[0]
    records = game.records
    return {"stop": game.stopped or "budget", "rounds": game.round,
            "deleting": sum(1 for r in records if r.deleted > 0),
            "dense": bool(records) and records[0].potential is not None}


def _oracle_attrs(_args, _kwargs, result):
    return {"nonempty": bool(result)}


def _partition_attrs(_args, _kwargs, result):
    return {"bad_child": bool(result.bad_child)}


#: span name, owner of the original, attribute, every owner that binds the
#: name (modules that imported it, or the class for a method), result attrs
_TARGETS = (
    ("flow.maxflow", flow, "_run_max_flow", (flow, cutmatch, partition), None),
    ("flow.fair_cut", flow, "fair_cut", (cutmatch, partition), None),
    ("flow.path_decomposition", flow, "path_decomposition", (cutmatch,), None),
    ("flow.opt_congestion", flow, "opt_congestion", (hierarchy,), None),
    ("cutmatch.game", cutmatch.CutMatchingGame, "run",
     (cutmatch.CutMatchingGame,), _game_attrs),
    ("cutmatch.round", cutmatch.CutMatchingGame, "step",
     (cutmatch.CutMatchingGame,), None),
    ("cutmatch.potential", cutmatch.CutMatchingGame, "current_potential",
     (cutmatch.CutMatchingGame,), None),
    ("cutmatch.cut_player", cutmatch, "cut_player_step", (cutmatch,), None),
    ("cutmatch.matching_player", cutmatch, "matching_player_step", (cutmatch,), None),
    ("partition.partition_cluster", partition, "partition_cluster", (hierarchy,),
     _partition_attrs),
    ("partition.oracle", cutmatch, "sparsest_cut_apx", (partition,), _oracle_attrs),
    ("partition.trim", partition, "two_way_trim", (partition,), None),
    ("partition.fuse", graphs, "fuse", (partition,), None),
    ("hierarchy.construct", hierarchy, "construct_hierarchy", (hierarchy,), None),
    ("hierarchy.to_tree", hierarchy, "to_tree_sparsifier", (hierarchy,), None),
    ("hierarchy.predict", hierarchy, "predict_congestion", (hierarchy,), None),
    ("graphs.boundary_degree_map", graphs, "boundary_degree_map",
     (graphs, partition, hierarchy), None),
    ("textio.parse", textio, "parse_edge_list", (textio,), None),
)


class Recorder:
    """Collects spans as lists [name, start, end, parent, op, phase, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.phase = None
        self._stack: list[int] = []
        self._t0 = perf_counter()

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.op, self.phase, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def _counting_dinic(self):
        spans, stack = self.spans, self._stack

        class CountingDinic(flow._Dinic):
            def solve(self, s, t):
                # the enclosing span is the flow.maxflow call building this solver
                spans[stack[-1]][6] = {"arcs": len(self.to)}
                return super().solve(s, t)

        return CountingDinic

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for name, home, attr, owners, attrs in _TARGETS:
                wrapper = self._wrap(name, home.__dict__[attr], attrs)
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            saved.append((flow, "_Dinic", flow._Dinic))
            flow._Dinic = self._counting_dinic()
            self.phase = phase
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.phase = None
            self.op = None

    def write_jsonl(self, path) -> None:
        t0 = self._t0
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, op, phase, attrs) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "op": op, "phase": phase}
                if attrs:
                    row.update(attrs)
                out.write(json.dumps(row) + "\n")


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], phase: str) -> dict[str, float]:
    """Per-layer counts and times of the spans recorded in one phase.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are sequential on one thread, so children never overlap.
    """
    ids = [i for i, s in enumerate(spans) if s[5] == phase]
    child_s = dict.fromkeys(ids, 0.0)
    for i in ids:
        parent = spans[i][3]
        if parent in child_s:
            child_s[parent] += spans[i][2] - spans[i][1]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i in ids:
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child_s[i])

    def under(i, name):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def results(name):  # attributes of the calls that returned
        return [spans[i][6] for i in ids if spans[i][0] == name and spans[i][6]]

    flows = [i for i in ids if spans[i][0] == "flow.maxflow"]
    games = results("cutmatch.game")
    oracles = results("partition.oracle")
    parts = results("partition.partition_cluster")
    rounds = sum(g["rounds"] for g in games)
    opt_calls = calls.get("flow.opt_congestion", 0)

    out = {
        "flow.maxflow.calls": len(flows),
        "flow.maxflow.s": total.get("flow.maxflow", 0.0),
        "flow.maxflow.arcs": sum(spans[i][6]["arcs"] for i in flows if spans[i][6]),
        "flow.opt_congestion.maxflows_per_call": _share(
            sum(1 for i in flows if under(i, "flow.opt_congestion")), opt_calls),
        "cutmatch.games": len(games),
        "cutmatch.rounds": rounds,
        "cutmatch.rounds_per_game": _share(rounds, len(games)),
        "cutmatch.cut_player.s": total.get("cutmatch.cut_player", 0.0),
        "cutmatch.matching_player.s": total.get("cutmatch.matching_player", 0.0),
        "cutmatch.matching_player.self_s": own.get("cutmatch.matching_player", 0.0),
        "cutmatch.round.self_s": own.get("cutmatch.round", 0.0),
        "cutmatch.game.s": total.get("cutmatch.game", 0.0),
        "cutmatch.dense_games_share": _share(sum(g["dense"] for g in games), len(games)),
        "cutmatch.deleting_rounds_share": _share(sum(g["deleting"] for g in games), rounds),
        "partition.calls": len(parts),
        "partition.s": total.get("partition.partition_cluster", 0.0),
        "partition.self_s": own.get("partition.partition_cluster", 0.0),
        "partition.oracle_calls": len(oracles),
        "partition.oracle_nonempty_share": _share(
            sum(o["nonempty"] for o in oracles), len(oracles)),
        "partition.trim.calls": calls.get("partition.trim", 0),
        "partition.fuse.calls": calls.get("partition.fuse", 0),
        "partition.bad_children": sum(p["bad_child"] for p in parts),
        "hierarchy.construct.s": total.get("hierarchy.construct", 0.0),
        "hierarchy.to_tree.s": total.get("hierarchy.to_tree", 0.0),
        "textio.parse.s": total.get("textio.parse", 0.0),
    }
    for reason in ("balance", "potential", "budget"):
        out[f"cutmatch.stop.{reason}"] = sum(1 for g in games if g["stop"] == reason)
    for name in ("flow.fair_cut", "flow.path_decomposition", "flow.opt_congestion",
                 "cutmatch.potential", "hierarchy.predict", "graphs.boundary_degree_map"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = total.get(name, 0.0)
    return out


def is_count(metric: str) -> bool:
    """Counts and shares, which must repeat exactly from batch to batch."""
    return not (metric.endswith(".s") or metric.endswith("self_s"))


def unit(metric: str) -> str:
    if not is_count(metric):
        return "s"
    return "frac" if metric.endswith(("_share", "_frac")) else "count"

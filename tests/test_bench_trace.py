"""The benchmark's tracing harness (``bench/spans.py``) on one seeded build.

The harness rebinds module-level names of the package from outside; these
checks fail when a change in ``src/`` stops a traced name from being called,
changes what a traced build computes, or leaves a rebinding in place.
"""

import importlib
import pathlib

import pytest

from treecut import flow, hierarchy, textio

from conftest import philox, two_cliques_bridge

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _tree_json(graph) -> str:
    built = hierarchy.construct_hierarchy(graph, rng=philox(4))
    return textio.tree_to_json(hierarchy.to_tree_sparsifier(built, graph))


def test_traced_build_counts_every_layer_and_restores_every_name(spans):
    graph = two_cliques_bridge(8, cap=100)
    untraced = _tree_json(graph)
    originals = [(owner, attr, owner.__dict__[attr])
                 for _name, _home, attr, owners, _attrs in spans._TARGETS
                 for owner in owners]
    dinic = flow._Dinic

    recorder = spans.Recorder()
    with recorder.installed("t"):
        traced = _tree_json(graph)

    assert traced == untraced
    metrics = spans.layer_metrics(recorder.spans, "t")
    for name in ("flow.maxflow.calls", "flow.fair_cut.calls", "cutmatch.rounds",
                 "partition.calls"):
        assert metrics[name] > 0, name
    flows = [span for span in recorder.spans if span[0] == "flow.maxflow"]
    assert len(flows) == metrics["flow.maxflow.calls"]
    assert all(span[6] and span[6]["arcs"] > 0 for span in flows)

    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
    assert flow._Dinic is dinic

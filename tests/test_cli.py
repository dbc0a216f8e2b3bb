"""End-to-end CLI behavior: pipelines, determinism, exit codes."""

import ast
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import treecut
from treecut.cli import _build_parser, run_cli
from treecut.generators import generate_diamond
from treecut.textio import parse_edge_list


def package_nodes():
    """(path, node) for every syntax node of every module of the package."""
    package = pathlib.Path(treecut.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_diamond_edge_count(self, capsys):
        code, out, _err = run(capsys, "generate", "--kind", "diamond", "--k", "2")
        assert code == 0
        assert parse_edge_list(out).m == 16

    def test_round_trips_through_parser(self, capsys, tmp_path):
        code, out, _err = run(capsys, "generate", "--kind", "grid",
                              "--w", "3", "--h", "3")
        assert code == 0
        graph = parse_edge_list(out)
        from treecut.textio import format_edge_list
        assert format_edge_list(graph) == out

    def test_seeded_determinism(self, capsys):
        _c, first, _e = run(capsys, "generate", "--kind", "erdos-renyi",
                            "--n", "10", "--p", "0.4", "--seed", "9")
        _c, second, _e = run(capsys, "generate", "--kind", "erdos-renyi",
                             "--n", "10", "--p", "0.4", "--seed", "9")
        assert first == second


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["treecut", "treecut.cli"])
    def test_generate_writes_edge_list(self, tmp_path, module):
        out_file = tmp_path / "d3.el"
        src = os.path.dirname(os.path.dirname(treecut.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", module, "generate", "--kind", "diamond",
                               "--k", "3", "--out", str(out_file)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert parse_edge_list(out_file.read_text()) == generate_diamond(3)


class TestBuildEval:
    def test_pipeline(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        tree_file = tmp_path / "t.json"
        code, out, _e = run(capsys, "generate", "--kind", "dumbbell",
                            "--size", "5", "--out", str(graph_file))
        assert code == 0
        code, _out, err = run(capsys, "build", "--graph", str(graph_file),
                              "--seed", "4", "--out", str(tree_file))
        assert code == 0
        stats = json.loads(err.strip().splitlines()[-1])["stats"]
        assert stats["levels"] >= 2
        code, out, _e = run(capsys, "eval", "--graph", str(graph_file),
                            "--tree", str(tree_file), "--random", "6",
                            "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 6

    def test_build_on_two_vertex_graph(self, capsys, tmp_path):
        graph_file = tmp_path / "two.el"
        graph_file.write_text("0 1 1\n")
        code, out, _e = run(capsys, "build", "--graph", str(graph_file))
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 3

    def test_eval_zero_demand_row(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        tree_file = tmp_path / "t.json"
        demand_file = tmp_path / "d.json"
        graph_file.write_text("0 1 1\n")
        run(capsys, "build", "--graph", str(graph_file), "--out", str(tree_file))
        demand_file.write_text("[[]]")
        code, out, _e = run(capsys, "eval", "--graph", str(graph_file),
                            "--tree", str(tree_file), "--demands",
                            str(demand_file))
        assert code == 0
        assert json.loads(out)["rows"][0]["ratio"] == "1"

    def test_dot_format(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        graph_file.write_text("0 1 1\n1 2 1\n")
        code, out, _e = run(capsys, "build", "--graph", str(graph_file),
                            "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestGameTrace:
    def test_jsonl_rounds_and_summary(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        run(capsys, "generate", "--kind", "dumbbell", "--size", "5",
            "--out", str(graph_file))
        code, out, _e = run(capsys, "game-trace", "--graph", str(graph_file),
                            "--phi", "1/4", "--seed", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all("round" in entry for entry in lines[:-1])
        assert all(isinstance(entry["potential"], float) for entry in lines[:-1])
        summary = lines[-1]
        assert {"cut", "sparsity", "stopped", "rounds"} <= set(summary)

    def test_seeded_determinism(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        run(capsys, "generate", "--kind", "grid", "--w", "3", "--h", "3",
            "--out", str(graph_file))
        _c, first, _e = run(capsys, "game-trace", "--graph", str(graph_file),
                            "--phi", "1/2", "--seed", "6")
        _c, second, _e = run(capsys, "game-trace", "--graph", str(graph_file),
                             "--phi", "1/2", "--seed", "6")
        assert first == second

    def test_custom_weights(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        weight_file = tmp_path / "w.txt"
        graph_file.write_text("0 1 1\n1 2 1\n")
        weight_file.write_text("0 3\n2 3\n")
        code, _out, _e = run(capsys, "game-trace", "--graph", str(graph_file),
                             "--weights", str(weight_file), "--phi", "1/2")
        assert code == 0

    @pytest.mark.parametrize("weights, vertex", [("99 5\n", 99), ("0 3\n99 5\n2 3\n", 99),
                                                 ("8 0\n", 8)])
    def test_weight_outside_the_graph_exits_2(self, capsys, tmp_path, weights, vertex):
        graph_file = tmp_path / "g.el"
        weight_file = tmp_path / "w.txt"
        run(capsys, "generate", "--kind", "dumbbell", "--size", "4",
            "--out", str(graph_file))
        weight_file.write_text(weights)
        code, out, err = run(capsys, "game-trace", "--graph", str(graph_file),
                             "--weights", str(weight_file), "--phi", "1/2")
        assert code == 2 and out == ""
        assert f"weight vertex {vertex} is not a vertex of the graph (0..7)" in err


class TestCertifyCommand:
    def test_report_shape(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        run(capsys, "generate", "--kind", "dumbbell", "--size", "4",
            "--out", str(graph_file))
        code, out, _e = run(capsys, "certify", "--graph", str(graph_file),
                            "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert "well_expanding" in payload


class TestReadme:
    README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

    def test_cli_examples_parse(self):
        # every example in README's CLI block names real subcommands and
        # options; the parser only reads them, nothing runs
        block = self.README.read_text(encoding="utf-8").split("## CLI", 1)[1]
        block = block.split("```sh", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("treecut ")]
        assert len(examples) >= 5
        parser = _build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: treecut {shlex.join(argv)}")

    def test_library_example_runs(self):
        # README's library block runs as written; its assert is kept under -O
        block = self.README.read_text(encoding="utf-8").split("```python", 1)[1]
        block = block.split("```", 1)[0]
        exec(compile(block, str(self.README), "exec", optimize=0), {})


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(["no-such-command"]) == 1
        capsys.readouterr()

    def test_missing_file(self, capsys):
        code, _out, err = run(capsys, "build", "--graph", "/nonexistent/x.el")
        assert code == 2
        assert "input error" in err

    def test_malformed_edge_list(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("0 1 1\nbroken line\n")
        code, _out, err = run(capsys, "build", "--graph", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_bad_phi(self, capsys, tmp_path):
        graph_file = tmp_path / "g.el"
        graph_file.write_text("0 1 1\n")
        code, _out, _err = run(capsys, "game-trace", "--graph",
                               str(graph_file), "--phi", "zero")
        assert code == 2

    def test_package_has_no_assert_statement(self):
        # python -O strips asserts; every invariant behind exit code 3 must
        # raise an error that survives it
        found = [f"{path.name}:{node.lineno}" for path, node in package_nodes()
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_package_takes_no_float_log(self):
        # every bound and threshold is built from integer ceil-logs; a
        # math.log, math.log2 or math.e would bring a float back into one
        found = [f"{path.name}:{node.lineno}" for path, node in package_nodes()
                 if isinstance(node, ast.Attribute) and node.attr in ("log", "log2", "e")
                 and isinstance(node.value, ast.Name) and node.value.id == "math"]
        assert found == []

    def test_package_settable_values_are_pinned(self):
        # a value that only ever holds its default is a constant, not an
        # option: a new defaulted parameter or CLI option raises this pin,
        # and only with a second user that sets it
        defaults = options = 0
        for _path, node in package_nodes():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                options += 1
        # 34: verify_fair_cut's within= and cap_scale= left the package with
        # it for tests/oracles.py, max_flow's within= with max_flow, eval
        # --magnitude, which nothing set, became cli.EVAL_MAGNITUDE, and
        # diamond_adversarial_demands' tree=, which every caller sets, is
        # required
        assert defaults + options == 34, (defaults, options)

    def test_package_exports_are_pinned(self):
        # the public names are the production stack plus the oracles that
        # certify and the benchmark call; oracles only tests call live in
        # tests/oracles.py, so exporting one again changes this list
        assert treecut.__all__ == [
            "ArgumentError", "ConsistencyError", "Cut", "CutMatchingGame",
            "Graph", "HierarchicalDecomposition", "HierarchyConfig",
            "InputError", "InternalError", "OversizeError", "Partition",
            "PartitionClusterResult", "PathFlow", "SolvedFlow", "TreeSparsifier",
            "TrimResult", "VertexWeights", "boundary_capacity", "boundary_degree_map",
            "brute_force_opt_congestion", "certify_well_expanding",
            "check_border_routable", "check_expanding", "check_laminar",
            "construct_hierarchy", "cut_player_step", "cutmatch", "default_gamma",
            "diamond_adversarial_demands", "diamond_structure", "errors",
            "expansion_bound", "fair_cut", "flow", "fuse", "generate_diamond",
            "generate_dumbbell", "generate_erdos_renyi", "generate_grid", "generators",
            "graphs", "hierarchy", "matching_player_step", "opt_congestion",
            "oracle_params", "partition", "partition_cluster", "path_decomposition",
            "predict_congestion", "quality_ratio", "random_pair_demands",
            "sparsest_cut_apx", "sweep_cut", "to_tree_sparsifier", "two_way_trim"]


class TestMalformedEvalInput:
    """Broken tree and demand files exit 2 and name the offending node or vertex."""

    @pytest.fixture
    def grid(self, capsys, tmp_path):
        """A 2x3 grid, its star tree as parsed JSON, and a demand file."""
        graph_file = tmp_path / "g.el"
        run(capsys, "generate", "--kind", "grid", "--w", "2", "--h", "3",
            "--out", str(graph_file))
        run(capsys, "build", "--graph", str(graph_file), "--out", str(tmp_path / "t.json"))
        demand_file = tmp_path / "d.json"
        demand_file.write_text("[[[0, 1], [5, -1]]]")
        tree = json.loads((tmp_path / "t.json").read_text())
        assert [node["id"] for node in tree["nodes"]] == list(range(7))
        return graph_file, tree, demand_file

    def eval_with(self, capsys, tmp_path, grid, tree):
        graph_file, _tree, demand_file = grid
        tree_file = tmp_path / "bad.json"
        tree_file.write_text(json.dumps(tree))
        return run(capsys, "eval", "--graph", str(graph_file), "--tree", str(tree_file),
                   "--demands", str(demand_file))

    def test_demand_vertex_outside_graph(self, capsys, tmp_path, grid):
        graph_file, _tree, demand_file = grid
        demand_file.write_text("[[[0, 1], [99, -1]]]")
        code, _out, err = self.eval_with(capsys, tmp_path, grid, grid[1])
        assert code == 2, err
        assert "vertex 99" in err

    def test_unknown_parent(self, capsys, tmp_path, grid):
        tree = grid[1]
        tree["nodes"][3]["parent"] = 42
        code, _out, err = self.eval_with(capsys, tmp_path, grid, tree)
        assert code == 2, err
        assert "node 3" in err and "42" in err

    def test_leaf_vertex_outside_graph(self, capsys, tmp_path, grid):
        tree = grid[1]
        tree["nodes"][4]["leaf_vertex"] = 40
        code, _out, err = self.eval_with(capsys, tmp_path, grid, tree)
        assert code == 2, err
        assert "node 4" in err and "40" in err

    def test_leaf_vertex_on_a_node_with_children(self, capsys, tmp_path, grid):
        # node 1 keeps its leaf vertex 0 and takes node 2 as a child
        tree = grid[1]
        tree["nodes"][2]["parent"] = 1
        code, _out, err = self.eval_with(capsys, tmp_path, grid, tree)
        assert code == 2, err
        assert "tree node 1 has leaf vertex 0 and children" in err

    def test_cap_below_the_graphs_cut_is_an_input_error(self, capsys, tmp_path):
        # with every cap at 1 the 2x2 grid's tree predicts 5 for a demand whose
        # optimum is 5/2; the fault is in the tree file, not the program
        graph_file = tmp_path / "g.el"
        run(capsys, "generate", "--kind", "grid", "--w", "2", "--h", "2",
            "--out", str(graph_file))
        run(capsys, "build", "--graph", str(graph_file), "--out", str(tmp_path / "t.json"))
        tree = json.loads((tmp_path / "t.json").read_text())
        for node in tree["nodes"]:
            if node["parent"] is not None:
                node["cap"] = 1
        demand_file = tmp_path / "d.json"
        demand_file.write_text("[[[0, 5], [3, -5]]]")
        code, _out, err = self.eval_with(capsys, tmp_path, (graph_file, None, demand_file),
                                         tree)
        assert code == 2, err
        assert "node 1" in err and "cap 1" in err and "cut capacity 2" in err

    def test_parent_cycle_exits_instead_of_hanging(self, tmp_path, grid):
        graph_file, tree, demand_file = grid
        tree["nodes"][1]["parent"] = 2
        tree["nodes"][2]["parent"] = 1
        tree_file = tmp_path / "cycle.json"
        tree_file.write_text(json.dumps(tree))
        src = os.path.dirname(os.path.dirname(treecut.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run([sys.executable, "-m", "treecut", "eval", "--graph",
                                   str(graph_file), "--tree", str(tree_file),
                                   "--demands", str(demand_file)],
                                  env=env, capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("tree_from_json did not return on a parent cycle")
        assert done.returncode == 2, done.stderr
        assert "node 1" in done.stderr and "cycle" in done.stderr

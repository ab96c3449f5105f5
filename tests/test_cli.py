import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxoid
from maxoid import separation
from maxoid.cli import build_parser, run

DATA = Path(__file__).parent / "data"


@pytest.fixture
def files(tmp_path):
    dag = tmp_path / "dag.json"
    dag.write_text('{"n": 4, "edges": [[1,2],[1,3],[2,3],[2,4],[3,4]]}')
    weights = tmp_path / "weights.json"
    weights.write_text("[1, 1, 1, 3, 1]")
    diamond = tmp_path / "diamond.json"
    diamond.write_text('{"n": 4, "edges": [[1,2],[1,3],[2,4],[3,4]]}')
    return {"dag": str(dag), "weights": str(weights), "diamond": str(diamond),
            "dir": tmp_path}


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_maxoid_command_reference_instance(files, capsys):
    code, out = invoke(capsys, "maxoid", files["dag"], files["weights"])
    assert code == 0
    assert json.loads(out) == ["1,3|2", "1,3|2,4", "1,4|2", "1,4|2,3"]


def test_outputs_are_byte_identical_across_runs(files, capsys):
    _, first = invoke(capsys, "maxoid", files["dag"], files["weights"])
    _, second = invoke(capsys, "maxoid", files["dag"], files["weights"])
    assert first == second


def test_kleene_round_trips_as_weight_matrix(files, capsys):
    code, out = invoke(capsys, "kleene", files["dag"], files["weights"], "--proper")
    assert code == 0
    rows = json.loads(out)
    assert rows[0][3] == "4" and rows[0][0] == "-inf"


def test_matrix_weights_accepted_as_input(files, capsys, tmp_path):
    code, out = invoke(capsys, "kleene", files["dag"], files["weights"])
    mat = tmp_path / "m.json"
    # a full star matrix is not supported on the graph: build the weight
    # matrix form instead and feed it back
    from maxoid.graph import dag_from_json
    from maxoid.tropical import weighted_dag_from_list, weights_to_matrix_json

    g = dag_from_json(json.loads(open(files["dag"]).read()))
    wd = weighted_dag_from_list(g, [1, 1, 1, 3, 1])
    mat.write_text(json.dumps(weights_to_matrix_json(wd)))
    code2, out2 = invoke(capsys, "maxoid", files["dag"], str(mat))
    assert code2 == 0
    assert json.loads(out2) == ["1,3|2", "1,3|2,4", "1,4|2", "1,4|2,3"]


def test_fan_command(files, capsys):
    code, out = invoke(capsys, "fan", files["diamond"], "--adjacency")
    data = json.loads(out)
    assert code == 0
    assert data["lineality_dimension"] == 3
    assert len(data["cones"]) == 2
    assert data["adjacency"] == [[0, 1]]
    assert sorted(data["cones"][0]["inequalities"]) in ([[1, -1, 1, -1]], [[-1, 1, -1, 1]])


def test_polytope_command(files, capsys, tmp_path):
    dot = tmp_path / "hasse.dot"
    code, out = invoke(capsys, "polytope", files["diamond"], "--hasse-dot", str(dot))
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 1
    assert len(data["vertices"]) == 2
    assert data["f_vector"] == [2]
    assert dot.read_text().startswith("digraph")


def test_census_command(files, capsys):
    code, out = invoke(capsys, "census", "--nodes", "4")
    assert code == 0
    assert json.loads(out) == {"tdags": 18, "maxoids": 41, "generic": 40}


def test_census_long_sizes_guarded(files, capsys):
    code, out = invoke(capsys, "census", "--nodes", "6")
    assert code != 0
    assert "error" in json.loads(out)


def test_tdags_long_sizes_guarded(files, capsys):
    code, out = invoke(capsys, "tdags", "--nodes", "7")
    assert code == 2
    assert "--unbounded" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_census_refuses_fewer_than_one_job(files, capsys, jobs):
    code, out = invoke(capsys, "census", "--nodes", "3", "--jobs", jobs)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "--jobs" in error["message"]


def test_implies_long_sizes_guarded(files, capsys):
    code, out = invoke(capsys, "implies", "--nodes", "6", "1,2|3 => 1,2|3,4")
    assert code == 2
    assert "--unbounded" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("nodes, edges, generic", [
    # complete-6 less one edge: 14 edges, over the 13 allowed with ties
    (6, [[i, j] for i in range(1, 7) for j in range(i + 1, 7) if (i, j) != (5, 6)], False),
    # complete-6 and one more edge: 16 edges, over the 15 allowed generically
    (7, [[i, j] for i in range(1, 7) for j in range(i + 1, 7)] + [[6, 7]], True),
])
def test_implies_graph_sizes_guarded(files, capsys, nodes, edges, generic):
    dag = files["dir"] / "big.json"
    dag.write_text(json.dumps({"n": nodes, "edges": edges}))
    code, out = invoke(capsys, "implies", "--graph", str(dag), "1,2|3 => 1,2|3,4",
                       *["--generic"] * generic)
    assert code == 2
    assert "--unbounded" in json.loads(out)["error"]["message"]


def _complete_edges(n, drop=()):
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in drop]


@pytest.mark.parametrize("nodes, edges, argv", [
    # complete-6 less one edge: 14 edges, over the 13 allowed for a lattice
    (6, _complete_edges(6, [(5, 6)]), ["polytope"]),
    (6, _complete_edges(6, [(5, 6)]), ["polytope", "--face-maxoids"]),
    (6, _complete_edges(6, [(5, 6)]), ["fan", "--adjacency"]),
    # complete-6 and one more edge: 16 edges, over the 15 allowed for a fan
    (7, _complete_edges(6) + [[6, 7]], ["fan"]),
])
def test_fan_and_polytope_sizes_guarded(files, capsys, monkeypatch, nodes, edges, argv):
    def started(*args, **kwargs):
        raise RuntimeError("fan started")

    monkeypatch.setattr("maxoid.cli.enumerate_maximal_cones", started)
    dag = files["dir"] / "big.json"
    dag.write_text(json.dumps({"n": nodes, "edges": edges}))
    code, out = invoke(capsys, *argv, str(dag))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "--unbounded" in error["message"]
    # --unbounded lets the run through to the work
    code, out = invoke(capsys, *argv, str(dag), "--unbounded")
    assert json.loads(out)["error"]["message"] == "fan started"


def test_fan_guard_allows_complete_6_and_adjacency_at_13_edges(files, capsys, monkeypatch):
    monkeypatch.setattr("maxoid.cli.enumerate_maximal_cones", lambda g: [])
    monkeypatch.setattr("maxoid.cli.cone_adjacency", lambda g, entries: [])
    dag = files["dir"] / "k6.json"
    dag.write_text(json.dumps({"n": 6, "edges": _complete_edges(6)}))
    assert invoke(capsys, "fan", str(dag))[0] == 0
    dag.write_text(json.dumps({"n": 6, "edges": _complete_edges(6, [(4, 6), (5, 6)])}))
    assert invoke(capsys, "fan", "--adjacency", str(dag))[0] == 0


@pytest.mark.parametrize("argv", [["fan"], ["fan", "--adjacency"], ["polytope"],
                                  ["implies", "1,2|3 => 1,2|", "--graph"]])
def test_sparse_graphs_on_more_than_12_nodes_are_guarded(files, capsys, monkeypatch, argv):
    def started(*args, **kwargs):
        raise RuntimeError("work started")

    monkeypatch.setattr("maxoid.cli.enumerate_maximal_cones", started)
    monkeypatch.setattr("maxoid.cli.decide_implication", started)
    dag = files["dir"] / "sparse.json"
    dag.write_text('{"n": 13, "edges": [[1, 2]]}')
    code, out = invoke(capsys, *argv, str(dag))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "12 nodes" in error["message"]
    assert "--unbounded" in error["message"]
    assert 13 not in separation._subset_tables and 13 not in separation._statement_tables
    code, out = invoke(capsys, *argv, str(dag), "--unbounded")
    assert json.loads(out)["error"]["message"] == "work started"
    # 12 nodes pass the guard
    dag.write_text('{"n": 12, "edges": [[1, 2]]}')
    code, out = invoke(capsys, *argv, str(dag))
    assert json.loads(out)["error"]["message"] == "work started"


def test_implies_global_family_includes_the_edgeless_graph(files, capsys):
    # only a disconnected graph separates every pair given the empty set
    code, out = invoke(capsys, "implies", "--nodes", "3", "1,2|; 1,3|; 2,3| =>")
    assert code == 0
    assert json.loads(out) == {"holds": False,
                               "counterexample": {"n": 3, "edges": [], "weights": []}}


def test_tdags_command(files, capsys):
    code, out = invoke(capsys, "tdags", "--nodes", "3")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 3
    assert {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]} in data["graphs"]


def test_implies_local_and_global(files, capsys):
    code, out = invoke(capsys, "implies", "--nodes", "4", "1,4|3 => 2,4|1,3")
    data = json.loads(out)
    assert code == 0 and data["holds"] is False
    assert data["counterexample"]["edges"]
    # the verdict is in the JSON: failing implications still exit 0
    kdag = files["dir"] / "k4.json"
    kdag.write_text('{"n": 4, "edges": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}')
    code2, out2 = invoke(capsys, "implies", "--graph", str(kdag), "1,4|3 => 2,4|1,3")
    assert code2 == 0 and json.loads(out2) == {"counterexample": None, "holds": True}
    code3, out3 = invoke(capsys, "implies", "--graph", str(kdag), "24|13 => 14|3", "--generic")
    data3 = json.loads(out3)
    assert code3 == 0 and data3["holds"] is False
    assert len(data3["counterexample"]["weights"]) == 6


def test_implies_counterexample_reverifies(files, capsys):
    from maxoid.graph import Dag
    from maxoid.separation import maxoid, parse_ci_statement
    from maxoid.tropical import weights_from_json

    code, out = invoke(capsys, "implies", "--nodes", "4", "14|23; 23|1 => 23|4")
    data = json.loads(out)
    assert code == 0 and not data["holds"]
    ce = data["counterexample"]
    wd = weights_from_json(Dag(ce["n"], [tuple(e) for e in ce["edges"]]), ce["weights"])
    m = maxoid(wd)
    assert parse_ci_statement("14|23") in m and parse_ci_statement("23|1") in m
    assert parse_ci_statement("23|4") not in m


def test_axioms_command(files, capsys):
    code, out = invoke(capsys, "axioms", files["dag"], files["weights"])
    data = json.loads(out)
    assert code == 0
    assert data["compositional_graphoid"] == []
    assert data["amalgamation"] == []


def test_axioms_refuses_more_than_6_nodes_before_the_maxoid(files, capsys):
    dag = files["dir"] / "edgeless.json"
    dag.write_text('{"n": 11, "edges": []}')
    weights = files["dir"] / "none.json"
    weights.write_text("[]")
    code, out = invoke(capsys, "axioms", str(dag), str(weights))
    assert code == 2
    assert json.loads(out) == {"error": {
        "type": "ValueError",
        "message": "exhaustive instantiation over 11 nodes exceeds the bound of 6 nodes"}}
    assert 11 not in separation._subset_tables


def test_parse_errors_exit_nonzero(files, capsys):
    code, out = invoke(capsys, "implies", "--nodes", "4", "1,1|2 => 2,4|1,3")
    assert code != 0
    assert "error" in json.loads(out)
    code2, out2 = invoke(capsys, "maxoid", "/nonexistent.json", files["weights"])
    assert code2 != 0
    assert json.loads(out2)["error"]["type"] == "io"


K2 = '{"n": 2, "edges": [[1, 2]]}'


@pytest.mark.parametrize("dag, weights", [
    # n and the edge endpoints are JSON integers, and every edge is a pair
    ('{"n": 2, "edges": [[1, 2.7]]}', "[1]"),
    ('{"n": 2.9, "edges": [[1, 2]]}', "[1]"),
    ('{"n": true, "edges": []}', "[]"),
    ('{"n": 2, "edges": [[true, 2]]}', "[1]"),
    ('{"n": 2, "edges": [12]}', "[1]"),
    ('{"n": 2, "edges": [[1, 2, 2]]}', "[1]"),
    # weights are JSON integers or strings, finite in the edge-list form
    (K2, "[1.5]"),
    (K2, "[true]"),
    (K2, '["-inf"]'),
    (K2, '["1/0"]'),
    (K2, '[["-inf", 0.5], ["-inf", "-inf"]]'),
])
def test_malformed_dag_or_weights_prints_the_error_object(tmp_path, capsys, dag, weights):
    (tmp_path / "dag.json").write_text(dag)
    (tmp_path / "w.json").write_text(weights)
    code, out = invoke(capsys, "maxoid", str(tmp_path / "dag.json"), str(tmp_path / "w.json"))
    assert code != 0
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_pretty_mode(files, capsys):
    code, out = invoke(capsys, "--pretty", "census", "--nodes", "3")
    assert code == 0
    assert "tdags: 3" in out


def test_parser_is_built_once_and_keeps_no_state(files, capsys):
    assert build_parser() is build_parser()
    code, pretty = invoke(capsys, "--pretty", "maxoid", files["dag"], files["weights"])
    assert code == 0 and pretty.startswith("4 statements:")
    code, plain = invoke(capsys, "maxoid", files["dag"], files["weights"])
    assert code == 0
    assert json.loads(plain) == ["1,3|2", "1,3|2,4", "1,4|2", "1,4|2,3"]


@pytest.mark.parametrize("name", ["complete4", "diamond"])
def test_polytope_output_matches_the_golden_files(capsys, tmp_path, name):
    # recorded with the pairwise face lattice this one replaced; neither file
    # holds an LP witness, so only the lattice and the face maxoids show here
    dot = tmp_path / "hasse.dot"
    code, out = invoke(capsys, "polytope", str(DATA / f"{name}.json"),
                       "--face-maxoids", "--hasse-dot", str(dot))
    assert code == 0
    assert out.encode() == (DATA / f"{name}_polytope.json").read_bytes()
    assert dot.read_bytes() == (DATA / f"{name}_hasse.dot").read_bytes()


@pytest.mark.parametrize("name", ["complete4", "diamond"])
def test_fan_output_matches_the_golden_files(capsys, name):
    # pins the inequality rows, the LP witnesses and the adjacency; recorded
    # when the fan search began to warm-start its LPs, which moved only the
    # witness fields (8 of 9 on complete-4, 1 of 2 on the diamond)
    code, out = invoke(capsys, "fan", "--adjacency", str(DATA / f"{name}.json"))
    assert code == 0
    assert out.encode() == (DATA / f"{name}_fan.json").read_bytes()


@pytest.mark.parametrize("argv, drop, reverse, digest", [
    (["polytope", "--face-maxoids"], (3, 4), False,
     "cc852fdc8da1e5cf124e42ccef37a042fe6e583263ad1035cbbe121817b265ae"),
    (["fan", "--adjacency"], None, False,
     "abf220ac5d06537a1f6b42811b2a82b83021dcdeb2a25a4fc063cefe69150b94"),
    (["fan"], None, True,
     "c3ebab55e91af52d056cb944da6fb7a626656bcbbac12adb252196fde87604dc"),
], ids=["polytope-complete5-minus-3-4", "fan-adjacency-complete5", "fan-reversed-complete5"])
def test_five_node_outputs_keep_their_pinned_digests(capsys, tmp_path, argv, drop, reverse,
                                                     digest):
    # complete-5 minus 3->4 and complete-5, whose polytopes (dimensions 5
    # and 6) run the double description far longer than the golden files'
    # 3-dimensional ones; the digests were taken from the Fraction-echelon
    # hull.  The fan of complete-5 with every edge reversed (node 5 the
    # source) pins witnesses that the search reaches in another pair and
    # path order than under the identity labels
    edges = [[i, j] for i in range(1, 6) for j in range(i + 1, 6) if (i, j) != drop]
    if reverse:
        edges = sorted([j, i] for i, j in edges)
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps({"n": 5, "edges": edges}))
    code, out = invoke(capsys, *argv, str(dag))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dot_export(files, capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = invoke(capsys, "maxoid", files["dag"], files["weights"], "--dot", str(dot))
    assert code == 0
    assert "1 -> 2;" in dot.read_text()


@pytest.mark.parametrize("module", ["maxoid", "maxoid.cli"])
def test_python_dash_m_prints_what_run_prints(capsys, module):
    _, expected = invoke(capsys, "tdags", "--nodes", "3")
    src = os.path.dirname(os.path.dirname(maxoid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", module, "tdags", "--nodes", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["count"] == 3

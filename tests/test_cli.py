import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import maxoid
from maxoid import polytope, separation
from maxoid.census import all_top_ordered_tdags
from maxoid.cli import build_parser, run
from maxoid.fan import enumerate_maximal_cones
from maxoid.graph import Dag, dag_to_json
from maxoid.polytope import cone_adjacency, face_lattice, face_maxoids, polytope_vertices
from maxoid.tropical import WeightedDag
from oracles import (
    closed_dags,
    complete_dag,
    dict_tree_fan_output,
    dict_tree_polytope_output,
    echelon_lineality_dimension,
)

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


@pytest.mark.parametrize("argv, digest", [
    (["--nodes", "4"], "3ea0d5ec2bb8011a665c06a91da7817b369aea1c320ecfae9e6c5b9ce9769a96"),
    (["--nodes", "5", "--generic-only"],
     "af4f6e4b2440fe68ad872fa4dde7d8bfdbcfe66908b5bf9cbe854979a8ebe48d"),
], ids=["nodes-4", "nodes-5-generic-only"])
def test_census_dumps_keep_their_pinned_digests(capsys, monkeypatch, argv, digest):
    # every structure the census finds, in print order, computed and not
    # read from a cache; the digests were taken from the census that ran
    # each class's own path search for its restrictions
    monkeypatch.delenv("MAXOID_CACHE_DIR", raising=False)
    code, out = invoke(capsys, "census", *argv, "--dump")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_and_fan_make_no_fraction_in_the_fan(files, capsys, monkeypatch):
    # the cones stay integer from the search through the census and the
    # fan printer: neither reads a witness as Fractions
    def refused(*args):
        raise AssertionError("Fraction made")

    monkeypatch.delenv("MAXOID_CACHE_DIR", raising=False)
    monkeypatch.setattr("maxoid.fan.Fraction", refused)
    code, out = invoke(capsys, "census", "--nodes", "4")
    assert code == 0
    assert json.loads(out) == {"tdags": 18, "maxoids": 41, "generic": 40}
    code, out = invoke(capsys, "fan", str(DATA / "complete4.json"))
    assert code == 0 and len(json.loads(out)["cones"]) == 9


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
    # a one-cone fan stands in for the search; fan reads its lineality off a cone
    one_cone = enumerate_maximal_cones(Dag(2, [(1, 2)]))
    monkeypatch.setattr("maxoid.cli.enumerate_maximal_cones", lambda g: one_cone)
    monkeypatch.setattr("maxoid.polytope.cone_adjacency", lambda g, entries: [])
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
    monkeypatch.setattr("maxoid.implication.decide_implication", started)
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


def test_maxoid_on_more_than_12_nodes_is_refused_before_the_maxoid(files, capsys,
                                                                   monkeypatch):
    def started(*args, **kwargs):
        raise RuntimeError("work started")

    monkeypatch.setattr("maxoid.cli.maxoid", started)
    dag = files["dir"] / "edgeless.json"
    dag.write_text('{"n": 13, "edges": []}')
    weights = files["dir"] / "none.json"
    weights.write_text("[]")
    dot = files["dir"] / "edgeless.dot"
    code, out = invoke(capsys, "maxoid", str(dag), str(weights), "--dot", str(dot))
    assert code == 2
    assert json.loads(out) == {"error": {"type": "usage", "message": (
        "maxoid on a graph with more than 12 nodes is long-running; "
        "pass --unbounded to run sizes beyond the quick default")}}
    assert not dot.exists()
    assert 13 not in separation._subset_tables and 13 not in separation._statement_tables
    code, out = invoke(capsys, "maxoid", str(dag), str(weights), "--unbounded")
    assert json.loads(out)["error"]["message"] == "work started"
    # 12 nodes pass the guard
    dag.write_text('{"n": 12, "edges": []}')
    code, out = invoke(capsys, "maxoid", str(dag), str(weights))
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


def test_polytope_renders_each_distinct_face_maxoid_once(capsys, monkeypatch):
    rendered = []
    to_json = separation.Maxoid.to_json
    monkeypatch.setattr(separation.Maxoid, "to_json",
                        lambda m: rendered.append(m.bits) or to_json(m))
    code, out = invoke(capsys, "polytope", str(DATA / "complete4.json"), "--face-maxoids")
    assert code == 0
    structures = json.loads(out)["face_maxoids"]
    assert len(structures) == 31 and len(rendered) == len(set(rendered))
    assert len(rendered) == len({tuple(m) for m in structures})


@pytest.mark.parametrize("name", ["complete4", "diamond"])
def test_fan_output_matches_the_golden_files(capsys, name):
    # pins the inequality rows, the LP witnesses and the adjacency; recorded
    # when the fan search began to warm-start its LPs, which moved only the
    # witness fields (8 of 9 on complete-4, 1 of 2 on the diamond)
    code, out = invoke(capsys, "fan", "--adjacency", str(DATA / f"{name}.json"))
    assert code == 0
    assert out.encode() == (DATA / f"{name}_fan.json").read_bytes()


@pytest.mark.parametrize("argv, drop, reverse, digest, dot_digest", [
    (["polytope", "--face-maxoids"], (3, 4), False,
     "cc852fdc8da1e5cf124e42ccef37a042fe6e583263ad1035cbbe121817b265ae",
     "f3fd2bbd044f6c1a28012979a765588a565dc0b42f9e47dd1230b4450948e6eb"),
    (["fan", "--adjacency"], None, False,
     "abf220ac5d06537a1f6b42811b2a82b83021dcdeb2a25a4fc063cefe69150b94", None),
    (["fan"], None, True,
     "c3ebab55e91af52d056cb944da6fb7a626656bcbbac12adb252196fde87604dc", None),
], ids=["polytope-complete5-minus-3-4", "fan-adjacency-complete5", "fan-reversed-complete5"])
def test_five_node_outputs_keep_their_pinned_digests(capsys, tmp_path, argv, drop, reverse,
                                                     digest, dot_digest):
    # complete-5 minus 3->4 and complete-5, whose polytopes (dimensions 5
    # and 6) run the double description far longer than the golden files'
    # 3-dimensional ones; the digests were taken from the Fraction-echelon
    # hull, the Hasse diagram's from the faces held as vertex sets.  The fan
    # of complete-5 with every edge reversed (node 5 the source) pins
    # witnesses that the search reaches in another pair and path order than
    # under the identity labels
    edges = [[i, j] for i in range(1, 6) for j in range(i + 1, 6) if (i, j) != drop]
    if reverse:
        edges = sorted([j, i] for i, j in edges)
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps({"n": 5, "edges": edges}))
    dot = tmp_path / "hasse.dot"
    if dot_digest is not None:
        argv = argv + ["--hasse-dot", str(dot)]
    code, out = invoke(capsys, *argv, str(dag))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if dot_digest is not None:
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_digest


def _relabeled(g: Dag, label) -> Dag:
    """g with node v renamed label[v - 1]."""
    return Dag(g.n, [(label[u - 1], label[v - 1]) for u, v in g.edges])


def _fan_family(name: str) -> list[Dag]:
    if name == "complete5-relabelings":
        # edge-reversed, as in the pinned digest, and seeded relabelings
        k5 = complete_dag(5)
        rng = random.Random(5)
        return [_relabeled(k5, (5, 4, 3, 2, 1))] + [
            _relabeled(k5, rng.sample(range(1, 6), 5)) for _ in range(4)]
    if name == "5-node-classes":
        return [g for g, _ in all_top_ordered_tdags(5).classes]
    return closed_dags(int(name[0]))


@pytest.mark.parametrize("family", ["3-node", "4-node", "5-node-classes",
                                    "complete5-relabelings"])
def test_fan_output_matches_the_dict_tree_oracle(capsys, tmp_path, family):
    graphs = _fan_family(family)
    assert len(graphs) == {"3-node": 7, "4-node": 40, "5-node-classes": 44}.get(family, 5)
    dag = tmp_path / "dag.json"
    for g in graphs:
        dag.write_text(json.dumps(dag_to_json(g)))
        entries = enumerate_maximal_cones(g)
        lineality = echelon_lineality_dimension(g)
        adjacency = cone_adjacency(g, entries)
        for argv, expected in [
            (["fan"], dict_tree_fan_output(g, entries, lineality)),
            (["fan", "--adjacency"], dict_tree_fan_output(g, entries, lineality, adjacency)),
            (["--pretty", "fan"], dict_tree_fan_output(g, entries, lineality, pretty=True)),
        ]:
            code, out = invoke(capsys, *argv, str(dag))
            assert code == 0 and out == expected, (argv, g.sorted_edges)


def _renamed_statement(text: str, label) -> str:
    """A printed statement "i,j|L" with every node v renamed label[v - 1]."""
    pair, given = text.split("|")
    i, j = sorted(label[int(v) - 1] for v in pair.split(","))
    rest = sorted(label[int(v) - 1] for v in given.split(",") if v)
    return f"{i},{j}|{','.join(map(str, rest))}"


def test_fan_of_a_relabeled_dag_is_the_relabeled_fan(capsys, tmp_path):
    # renaming the nodes renames the fan, with no oracle: on seeded 5- and
    # 6-node DAGs with upward edges, at most 13, each under a seeded
    # relabeling, `fan` prints as many cones and the same lineality, the
    # same multiset of maxoids up to the renaming, and witnesses that each
    # realize their own printed maxoid, read off their weights by the
    # Kleene star
    rng = random.Random("fan-relabeling")
    dag = tmp_path / "dag.json"
    cones = 0
    for trial in range(20):
        n = 5 if trial < 12 else 6
        upward = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = Dag(n, rng.sample(upward, rng.randint(n, min(len(upward), 13))))
        label = rng.sample(range(1, n + 1), n)
        h = _relabeled(g, label)
        printed = []
        for graph in (g, h):
            dag.write_text(json.dumps(dag_to_json(graph)))
            code, out = invoke(capsys, "fan", str(dag))
            assert code == 0
            printed.append(json.loads(out))
        first, second = printed
        for cone in second["cones"]:
            weights = dict(zip(map(tuple, second["edges"]), map(Fraction, cone["witness"])))
            assert separation.maxoid(WeightedDag(h, weights)).to_json() == cone["maxoid"]
        assert len(first["cones"]) == len(second["cones"]), g
        assert first["lineality_dimension"] == second["lineality_dimension"], g
        renamed = Counter(frozenset(_renamed_statement(t, label) for t in cone["maxoid"])
                          for cone in first["cones"])
        assert renamed == Counter(frozenset(cone["maxoid"]) for cone in second["cones"]), g
        cones += len(first["cones"])
    assert cones > 500


def test_fan_prints_witnesses_over_any_denominator_as_fractions_do(capsys, monkeypatch):
    # every fan measured has den 1, so the oracle differential above never
    # reaches a reduced fraction; here the complete-4 cones carry points
    # over dens 2, 6 and 7 with negative, zero and divisible numerators
    g = complete_dag(4)
    rng = random.Random(7)
    entries = []
    for k, e in enumerate(enumerate_maximal_cones(g)):
        den = (2, 6, 7)[k % 3]
        point = [rng.randint(-3, 3) * rng.choice((1, den)) + rng.choice((0, 1))
                 for _ in e.point]
        entries.append(dataclasses.replace(e, point=tuple(point), den=den))
    texts = {str(x) for e in entries for x in e.witness}
    assert "0" in texts and any("/" in t and t.startswith("-") for t in texts)
    assert any(x and x % e.den == 0 for e in entries for x in e.point)
    assert any("/" in t and not t.endswith(("/2", "/6", "/7")) for t in texts)
    monkeypatch.setattr("maxoid.cli.enumerate_maximal_cones", lambda _: entries)
    code, out = invoke(capsys, "fan", str(DATA / "complete4.json"))
    assert code == 0
    assert out == dict_tree_fan_output(g, entries, echelon_lineality_dimension(g))


@pytest.mark.parametrize("family", ["4-node", "complete5-minus-3-4"])
def test_polytope_output_matches_the_dict_tree_oracle(capsys, tmp_path, family):
    if family == "4-node":
        graphs = closed_dags(4)
    else:
        graphs = [Dag(5, [e for e in complete_dag(5).edges if e != (3, 4)])]
    dag = tmp_path / "dag.json"
    for g in graphs:
        dag.write_text(json.dumps(dag_to_json(g)))
        points = polytope_vertices(g, enumerate_maximal_cones(g))
        coords = [p for _, p in points]
        lattice = face_lattice(coords)
        structures = face_maxoids(g, lattice.faces, points)
        for argv, expected in [
            (["polytope", "--face-maxoids"],
             dict_tree_polytope_output(g, coords, lattice, structures)),
            (["polytope"], dict_tree_polytope_output(g, coords, lattice)),
            (["--pretty", "polytope", "--face-maxoids"],
             dict_tree_polytope_output(g, coords, lattice, structures, pretty=True)),
        ]:
            code, out = invoke(capsys, *argv, str(dag))
            assert code == 0 and out == expected, (argv, g.sorted_edges)


def test_pretty_fan_and_polytope_compute_nothing_they_do_not_print(capsys, tmp_path,
                                                                   monkeypatch):
    # --pretty prints neither the adjacency nor the face structures
    def unprinted(*args):
        raise AssertionError("computed but not printed")

    monkeypatch.setattr("maxoid.polytope.cone_adjacency", unprinted)
    monkeypatch.setattr("maxoid.polytope.face_maxoids", unprinted)
    dag = tmp_path / "k5.json"
    dag.write_text(json.dumps(dag_to_json(complete_dag(5))))
    code, fan = invoke(capsys, "--pretty", "fan", str(dag))
    assert code == 0 and hashlib.md5(fan.encode()).hexdigest().startswith("5fc628b9")
    assert invoke(capsys, "--pretty", "fan", "--adjacency", str(dag)) == (0, fan)
    line = "dim 6, 103 vertices, f-vector (103, 336, 447, 304, 108, 18)\n"
    assert invoke(capsys, "--pretty", "polytope", str(dag)) == (0, line)
    assert invoke(capsys, "--pretty", "polytope", "--face-maxoids", str(dag)) == (0, line)


def test_fan_encodes_each_distinct_critical_path_and_row_once(capsys, tmp_path, monkeypatch):
    # complete-5: 103 cones repeat 26 distinct critical paths 1030 times and
    # 48 distinct rows 1315 times
    encoded = []
    encode = maxoid.cli._json

    def spy(data):
        encoded.append(encode(data))
        return encoded[-1]

    monkeypatch.setattr("maxoid.cli._json", spy)
    dag = tmp_path / "k5.json"
    dag.write_text(json.dumps(dag_to_json(complete_dag(5))))
    code, out = invoke(capsys, "fan", str(dag))
    assert code == 0
    paths = [t for t in encoded if t.startswith('{"pair"')]
    rows = [t for t in encoded if re.fullmatch(r"\[-?\d+(,-?\d+)*\]", t)]
    assert (len(paths), len(rows)) == (26, 48)
    cones = json.loads(out)["cones"]
    assert sum(len(c["critical_paths"]) for c in cones) == 1030
    assert sum(len(c["inequalities"]) for c in cones) == 1315


_facet_incidences = polytope._facet_incidences


def _negated_normals(points):
    return [(mask, tuple(-x for x in a)) for mask, a in _facet_incidences(points)]


@pytest.mark.parametrize("argv, target, fault", [
    (["fan"], "maxoid.fan.checked_point", None),
    (["fan", "--adjacency"], "maxoid.fan.checked_point", None),
    (["polytope", "--face-maxoids"], "maxoid.polytope._facet_incidences", _negated_normals),
], ids=["fan-witness-check", "fan-adjacency-witness-check", "polytope-facet-check"])
def test_a_failed_check_prints_only_the_error_object(capsys, monkeypatch, argv, target, fault):
    def failing(*args):
        raise AssertionError("witness fails a row")

    monkeypatch.setattr(target, fault or failing)
    code, out = invoke(capsys, *argv, str(DATA / "complete4.json"))
    assert code != 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["error"]["type"] == "AssertionError"


@pytest.mark.long
def test_first_13_edge_6_node_polytope_keeps_its_pinned_digests(capsys, tmp_path):
    # e13, the first 6-node TDAG with 13 edges (complete-6 minus 4->6 and
    # 5->6): 473 vertices and 14409 faces, stdout and Hasse diagram pinned
    # from the faces held as vertex sets
    edges = [[i, j] for i in range(1, 7) for j in range(i + 1, 7) if (i, j) not in {(4, 6), (5, 6)}]
    dag = tmp_path / "e13.json"
    dag.write_text(json.dumps({"n": 6, "edges": edges}))
    dot = tmp_path / "hasse.dot"
    code, out = invoke(capsys, "polytope", "--face-maxoids", "--hasse-dot", str(dot), str(dag))
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "c591db1952855f3f70b2c7423f94ae32"
    assert hashlib.md5(dot.read_bytes()).hexdigest() == "848c3a4c4a85f55c0009c6ba6afc0f06"


def test_dot_export(files, capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = invoke(capsys, "maxoid", files["dag"], files["weights"], "--dot", str(dot))
    assert code == 0
    assert "1 -> 2;" in dot.read_text()


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(maxoid.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("module", ["maxoid", "maxoid.cli"])
def test_python_dash_m_prints_what_run_prints(capsys, module):
    _, expected = invoke(capsys, "tdags", "--nodes", "3")
    proc = subprocess.run([sys.executable, "-m", module, "tdags", "--nodes", "3"],
                          capture_output=True, text=True, env=_fresh_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["count"] == 3


# each command imports its leaf modules when it runs, which an in-process
# test cannot check: pytest has already imported every module
@pytest.mark.parametrize("argv", [
    ["maxoid", "{dag}", "{weights}"],
    ["kleene", "{dag}", "{weights}"],
    ["fan", "{diamond}"],
    ["fan", "--adjacency", "{diamond}"],
    ["polytope", "--face-maxoids", "{diamond}"],
    ["census", "--nodes", "4"],
    ["implies", "--nodes", "3", "1,2|3 => 1,2|"],
    ["axioms", "{dag}", "{weights}"],
    ["tdags", "--nodes", "4"],
], ids=["maxoid", "kleene", "fan", "fan-adjacency", "polytope-face-maxoids", "census", "implies",
        "axioms", "tdags"])
def test_each_command_in_a_fresh_interpreter_prints_what_run_prints(files, capsys, argv):
    argv = [a.format(**files) for a in argv]
    code, expected = invoke(capsys, *argv)
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "maxoid", *argv], capture_output=True,
                          env=_fresh_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected.encode()


def test_start_up_loads_no_module_its_command_skips():
    # the modules loaded after `import maxoid.cli`, after a plain fan run,
    # after a serial generic census and tdags, and after a serial census
    # with faces, in one fresh interpreter
    driver = ("import contextlib, io, json, sys\n"
              "import maxoid.cli\n"
              "loaded = [sorted(sys.modules)]\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert maxoid.cli.run(argv) == 0\n"
              "    loaded.append(sorted(sys.modules))\n"
              "print(json.dumps(loaded))\n")
    runs = [["fan", str(DATA / "complete4.json")],
            ["census", "--nodes", "4", "--generic-only", "--jobs", "1"], ["tdags", "--nodes", "4"],
            ["census", "--nodes", "4", "--jobs", "1"]]
    proc = subprocess.run([sys.executable, "-c", driver, json.dumps(runs)], capture_output=True,
                          text=True, env=_fresh_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_fan, after_generic, after_tdags, after_census = json.loads(proc.stdout)

    def loaded(modules, names):
        return {m for m in modules for name in names if m == name or m.startswith(name + ".")}

    pool = ["multiprocessing", "concurrent"]
    leaves = ["maxoid.polytope", "maxoid.implication", "maxoid.axioms", "maxoid.census"]
    assert loaded(at_import, leaves + pool) == set()
    assert loaded(after_fan, leaves + pool) == set()
    # neither a generic census nor tdags builds a face lattice
    assert "maxoid.census" in after_generic
    assert loaded(after_tdags, ["maxoid.polytope"] + pool) == set()
    # the -c script sees what a command loads: a census with faces loads them
    assert "maxoid.polytope" in after_census
    assert loaded(after_census, pool) == set()


def test_closed_stdout_exits_nonzero_without_a_traceback():
    # about 180 kB of output, more than a pipe holds, so the write meets the
    # closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "maxoid", "tdags", "--nodes", "6",
                             "--unbounded"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.read(10) == b'{"count":2'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert b"Traceback" not in err, err.decode()

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations
from types import SimpleNamespace

import pytest

from maxoid.axioms import check_amalgamation, check_compositional_graphoid, check_strong_spohn
from maxoid import census, fan
from maxoid.census import TdagFamily, all_top_ordered_tdags, census_structures, graph_maxoids
from maxoid.graph import Dag, transitive_closure
from maxoid.separation import _statement_tables, maxoid
from maxoid.tropical import WeightedDag
from fractions import Fraction
from oracles import complete_dag, mask_loop_dags, per_graph_census


def test_tdag_family_counts():
    assert len(all_top_ordered_tdags(3).graphs) == 3
    assert len(all_top_ordered_tdags(4).graphs) == 18


def _weakly_connected(g):
    seen, todo = {1}, [1]
    while todo:
        v = todo.pop()
        for u in (*g.children(v), *g.parents(v)):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == g.n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tdag_family_keeps_the_mask_loop_order(n):
    pairs = list(combinations(range(1, n + 1), 2))
    expected = [g for g in mask_loop_dags(n, pairs, closed_only=True) if _weakly_connected(g)]
    assert all_top_ordered_tdags(n).graphs == expected
    assert len(expected) == {1: 1, 2: 1, 3: 3, 4: 18, 5: 181, 6: 2792}[n]


def test_tdag_family_invariants():
    fam = all_top_ordered_tdags(4)
    for g in fam.graphs:
        assert all(u < v for u, v in g.edges)
        assert transitive_closure(g) == g
        touched = {v for e in g.edges for v in e}
        assert touched == set(range(1, 5))


def test_the_family_builds_a_dag_per_class_only(monkeypatch):
    # a census on 5 nodes reads the 44 class representatives of 181 graphs
    built = []
    init = Dag.__init__

    def spy(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Dag, "__init__", spy)
    family = all_top_ordered_tdags(5)
    assert (len(family.masks), len(family.classes), len(built)) == (181, 44, 44)


@pytest.mark.long
def test_seven_node_family_is_62960_graphs_in_1650_classes_under_40_mb():
    # a Dag per mask, filtered from all 2^21 masks and classed on edge sets,
    # peaked at 187 MB under tracemalloc
    tracemalloc.start()
    try:
        family = all_top_ordered_tdags(7)
        counts = len(family.masks), len(family.classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (62960, 1650)
    assert peak < 40e6, peak


@pytest.mark.parametrize("family, message", [
    (TdagFamily(2, [Dag(2, [(2, 1)])]),
     r"Dag\(n=2, edges=\[\(2, 1\)\]\) is not an edge mask of 1..2"),
    (TdagFamily(2, [1, 1]), r"Dag\(n=2, edges=\[\(1, 2\)\]\) is listed twice"),
    (TdagFamily(2, [2]), "2 is not an edge mask of 1..2"),
    (TdagFamily(2, [-1]), "-1 is not an edge mask of 1..2"),
], ids=["downward-edge", "twice", "past-the-pairs", "negative"])
def test_census_names_a_graph_the_family_cannot_hold(family, message):
    with pytest.raises(ValueError, match=message):
        census_structures(family)


def test_census_counts_n3():
    generic, everything = census_structures(all_top_ordered_tdags(3))
    assert len(generic) == len(everything) == 4


def test_census_counts_n4():
    generic, everything = census_structures(all_top_ordered_tdags(4))
    assert census_structures(all_top_ordered_tdags(4), include_faces=False) == (generic, generic)
    assert len(generic) == 40
    assert len(everything) == 41
    assert generic <= everything


def test_census_structures_satisfy_sound_closure_properties():
    for m in census_structures(all_top_ordered_tdags(4))[1]:
        assert check_compositional_graphoid(m) == []
        assert check_amalgamation(m) == []
        assert check_strong_spohn(m, original_premise=True) == []


def test_census_equals_brute_force_over_identity_ordered_dags_n3():
    # over all DAGs with edges i<j, sampling one weight vector per cone via
    # the fan happens inside census_structures; brute-force integer grids
    # on every graph must not produce anything new
    structures = census_structures(all_top_ordered_tdags(3))[1]
    seen = set()
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for g in mask_loop_dags(3, pairs):
        if any(u > v for u, v in g.edges):
            continue
        if not g.edges:
            continue
        touched = {v for e in g.edges for v in e}
        if touched != set(range(1, 4)):
            continue
        for w0 in range(-2, 3):
            for w1 in range(-2, 3):
                for w2 in range(-2, 3):
                    weights = [w0, w1, w2][: len(g.edges)]
                    wd = WeightedDag(g, dict(zip(g.sorted_edges, map(Fraction, weights))))
                    seen.add(maxoid(wd))
    assert seen <= structures


@pytest.mark.parametrize("family, include_faces", [
    (all_top_ordered_tdags(3), True),
    (all_top_ordered_tdags(4), True),
    (all_top_ordered_tdags(5), False),
    (TdagFamily(5, all_top_ordered_tdags(5).masks[::5]), True),
], ids=["3", "4", "5-generic", "5-strided"])
def test_class_census_matches_the_per_graph_census(family, include_faces):
    assert (census.census_structures(family, include_faces)
            == per_graph_census(family, include_faces))


@pytest.mark.long
def test_class_census_matches_the_per_graph_census_with_faces_on_5_nodes():
    family = all_top_ordered_tdags(5)
    assert census.census_structures(family) == per_graph_census(family, True)


def test_cache_holds_one_file_per_class(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    structures = census_structures(all_top_ordered_tdags(4))
    assert len(list(tmp_path.iterdir())) == 10
    assert census_structures(all_top_ordered_tdags(4)) == structures


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    g = Dag(3, [(1, 2), (1, 3), (2, 3)])
    first = graph_maxoids(g, include_faces=True)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    again = graph_maxoids(g, include_faces=True)
    assert first == again
    cached = json.loads(files[0].read_text())
    assert cached["generic"] == first["generic"]
    assert cached == first and all(type(b) is int for b in first["generic"] + first["faces"])


def test_cold_and_warm_cache_runs_return_equal_bits(tmp_path, monkeypatch):
    family = all_top_ordered_tdags(4)
    uncached = [graph_maxoids(g, include_faces=True) for g in family.graphs]
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    for include_faces in (False, True, True):
        got = [graph_maxoids(g, include_faces) for g in family.graphs]
        assert [data["generic"] for data in got] == [data["generic"] for data in uncached]
        if include_faces:
            assert got == uncached


def test_cache_miss_recomputes_what_is_asked_and_replaces_the_record(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    g = Dag(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    generic = graph_maxoids(g, include_faces=False)
    (path,) = tmp_path.iterdir()
    assert generic["faces"] is None and json.loads(path.read_text()) == generic
    full = graph_maxoids(g, include_faces=True)
    assert full["generic"] == generic["generic"] and full["faces"]
    assert json.loads(path.read_text()) == full
    # a record with faces answers a generic-only call too
    assert graph_maxoids(g, include_faces=False) == full


def test_cache_record_holding_anything_but_structure_bits_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    g = Dag(5, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    first = graph_maxoids(g, include_faces=True)
    assert first["faces"]
    (path,) = tmp_path.iterdir()
    top = 1 << len(_statement_tables[5].statements)
    # a bool, a negative int, an int past the last statement's bit, a
    # float, a statement string, an empty generic list; in either list
    for entry in (True, False, -1, top, top + 5, 1.0, 3.0, "1,2|", ["1,2|"]):
        for record in ({"generic": [entry], "faces": first["faces"]},
                       {"generic": first["generic"], "faces": [*first["faces"], entry]}):
            path.write_text(json.dumps(record))
            assert graph_maxoids(g, include_faces=True) == first
            assert json.loads(path.read_text()) == first
    for record in ({"generic": [], "faces": first["faces"]}, {"generic": [], "faces": None}):
        path.write_text(json.dumps(record))
        generic = {"generic": first["generic"], "faces": None}
        assert graph_maxoids(g, include_faces=False) == generic
        assert json.loads(path.read_text()) == generic
    # the largest statement set is a valid entry
    path.write_text(json.dumps({"generic": [top - 1], "faces": None}))
    assert graph_maxoids(g, include_faces=False) == {"generic": [top - 1], "faces": None}


def test_cache_file_that_does_not_parse_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    g = Dag(3, [(1, 2), (1, 3), (2, 3)])
    first = graph_maxoids(g, include_faces=True)
    (path,) = tmp_path.iterdir()
    for bad in (path.read_text()[:-7], "", '{"faces": []}', "[]",
                # records of the wrong shape
                '{"generic": [5], "faces": [[1]]}', '{"generic": [], "faces": 5}',
                '{"generic": [["bogus"]]}', '{"generic": [["1,2|"]], "faces": [["1,9|"]]}'):
        path.write_text(bad)
        assert graph_maxoids(g, include_faces=True) == first
        assert json.loads(path.read_text()) == first


def test_cache_record_with_a_statement_not_in_canonical_form_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    g = Dag(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    first = graph_maxoids(g, include_faces=False)
    (path,) = tmp_path.iterdir()
    # compact digits, a node outside 1..5, spaces, an unsorted or a
    # reversed statement
    for text in ("12|3", "1,6|", "1, 2|", "1,2|4,3", "2,1|"):
        path.write_text(json.dumps({"generic": [[text]]}))
        assert graph_maxoids(g, include_faces=False) == first
        assert json.loads(path.read_text()) == first


def test_cache_files_of_other_package_source_are_not_read(tmp_path, monkeypatch):
    # a warm cache whose one record is a valid stand-in, then two copies of
    # the package, each run in its own process: the unedited copy reads the
    # stand-in, the copy with one edited module misses and adds its record
    cache = tmp_path / "cache"
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(cache))
    g = Dag(3, [(1, 2), (1, 3), (2, 3)])
    computed = graph_maxoids(g, include_faces=False)
    (path,) = cache.iterdir()
    stand_in = {"generic": [1], "faces": None}
    assert computed != stand_in
    path.write_text(json.dumps(stand_in))
    package = os.path.dirname(census.__file__)
    code = ("import json; from maxoid.census import graph_maxoids; from maxoid.graph import Dag; "
            "print(json.dumps(graph_maxoids(Dag(3, [(1, 2), (1, 3), (2, 3)]), False)))")
    for name, edited, expected, files in (("same", False, stand_in, 1),
                                          ("edited", True, computed, 2)):
        copy = tmp_path / name / "maxoid"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if edited:
            with open(copy / "tropical.py", "a") as fh:
                fh.write("# edited\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(copy.parent),
                                  "PYTHONDONTWRITEBYTECODE": "1"}).stdout
        assert json.loads(out) == expected, name
        assert len(list(cache.iterdir())) == files, name


def test_parallel_census_matches_serial():
    fam = all_top_ordered_tdags(5)
    assert census_structures(fam, jobs=2) == census_structures(fam, jobs=1)


def test_census_searches_the_complete_fan_once_per_call_and_never_when_warm(
        tmp_path, monkeypatch):
    searched = []
    search = fan._search

    def spy(g, reversal=None):
        searched.append(g)
        return search(g, reversal)

    monkeypatch.setattr(fan, "_search", spy)
    family = all_top_ordered_tdags(4)
    expected = census_structures(family, jobs=1)
    assert searched == [complete_dag(4)]
    # nothing is kept from one call to the next
    assert census_structures(family, jobs=1, include_faces=False)[0] == expected[0]
    assert len(searched) == 2
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(tmp_path))
    assert census_structures(family, jobs=1) == expected
    assert len(searched) == 3
    assert census_structures(family, jobs=1) == expected
    assert len(searched) == 3


def test_census_pool_is_capped_at_the_graph_count(monkeypatch):
    # a fake executor on a fake spawn context records each pool's size, runs
    # the worker initializer and maps serially, so no process is started
    sizes = []
    spawn = SimpleNamespace()

    class FakeExecutor:
        def __init__(self, size, mp_context, initializer, initargs):
            assert mp_context is spawn
            sizes.append(size)
            initializer(*initargs)

        def map(self, fn, tasks):
            return (fn(t) for t in tasks)

        def shutdown(self, cancel_futures):
            pass

    def get_context(method):
        assert method == "spawn"
        return spawn

    monkeypatch.setattr("multiprocessing.get_context", get_context)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(census, "_worker_fan", None)
    fam = all_top_ordered_tdags(3)
    serial = census_structures(fam, jobs=1)
    assert census_structures(fam, jobs=8) == serial
    assert census_structures(fam, jobs=2) == serial
    assert sizes == [3, 2]
    single = TdagFamily(3, fam.masks[:1])
    assert census_structures(single, jobs=8) == census_structures(single, jobs=1)
    assert sizes == [3, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_graph_is_named(tmp_path, monkeypatch, jobs):
    # a cache directory that is a regular file makes every graph fail
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("MAXOID_CACHE_DIR", str(blocker))
    with pytest.raises(RuntimeError, match=r'census failed on graph \{"edges": \[\['):
        census_structures(all_top_ordered_tdags(3), jobs=jobs)


def test_dead_worker_fails_the_census_instead_of_waiting():
    # os._exit(3) ends the worker process that runs it
    with pytest.raises(BrokenProcessPool):
        list(census._spawned_map(os._exit, [3, 3], 2))


def test_dead_worker_names_the_first_graph_without_a_result(monkeypatch):
    spawned_map = census._spawned_map

    def dying(fn, tasks, workers, initializer, initargs):
        return spawned_map(os._exit, [3] * len(tasks), workers)

    monkeypatch.setattr(census, "_spawned_map", dying)
    with pytest.raises(RuntimeError, match=r'census worker died; no result for graph '
                                           r'\{"edges": \[\['):
        census_structures(all_top_ordered_tdags(3), jobs=2)

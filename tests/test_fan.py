import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest

from maxoid.census import all_top_ordered_tdags
from maxoid.fan import (
    _edge_index,
    _path_comparison,
    enumerate_maximal_cones,
    lineality_dimension,
    restricted_systems,
    sliced_fan,
)
from maxoid.graph import Dag, enumerate_paths
from maxoid.linarith import rank_of
from maxoid.polytope import cone_adjacency
from maxoid.separation import maxoid, parse_ci_statement
from maxoid.tropical import WeightedDag, critical_paths, weighted_dag_from_list
from oracles import (
    NonGenericError,
    as_constraint,
    closed_dags,
    cold_lp_maximal_cones,
    complete_dag,
    cone_of,
    echelon_lineality_dimension,
    fraction_feasible,
    in_open_cone,
    kleene_maxoid,
    random_weighted_dag,
)

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
K3 = Dag(3, [(1, 2), (1, 3), (2, 3)])
CHAIN = Dag(3, [(1, 2), (2, 3)])


def stmts(*texts):
    return {parse_ci_statement(t) for t in texts}


def test_cone_of_diamond_minimal():
    wd = weighted_dag_from_list(DIAMOND, [2, 1, 2, 1])
    # c12 + c24 - c13 - c34 > 0 over lexicographic edges
    assert cone_of(wd, minimal=True) == ((1, -1, 1, -1),)


def test_cone_of_k3():
    wd = weighted_dag_from_list(K3, [1, 1, 1])  # c13 < c12 + c23
    assert cone_of(wd) == ((1, -1, 1),)


def test_cone_of_chain_is_whole_space():
    wd = weighted_dag_from_list(CHAIN, [3, 7])
    assert cone_of(wd) == ()


def test_cone_of_rejects_ties():
    tied = weighted_dag_from_list(DIAMOND, [1, 1, 1, 1])
    with pytest.raises(NonGenericError):
        cone_of(tied)


def test_minimal_description_equivalent_to_full():
    rng = random.Random(99)
    for g in (DIAMOND, complete_dag(3), complete_dag(4)):
        for _ in range(6):
            w = {e: Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for e in g.sorted_edges}
            wd = WeightedDag(g, w)
            try:
                full = cone_of(wd, minimal=False)
                mini = cone_of(wd, minimal=True)
            except NonGenericError:
                continue
            assert set(mini) <= set(full)
            # every full row is implied by the minimal system
            for row in full:
                system = [as_constraint(r) for r in mini]
                system.append(as_constraint([-c for c in row], ">="))
                assert fraction_feasible(system, len(g.sorted_edges)) is None


def test_diamond_fan():
    entries = enumerate_maximal_cones(DIAMOND)
    assert len(entries) == 2
    maxoids = {e.maxoid.stmts for e in entries}
    assert maxoids == {
        frozenset(stmts("2,3|1", "1,4|2,3", "1,4|2")),
        frozenset(stmts("2,3|1", "1,4|2,3", "1,4|3")),
    }
    assert cone_adjacency(DIAMOND, entries) == [(0, 1)]
    assert [lineality_dimension(e) for e in entries] == [3, 3]


def test_k3_fan():
    entries = enumerate_maximal_cones(K3)
    assert len(entries) == 2
    assert {e.maxoid.stmts for e in entries} == {frozenset(), frozenset(stmts("1,3|2"))}


def test_chain_fan_single_cone():
    entries = enumerate_maximal_cones(CHAIN)
    assert len(entries) == 1
    assert entries[0].inequalities == ()
    assert cone_adjacency(CHAIN, entries) == []
    assert lineality_dimension(entries[0]) == 2


def test_complete_dag_4_fan():
    entries = enumerate_maximal_cones(complete_dag(4))
    assert len(entries) == 9
    assert len(cone_adjacency(complete_dag(4), entries)) == 14
    assert [lineality_dimension(e) for e in entries] == [3] * 9


def test_cone_to_maxoid_injective_and_systems_subpath_closed():
    for g in (DIAMOND, complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        assert len({e.maxoid for e in entries}) == len(entries)
        for e in entries:
            choices = dict(e.system.choices)
            for (i, j), path in choices.items():
                for a in range(len(path)):
                    for b in range(a + 1, len(path)):
                        assert choices[(path[a], path[b])] == path[a:b + 1]


def test_witnesses_lie_in_their_cone_and_reproduce_maxoid():
    for g in (DIAMOND, K3, complete_dag(4)):
        for e in enumerate_maximal_cones(g):
            assert in_open_cone(e.inequalities, e.witness)
            wd = WeightedDag(g, dict(zip(g.sorted_edges, e.witness)))
            assert maxoid(wd) == e.maxoid


def _sample_in_cone(rng, rows, witness):
    """A random rational point of the open cone near its witness."""
    for denom in (7, 23, 101, 1009, 10007):
        cand = tuple(
            x + Fraction(rng.randint(-3, 3), denom) for x in witness
        )
        if in_open_cone(rows, cand):
            return cand
    raise AssertionError("no nearby sample found")


def test_cone_interior_samples_reproduce_maxoid():
    rng = random.Random(4242)
    for g in (DIAMOND, K3, complete_dag(4)):
        for e in enumerate_maximal_cones(g):
            for _ in range(10):
                point = _sample_in_cone(rng, e.inequalities, e.witness)
                wd = WeightedDag(g, dict(zip(g.sorted_edges, point)))
                assert maxoid(wd) == e.maxoid


def test_random_generic_vector_lies_in_exactly_one_cone():
    rng = random.Random(31337)
    for g in (DIAMOND, K3, complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        hits = 0
        for _ in range(25):
            point = tuple(Fraction(rng.randint(-10**6, 10**6), 997) for _ in g.sorted_edges)
            wd = WeightedDag(g, dict(zip(g.sorted_edges, point)))
            inside = [
                e for e in entries
                if in_open_cone(e.inequalities, point)
            ]
            from maxoid.tropical import is_generic

            if is_generic(wd):
                assert len(inside) == 1
                hits += 1
        assert hits > 0


def test_enumeration_is_complete_on_random_graphs():
    # heavy sampling finds no structure outside the enumerated fan and
    # reaches every enumerated cone
    rng = random.Random(606060)
    for _ in range(4):
        n = rng.randint(3, 5)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.7]
        g = Dag(n, edges)
        entries = enumerate_maximal_cones(g)
        enumerated = {e.maxoid for e in entries}
        hit = set()
        for _ in range(150):
            w = {e: Fraction(rng.randint(-10**6, 10**6), 9973) for e in edges}
            wd = WeightedDag(g, w)
            from maxoid.tropical import is_generic

            if is_generic(wd):
                m = maxoid(wd)
                assert m in enumerated
                hit.add(m)
        if len(enumerated) <= 10:
            assert hit == enumerated


def test_fan_matches_direct_maxoid_on_random_weights():
    rng = random.Random(555)
    g = complete_dag(4)
    entries = enumerate_maximal_cones(g)
    enumerated = {e.maxoid for e in entries}
    for _ in range(30):
        point = tuple(Fraction(rng.randint(-10**5, 10**5), 991) for _ in g.sorted_edges)
        wd = WeightedDag(g, dict(zip(g.sorted_edges, point)))
        from maxoid.tropical import is_generic

        if is_generic(wd):
            assert maxoid(wd) in enumerated


def test_search_state_is_freed_on_return():
    # without the cyclic garbage collector, the entries are freed as soon as
    # the caller drops them: nothing of the search keeps them alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        entries = enumerate_maximal_cones(complete_dag(4))
        ref = weakref.ref(entries[0])
        del entries
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _relabeled_random_dags(seed, count):
    """Seeded random DAGs of 2 to 6 nodes under a random relabeling, so
    that edges also point from larger to smaller labels."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        g = random_weighted_dag(rng, max_n=6).g
        label = [0, *rng.sample(g.nodes, g.n)]
        graphs.append(Dag(g.n, [(label[u], label[v]) for u, v in g.edges]))
    return graphs


@pytest.mark.parametrize("graphs", [
    pytest.param(lambda: all_top_ordered_tdags(4).graphs, id="tdags-4"),
    pytest.param(lambda: all_top_ordered_tdags(5).graphs, id="tdags-5"),
    pytest.param(lambda: [complete_dag(5)], id="complete-5"),
    pytest.param(lambda: _relabeled_random_dags("fan-relabeled", 40), id="relabeled-6"),
])
def test_warm_started_search_matches_the_cold_lp_search(graphs):
    # the tableau carried down the search finds the same cones in the same
    # order as one cold LP per node, with the blockers of the chosen paths
    # in pair order; only the interior witnesses may differ.  On closed
    # top-ordered graphs, pairs sorted by their labels alone happen to give
    # the same cones in the same order; on relabeled graphs they do not
    for g in graphs():
        entries = enumerate_maximal_cones(g)
        expected = cold_lp_maximal_cones(g)
        assert [(e.system, list(e.system.blockers.items()), e.inequalities, e.maxoid)
                for e in entries] == \
            [(e.system, list(e.system.blockers.items()), e.inequalities, e.maxoid)
             for e in expected]
        for e in entries:
            assert in_open_cone(e.inequalities, e.witness)
            wd = WeightedDag(g, dict(zip(g.sorted_edges, e.witness)))
            assert kleene_maxoid(wd) == e.maxoid


@pytest.mark.parametrize("seed", [1, 2])
def test_every_returned_witness_picks_every_chosen_path(seed):
    # each witness, checked once at its leaf, makes every pair's chosen path
    # its unique critical path, which is more than its minimal rows say
    rng = random.Random(f"leaf-check/{seed}")
    label = [0, *rng.sample(range(1, 6), 5)]
    g = Dag(5, [(label[u], label[v]) for u, v in complete_dag(5).edges])
    entries = enumerate_maximal_cones(g)
    assert len(entries) == 103
    for e in entries:
        wd = WeightedDag(g, dict(zip(g.sorted_edges, e.witness)))
        for pair, path in e.system.choices:
            assert critical_paths(wd, *pair) == [path]


def test_lineality_of_one_cone_matches_the_echelon_over_every_path_pair():
    # read off any cone, the lineality is that of the replaced readings:
    # the rank of every disjoint path pair's rows, and that of the minimal
    # rows of the cone of weights 2^k, whose critical paths are the
    # largest-bitmask ones
    for g in closed_dags(5) + _relabeled_random_dags(2718, 150):
        edges = g.sorted_edges
        powers = WeightedDag(g, {e: 2 ** k for k, e in enumerate(edges)})
        replaced = len(edges) - rank_of(cone_of(powers, minimal=True))
        read = {lineality_dimension(e) for e in enumerate_maximal_cones(g)}
        assert read == {echelon_lineality_dimension(g)} == {replaced}, g


@pytest.mark.parametrize("n, calls, pivots", [(4, 13, 17), (5, 156, 251)])
def test_lp_work_of_complete_fans_is_pinned(n, calls, pivots, monkeypatch):
    # Bland's rule fixes every pivot, so a change of these counts is a
    # change of the search or of the simplex; every pivot is a unit pivot,
    # d = 1 and pivot entry +-1, so every witness has denominator 1
    from maxoid import linarith

    seen = {"calls": 0, "pivots": []}
    extended, pivot = linarith.StrictTableau.extended, linarith._pivot

    def counting_extended(self, rows):
        seen["calls"] += 1
        return extended(self, rows)

    def counting_pivot(T, basis, cols, d, r, k, a, nvars, W):
        seen["pivots"].append((d, None if k is None else abs(a)))
        return pivot(T, basis, cols, d, r, k, a, nvars, W)

    monkeypatch.setattr(linarith.StrictTableau, "extended", counting_extended)
    monkeypatch.setattr(linarith, "_pivot", counting_pivot)
    entries = enumerate_maximal_cones(complete_dag(n))
    assert (seen["calls"], len(seen["pivots"])) == (calls, pivots)
    assert set(seen["pivots"]) <= {(1, 1), (1, None)}
    assert {e.den for e in entries} == {1}


@pytest.mark.parametrize("n, handed", [(4, 26), (5, 419)])
def test_the_lp_takes_each_comparison_row_once(n, handed, monkeypatch):
    # two sub-paths that one choice forces can give one row (a->x->b against
    # a->b is also a->x->b->c against a->b->c): the rows a tableau has
    # absorbed and those handed to extend it are all distinct
    from maxoid import linarith

    absorbed = {}  # id(tableau): (tableau, its rows), the tableau kept so ids stay unique
    extended = linarith.StrictTableau.extended
    count = 0

    def spy(self, rows):
        nonlocal count
        count += len(rows)
        every = absorbed.get(id(self), (None, []))[1] + list(rows)
        assert len(set(every)) == len(every)
        child = extended(self, rows)
        if child is not None:
            absorbed[id(child)] = (child, every)
        return child

    monkeypatch.setattr(linarith.StrictTableau, "extended", spy)
    enumerate_maximal_cones(complete_dag(n))
    assert count == handed


def _systems(systems):
    """Each system's choices and its blockers in key order, as a set."""
    return {(s.choices, tuple(s.blockers.items())) for s in systems}


def _assert_restricted_systems_are_the_fan(h, fan):
    got = restricted_systems(h, fan)
    assert len(set(got)) == len(got)
    assert _systems(got) == _systems(e.system for e in enumerate_maximal_cones(h)), h


@pytest.mark.parametrize("n, count", [(3, 7), (4, 40), (5, 357)])
def test_restricted_systems_are_the_systems_of_every_closed_subgraph(n, count):
    # every closed DAG with upward edges, disconnected ones included, is a
    # subgraph of complete-n: the systems read off complete-n's cones are
    # those of its own fan search, each once
    fan = sliced_fan(complete_dag(n))
    graphs = closed_dags(n)
    assert len(graphs) == count
    for h in graphs:
        _assert_restricted_systems_are_the_fan(h, fan)


@pytest.mark.long
def test_restricted_systems_are_the_systems_of_the_6_node_classes():
    fan = sliced_fan(complete_dag(6))
    classes = [g for g, _ in all_top_ordered_tdags(6).classes]
    assert len(classes) == 238
    for h in classes:
        _assert_restricted_systems_are_the_fan(h, fan)


def test_restricted_systems_of_any_subgraph_of_a_relabeled_graph():
    # the restriction needs a supergraph, not a complete or closed one
    rng = random.Random("restricted-subgraphs")
    for g in _relabeled_random_dags("restricted-graphs", 30):
        fan = sliced_fan(g)
        assert restricted_systems(g, fan) == [e.system for e in fan.entries]
        for _ in range(3):
            h = Dag(g.n, [e for e in g.sorted_edges if rng.random() < 0.6])
            _assert_restricted_systems_are_the_fan(h, fan)


def test_table_rows_between_paths_of_a_subgraph_are_the_subgraphs_rows():
    # what lets restricted_systems check a restriction on the graph's own
    # point: for every closed 5-node DAG h, the table paths inside h are
    # h's paths, in lexicographic order (none on a pair h does not connect),
    # and the table row of two of them is zero off h's edges and h's own
    # row on them
    fan = sliced_fan(complete_dag(5))
    paths = list(fan.ids)
    for h in closed_dags(5):
        inside = sum(1 << fan.index[e] for e in h.edges)
        h_index = _edge_index(h)
        off = [fan.index[e] for e in fan.graph.sorted_edges if e not in h.edges]
        on = [fan.index[e] for e in h.sorted_edges]
        for key, pids in zip(fan.pairs, fan.pair_paths):
            inner = [p for p in pids if fan.edge_masks[p] | inside == inside]
            assert [paths[p] for p in inner] == enumerate_paths(h, *key)
            for p in inner:
                for q in inner:
                    if q != p:
                        row = fan.comparison[fan.full_rows[p][q]]
                        assert all(row[c] == 0 for c in off), (h, p, q)
                        assert tuple(row[c] for c in on) == _path_comparison(h_index, paths[p],
                                                                             paths[q])


@pytest.mark.parametrize("n, enumerations, comparisons", [(4, 6, 16), (5, 10, 86)])
def test_each_pair_is_enumerated_and_each_row_built_once(n, enumerations, comparisons,
                                                         monkeypatch):
    # the search, and the sliced fan that keeps its tables, enumerate each
    # connected pair's paths once and build each path's row against every
    # other path of its pair once
    from maxoid import fan

    calls = {"paths": 0, "rows": 0}
    enumerate_pair, compare = fan.enumerate_paths, fan._path_comparison

    def counting_paths(g, i, j):
        calls["paths"] += 1
        return enumerate_pair(g, i, j)

    def counting_rows(index, winner, loser):
        calls["rows"] += 1
        return compare(index, winner, loser)

    monkeypatch.setattr(fan, "enumerate_paths", counting_paths)
    monkeypatch.setattr(fan, "_path_comparison", counting_rows)
    for build in (fan.sliced_fan, fan.enumerate_maximal_cones):
        calls.update(paths=0, rows=0)
        build(complete_dag(n))
        assert calls == {"paths": enumerations, "rows": comparisons}, build


def test_packed_codes_identify_the_choices_on_a_subgraphs_pairs():
    # a DAG path is fixed by its end points and its interior node set, so on
    # every 5-node class the packed blockers of h's pairs tell apart
    # exactly the cones whose choices on h's pairs differ
    fan = sliced_fan(complete_dag(5))
    keys = [key for key, _ in fan.entries[0].system.choices]
    width = fan.graph.n + 1
    for h, _ in all_top_ordered_tdags(5).classes:
        pairs = {(i, j) for i in h.nodes for j in h.descendants(i)}
        keep = sum((1 << width) - 1 << k * width for k, key in enumerate(keys) if key in pairs)
        seen = {}
        for packed, entry in zip(fan.packed, fan.entries):
            choices = tuple(c for c in entry.system.choices if c[0] in pairs)
            assert seen.setdefault(packed & keep, choices) == choices, h
        assert len(set(seen.values())) == len(seen), h


def test_restricted_systems_check_each_restriction_on_the_graphs_point():
    # the first cone of complete-4 that restricts to the diamond with one
    # chord: its point moved off the subgraph's edges still gives the
    # subgraph's systems, since no checked row reads those coordinates;
    # moved to zero on them, the check refuses it
    fan = sliced_fan(complete_dag(4))
    h = Dag(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    systems = restricted_systems(h, fan)
    first = set(systems[0].choices)
    k = next(k for k, e in enumerate(fan.entries) if first <= set(e.system.choices))
    outside = fan.index[1, 4]

    def moved(point):
        entries = list(fan.entries)
        entries[k] = dataclasses.replace(entries[k], point=tuple(point))
        return dataclasses.replace(fan, entries=entries)

    point = list(fan.entries[k].point)
    point[outside] = -1000
    assert restricted_systems(h, moved(point)) == systems
    with pytest.raises(AssertionError, match="violates"):
        restricted_systems(h, moved(x if c == outside else 0 for c, x in enumerate(point)))


def test_restricted_systems_refuse_an_edge_outside_the_graph():
    with pytest.raises(ValueError, match=r"\[\(3, 1\)\]"):
        restricted_systems(Dag(3, [(1, 2), (3, 1)]), sliced_fan(complete_dag(3)))

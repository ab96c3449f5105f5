import gc
import random
import weakref
from fractions import Fraction

import pytest

from maxoid.census import all_top_ordered_tdags
from maxoid.fan import enumerate_maximal_cones, lineality_dimension
from maxoid.graph import Dag, top_ordered_closed_dags
from maxoid.linarith import rank_of
from maxoid.polytope import cone_adjacency
from maxoid.separation import maxoid, parse_ci_statement
from maxoid.tropical import WeightedDag, critical_paths, weighted_dag_from_list
from oracles import (
    NonGenericError,
    as_constraint,
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
    assert lineality_dimension(DIAMOND) == 3


def test_k3_fan():
    entries = enumerate_maximal_cones(K3)
    assert len(entries) == 2
    assert {e.maxoid.stmts for e in entries} == {frozenset(), frozenset(stmts("1,3|2"))}


def test_chain_fan_single_cone():
    entries = enumerate_maximal_cones(CHAIN)
    assert len(entries) == 1
    assert entries[0].inequalities == ()
    assert cone_adjacency(CHAIN, entries) == []
    assert lineality_dimension(CHAIN) == 2


def test_complete_dag_4_fan():
    entries = enumerate_maximal_cones(complete_dag(4))
    assert len(entries) == 9
    assert len(cone_adjacency(complete_dag(4), entries)) == 14
    assert lineality_dimension(complete_dag(4)) == 3


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


@pytest.mark.parametrize("graphs", [
    pytest.param(lambda: all_top_ordered_tdags(4).graphs, id="tdags-4"),
    pytest.param(lambda: all_top_ordered_tdags(5).graphs, id="tdags-5"),
    pytest.param(lambda: [complete_dag(5)], id="complete-5"),
])
def test_warm_started_search_matches_the_cold_lp_search(graphs):
    # the tableau carried down the search finds the same cones in the same
    # order as one cold LP per node; only the interior witnesses may differ
    for g in graphs():
        entries = enumerate_maximal_cones(g)
        expected = cold_lp_maximal_cones(g)
        assert [(e.system, e.inequalities, e.maxoid) for e in entries] == \
            [(e.system, e.inequalities, e.maxoid) for e in expected]
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
    # the largest-bitmask paths are the critical paths under weights 2^k,
    # so the integer lineality equals the rank of cone_of's minimal rows
    rng = random.Random(2718)
    graphs = list(top_ordered_closed_dags(5))
    for _ in range(150):
        g = random_weighted_dag(rng, max_n=6).g
        label = [0, *rng.sample(g.nodes, g.n)]
        graphs.append(Dag(g.n, [(label[u], label[v]) for u, v in g.edges]))
    for g in graphs:
        edges = g.sorted_edges
        powers = WeightedDag(g, {e: 2 ** k for k, e in enumerate(edges)})
        replaced = len(edges) - rank_of(cone_of(powers, minimal=True))
        assert lineality_dimension(g) == echelon_lineality_dimension(g) == replaced, g

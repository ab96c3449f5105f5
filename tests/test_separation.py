import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxoid import separation
from maxoid.census import _complete_fan, all_top_ordered_tdags
from maxoid.fan import enumerate_maximal_cones, restricted_systems
from maxoid.graph import Dag, enumerate_paths
from maxoid.polytope import face_lattice, face_maxoid, polytope_vertices
from maxoid.separation import (
    CiStatement,
    Maxoid,
    break_ties,
    c_star_separated,
    closure_weights,
    critical_dag,
    derive_set_statement,
    maxoid,
    maxoid_from_blockers,
    maxoids_from_blockers,
    parse_ci_statement,
    perturb_across_facet,
    weighted_transitive_reduction,
)
from maxoid.tropical import (
    WeightedDag,
    critical_paths,
    is_generic,
    path_weight,
    weighted_dag_from_list,
)
from oracles import (
    complete_dag,
    critical_dag_by_paths,
    d_separated,
    kleene_critical_edges,
    kleene_maxoid,
    looped_maxoid_from_blockers,
    per_subset_maxoid_from_blockers,
    random_weighted_dag,
    star_transitive_reduction,
)


DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
FIG2 = Dag(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
K3 = Dag(3, [(1, 2), (1, 3), (2, 3)])


def ci(text):
    return parse_ci_statement(text)


def stmts(*texts):
    return {ci(t) for t in texts}


def diamond_wd(pi2_beats_pi3=True):
    return weighted_dag_from_list(DIAMOND, [2, 1, 2, 1] if pi2_beats_pi3 else [1, 2, 1, 2])


def test_ci_statement_canonical_form():
    s = CiStatement(4, 1, frozenset({2}))
    assert (s.i, s.j) == (1, 4)
    assert s == ci("1,4|2") == ci("14|2")
    with pytest.raises(ValueError):
        CiStatement(2, 2)
    with pytest.raises(ValueError):
        CiStatement(1, 2, frozenset({1}))


def test_parse_ci_statement_forms():
    assert ci("2,4|1,3") == CiStatement(2, 4, frozenset({1, 3}))
    assert ci("24|13") == CiStatement(2, 4, frozenset({1, 3}))
    assert ci("1,2|") == CiStatement(1, 2)
    assert ci("23|") == CiStatement(2, 3)
    with pytest.raises(ValueError):
        ci("1,1|2")
    with pytest.raises(ValueError):
        ci("1,2")
    with pytest.raises(ValueError):
        parse_ci_statement("1,5|2", n=4)


def test_critical_dag_diamond_examples():
    wd = diamond_wd()
    assert critical_dag(wd, {2}).edges == DIAMOND.edges
    assert (1, 4) in critical_dag(wd, {3}).edges
    # nothing blocked: transitive closure
    assert critical_dag(wd, set()).edges == DIAMOND.edges | {(1, 4)}


def test_c_star_separated_diamond():
    wd = diamond_wd()
    assert c_star_separated(wd, ci("1,4|2"))
    assert not c_star_separated(wd, ci("1,4|3"))
    # a direct edge is a connection for the empty conditioning set
    assert not c_star_separated(wd, ci("1,2|"))


@pytest.mark.parametrize("s", [CiStatement(1, 5), CiStatement(1, 4, frozenset({7}))])
def test_c_star_separated_refuses_a_statement_outside_the_graph(s):
    with pytest.raises(ValueError):
        c_star_separated(diamond_wd(), s)


def test_maxoid_fig2():
    wd = weighted_dag_from_list(FIG2, [1, 1, 1, 3, 1])
    assert maxoid(wd).stmts == stmts("1,3|2", "1,3|2,4", "1,4|2", "1,4|2,3")


def test_maxoid_complete_3():
    assert maxoid(weighted_dag_from_list(K3, [1, 3, 1])).stmts == set()
    assert maxoid(weighted_dag_from_list(K3, [1, 1, 1])).stmts == stmts("1,3|2")


def test_maxoid_edgeless_contains_everything():
    m = maxoid(WeightedDag(Dag(3, []), {}))
    assert len(m) == 6  # 3 pairs x 2 conditioning sets each


def test_diamond_maxoids_m1_m2():
    assert maxoid(diamond_wd(True)).stmts == stmts("2,3|1", "1,4|2,3", "1,4|2")
    assert maxoid(diamond_wd(False)).stmts == stmts("2,3|1", "1,4|2,3", "1,4|3")


def test_derive_set_statement():
    m = maxoid(diamond_wd(True))
    assert derive_set_statement(m, {1}, {4}, {2, 3})
    assert not derive_set_statement(Maxoid(4, []), {1}, {4}, {2, 3})
    with pytest.raises(ValueError):
        derive_set_statement(m, {1}, {1}, set())
    with pytest.raises(ValueError):
        derive_set_statement(m, set(), {1}, set())
    with pytest.raises(ValueError):
        derive_set_statement(Maxoid(3, []), [1], [9], [])


def test_weighted_transitive_reduction_fig2():
    wd = weighted_dag_from_list(FIG2, [1, 1, 1, 3, 1])
    reduced = weighted_transitive_reduction(wd)
    assert reduced.g.edges == {(1, 2), (2, 3), (2, 4), (3, 4)}
    assert reduced.w[(2, 4)] == 3
    assert maxoid(reduced) == maxoid(wd)


def test_weighted_transitive_reduction_chain_unchanged():
    chain = weighted_dag_from_list(Dag(3, [(1, 2), (2, 3)]), [1, 1])
    assert weighted_transitive_reduction(chain) == chain


def test_weighted_transitive_reduction_drops_tied_edge():
    wd = weighted_dag_from_list(K3, [1, 2, 1])  # c13 = c12 + c23
    reduced = weighted_transitive_reduction(wd)
    assert reduced.g.edges == {(1, 2), (2, 3)}
    assert maxoid(reduced) == maxoid(wd)  # oracle: both equal {(1,3|2)}
    assert maxoid(wd).stmts == stmts("1,3|2")


def test_weighted_transitive_reduction_matches_the_kleene_star_maximum():
    # random DAGs of up to 6 nodes with small weights, so ties are common
    rng = random.Random(5)
    for _ in range(3000):
        wd = random_weighted_dag(rng, max_n=6, denominators=(1,))
        assert weighted_transitive_reduction(wd) == star_transitive_reduction(wd), wd


def test_closure_weights_fig2():
    wd = weighted_dag_from_list(FIG2, [1, 1, 1, 3, 1])
    closed = closure_weights(wd)
    assert closed.g.edges - FIG2.edges == {(1, 4)}
    # strictly below every critical weight, and below the two-path bound
    assert closed.w[(1, 4)] == 0
    assert closed.w[(1, 4)] < min(
        closed.w[(1, 2)] + closed.w[(2, 4)], closed.w[(1, 3)] + closed.w[(3, 4)]
    )
    assert maxoid(closed) == maxoid(wd)


def test_closure_weights_chain():
    chain = weighted_dag_from_list(Dag(3, [(1, 2), (2, 3)]), [1, 1])
    closed = closure_weights(chain)
    assert closed.w[(1, 3)] == 0  # min{1, 1, 2} - 1
    assert maxoid(closed) == maxoid(chain)


def test_closure_weights_fixed_point():
    wd = weighted_dag_from_list(K3, [1, 3, 1])
    assert closure_weights(wd) == wd


def test_perturb_across_facet_diamond():
    tied = weighted_dag_from_list(DIAMOND, [1, 1, 1, 1])
    bumped = perturb_across_facet(tied, (1, 2, 4))
    assert bumped.w[(1, 2)] == 2  # 1 + fallback eps of 1: no nonzero differences
    assert critical_paths(bumped, 1, 4) == [(1, 2, 4)]


def test_perturb_requires_a_tie():
    with pytest.raises(ValueError):
        perturb_across_facet(diamond_wd(True), (1, 2, 4))
    with pytest.raises(ValueError):
        perturb_across_facet(diamond_wd(True), (1, 3, 4))


def test_perturb_three_node_tie_gives_empty_maxoid():
    wd = weighted_dag_from_list(K3, [1, 2, 1])  # c13 = c12 + c23
    bumped = perturb_across_facet(wd, (1, 3))
    assert bumped.w[(1, 3)] > 2
    assert maxoid(bumped).stmts == set()


def test_perturb_rejects_fully_covered_target():
    # every edge of the target lies on another tied critical path, so no
    # single-edge bump can break the tie in its favour
    g = Dag(5, [(1, 2), (2, 3), (2, 4), (4, 3), (1, 5), (5, 2)])
    wd = WeightedDag(g, {(1, 2): Fraction(2), (2, 3): Fraction(2),
                         (2, 4): Fraction(1), (4, 3): Fraction(1),
                         (1, 5): Fraction(1), (5, 2): Fraction(1)})
    assert critical_paths(wd, 1, 3) == [
        (1, 2, 3), (1, 2, 4, 3), (1, 5, 2, 3), (1, 5, 2, 4, 3)]
    with pytest.raises(ValueError):
        perturb_across_facet(wd, (1, 2, 3))


def test_perturb_preserves_strict_relations():
    g = Dag(5, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (1, 5)])
    wd = WeightedDag(g, {(1, 2): Fraction(1), (1, 3): Fraction(1), (2, 4): Fraction(2),
                         (3, 4): Fraction(2), (4, 5): Fraction(1), (1, 5): Fraction(10)})
    bumped = perturb_across_facet(wd, (1, 3, 4))
    assert critical_paths(bumped, 1, 4) == [(1, 3, 4)]
    assert critical_paths(bumped, 1, 5) == [(1, 5)]  # strict relation kept


def test_break_ties_keeps_every_strict_comparison():
    rng = random.Random(4242)
    for _ in range(60):
        wd = random_weighted_dag(rng, max_n=5)  # small weights: ties are common
        broken = break_ties(wd)
        assert is_generic(broken)
        for i in wd.g.nodes:
            for j in wd.g.descendants(i):
                paths = enumerate_paths(wd.g, i, j)
                for p, q in combinations(paths, 2):
                    before = path_weight(wd, p) - path_weight(wd, q)
                    after = path_weight(broken, p) - path_weight(broken, q)
                    assert before == 0 or (before > 0) == (after > 0)


def test_symmetry_of_separation():
    rng = random.Random(7)
    for _ in range(20):
        wd = random_weighted_dag(rng, max_n=4)
        m = maxoid(wd)
        for s in m:
            assert CiStatement(s.j, s.i, s.L) in m


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=40, deadline=None)
def test_critical_dag_matches_path_enumeration_oracle(seed):
    rng = random.Random(seed)
    wd = random_weighted_dag(rng, max_n=6)
    nodes = list(wd.g.nodes)
    L = frozenset(v for v in nodes if rng.random() < 0.4)
    assert critical_dag(wd, L).edges == critical_dag_by_paths(wd, L)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=30, deadline=None)
def test_critical_dag_monotone_in_blocking_set(seed):
    rng = random.Random(seed)
    wd = random_weighted_dag(rng, max_n=5)
    nodes = list(wd.g.nodes)
    small = frozenset(v for v in nodes if rng.random() < 0.3)
    big = small | frozenset(v for v in nodes if rng.random() < 0.3)
    assert critical_dag(wd, big).edges <= critical_dag(wd, small).edges


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=25, deadline=None)
def test_maxoid_invariant_under_reduction_and_closure(seed):
    wd = random_weighted_dag(random.Random(seed), max_n=5)
    m = maxoid(wd)
    assert maxoid(closure_weights(wd)) == m
    if is_generic(wd):
        assert maxoid(weighted_transitive_reduction(wd)) == m


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=30, deadline=None)
def test_maxoid_contains_all_d_separations(seed):
    rng = random.Random(seed)
    wd = random_weighted_dag(rng, max_n=5)
    m = maxoid(wd)
    nodes = list(wd.g.nodes)
    for s in _all_statements(nodes):
        if d_separated(wd.g, s.i, s.j, s.L):
            assert s in m


def _all_statements(nodes):
    for i, j in combinations(nodes, 2):
        rest = [v for v in nodes if v != i and v != j]
        for size in range(len(rest) + 1):
            for L in combinations(rest, size):
                yield CiStatement(i, j, frozenset(L))


def test_maxoid_json_round_trip():
    m = maxoid(diamond_wd(True))
    assert Maxoid.from_json(4, m.to_json()) == m


def _cone_and_face_structures(g):
    """(structure, oracle structure) for every maximal cone, read off its
    chosen paths, and every face, read off its vertices' paths; the oracle
    runs on the cone's witness or the face's normal as weights."""
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    for e in entries:
        yield e.maxoid, kleene_maxoid(weighted_dag_from_list(g, e.witness))
    for f in face_lattice([p for _, p in pts]).faces:
        yield (face_maxoid(g, f, entries, pts),
               kleene_maxoid(weighted_dag_from_list(g, f.normal)))


def test_cone_and_face_structures_match_oracle_on_four_node_tdags():
    graphs = all_top_ordered_tdags(4).graphs
    assert len(graphs) == 18
    for g in graphs:
        for got, expected in _cone_and_face_structures(g):
            assert got == expected, g.sorted_edges


def test_cone_and_face_structures_match_oracle_on_complete_5():
    count = 0
    for got, expected in _cone_and_face_structures(complete_dag(5)):
        assert got == expected
        count += 1
    assert count == 103 + 1317


def _random_tied_dags(seed, count):
    rng = random.Random(seed)
    return [random_weighted_dag(rng, max_n=6) for _ in range(count)]


def test_maxoid_matches_oracle_on_random_tied_weights():
    tied = 0
    for wd in _random_tied_dags(20, 500) + _random_tied_dags(21, 120):
        assert maxoid(wd) == kleene_maxoid(wd), wd
        tied += not is_generic(wd)
    assert tied > 50


def test_critical_dag_matches_the_kleene_oracle_on_random_tied_weights():
    for wd in _random_tied_dags(21, 120):
        nodes = list(wd.g.nodes)
        for size in range(len(nodes) + 1):
            for L in map(frozenset, combinations(nodes, size)):
                assert critical_dag(wd, L).edges == kleene_critical_edges(wd, L), (wd, L)


def test_maxoid_bits_follow_the_statement_order():
    for n in range(1, 6):
        every = sorted(_all_statements(range(1, n + 1)), key=lambda s: s.sort_key)
        full = Maxoid(n, every)
        assert full.bits == (1 << len(every)) - 1
        assert list(full) == every
        assert full.to_json() == [str(s) for s in every]
        assert full.stmts == frozenset(every)
        for k, s in enumerate(every):
            single = Maxoid(n, [s])
            assert single.bits == 1 << k and s in single and len(single) == 1


def test_maxoid_set_operations_on_bits():
    a = Maxoid(4, stmts("1,4|2", "2,3|1"))
    b = Maxoid(4, stmts("2,3|1", "1,4|2,3"))
    assert (a | b).stmts == a.stmts | b.stmts
    assert len(a | b) == 3
    assert a == Maxoid(4, reversed(list(a))) and hash(a) == hash(Maxoid(4, a.stmts))
    assert a != Maxoid(5, a.stmts) and a != a.stmts
    # a statement on more nodes than the structure's is never in it
    assert ci("1,4|2") in a and ci("1,4|3") not in a and ci("1,5|2") not in a
    with pytest.raises(ValueError, match="exceeds ground set"):
        Maxoid(4, [ci("1,5|2")])
    with pytest.raises(ValueError):
        a | Maxoid(5, [])


def test_maxoid_from_json_takes_compact_and_canonical_forms():
    m = Maxoid(4, stmts("1,4|2,3", "2,3|"))
    assert Maxoid.from_json(4, ["14|23", "2,3|"]) == m
    assert Maxoid.from_json(4, m.to_json()) == m
    with pytest.raises(ValueError):
        Maxoid.from_json(4, ["1,5|2"])


def test_statement_tables_are_not_built_at_import():
    code = ("import maxoid.cli, maxoid.separation as s; "
            "print(len(s._statement_tables), len(s._subset_tables), len(s._relabelings))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out.split() == ["0", "0", "0"]


def test_all_subsets_engine_matches_the_per_subset_engine_on_random_blockers():
    # arbitrary blocker masks, cyclic pairs included: the engine needs no
    # graph behind them; 7 to 9 nodes give families of several machine words
    rng = random.Random(22)
    sizes = chain((rng.randint(1, 6) for _ in range(400)), [7, 8, 9] * 6)
    for n in sizes:
        blockers = {}
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k != l and rng.random() < 0.5:
                    blockers[(k, l)] = sum(1 << v for v in range(1, n + 1)
                                           if v not in (k, l) and rng.random() < 0.3)
        assert (maxoid_from_blockers(n, blockers)
                == per_subset_maxoid_from_blockers(n, blockers)), (n, blockers)


def test_maxoid_on_a_10_node_chain_stays_small():
    # the engine's tables hold 2^n families of 2^n bits and C(n,2) * 2^n
    # small ints, under 1 MB at n = 10; they are built afresh here
    n = 10
    g = Dag(n, [(v, v + 1) for v in range(1, n)])
    wd = WeightedDag(g, {e: 1 for e in g.edges})
    separation._subset_tables.pop(n, None)
    tracemalloc.start()
    try:
        m = maxoid(wd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        separation._subset_tables.pop(n, None)
    assert peak < 8 * 2**20
    # (i, j | L) holds exactly when L holds a node between i and j
    assert len(m) == sum(2 ** (n - 2) - 2 ** (n - 1 - j + i)
                         for i, j in combinations(range(1, n + 1), 2))


def _cone_blockers(g):
    return [e.system.blockers for e in enumerate_maximal_cones(g)]


def test_all_subsets_engine_matches_the_per_subset_engine_on_tdag_cones():
    cones = 0
    for n in (3, 4, 5):
        for g in all_top_ordered_tdags(n).graphs:
            for blockers in _cone_blockers(g):
                assert (maxoid_from_blockers(n, blockers)
                        == per_subset_maxoid_from_blockers(n, blockers)), g.sorted_edges
                cones += 1
    assert cones > 892


def test_all_subsets_engine_matches_the_per_subset_engine_on_tied_face_blockers():
    # complete-5 minus 3->4: every face's union of its vertices' blockers
    g = Dag(5, [e for e in complete_dag(5).sorted_edges if e != (3, 4)])
    entries = enumerate_maximal_cones(g)
    points = polytope_vertices(g, entries)
    unions = set()
    for f in face_lattice([p for _, p in points]).faces:
        union: dict = {}
        for u in separation._bit_indices(f.mask):
            for key, mask in points[u][0].blockers.items():
                union[key] = union.get(key, 0) | mask
        unions.add(frozenset(union.items()))
    assert len(unions) > len(entries)
    for union in unions:
        blockers = dict(union)
        assert maxoid_from_blockers(5, blockers) == per_subset_maxoid_from_blockers(5, blockers)


@pytest.mark.long
def test_all_subsets_engine_matches_the_per_subset_engine_on_complete_6_cones():
    cones = _cone_blockers(complete_dag(6))
    assert len(cones) == 3324
    for blockers in cones:
        assert maxoid_from_blockers(6, blockers) == per_subset_maxoid_from_blockers(6, blockers)


def _random_blockers(rng, n):
    # edge density from sparse to dense; blocker density 0 for unique
    # critical edges, high for the wide unions of tied faces
    edge_rate, blocker_rate = rng.choice((0.1, 0.5, 0.9)), rng.choice((0.0, 0.3, 0.8))
    return {(k, l): sum(1 << v for v in range(1, n + 1)
                        if v not in (k, l) and rng.random() < blocker_rate)
            for k in range(1, n + 1) for l in range(1, n + 1)
            if k != l and rng.random() < edge_rate}


def test_packed_kernel_matches_the_per_subset_kernel_on_random_blockers():
    rng = random.Random(24)
    for n in chain(range(9), (rng.randint(0, 8) for _ in range(300))):
        blockers = _random_blockers(rng, n)
        assert (maxoid_from_blockers(n, blockers)
                == per_subset_maxoid_from_blockers(n, blockers)), (n, blockers)
    # blockers of tied weights: small integers on random upward DAGs
    for _ in range(150):
        wd = random_weighted_dag(rng, max_n=7, denominators=(1,))
        blockers = separation._blocker_sets(wd)
        assert (maxoid_from_blockers(wd.g.n, blockers)
                == per_subset_maxoid_from_blockers(wd.g.n, blockers)), wd


def test_packed_kernel_matches_the_per_subset_kernel_on_census_cones_and_faces():
    # every cone's and every face's blocker collection of each 4- and
    # 5-node census class (10 and 44 classes); a face's is the union of its
    # vertices', and a vertex's is its cone's
    collections = []
    for n in (4, 5):
        for g, _ in all_top_ordered_tdags(n).classes:
            entries = enumerate_maximal_cones(g)
            points = polytope_vertices(g, entries)
            every = {frozenset(e.system.blockers.items()) for e in entries}
            for f in face_lattice([p for _, p in points]).faces:
                systems = [points[u][0].blockers for u in separation._bit_indices(f.mask)]
                every.add(frozenset((pq, reduce(or_, (b[pq] for b in systems)))
                                    for pq in systems[0]))
            for blockers in map(dict, every):
                assert (maxoid_from_blockers(n, blockers)
                        == per_subset_maxoid_from_blockers(n, blockers))
            collections.append(len(every))
    assert sum(collections[:10]) == 30 and sum(collections[10:]) == 592


def test_batched_kernel_matches_one_call_per_system_on_random_batches():
    # n = 0..8, batches of 1 and 2 rows and of one below, at and one above
    # the chunk size, so that the last chunk is full, short or one row;
    # each batch's rows share their pairs, drawn sparse to dense, and draw
    # their masks at densities from unique critical paths to wide unions
    rng = random.Random(39)
    batches = 0
    for n in range(9):
        chunk = separation._chunk_rows(n)
        for size in sorted({1, 2, chunk - 1, chunk, chunk + 1} - {0}):
            pairs = list(_random_blockers(rng, n))
            rows = [[sum(1 << v for v in range(1, n + 1)
                         if v not in (k, l) and rng.random() < rate) for k, l in pairs]
                    for rate in (rng.choice((0.0, 0.3, 0.8)) for _ in range(size))]
            assert (maxoids_from_blockers(n, pairs, rows)
                    == looped_maxoid_from_blockers(n, pairs, rows)), (n, size)
            batches += 1
    assert batches >= 30


def _class_batches(n, faces):
    """Per census class on n nodes, its systems' blocker rows and, with
    faces, its polytope's face unions, as (pairs, rows) batches."""
    fan = _complete_fan(n)
    for g, _ in all_top_ordered_tdags(n).classes:
        systems = restricted_systems(g, fan)
        pairs = tuple(systems[0].blockers)
        yield pairs, [tuple(s.blockers.values()) for s in systems]
        if faces and len(systems) > 1:
            points = polytope_vertices(g, systems)
            yield pairs, [[reduce(or_, (points[u][0].blockers[pq]
                                        for u in separation._bit_indices(f.mask)))
                           for pq in pairs]
                          for f in face_lattice([p for _, p in points]).faces]


@pytest.mark.parametrize("n, faces, rows", [
    (4, True, 90), (5, True, 3680),
    pytest.param(6, False, 17572, marks=pytest.mark.long)])
def test_batched_kernel_matches_one_call_per_system_on_census_classes(n, faces, rows):
    # every class's systems, and for n <= 5 every face union of its
    # polytope, each class's as one batch: 10, 44 and 238 classes, the
    # systems 442 of the rows at n = 5 and all 17572 at n = 6
    total = 0
    for pairs, batch in _class_batches(n, faces):
        assert (maxoids_from_blockers(n, pairs, batch)
                == looped_maxoid_from_blockers(n, pairs, batch))
        total += len(batch)
    assert total == rows

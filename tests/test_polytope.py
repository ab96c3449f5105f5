import itertools
import os
import random

import pytest

from maxoid import polytope
from maxoid.fan import enumerate_maximal_cones
from maxoid.graph import Dag, isomorphism_classes, top_ordered_closed_dags
from maxoid.polytope import (
    Face,
    _facet_incidences,
    cone_adjacency,
    face_lattice,
    face_maxoid,
    graph_structures,
    hasse_dot,
    polytope_vertices,
)
from maxoid.separation import parse_ci_statement
from oracles import (
    affine_dimension,
    complete_dag,
    hull_facet_incidences,
    lp_cone_adjacency,
    lp_face_maxoid,
    pairwise_face_lattice,
)

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


def stmts(*texts):
    return {parse_ci_statement(t) for t in texts}


def test_f_vector_of_standard_shapes():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert face_lattice(square).f_vector() == (4, 4)
    triangle = [(0, 0), (1, 0), (0, 1)]
    assert face_lattice(triangle).f_vector() == (3, 3)
    segment = [(0,), (2,)]
    assert face_lattice(segment).f_vector() == (2,)
    cube = list(itertools.product((0, 1), repeat=3))
    assert face_lattice(cube).f_vector() == (8, 12, 6)


def test_face_lattice_of_segment_and_triangle():
    segment = [(0,), (2,)]
    lat = face_lattice(segment)
    assert [(f.dim, sorted(f.vertices)) for f in lat.faces] == [
        (0, [0]), (0, [1]), (1, [0, 1])]
    assert set(lat.covers) == {(0, 2), (1, 2)}
    triangle = [(0, 0), (1, 0), (0, 1)]
    lat3 = face_lattice(triangle)
    assert len(lat3.faces) == 7  # 3 vertices + 3 edges + top
    assert len(lat3.covers) == 9  # each vertex under 2 edges, each edge under top


def test_single_point_polytope():
    lat = face_lattice([(3, 1)])
    assert len(lat.faces) == 1 and lat.faces[0].dim == 0
    assert face_lattice([(3, 1)]).f_vector() == ()


def test_vertices_k3():
    g = complete_dag(3)
    pts = polytope_vertices(g)
    assert len(pts) == 2
    coords = {p for _, p in pts}
    # the two points differ by indicator(1->3) - indicator(1->2->3)
    a, b = sorted(coords)
    assert tuple(x - y for x, y in zip(b, a)) in {(1, -1, 1), (-1, 1, -1)}
    assert affine_dimension(list(coords))[0] == 1


def test_vertices_chain_single_point():
    g = Dag(3, [(1, 2), (2, 3)])
    pts = polytope_vertices(g)
    assert len(pts) == 1


def test_complete_dag_4_polytope():
    g = complete_dag(4)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    coords = [p for _, p in pts]
    assert len(coords) == 9
    assert affine_dimension(coords)[0] == 3
    lat = face_lattice(coords)
    assert lat.f_vector() == (9, 14, 7)
    assert len(lat.faces) == 9 + 14 + 7 + 1


def test_polytope_edge_count_matches_cone_adjacency():
    for g in (DIAMOND, complete_dag(3), complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        pts = [p for _, p in polytope_vertices(g, entries)]
        lat = face_lattice(pts)
        edges = sum(1 for f in lat.faces if f.dim == 1)
        assert edges == len(cone_adjacency(g, entries))


def test_face_maxoid_diamond_shared_facet():
    entries = enumerate_maximal_cones(DIAMOND)
    pts = polytope_vertices(DIAMOND, entries)
    lat = face_lattice([p for _, p in pts])
    top = next(f for f in lat.faces if f.dim == 1)
    m3 = face_maxoid(DIAMOND, top, entries, pts)
    assert m3.stmts == stmts("2,3|1", "1,4|2,3", "1,4|2", "1,4|3")
    assert m3 == entries[0].maxoid | entries[1].maxoid


def test_face_maxoid_k3_shared_face_coincides_with_a_generic_maxoid():
    g = complete_dag(3)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    lat = face_lattice([p for _, p in pts])
    top = next(f for f in lat.faces if f.dim == 1)
    m = face_maxoid(g, top, entries, pts)
    assert m.stmts == stmts("1,3|2")
    assert m in {e.maxoid for e in entries}


def test_face_maxoid_vertex_is_generic_maxoid():
    entries = enumerate_maximal_cones(DIAMOND)
    pts = polytope_vertices(DIAMOND, entries)
    lat = face_lattice([p for _, p in pts])
    for f in lat.faces:
        if f.dim == 0:
            (v,) = f.vertices
            assert face_maxoid(DIAMOND, f, entries, pts) == entries[v].maxoid


def test_face_maxoid_rejects_non_face():
    g = complete_dag(4)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    lat = face_lattice([p for _, p in pts])
    vertex_sets = {f.vertices for f in lat.faces}
    fake = next(
        frozenset(pair) for pair in itertools.combinations(range(9), 2)
        if frozenset(pair) not in vertex_sets
    )
    # the top face's zero normal is maximal on every vertex, not on fake's
    with pytest.raises(ValueError, match="not a face"):
        face_maxoid(g, Face(fake, 1, lat.faces[-1].normal), entries, pts)


def test_face_maxoid_memo_shares_structures_and_still_verifies():
    g = complete_dag(4)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    lat = face_lattice([p for _, p in pts])
    memo = {}
    shared = [face_maxoid(g, f, entries, pts, memo) for f in lat.faces]
    assert shared == [face_maxoid(g, f, entries, pts) for f in lat.faces]
    assert len(set(shared)) <= len(memo) < len(lat.faces)
    edge = next(f for f in lat.faces if f.dim == 1)
    wrong = Face(edge.vertices | {next(iter(lat.faces[-1].vertices - edge.vertices))},
                 edge.dim, edge.normal)
    with pytest.raises(ValueError):
        face_maxoid(g, wrong, entries, pts, memo)


@pytest.mark.parametrize("graphs, count", [
    (lambda: top_ordered_closed_dags(4), 40),
    (lambda: [g for g, _ in isomorphism_classes(top_ordered_closed_dags(5))], 63),
], ids=["4-all", "5-classes"])
def test_graph_structures_match_the_fan_and_lattice_built_directly(graphs, count):
    graphs = list(graphs())
    assert len(graphs) == count
    for g in graphs:
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        lat = face_lattice([p for _, p in pts])
        cones = [(e.maxoid.bits, e.witness) for e in entries]
        faces = [(face_maxoid(g, f, entries, pts).bits, f.normal)
                 for f in lat.faces if f.dim >= 1]
        got = [[(m.bits, w) for m, w in batch] for batch in graph_structures(g, True)]
        assert got == [cones, faces], g.sorted_edges
        assert [[(m.bits, w) for m, w in batch]
                for batch in graph_structures(g, False)] == [cones]


def test_graph_structures_build_the_faces_only_when_asked(monkeypatch):
    lattices = []
    spied = polytope.face_lattice
    monkeypatch.setattr(polytope, "face_lattice",
                        lambda points: lattices.append(points) or spied(points))
    batches = graph_structures(complete_dag(4), True)
    assert len(next(batches)) == 9 and lattices == []
    assert len(next(batches)) > 0 and len(lattices) == 1
    assert next(batches, None) is None
    assert len(list(graph_structures(complete_dag(4), False))) == 1
    assert len(lattices) == 1


def test_face_maxoid_monotone_under_inclusion():
    for g in (DIAMOND, complete_dag(3), complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        lat = face_lattice([p for _, p in pts])
        maxoids = [face_maxoid(g, f, entries, pts) for f in lat.faces]
        for a, b in lat.covers:
            # smaller face of the polytope = larger cone = smaller structure
            assert maxoids[a].stmts <= maxoids[b].stmts


def test_facet_union_property_on_maximal_cone_walls():
    # walls between adjacent maximal cones carry the union of the two
    # incident vertex structures
    for g in (DIAMOND, complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        lat = face_lattice([p for _, p in pts])
        for f in lat.faces:
            if f.dim == 1 and len(f.vertices) == 2:
                a, b = sorted(f.vertices)
                assert (face_maxoid(g, f, entries, pts)
                        == entries[a].maxoid | entries[b].maxoid)


def test_hasse_dot_output():
    lat = face_lattice([(0,), (2,)])
    dot = hasse_dot(lat)
    assert dot.startswith("digraph") and "->" in dot


def _random_dags(n: int, count: int, seed: int) -> list[Dag]:
    """Distinct seeded random DAGs on n nodes with at least n edges, edges
    oriented by a random node order."""
    rng = random.Random(seed)
    graphs: list[Dag] = []
    while len(graphs) < count:
        order = rng.sample(range(1, n + 1), n)
        edges = [(order[a], order[b]) for a, b in itertools.combinations(range(n), 2)
                 if rng.random() < 0.75]
        g = Dag(n, edges)
        if len(edges) >= n and g not in graphs:
            graphs.append(g)
    return graphs


def test_face_normals_and_edges_agree_with_the_lp_oracles():
    # every face of the small graphs, and the first faces of each dimension
    # of complete-5 minus 3->4, get the same maxoid from the summed facet
    # normals as from one LP per face; the polytope's edges are the cone
    # pairs that one LP per pair of cones finds adjacent
    k5_minus = Dag(5, [e for e in complete_dag(5).edges if e != (3, 4)])
    cases = [(g, None) for g in (complete_dag(3), complete_dag(4), DIAMOND)]
    cases += [(g, None) for g in _random_dags(4, 15, seed=2718)]
    cases.append((k5_minus, 5))
    for g, per_dim in cases:
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        lat = face_lattice([p for _, p in pts])
        faces = lat.faces
        if per_dim is not None:  # faces come sorted by dimension
            faces = [f for _, same_dim in itertools.groupby(faces, key=lambda f: f.dim)
                     for f in itertools.islice(same_dim, per_dim)]
        for f in faces:
            assert face_maxoid(g, f, entries, pts) == lp_face_maxoid(g, f, pts), (
                g.sorted_edges, sorted(f.vertices))
        if per_dim is None:
            assert cone_adjacency(g, entries) == lp_cone_adjacency(entries), g.sorted_edges


def test_face_lattice_matches_the_pairwise_oracle():
    # faces, dimensions, normals and covers all equal the replaced lattice,
    # on standard shapes (the octahedron is not simple: each vertex lies on
    # 4 facets, so cuts of a facet by other facets include non-covers) and
    # on the polytopes of small and random 5-node graphs
    shapes = {
        "point": [(3, 1)],
        "segment": [(0,), (2,)],
        "triangle": [(0, 0), (1, 0), (0, 1)],
        "square": [(0, 0), (1, 0), (0, 1), (1, 1)],
        "cube": list(itertools.product((0, 1), repeat=3)),
        "octahedron": [tuple(s * int(k == axis) for k in range(3))
                       for axis in range(3) for s in (1, -1)],
    }
    cases = dict(shapes)
    k5_minus = Dag(5, [e for e in complete_dag(5).edges if e != (3, 4)])
    graphs = [complete_dag(3), complete_dag(4), DIAMOND, complete_dag(5), k5_minus]
    graphs += _random_dags(5, 15, seed=1729)
    for k, g in enumerate(graphs):
        cases[f"graph {k} {g.sorted_edges}"] = [p for _, p in polytope_vertices(g)]
    for name, coords in cases.items():
        assert _facet_incidences(coords) == hull_facet_incidences(coords), name
        assert face_lattice(coords) == pairwise_face_lattice(coords), name
    octahedron = face_lattice(cases["octahedron"])
    assert octahedron.f_vector() == (6, 12, 8)
    facets = [f.vertices for f in octahedron.faces if f.dim == 2]
    assert all(sum(v in f for f in facets) == 4 for v in range(6))


@pytest.mark.skipif(os.environ.get("MAXOID_LONG_TESTS") != "1",
                    reason="long-running size; set MAXOID_LONG_TESTS=1")
def test_facets_of_the_first_13_edge_6_node_graph_match_the_replaced_hull():
    # 473 vertices in dimension 8: the double description runs long enough
    # here for the adjacency pre-filter and the start from one inversion to
    # matter; the replaced hull takes a few seconds
    from maxoid.census import all_top_ordered_tdags

    g = next(g for g in all_top_ordered_tdags(6).graphs if len(g.edges) == 13)
    coords = [p for _, p in polytope_vertices(g)]
    facets = _facet_incidences(coords)
    assert len(coords) == 473 and len(facets) == 26
    assert facets == hull_facet_incidences(coords)


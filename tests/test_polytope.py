import itertools
import random
import tracemalloc
from functools import reduce
from operator import or_

import pytest

from maxoid import census, implication, polytope
from maxoid.fan import enumerate_maximal_cones
from maxoid.graph import Dag, isomorphism_classes, top_ordered_closed_dags
from maxoid.linarith import rank_of
from maxoid.polytope import (
    Face,
    _facet_incidences,
    _simplex_rays,
    cone_adjacency,
    face_lattice,
    face_maxoid,
    face_maxoids,
    graph_structures,
    hasse_dot,
    polytope_vertices,
)
from maxoid.separation import _bit_indices, parse_ci_statement
from oracles import (
    affine_dimension,
    complete_dag,
    gauss_jordan_simplex_rays,
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
    assert [(f.dim, f.mask) for f in lat.faces] == [(0, 0b01), (0, 0b10), (1, 0b11)]
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
    pts = polytope_vertices(g, enumerate_maximal_cones(g))
    assert len(pts) == 2
    coords = {p for _, p in pts}
    # the two points differ by indicator(1->3) - indicator(1->2->3)
    a, b = sorted(coords)
    assert tuple(x - y for x, y in zip(b, a)) in {(1, -1, 1), (-1, 1, -1)}
    assert affine_dimension(list(coords))[0] == 1


def test_vertices_chain_single_point():
    g = Dag(3, [(1, 2), (2, 3)])
    pts = polytope_vertices(g, enumerate_maximal_cones(g))
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
            (v,) = _bit_indices(f.mask)
            assert face_maxoid(DIAMOND, f, entries, pts) == entries[v].maxoid


def test_face_maxoid_rejects_non_face():
    g = complete_dag(4)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    lat = face_lattice([p for _, p in pts])
    masks = {f.mask for f in lat.faces}
    fake = next(1 << a | 1 << b for a, b in itertools.combinations(range(9), 2)
                if 1 << a | 1 << b not in masks)
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
    outside = lat.faces[-1].mask & ~edge.mask
    wrong = Face(edge.mask | outside & -outside, edge.dim, edge.normal)
    with pytest.raises(ValueError):
        face_maxoid(g, wrong, entries, pts, memo)


# graphs whose polytope is a single point: one cone each
SINGLE_VERTEX = [Dag(3, []), Dag(2, [(1, 2)]), Dag(4, [(1, 2), (3, 4)]), Dag(1, [])]


@pytest.mark.parametrize("graphs, count, single", [
    (lambda: top_ordered_closed_dags(4), 40, False),
    (lambda: [g for g, _ in isomorphism_classes(top_ordered_closed_dags(5))], 63, False),
    (lambda: _random_dags(5, 15, seed=4711), 15, False),
    (lambda: SINGLE_VERTEX, 4, True),
], ids=["4-all", "5-classes", "5-random", "single-vertex"])
def test_graph_structures_match_the_fan_and_lattice_built_directly(graphs, count, single):
    # face_maxoids trusts the normals face_lattice certified, and
    # face_maxoid, its oracle, scores each face's normal against every vertex
    graphs = list(graphs())
    assert len(graphs) == count
    for g in graphs:
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        assert len(pts) == 1 or not single, g.sorted_edges
        lat = face_lattice([p for _, p in pts])
        structures = [face_maxoid(g, f, entries, pts) for f in lat.faces]
        assert face_maxoids(g, lat.faces, pts) == structures, g.sorted_edges
        cones = [(e.maxoid.bits, e.witness) for e in entries]
        faces = [(m.bits, f.normal) for m, f in zip(structures, lat.faces) if f.dim >= 1]
        got = [[(m.bits, w) for m, w in batch] for batch in graph_structures(g)]
        assert got == [cones, faces], g.sorted_edges


def test_graph_structures_build_the_faces_only_when_asked(monkeypatch):
    lattices = []
    spied = polytope.face_lattice
    monkeypatch.setattr(polytope, "face_lattice",
                        lambda points: lattices.append(points) or spied(points))
    batches = graph_structures(complete_dag(4))
    assert len(next(batches)) == 9 and lattices == []
    assert len(next(batches)) > 0 and len(lattices) == 1
    assert next(batches, None) is None
    # the generic census and generic implication, global and local, take
    # the cones' batch alone
    monkeypatch.delenv(census.CACHE_ENV, raising=False)
    monkeypatch.setattr(implication, "_indexes", {})
    generic, everything = census.census_structures(census.all_top_ordered_tdags(4),
                                                   include_faces=False)
    assert len(generic) == len(everything) == 40
    query = [parse_ci_statement(s, 4) for s in ("1,2|", "1,3|2")], [parse_ci_statement("1,3|", 4)]
    assert implication.decide_implication(4, *query, generic=True).holds
    assert implication.decide_implication(complete_dag(4), *query, generic=True).holds
    assert len(lattices) == 1


@pytest.mark.long
def test_face_maxoids_equal_face_maxoid_on_the_first_13_edge_6_node_graph():
    from maxoid.census import all_top_ordered_tdags

    g = next(g for g in all_top_ordered_tdags(6).graphs if len(g.edges) == 13)
    entries = enumerate_maximal_cones(g)
    pts = polytope_vertices(g, entries)
    lat = face_lattice([p for _, p in pts])
    assert len(lat.faces) == 14409
    memo: dict = {}
    assert face_maxoids(g, lat.faces, pts) == [face_maxoid(g, f, entries, pts, memo)
                                               for f in lat.faces]


@pytest.mark.long
def test_face_lattice_of_the_first_14_edge_6_node_graph_stays_under_150_mb():
    # e14 (complete-6 minus 5->6): 60359 faces held as vertex masks; with a
    # frozenset per face the lattice peaked at 208 MB under tracemalloc
    g = Dag(6, [e for e in complete_dag(6).edges if e != (5, 6)])
    coords = [p for _, p in polytope_vertices(g, enumerate_maximal_cones(g))]
    tracemalloc.start()
    try:
        lat = face_lattice(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat.faces) == 60359
    assert peak < 150e6, peak


def test_face_lattice_checks_each_facet_against_every_vertex(monkeypatch):
    # every facet handed to face_lattice with one vertex cleared from or set
    # in its incidence mask, each facet and vertex in turn
    g = complete_dag(4)
    coords = [p for _, p in polytope_vertices(g, enumerate_maximal_cones(g))]
    facets = _facet_incidences(coords)
    assert len(facets) == 7
    for k, (incident, a) in enumerate(facets):
        for v in range(len(coords)):
            flipped = facets[:k] + [(incident ^ 1 << v, a)] + facets[k + 1:]
            monkeypatch.setattr(polytope, "_facet_incidences", lambda points, d=flipped: d)
            with pytest.raises(AssertionError, match="not maximal exactly"):
                face_lattice(coords)


def test_face_lattice_certifies_each_face_once_through_its_facets(monkeypatch):
    # one pass over the facets per face; a pass whose meet misses a facet,
    # so that the normal would not be maximal exactly on the face, is
    # refused
    g = complete_dag(4)
    coords = [p for _, p in polytope_vertices(g, enumerate_maximal_cones(g))]
    passes = []
    spied = polytope._facet_pass
    monkeypatch.setattr(polytope, "_facet_pass",
                        lambda facets, *rest: passes.append(rest[0]) or spied(facets, *rest))
    lat = face_lattice(coords)
    assert sorted(passes) == sorted(f.mask for f in lat.faces)
    monkeypatch.setattr(polytope, "_facet_pass",
                        lambda facets, *rest: (spied(facets, *rest)[0],
                                               *spied(facets[1:], *rest)[1:]))
    with pytest.raises(AssertionError, match="do not meet exactly"):
        face_lattice(coords)


@pytest.mark.parametrize("n, count", [(4, 7), (5, 18)])
def test_face_lattice_refuses_a_facet_list_missing_any_one_facet(monkeypatch, n, count):
    # every face walked is a meet of facets, so the meet check cannot see a
    # missing facet; the walk then does not end in the single vertices
    g = complete_dag(n)
    coords = [p for _, p in polytope_vertices(g, enumerate_maximal_cones(g))]
    facets = _facet_incidences(coords)
    assert len(facets) == count
    for k in range(count):
        dropped = facets[:k] + facets[k + 1:]
        monkeypatch.setattr(polytope, "_facet_incidences", lambda points, d=dropped: d)
        with pytest.raises(AssertionError, match="does not end in the single vertices"):
            face_lattice(coords)


def test_graph_structures_skip_the_vertex_faces(monkeypatch):
    # the face batch computes a structure only for the blocker unions of
    # faces of dimension at least 1, each once; the vertices are the cones
    g = complete_dag(4)
    points = polytope_vertices(g, enumerate_maximal_cones(g))
    lat = face_lattice([p for _, p in points])
    unions = set()
    for f in lat.faces:
        if f.dim >= 1:
            systems = [points[u][0].blockers for u in _bit_indices(f.mask)]
            unions.add(tuple((pq, reduce(or_, (b[pq] for b in systems))) for pq in systems[0]))
    calls = []
    spied = polytope.maxoid_from_blockers
    monkeypatch.setattr(polytope, "maxoid_from_blockers",
                        lambda n, blockers: calls.append(tuple(blockers.items()))
                        or spied(n, blockers))
    batches = graph_structures(g)
    next(batches)
    assert calls == []
    assert len(next(batches)) == len(lat.faces) - len(points)
    assert len(calls) == len(set(calls)) and set(calls) == unions


def test_simplex_rays_match_the_replaced_gauss_jordan_inverse():
    # random nonsingular integer matrices up to 7 x 7, some with many zeros
    # so that row swaps are needed
    rng = random.Random(11)
    compared = 0
    for _ in range(3000):
        dim = rng.randint(1, 7)
        zeros = rng.random() * 0.6
        rows = [tuple(0 if rng.random() < zeros else rng.randint(-5, 5) for _ in range(dim))
                for _ in range(dim)]
        if rank_of(rows) < dim:
            continue
        rays = _simplex_rays(rows)
        assert rays == gauss_jordan_simplex_rays(rows), rows
        for c, ray in enumerate(rays):
            assert [sum(a * b for a, b in zip(row, ray)) > 0 for row in rows] == \
                [k == c for k in range(dim)]
        compared += 1
    assert compared > 2000


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
            if f.dim == 1 and f.mask.bit_count() == 2:
                a, b = _bit_indices(f.mask)
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
                g.sorted_edges, f.mask)
        if per_dim is None:
            assert cone_adjacency(g, entries) == lp_cone_adjacency(entries), g.sorted_edges


def _masked(facets):
    """(vertex mask, normal) for each (vertex set, normal) of the hull oracle."""
    return [(sum(1 << v for v in incident), a) for incident, a in facets]


def test_face_lattice_matches_the_pairwise_oracle():
    # faces, dimensions, normals and covers all equal the replaced lattice,
    # on standard shapes (the octahedron is not simple: each vertex lies on
    # 4 facets, so cuts of a facet by other facets include non-covers) and
    # on the polytopes of small and random 5-node graphs and of every closed
    # 4- and 5-node DAG
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
    graphs += [*top_ordered_closed_dags(4), *top_ordered_closed_dags(5)]
    for k, g in enumerate(graphs):
        entries = enumerate_maximal_cones(g)
        cases[f"graph {k} {g.sorted_edges}"] = [p for _, p in polytope_vertices(g, entries)]
    for name, coords in cases.items():
        assert _facet_incidences(coords) == _masked(hull_facet_incidences(coords)), name
        assert face_lattice(coords) == pairwise_face_lattice(coords), name
    octahedron = face_lattice(cases["octahedron"])
    assert octahedron.f_vector() == (6, 12, 8)
    facets = [f.mask for f in octahedron.faces if f.dim == 2]
    assert all(sum(m >> v & 1 for m in facets) == 4 for v in range(6))


@pytest.mark.long
def test_facets_of_the_first_13_edge_6_node_graph_match_the_replaced_hull():
    # 473 vertices in dimension 8: the double description runs long enough
    # here for the adjacency pre-filter and the start from one inversion to
    # matter; the replaced hull takes a few seconds
    from maxoid.census import all_top_ordered_tdags

    g = next(g for g in all_top_ordered_tdags(6).graphs if len(g.edges) == 13)
    coords = [p for _, p in polytope_vertices(g, enumerate_maximal_cones(g))]
    facets = _facet_incidences(coords)
    assert len(coords) == 473 and len(facets) == 26
    assert facets == _masked(hull_facet_incidences(coords))


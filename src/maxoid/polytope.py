"""The weight-space polytope of a DAG.

Each maximal cone of the fan contributes one lattice point, a tuple of ints
over the sorted edges: the sum over connected pairs of the 0/1
edge-indicator of the chosen path.  These points are the vertices of a
polytope whose (outer) normal fan is the weight-space fan, so its face
lattice is dual to the fan and relative-interior normal vectors of faces
realize the CI structures of tied weight vectors.

The convex hull is computed exactly and in integers, with no Fraction
anywhere: points are projected to the affine hull's pivot columns (from the
fraction-free echelon of linarith) and shifted by the centroid scaled by the
point count m (p becomes m*p - sum of all points), so the origin is
interior, and the facets are read off as the extreme rays of the cone of
valid inequalities via the double description method, each facet's vertex
mask as its ray's zero set, since row i of that cone is point i's.  It
starts from the simplicial cone of the rows of affinely independent
points: point 0 and those whose differences from it the echelon that found
the pivot columns chose.  The cone's rays are the columns of the rows'
inverse, read off one reduced echelon of linarith (of the rows beside the
identity), and adjacency is tested combinatorially after a count of common
zero rows.
The face lattice comes from the vertex-facet incidences alone, walked down
from the top one rank at a time: the faces covered by a face are the
inclusion-maximal cuts of it with facets, dimensions are depths counted up
from the last rank, and the last rank must be exactly the single vertices
(Kaibel & Pfetsch, "Computing the face lattice of a polytope from its
vertex-facet incidences", CGTA 23, 2002).  The facet normals then answer
the fan's questions without further LPs: the sum of the normals of the
facets containing a face lies in the relative interior of the face's
normal cone, and two maximal cones are adjacent exactly when their
vertices span an edge.

Every face is certified once, in face_lattice, through its facets.  Each
facet is checked against every vertex: its normal is maximal exactly on
the facet's vertices.  A sum of such normals is then maximal exactly on
the meet of their facets, so a face whose containing facets meet in it
gets their normal sum as a certified normal: a few mask ANDs and vector
sums per face.  Faces are vertex bitmasks throughout, bit v for vertex v.
face_maxoids reads the structures of a lattice's faces in one batch with
no further check; face_maxoid, which accepts any Face, scans every vertex
and is the batch's oracle.

face_structures is the one batch of the structures of a polytope's faces,
from the critical systems of the graph's maximal cones, read by
graph_structures and by the census.  graph_structures is the one producer
of a graph's structures with the weights that realize them, read by
implication: the cones' first, then, on demand, the faces'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import add, mul, or_
from typing import Iterable, Iterator

from .graph import Dag
from .linarith import _echelon, _primitive
from .separation import Maxoid, _bit_indices, maxoid_from_blockers
from .fan import FanEntry, CriticalSystem, _packed_blockers, enumerate_maximal_cones


@dataclass(frozen=True)
class Face:
    """A face identified by the bitmask of the polytope vertices it contains
    (bit v for vertex v); normal is an integer outer normal vector in the
    relative interior of its normal cone (zero for the whole polytope)."""

    mask: int
    dim: int
    normal: tuple[int, ...]


# a facet as (vertex bitmask, integer outer normal)
Facet = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    covers: tuple[tuple[int, int], ...]  # (smaller face index, larger face index)

    @property
    def dim(self) -> int:
        return self.faces[-1].dim  # the top face's

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension 0..dim-1 (proper faces only)."""
        d = self.dim
        counts = [0] * d
        for f in self.faces:
            if f.dim < d:
                counts[f.dim] += 1
        return tuple(counts)


def polytope_vertices(g: Dag, systems: Iterable[CriticalSystem | FanEntry]
                      ) -> list[tuple[CriticalSystem, tuple[int, ...]]]:
    """One point per critical system of g's maximal cones, with the system;
    all points are distinct.  A fan entry stands for its system.  A point
    is indexed by the sorted edges: entry e counts the chosen critical paths
    through e."""
    index = {e: k for k, e in enumerate(g.sorted_edges)}
    out = []
    for system in systems:
        if isinstance(system, FanEntry):
            system = system.system
        coords = [0] * len(index)
        for _, path in system.choices:
            for e in zip(path, path[1:]):
                coords[index[e]] += 1
        out.append((system, tuple(coords)))
    if len({p for _, p in out}) != len(out):
        raise AssertionError("critical systems produced coinciding points")
    return out


def _simplex_rays(init: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {y : row . y >= 0} for a square nonsingular integer
    matrix of rows: the columns of its inverse, each primitive.

    The reduced echelon (linarith._echelon) of [rows | I] has, for each
    column p, one row [D e_p | M] with D > 0, where M times the rows is
    D e_p: M / D is row p of the inverse.  Scaling each M by L / D, for the
    positive L = lcm of the D, gives L times the inverse, whose column c is
    positive on row c and zero on the others."""
    dim = len(init)
    E, pivots, _ = _echelon([list(row) + [int(i == k) for k in range(dim)]
                             for i, row in enumerate(init)])
    by_pivot = sorted(zip(pivots, E))
    big = lcm(*(row[p] for p, row in by_pivot))
    scaled = [[x * (big // row[p]) for x in row[dim:]] for p, row in by_pivot]
    return [_primitive(col) for col in zip(*scaled)]


def _dd_extreme_rays(rows: list[tuple[int, ...]], init: list[int]
                     ) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of {y : row . y >= 0 for all rows}, each with its mask
    of the rows zero on it (bit i for row i); the cone must be pointed and
    init the indices of dim = len(init) linearly independent rows, dim being
    the rows' length.

    Double description (Fukuda & Prodon, "Double description method
    revisited", 1996) from the simplicial cone of the init rows.  A ray's
    mask holds the processed rows zero on it.  Two rays are adjacent when no
    third ray's mask contains their common one; since the common zero rows
    of adjacent rays have rank dim - 2, pairs sharing fewer zero rows are
    skipped first.  The new ray of an adjacent pair (plus, minus) is a
    positive combination of two rays >= 0 on the processed rows, so its
    processed zero rows are exactly their common ones."""
    dim = len(init)
    every = sum(1 << i for i in init)
    masks = {r: every ^ (1 << i) for i, r in zip(init, _simplex_rays([rows[i] for i in init]))}
    for i, row in ((i, row) for i, row in enumerate(rows) if i not in init):
        vals = {r: sum(map(mul, row, r)) for r in masks}
        plus = [r for r in masks if vals[r] > 0]
        zero = [r for r in masks if vals[r] == 0]
        minus = [r for r in masks if vals[r] < 0]
        bit = 1 << i
        kept = {r: masks[r] for r in plus}
        for r in zero:
            kept[r] = masks[r] | bit
        if minus:
            zero_sets = list(masks.values())
            for rp in plus:
                mp, vp = masks[rp], vals[rp]
                for rm in minus:
                    mm = masks[rm]
                    common = mp & mm
                    if common.bit_count() < dim - 2:
                        continue
                    # adjacency: no third ray's zero set contains the common
                    # one; distinct extreme rays have distinct zero sets
                    if any(m & common == common and m != mp and m != mm for m in zero_sets):
                        continue
                    vm = vals[rm]
                    ray = _primitive([vp * b - vm * a for a, b in zip(rp, rm)])
                    if ray not in kept:
                        kept[ray] = common | bit
        masks = kept
    return list(masks.items())


def _facet_incidences(points: list[tuple[int, ...]]) -> list[Facet]:
    """For each facet, the bitmask of incident point indices and an integer
    outer normal in the points' own coordinates (none for a single point).

    With m points, each projected point p is shifted to m*p - sum of all
    points, m times its offset from the centroid, so the shift stays in
    integers: facet a.(p - centroid) <= a0 reads a.shifted <= m*a0.  Row i
    of the cone of valid (a0, a) is point i's, so a ray's zero mask is its
    facet's vertex mask.

    The normal found in pivot-column coordinates is lifted by zeros off the
    pivot columns; the projection is injective on the affine hull, so the
    lifted vector scores every point exactly as the projected one does.

    The same echelon of the differences starts the double description:
    point 0 and the points whose differences it chose are affinely
    independent, which is exactly when their homogenized rows are linearly
    independent, and there are dim + 1 of them.
    """
    m = len(points)
    base = points[0]
    _, cols, chosen = _echelon([[x - y for x, y in zip(p, base)] for p in points[1:]])
    dim = len(cols)
    if dim == 0:
        return []
    proj = [tuple(p[c] for c in cols) for p in points]
    total = [sum(p[k] for p in proj) for k in range(dim)]
    rows = [_primitive([m] + [t - m * x for x, t in zip(p, total)]) for p in proj]
    facets = []
    for ray, incident in _dd_extreme_rays(rows, [0] + [i + 1 for i in chosen]):
        if ray[0] <= 0:
            raise AssertionError("facet inequality with nonpositive offset")
        lift = dict(zip(cols, ray[1:]))
        facets.append((incident, tuple(lift.get(c, 0) for c in range(len(base)))))
    return facets


def face_lattice(points: list[tuple[int, ...]]) -> FaceLattice:
    """All faces of conv(points) as vertex bitmasks, with their dimensions,
    certified normal vectors and the covering relation; the polytope itself
    is included as the top face, the empty face is not.

    Faces are walked down from the top as int bitmasks of vertex indices,
    one rank at a time.  The faces a face covers, in the next rank, are the
    inclusion-maximal nonempty cuts face & facet other than the face itself:
    its facets, one dimension lower.  So a face's dimension is its depth
    counted up from the last rank, which must be exactly the single
    vertices: a check that a facet list missing one facet fails.

    Every normal is certified here, once per face; AssertionError when a
    check fails.  Each facet G is checked against every point: its outer
    normal a_G scores every point p at most t_G, the largest score, with
    equality exactly on G's vertex mask m_G.  For a face F let S be the
    facets whose masks contain F, and nu the sum of their normals.  Then at
    every point nu.p = sum over S of a_G.p <= sum over S of t_G, with
    equality exactly when p lies on every facet of S, that is on the meet of
    their masks (every point when S is empty).  F's normal is nu and the
    meet is checked to be F, so nu is maximal exactly on F: it lies in the
    relative interior of F's normal cone.  One pass over the facets per
    face gives its cuts, the meet and nu.
    """
    if not points:
        raise ValueError("need at least one point")
    facets = _facet_incidences(points)
    for incident, a in facets:
        scores = [sum(map(mul, a, p)) for p in points]
        level = max(scores)
        if sum(1 << i for i, x in enumerate(scores) if x == level) != incident:
            raise AssertionError("facet normal is not maximal exactly on the facet's vertices")
    top = (1 << len(points)) - 1
    ranks = []  # per rank from the top, (face, normal, faces it covers)
    rank = [top]
    while rank:
        walked = []
        for face in rank:
            cuts, meet, normal = _facet_pass(facets, face, top, len(points[0]))
            if meet != face:
                raise AssertionError("facets containing a face do not meet exactly in it")
            # a cut inside a kept one comes after it, having fewer vertices
            kept: list[int] = []
            for cut in sorted(cuts, key=int.bit_count, reverse=True):
                if all(cut & k != cut for k in kept):
                    kept.append(cut)
            walked.append((face, normal, kept))
        ranks.append(walked)
        rank = sorted({k for _, _, kept in walked for k in kept},
                      key=lambda face: list(_bit_indices(face)))
    if [face for face, _, _ in ranks[-1]] != [1 << v for v in range(len(points))]:
        raise AssertionError("the face walk does not end in the single vertices")
    faces = [Face(face, dim, normal) for dim, walked in enumerate(reversed(ranks))
             for face, normal, _ in walked]
    index = {f.mask: k for k, f in enumerate(faces)}
    covers = sorted((index[k], index[face]) for walked in ranks for face, _, kept in walked
                    for k in kept)
    return FaceLattice(tuple(faces), tuple(covers))


def _facet_pass(facets: Iterable[Facet], face: int, top: int, width: int
                ) -> tuple[set[int], int, tuple[int, ...]]:
    """One pass over the facets for the vertex mask face: its nonempty cuts
    by the facets that do not contain it, the meet of the masks of those
    that do (top, every vertex, when none does) and the sum of their
    normals, of length width."""
    cuts, meet, total = set(), top, [0] * width
    for m, a in facets:
        cut = face & m
        if cut == face:
            meet &= m
            total = list(map(add, total, a))
        elif cut:
            cuts.add(cut)
    return cuts, meet, tuple(total)


def _union_maxoid(n: int, pairs: tuple, words: Iterable[int], memo: dict) -> Maxoid:
    """The structure of the union of the blocker collections packed in words
    by _packed_blockers over pairs, memoised in memo on the packed union."""
    union = reduce(or_, words)
    key = (n, pairs, union)
    m = memo.get(key)
    if m is None:
        full = (1 << n + 1) - 1
        m = memo[key] = maxoid_from_blockers(
            n, {pq: union >> k * (n + 1) & full for k, pq in enumerate(pairs)})
    return m


def face_maxoid(g: Dag, face: Face, entries: list[FanEntry],
                points: list[tuple[CriticalSystem, tuple[int, ...]]],
                memo: dict | None = None) -> Maxoid:
    """CI structure attached to a face: that of its normal vector, which lies
    in the relative interior of the face's normal cone, as a weight vector.
    points are polytope_vertices(g, entries) for g's fan entries.

    The polytope is the Minkowski sum of one path polytope per connected
    pair, so the critical k->l paths under the normal are exactly the paths
    the face's vertices choose for (k, l): the blocker sets are the unions of
    the vertices' ones.  Valid for tied weights, since separation needs no
    genericity.  The normal is re-verified exactly against every vertex
    (maximal exactly on the face's mask), so any Face is accepted, a
    lattice's or not; raises when it fails.  face_maxoids gives the
    structures of faces that face_lattice certified in one batch, with no
    scan of the vertices.

    Many faces share one blocker union.  Pass the same dict as memo to a
    batch of calls and each distinct union's structure is computed once; the
    normal is still re-verified on every face.
    """
    scores = [sum(map(mul, face.normal, p)) for _, p in points]
    best = max(scores)
    if sum(1 << u for u, v in enumerate(scores) if v == best) != face.mask:
        raise ValueError("vertex set is not a face of the polytope")
    # every vertex's blockers are keyed by the same pairs in the same order
    pairs = tuple(points[0][0].blockers)
    words = (_packed_blockers(points[u][0], g.n) for u in _bit_indices(face.mask))
    return _union_maxoid(g.n, pairs, words, {} if memo is None else memo)


def face_maxoids(g: Dag, faces: Iterable[Face],
                 points: list[tuple[CriticalSystem, tuple[int, ...]]]) -> list[Maxoid]:
    """face_maxoid of each face, in order, for faces from face_lattice of
    the coordinates of points = polytope_vertices(g, entries).

    face_lattice certified each face's normal, once; nothing is checked
    again here.  A Face built any other way is face_maxoid's to check.

    Each vertex's blocker masks are packed into one int, so a face's
    blocker union is one OR per vertex, and the structures are memoised on
    the packed union: each distinct one is computed once.
    """
    # every vertex's blockers are keyed by the same pairs in the same order
    pairs = tuple(points[0][0].blockers)
    words = [_packed_blockers(system, g.n) for system, _ in points]
    memo: dict = {}
    return [_union_maxoid(g.n, pairs, (words[v] for v in _bit_indices(f.mask)), memo)
            for f in faces]


def face_structures(g: Dag, systems: list[CriticalSystem]) -> list[tuple[Maxoid, Face]]:
    """The structure of every face of dimension at least 1 of the polytope
    of g's critical systems, the systems of all of g's maximal cones, with
    the face, in lattice order.  face_lattice certified the faces' normals,
    and only these faces go to face_maxoids.  The dimension-0 faces are the
    cones again and are skipped."""
    points = polytope_vertices(g, systems)
    faces = [f for f in face_lattice([p for _, p in points]).faces if f.dim >= 1]
    return list(zip(face_maxoids(g, faces, points), faces))


# a structure with weights over the sorted edges that realize it, as
# integer numerators and their positive common denominator
Realized = tuple[Maxoid, tuple[int, ...], int]


def graph_structures(g: Dag) -> Iterator[list[Realized]]:
    """The CI structures of a graph, each with weights over its sorted edges
    that realize it, as two batches: first the cones', then, only once
    asked for, the faces'.  A caller that wants the generic structures
    alone takes the first batch, and no face is built.  The weights are
    integer numerators over a denominator, so a caller that reads only the
    structures, or converts only the weights it uses, makes no Fraction.

    Each maximal cone gives its maxoid and its interior point, point / den.
    Each face of dimension at least 1 gives its structure and its integer
    normal over 1, in lattice order, from face_structures of the cones'
    systems.  The normal fan is complete, so these are all the structures
    of the graph, and the cones' are its generic ones.
    """
    entries = enumerate_maximal_cones(g)
    yield [(e.maxoid, e.point, e.den) for e in entries]
    yield [(m, f.normal, 1) for m, f in face_structures(g, [e.system for e in entries])]


def cone_adjacency(g: Dag, entries: list[FanEntry]) -> list[tuple[int, int]]:
    """Pairs of cone indices whose closures share a facet, in lexicographic
    order.  The fan is the normal fan of the polytope, so these are the
    vertex pairs of the polytope's edges."""
    lattice = face_lattice([p for _, p in polytope_vertices(g, entries)])
    return sorted(tuple(_bit_indices(f.mask)) for f in lattice.faces if f.dim == 1)


def hasse_dot(lattice: FaceLattice, name: str = "faces") -> str:
    """DOT rendering of the face lattice's Hasse diagram."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, f in enumerate(lattice.faces):
        label = "{" + ",".join(map(str, _bit_indices(f.mask))) + "}"
        lines.append(f'  f{k} [label="{label} d{f.dim}"];')
    lines.extend(f"  f{a} -> f{b};" for a, b in lattice.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"

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
valid inequalities via the double description method.  It starts from the
simplicial cone of independent rows, whose rays are the columns of one
integer Gauss-Jordan inverse, and tests adjacency combinatorially after a
count of common zero rows.  The face lattice comes from the vertex-facet
incidences alone: the faces covered by a face are the inclusion-maximal cuts
of it with facets, and dimensions are lattice ranks (Kaibel & Pfetsch,
"Computing the face lattice of a polytope from its vertex-facet incidences",
CGTA 23, 2002).  The facet normals then answer the fan's questions without
further LPs: the sum of the normals of the facets containing a face lies in
the relative interior of the face's normal cone, and two maximal cones are
adjacent exactly when their vertices span an edge.

graph_structures is the one producer of a graph's structures with the
weights that realize them, read by the census and by implication: the
cones' first, then, on demand, the faces'.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add, mul, or_
from typing import Iterator

from .graph import Dag
from .linarith import _primitive, independent_rows, pivot_columns
from .separation import Maxoid, maxoid_from_blockers
from .fan import FanEntry, CriticalSystem, enumerate_maximal_cones


@dataclass(frozen=True)
class Face:
    """A face identified by the set of polytope vertices it contains; normal
    is an integer outer normal vector in the relative interior of its normal
    cone (zero for the whole polytope)."""

    vertices: frozenset[int]
    dim: int
    normal: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    covers: tuple[tuple[int, int], ...]  # (smaller face index, larger face index)

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension 0..dim-1 (proper faces only)."""
        d = self.dim
        counts = [0] * d
        for f in self.faces:
            if f.dim < d:
                counts[f.dim] += 1
        return tuple(counts)


def polytope_vertices(g: Dag, entries: list[FanEntry] | None = None
                      ) -> list[tuple[CriticalSystem, tuple[int, ...]]]:
    """One point per maximal cone, with its critical system; all points are
    distinct.  A point is indexed by the sorted edges: entry e counts the
    chosen critical paths through e."""
    if entries is None:
        entries = enumerate_maximal_cones(g)
    index = {e: k for k, e in enumerate(g.sorted_edges)}
    out = []
    for entry in entries:
        coords = [0] * len(index)
        for _, path in entry.system.choices:
            for e in zip(path, path[1:]):
                coords[index[e]] += 1
        out.append((entry.system, tuple(coords)))
    if len({p for _, p in out}) != len(out):
        raise AssertionError("critical systems produced coinciding points")
    return out


def _simplex_rays(init: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {y : row . y >= 0} for a square nonsingular integer
    matrix of rows: the columns of its inverse, each primitive.

    One integer Gauss-Jordan elimination of [rows | I] leaves [D | M] with D
    diagonal and M = D times the inverse.  Scaling row i by L / D[i][i], for
    the positive L = lcm of the diagonal, gives L times the inverse, whose
    column c is positive on row c and zero on the others."""
    dim = len(init)
    aug = [list(row) + [int(i == k) for k in range(dim)] for i, row in enumerate(init)]
    for j in range(dim):
        r = next(r for r in range(j, dim) if aug[r][j])
        aug[j], aug[r] = aug[r], aug[j]
        prow = aug[j]
        p = prow[j]
        for i, row in enumerate(aug):
            f = row[j]
            if i != j and f:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                aug[i] = [x // g for x in new]
    big = lcm(*(abs(aug[i][i]) for i in range(dim)))
    scaled = [[x * (big // row[i]) for x in row[dim:]] for i, row in enumerate(aug)]
    return [_primitive(col) for col in zip(*scaled)]


def _dd_extreme_rays(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : row . y >= 0 for all rows}; the cone must be
    pointed and the rows of full rank dim.

    Double description (Fukuda & Prodon, "Double description method
    revisited", 1996) from the simplicial cone of dim independent rows.  A
    ray's mask has a bit per processed row that is zero on it.  Two rays are
    adjacent when no third ray's mask contains their common one; since the
    common zero rows of adjacent rays have rank dim - 2, pairs sharing fewer
    zero rows are skipped first.  The new ray of an adjacent pair (plus,
    minus) is a positive combination of the two, so its processed zero rows
    are their common ones."""
    init = independent_rows(rows)
    if len(init) != dim:
        raise ValueError("row system is not full-dimensional")
    rays = _simplex_rays([rows[i] for i in init])
    masks = {r: ((1 << dim) - 1) ^ (1 << k) for k, r in enumerate(rays)}
    chosen = set(init)
    nprocessed = dim
    for row in (row for i, row in enumerate(rows) if i not in chosen):
        vals = {r: sum(map(mul, row, r)) for r in rays}
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        minus = [r for r in rays if vals[r] < 0]
        bit = 1 << nprocessed
        nprocessed += 1
        kept = {r: masks[r] for r in plus}
        for r in zero:
            kept[r] = masks[r] | bit
        if minus:
            least = dim - 2
            zero_sets = list(masks.values())
            for rp in plus:
                mp, vp = masks[rp], vals[rp]
                for rm in minus:
                    mm = masks[rm]
                    common = mp & mm
                    if common.bit_count() < least:
                        continue
                    # adjacency: no third ray's zero set contains the common
                    # one; distinct extreme rays have distinct zero sets
                    if any(m & common == common and m != mp and m != mm for m in zero_sets):
                        continue
                    vm = vals[rm]
                    ray = _primitive([vp * b - vm * a for a, b in zip(rp, rm)])
                    if ray not in kept:
                        kept[ray] = common | bit
        rays = list(kept)
        masks = kept
    return rays


def _facet_incidences(points: list[tuple[int, ...]]
                      ) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """For each facet, the set of incident point indices and an integer
    outer normal in the points' own coordinates (none for a single point).

    With m points, each projected point p is shifted to m*p - sum of all
    points, m times its offset from the centroid, so the shift stays in
    integers: facet a.(p - centroid) <= a0 reads a.shifted <= m*a0.

    The normal found in pivot-column coordinates is lifted by zeros off the
    pivot columns; the projection is injective on the affine hull, so the
    lifted vector scores every point exactly as the projected one does.
    """
    m = len(points)
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    cols = pivot_columns(diffs)
    dim = len(cols)
    if dim == 0:
        return []
    proj = [tuple(p[c] for c in cols) for p in points]
    total = [sum(p[k] for p in proj) for k in range(dim)]
    shifted = [tuple(m * x - t for x, t in zip(p, total)) for p in proj]
    rows = [_primitive([m] + [-x for x in p]) for p in shifted]
    rays = _dd_extreme_rays(rows, dim + 1)
    facets = []
    for ray in rays:
        a0, a = ray[0], ray[1:]
        if a0 <= 0:
            raise AssertionError("facet inequality with nonpositive offset")
        level = m * a0
        incident = frozenset(i for i, p in enumerate(shifted) if sum(map(mul, a, p)) == level)
        normal = [0] * len(base)
        for c, x in zip(cols, a):
            normal[c] = x
        facets.append((incident, tuple(normal)))
    return facets


def face_lattice(points: list[tuple[int, ...]]) -> FaceLattice:
    """All faces of conv(points) with their vertex sets, dimensions, normal
    vectors and the covering relation; the polytope itself is included as
    the top face, the empty face is not.

    Faces are int bitmasks of vertex indices, walked down from the top.  The
    faces a face covers are the inclusion-maximal nonempty cuts face & facet
    other than the face itself, and a face's dimension is its rank: 0 with
    nothing below it, else one more than any face below it.  A face's normal
    is the sum of the outer normals of the facets that contain it: their
    maxima meet exactly on the face.
    """
    if not points:
        raise ValueError("need at least one point")
    facets = [(sum(1 << i for i in incident), a) for incident, a in _facet_incidences(points)]
    below: dict[int, list[int]] = {}
    stack = [(1 << len(points)) - 1]
    while stack:
        face = stack.pop()
        if face in below:
            continue
        # a cut inside a kept one comes after it, having fewer vertices
        cuts = sorted({face & m for m, _ in facets} - {0, face},
                      key=int.bit_count, reverse=True)
        kept = below[face] = []
        for cut in cuts:
            if all(cut & k != cut for k in kept):
                kept.append(cut)
        stack.extend(kept)
    dims: dict[int, int] = {}
    # a face below another has fewer vertices, so its rank is set first
    for face in sorted(below, key=int.bit_count):
        dims[face] = dims[below[face][0]] + 1 if below[face] else 0

    def normal(face: int) -> tuple[int, ...]:
        total = [0] * len(points[0])
        for m, a in facets:
            if face & m == face:
                total = list(map(add, total, a))
        return tuple(total)

    def vertices(face: int) -> list[int]:
        out = []
        while face:
            low = face & -face
            out.append(low.bit_length() - 1)
            face ^= low
        return out

    members = {face: vertices(face) for face in below}
    order = sorted(below, key=lambda face: (dims[face], members[face]))
    index = {face: k for k, face in enumerate(order)}
    # each vertex list is dropped once its frozenset is made
    faces = tuple(Face(frozenset(members.pop(face)), dims[face], normal(face)) for face in order)
    covers = sorted((index[k], index[face]) for face in order for k in below[face])
    return FaceLattice(faces, tuple(covers))


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
    genericity.  The normal is re-verified exactly (equal on the face's
    vertices, smaller on all others); raises when it fails or the face
    carries no normal.

    Many faces share one blocker collection.  Pass the same dict as memo to
    a batch of calls and each distinct collection's structure is computed
    once; the normal is still re-verified on every face.
    """
    scores = [sum(map(mul, face.normal, p)) for _, p in points]
    best = max(scores)
    if frozenset(u for u, v in enumerate(scores) if v == best) != face.vertices:
        raise ValueError("vertex set is not a face of the polytope")
    # every vertex's blockers are keyed by the same pairs in the same order
    systems = [points[u][0].blockers for u in face.vertices]
    union = [0] * len(systems[0])
    for masks in systems:
        union = list(map(or_, union, masks.values()))
    blockers = dict(zip(systems[0], union))
    memo = {} if memo is None else memo
    key = (g.n, frozenset(blockers.items()))
    if key not in memo:
        memo[key] = maxoid_from_blockers(g.n, blockers)
    return memo[key]


# a structure with weights over the sorted edges that realize it
Realized = tuple[Maxoid, tuple]


def graph_structures(g: Dag, include_faces: bool) -> Iterator[list[Realized]]:
    """The CI structures of a graph, each with weights over its sorted edges
    that realize it, as batches: first the cones', then, with include_faces
    and only once asked for, the faces'.

    Each maximal cone gives its maxoid and its interior witness.  Each face
    of dimension at least 1 gives its face_maxoid and its integer normal, in
    lattice order, built from the fan entries held until then; the
    dimension-0 faces are the cones again.  The normal fan is complete, so
    these are all the structures of the graph, and the cones' are its
    generic ones.
    """
    entries = enumerate_maximal_cones(g)
    yield [(e.maxoid, e.witness) for e in entries]
    if include_faces:
        points = polytope_vertices(g, entries)
        lattice = face_lattice([p for _, p in points])
        memo: dict = {}
        yield [(face_maxoid(g, f, entries, points, memo), f.normal)
               for f in lattice.faces if f.dim >= 1]


def cone_adjacency(g: Dag, entries: list[FanEntry]) -> list[tuple[int, int]]:
    """Pairs of cone indices whose closures share a facet, in lexicographic
    order.  The fan is the normal fan of the polytope, so these are the
    vertex pairs of the polytope's edges."""
    lattice = face_lattice([p for _, p in polytope_vertices(g, entries)])
    return sorted(tuple(sorted(f.vertices)) for f in lattice.faces if f.dim == 1)


def hasse_dot(lattice: FaceLattice, name: str = "faces") -> str:
    """DOT rendering of the face lattice's Hasse diagram."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, f in enumerate(lattice.faces):
        label = "{" + ",".join(str(v) for v in sorted(f.vertices)) + "}"
        lines.append(f'  f{k} [label="{label} d{f.dim}"];')
    lines.extend(f"  f{a} -> f{b};" for a, b in lattice.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"

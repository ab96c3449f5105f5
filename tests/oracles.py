"""Independent test oracles.

Everything here recomputes results from first principles (definitional path
enumeration, textbook d-separation, Fourier-Motzkin elimination, the
two-phase Fraction simplex, the replaced per-subset Kleene-star separation,
the replaced per-subset shape search on blocker bitmasks,
max-plus matrix products, one exact LP per face or per pair of cones, the
replaced Fraction echelon fraction_echelon with the nullspace and
affine_dimension built on it, the replaced vertex hull
hull_facet_incidences (started from one Fraction null line per ray), the
replaced pairwise face lattice, the replaced edge-mask graph loop, the
replaced fan search with one cold LP per node, the dual simplex on a
Fraction tableau, the replaced full-width integer tableau FullStrictTableau
with one column per variable, the replaced compact dictionary
CompactStrictTableau with one column per nonbasic variable, the sparse
row type Constraint with relations '>', '>=' and '==', and the replaced
formula engine for implication: Boolean formulas over strict path
comparisons, polyci_formula, genericity_formula and satisfiable on the
Fraction simplex, with the local engine
formula_implication and the global mask-loop scan scan_implication, and
the replaced per-graph structure scan per_graph_scan_implication, the
replaced per-graph census loop per_graph_census, the replaced
echelon_lineality_dimension over every disjoint path pair, and the replaced
cone_of, with its NonGenericError, that read a cone's rows off the
critical paths of a tie-free weight vector) and stays
independent of the code paths it cross-checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from maxoid.fan import (
    CriticalSystem,
    FanEntry,
    _connected_pairs,
    _edge_index,
    _internally_disjoint,
    _pair_rows,
    _path_comparison,
)
from maxoid.graph import Dag, Edge, enumerate_paths, top_ordered_closed_dags, transitive_closure
from maxoid.census import TdagFamily, graph_maxoids
from maxoid.implication import (
    Verdict,
    _check_nodes,
    _counterexample_weights,
    _verify_counterexample,
)
from maxoid.linarith import _primitive, checked_point, rank_of
from maxoid.polytope import Face, FaceLattice, graph_structures
from maxoid.separation import CiStatement, Maxoid, maxoid_from_blockers, node_mask
from maxoid.tropical import (
    NEG_INF,
    TropicalMatrix,
    WeightedDag,
    critical_paths,
    is_generic,
    kleene_star,
    path_weight,
)


def critical_dag_by_paths(wd: WeightedDag, L: frozenset[int]) -> set[tuple[int, int]]:
    """Definitional critical DAG: enumerate all i->j paths, find the maximal
    weight, and keep the edge unless some maximizing path meets L in its
    interior."""
    edges = set()
    for i in wd.g.nodes:
        for j in wd.g.nodes:
            if i == j:
                continue
            paths = enumerate_paths(wd.g, i, j)
            if not paths:
                continue
            weights = [path_weight(wd, p) for p in paths]
            best = max(weights)
            blocked = any(
                w == best and set(p[1:-1]) & (L - {i, j})
                for p, w in zip(paths, weights)
            )
            if not blocked:
                edges.add((i, j))
    return edges


def kleene_critical_edges(wd: WeightedDag, L: frozenset[int]) -> set[tuple[int, int]]:
    """Edges of the critical DAG from the proper Kleene star A: reachability
    plus the interior-blocking test A_il + A_lj < A_ij for every l in L off
    the endpoints."""
    edges = set()
    a = kleene_star(wd, proper=True)
    for i in wd.g.nodes:
        for j in wd.g.descendants(i):
            aij = a.entry(i, j)
            if all(a.entry(i, l) + a.entry(l, j) < aij for l in L if l != i and l != j):
                edges.add((i, j))
    return edges


def _star_connected(children: dict[int, set[int]], parents: dict[int, set[int]],
                    i: int, j: int, L: frozenset[int]) -> bool:
    """Search the five connecting shapes between i and j in a critical DAG.

    Colliders must lie in L, the outer parents p, q must not; all shape nodes
    are pairwise distinct and distinct from i and j.
    """
    # (a) direct edge, either direction
    if j in children[i] or i in children[j]:
        return True
    # (b) common parent p outside L
    for p in parents[i] & parents[j]:
        if p not in L:
            return True
    # (c) common collider l inside L
    for l in children[i] & children[j]:
        if l in L:
            return True
    # (d) p -> i, p -> l <- j and the mirror image
    for x, y in ((i, j), (j, i)):
        for p in parents[x]:
            if p in L or p == y:
                continue
            for l in children[p] & children[y]:
                if l in L and l != x:
                    return True
    # (e) p -> i, p -> l <- q, q -> j
    for p in parents[i]:
        if p in L or p == j:
            continue
        for q in parents[j]:
            if q in L or q == i or q == p:
                continue
            for l in children[p] & children[q]:
                if l in L and l != i and l != j:
                    return True
    return False


def _adjacency(n: int, edges: set[tuple[int, int]]):
    children: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    parents: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        children[u].add(v)
        parents[v].add(u)
    return children, parents


def kleene_separated(wd: WeightedDag, s: CiStatement) -> bool:
    """Separation of s's endpoints given s.L by the replaced engine: the
    critical DAG from kleene_critical_edges, then a set-based shape search."""
    children, parents = _adjacency(wd.g.n, kleene_critical_edges(wd, s.L))
    return not _star_connected(children, parents, s.i, s.j, s.L)


def kleene_maxoid(wd: WeightedDag) -> Maxoid:
    """The replaced maxoid engine: one Fraction critical DAG per conditioning
    subset L, then the set-based shape search on every pair outside L."""
    g = wd.g
    nodes = list(g.nodes)
    stmts = []
    for size in range(0, g.n + 1):
        for L in combinations(nodes, size):
            Ls = frozenset(L)
            children, parents = _adjacency(g.n, kleene_critical_edges(wd, Ls))
            rest = [v for v in nodes if v not in Ls]
            for i, j in combinations(rest, 2):
                if not _star_connected(children, parents, i, j, Ls):
                    stmts.append(CiStatement(i, j, Ls))
    return Maxoid(g.n, stmts)


@lru_cache(maxsize=None)
def _statements_by_subset(n: int) -> tuple[tuple[int, tuple[CiStatement, ...]], ...]:
    """Per subset L of 1..n: its bitmask and every statement (i, j | L)."""
    nodes = range(1, n + 1)
    table = []
    for size in range(n + 1):
        for L in combinations(nodes, size):
            Ls = frozenset(L)
            rest = [v for v in nodes if v not in Ls]
            table.append((node_mask(L), tuple(CiStatement(i, j, Ls)
                                              for i, j in combinations(rest, 2))))
    return tuple(table)


def _separated(n: int, blockers, L: int, statements) -> Iterator[CiStatement]:
    """The statements, all conditioned on the bitmask L, whose endpoints no
    connecting shape joins in the critical DAG given L.

    The five shapes: (a) an edge between i and j; (b) a common parent p;
    (c) a common child l; (d) p -> i, p -> l <- j or its mirror image;
    (e) p -> i, p -> l <- q, q -> j.  Colliders l lie in L, the outer
    parents p, q do not.  The shapes' distinctness conditions need no test:
    i, j and the parents lie outside L and the colliders inside it, p = j or
    q = i would be shape (a), and p = q shape (b).
    """
    # critical edges given L with their tail outside L: no shape uses others
    edges = [(k, l) for (k, l), b in blockers.items() if not (b | 1 << k) & L]
    children = [0] * (n + 1)
    parents = [0] * (n + 1)
    for k, l in edges:
        children[k] |= 1 << l
        parents[l] |= 1 << k
    # colliders in L below each node, and below any of its parents
    below = [c & L for c in children]
    via = [0] * (n + 1)
    for k, l in edges:
        via[l] |= below[k]
    for s in statements:
        i, j = s.i, s.j
        if (children[i] >> j | children[j] >> i) & 1:  # (a)
            continue
        if parents[i] & parents[j]:  # (b)
            continue
        if below[i] & below[j]:  # (c)
            continue
        if via[i] & below[j] or below[i] & via[j]:  # (d)
            continue
        if via[i] & via[j]:  # (e)
            continue
        yield s


def per_subset_maxoid_from_blockers(n: int, blockers: Mapping[tuple[int, int], int]) -> Maxoid:
    """The replaced maxoid_from_blockers: all separation statements on 1..n of the critical DAGs whose edges
    k->l are the keys of blockers, each kept given L exactly when L misses
    the bitmask blockers[(k, l)]."""
    stmts = []
    for L, statements in _statements_by_subset(n):
        stmts.extend(_separated(n, blockers, L, statements))
    return Maxoid(n, stmts)


def _undirected_simple_paths(g: Dag, i: int, j: int):
    adj = {v: set(g.children(v)) | set(g.parents(v)) for v in g.nodes}

    def walk(path):
        last = path[-1]
        if last == j:
            yield tuple(path)
            return
        for nxt in sorted(adj[last]):
            if nxt not in path:
                yield from walk(path + [nxt])

    yield from walk([i])


def d_separated(g: Dag, i: int, j: int, L: frozenset[int]) -> bool:
    """Textbook d-separation: every undirected i-j path is blocked, i.e.
    contains a non-collider in L or a collider with no self-or-descendant
    in L."""
    for path in _undirected_simple_paths(g, i, j):
        active = True
        for k in range(1, len(path) - 1):
            prev, w, nxt = path[k - 1], path[k], path[k + 1]
            collider = g.has_edge(prev, w) and g.has_edge(nxt, w)
            if collider:
                if w not in L and not (g.descendants(w) & L):
                    active = False
                    break
            elif w in L:
                active = False
                break
        if active:
            return False
    return True


@dataclass(frozen=True)
class Constraint:
    """sum(c_v * x_v) + const REL 0 with REL one of '>', '>=', '=='.

    The row is primitive: integer coefficients and constant with gcd 1."""

    terms: tuple[tuple[int, int], ...]
    const: int
    rel: str

    def __post_init__(self):
        if self.rel not in (">", ">=", "=="):
            raise ValueError(f"unknown relation {self.rel!r}")

    @staticmethod
    def build(coeffs: Mapping[int, Fraction | int], rel: str, const=0) -> "Constraint":
        """The row scaled by the positive factor that makes it primitive, so
        the half-space (or hyperplane) is unchanged."""
        terms = sorted((v, c) for v, c in coeffs.items() if c != 0)
        *ints, const = _primitive([c for _, c in terms] + [const])
        return Constraint(tuple((v, a) for (v, _), a in zip(terms, ints)), const, rel)

    def holds_at(self, point: Sequence[Fraction | int], den: int = 1) -> bool:
        """Whether the row holds at point / den, for a positive den."""
        val = sum(c * point[v] for v, c in self.terms) + self.const * den
        if self.rel == ">":
            return val > 0
        if self.rel == ">=":
            return val >= 0
        return val == 0

    def negated(self) -> "Constraint":
        """Complement within closed/open half-spaces; '==' has no single negation."""
        if self.rel == "==":
            raise ValueError("negation of an equality is a disjunction")
        terms = tuple((v, -c) for v, c in self.terms)
        return Constraint(terms, -self.const, ">=" if self.rel == ">" else ">")

    def __str__(self) -> str:
        parts = [f"{c}*x{v}" for v, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return f"{' + '.join(parts)} {self.rel} 0"


def as_constraint(row: Sequence[int], rel: str = ">") -> Constraint:
    """The Constraint sum(row[v] * x_v) REL 0 of a dense homogeneous row."""
    return Constraint.build(dict(enumerate(row)), rel)


def in_open_cone(rows: Iterable[Sequence[int]], point: Sequence[Fraction | int]) -> bool:
    """Whether every dense homogeneous row is positive at point."""
    return all(sum(map(mul, row, point)) > 0 for row in rows)


def checked_witness(point: Sequence[Fraction | int],
                    system: Iterable[Constraint]) -> tuple[Fraction, ...]:
    """The witness point after checking every Constraint of system at it."""
    for con in system:
        if not con.holds_at(point):
            raise AssertionError(f"witness {tuple(point)} violates {con}")
    return tuple(Fraction(x) for x in point)


def _full_pivot(T, basis, d, r, j):
    """Integer-preserving pivot on T[r][j] over the common denominator d.

    Every other row a becomes (a*piv - a[j]*T[r]) // d, an exact division,
    and piv becomes the new denominator; T[r] itself is kept.  A negative
    pivot negates the pivot row first, so the denominator stays positive.
    Returns the new denominator."""
    prow = T[r]
    piv = prow[j]
    if piv < 0:
        piv = -piv
        prow = T[r] = [-x for x in prow]
    for i, row in enumerate(T):
        if i != r:
            T[i] = _full_combine(row, prow, piv, d, j)
    basis[r] = j
    return piv


def _full_combine(row, prow, piv, d, j):
    """One row of a pivot: (row*piv - row[j]*prow) // d."""
    f = row[j]
    if f:
        return [(a * piv - f * b) // d for a, b in zip(row, prow)]
    if piv == d:
        return row
    return [a * piv // d for a in row]


class FullStrictTableau:
    """The replaced StrictTableau: the same dual simplex on a tableau with
    one column per variable, z+ and z- for x, then one slack per absorbed
    row, then the right-hand side, over the common denominator d.  Rows are
    dense tuples of ints, as in linarith.  Every extension copies every row,
    pads it with the new slack columns and re-verifies its witness against
    every absorbed row; point holds the integer numerators over d."""

    __slots__ = ("nvars", "rows", "T", "basis", "d", "point", "witness")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: tuple[tuple[int, ...], ...] = ()
        self.T, self.basis, self.d = [], [], 1
        self.point = [0] * nvars
        self.witness = checked_point(self.point, ())

    def extended(self, rows: Sequence[Sequence[int]]) -> "FullStrictTableau | None":
        for row in rows:
            if len(row) != self.nvars:
                raise ValueError(f"{tuple(row)} is not a row over {self.nvars} variables")
        new = FullStrictTableau.__new__(FullStrictTableau)
        new.nvars, new.rows = self.nvars, self.rows + tuple(map(tuple, rows))
        k, d, width = len(rows), self.d, 2 * self.nvars + len(self.rows)
        pad = [0] * k
        T = [row[:-1] + pad + row[-1:] for row in self.T]
        basis = list(self.basis)
        for i, con in enumerate(rows):
            row = [0] * (width + k + 1)
            for v, c in enumerate(con):
                row[v], row[self.nvars + v] = -c, c
            row[width + i], row[-1] = 1, -1
            elim = [x * d for x in row]
            for r, b in enumerate(basis):
                f = row[b]
                if f:
                    elim = [a - f * x for a, x in zip(elim, T[r])]
            T.append(elim)
            basis.append(width + i)
        while True:
            leave = None
            for r, row in enumerate(T):
                if row[-1] < 0 and (leave is None or basis[r] < basis[leave]):
                    leave = r
            if leave is None:
                break
            prow = T[leave]
            enter = next((j for j, a in enumerate(prow[:-1]) if a < 0), None)
            if enter is None:
                return None
            d = _full_pivot(T, basis, d, leave, enter)
        z = [0] * (2 * self.nvars)
        for r, b in enumerate(basis):
            if b < len(z):
                z[b] = T[r][-1]
        new.T, new.basis, new.d = T, basis, d
        new.point = [z[v] - z[self.nvars + v] for v in range(self.nvars)]
        new.witness = checked_point(new.point, new.rows, d)
        return new


def _compact_pivot(T, basis, cols, d, r, k):
    """Integer-preserving dual-simplex pivot on the negative entry T[r][k]
    over the common denominator d.

    The pivot row is negated, so the new denominator piv = -T[r][k] is
    positive; every other row a becomes (a*piv - a[k]*prow) // d, an exact
    division.  Column k then belongs to the leaving variable, with -d in the
    pivot row and a[k] in every other row.  Rows are replaced, never
    changed in place, so tableaus may share them.  Returns piv."""
    prow = [-x for x in T[r]]
    piv = prow[k]
    for i, row in enumerate(T):
        if i != r:
            f = row[k]
            if f:
                new = [(a * piv - f * b) // d for a, b in zip(row, prow)]
                new[k] = f
                T[i] = new
            elif piv != d:
                T[i] = [a * piv // d for a in row]
    prow[k] = -d
    T[r] = prow
    basis[r], cols[k] = cols[k], basis[r]
    return piv


class CompactStrictTableau:
    """The replaced StrictTableau: a compact dictionary that stores the
    columns of all 2*nvars nonbasic variables, z+ and z- for x and the
    nonbasic slacks, so the mirrored z+ and z- columns of each edge
    variable are both kept.  cols[k] is the variable of column k; T, basis,
    d and point are as in linarith.StrictTableau, and the pivots are those
    of the full tableau FullStrictTableau."""

    __slots__ = ("nvars", "T", "basis", "cols", "d", "point")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.T, self.basis, self.cols, self.d = [], [], list(range(2 * nvars)), 1
        self.point = [0] * nvars

    def extended(self, rows: Sequence[Sequence[int]]) -> "CompactStrictTableau | None":
        nvars, nz = self.nvars, 2 * self.nvars
        for row in rows:
            if len(row) != nvars:
                raise ValueError(f"{tuple(row)} is not a row over {nvars} variables")
        T, basis, cols, d = list(self.T), list(self.basis), list(self.cols), self.d
        for row in rows:
            coef = [-c for c in row]
            coef += row
            elim = [coef[v] * d if v < nz else 0 for v in cols]
            elim.append(-d)
            for r, b in enumerate(basis):
                if b < nz and coef[b]:
                    f = coef[b]
                    elim = [a - f * x for a, x in zip(elim, T[r])]
            basis.append(nz + len(T))
            T.append(elim)
        while True:
            leave = None
            for r, row in enumerate(T):
                if row[-1] < 0 and (leave is None or basis[r] < basis[leave]):
                    leave = r
            if leave is None:
                break
            prow = T[leave]
            enter = None
            for k, v in enumerate(cols):
                if prow[k] < 0 and (enter is None or v < cols[enter]):
                    enter = k
            if enter is None:
                return None
            d = _compact_pivot(T, basis, cols, d, leave, enter)
        z = [0] * nz
        for r, b in enumerate(basis):
            if b < nz:
                z[b] = T[r][-1]
        new = CompactStrictTableau.__new__(CompactStrictTableau)
        new.nvars, new.T, new.basis, new.cols, new.d = nvars, T, basis, cols, d
        new.point = [z[v] - z[nvars + v] for v in range(nvars)]
        return new


def fm_feasible(system: list[Constraint], nvars: int) -> bool:
    """Fourier-Motzkin feasibility for strict/non-strict linear constraints.

    Each row reads coeffs . x + const (> or >=) 0.  Equalities are first
    solved for one variable and substituted into the other rows, and of rows
    with the same coefficients only the tightest is kept; without these two
    steps six equalities in four variables grow to ~10^8 rows."""
    rows: list[tuple[list[Fraction], Fraction, bool]] = []  # coeffs, const, strict
    equalities: list[tuple[list[Fraction], Fraction]] = []
    for con in system:
        coeffs = [Fraction(0)] * nvars
        for v, c in con.terms:
            coeffs[v] = Fraction(c)
        const = Fraction(con.const)
        if con.rel == "==":
            equalities.append((coeffs, const))
        else:
            rows.append((coeffs, const, con.rel == ">"))

    def substitute(row, pivot):
        # eliminate variable v from row using the equality pivot (pc[v] != 0)
        (rc, rb), (pc, pb, v) = row, pivot
        f = rc[v] / pc[v]
        return [a - f * b for a, b in zip(rc, pc)], rb - f * pb

    while equalities:
        pc, pb = equalities.pop()
        v = next((i for i, c in enumerate(pc) if c != 0), None)
        if v is None:
            if pb != 0:
                return False
            continue
        pivot = (pc, pb, v)
        equalities = [substitute(e, pivot) for e in equalities]
        rows = [(*substitute((c, b), pivot), s) for c, b, s in rows]

    def tightest(rows):
        # per coefficient vector (scaled to max |coeff| = 1) keep the least
        # constant, strict on a tie; constant rows are checked and dropped
        best: dict[tuple[Fraction, ...], tuple[Fraction, bool]] = {}
        for coeffs, const, strict in rows:
            scale = max((abs(c) for c in coeffs), default=Fraction(0))
            if scale == 0:
                if const < 0 or (strict and const == 0):
                    return None
                continue
            key = tuple(c / scale for c in coeffs)
            cand = (const / scale, strict)
            old = best.get(key)
            if old is None or cand[0] < old[0] or (cand[0] == old[0] and strict):
                best[key] = cand
        return [(list(k), b, s) for k, (b, s) in best.items()]

    for v in range(nvars):
        rows = tightest(rows)
        if rows is None:
            return False
        pos = [r for r in rows if r[0][v] > 0]
        neg = [r for r in rows if r[0][v] < 0]
        rest = [r for r in rows if r[0][v] == 0]
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                scale_p, scale_n = -cn[v], cp[v]
                coeffs = [scale_p * a + scale_n * b for a, b in zip(cp, cn)]
                rest.append((coeffs, scale_p * bp + scale_n * bn, sp or sn))
        rows = rest
    return tightest(rows) is not None


def _fr_pivot(T, cost, basis, r, j):
    piv = T[r][j]
    prow = T[r] if piv == 1 else [x / piv if x else x for x in T[r]]
    T[r] = prow
    # the tableau is sparse: entries against a zero of the pivot row stay
    for i, row in enumerate(T):
        if i != r and row[j] != 0:
            f = row[j]
            T[i] = [a - f * b if b else a for a, b in zip(row, prow)]
    if cost[j] != 0:
        f = cost[j]
        cost[:] = [a - f * b if b else a for a, b in zip(cost, prow)]
    basis[r] = j


def _fr_run_simplex(T, cost, basis, allowed_cols):
    """Minimize, Bland's rule.  Returns True when optimal, False when unbounded."""
    while True:
        enter = next((j for j in allowed_cols if cost[j] < 0), None)
        if enter is None:
            return True
        best_r, best_ratio = None, None
        for r, row in enumerate(T):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_r])):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            return False
        _fr_pivot(T, cost, basis, best_r, enter)


def _fr_direct_basis(rows, rhs, ncols):
    """A starting identity basis among +-1 singleton columns, if one exists
    (always the case for pure inequality systems, whose slack columns
    qualify); avoids the artificial-variable phase."""
    m = len(rows)
    count = [0] * ncols
    where = [0] * ncols
    for r in range(m):
        for j in range(ncols):
            if rows[r][j] != 0:
                count[j] += 1
                where[j] = r
    T = [None] * m
    basis = [None] * m
    used = set()
    for r in range(m):
        for j in range(ncols):
            if (count[j] == 1 and where[j] == r and j not in used
                    and abs(rows[r][j]) == 1 and rhs[r] * rows[r][j] >= 0):
                s = rows[r][j]  # +-1, so dividing by s multiplies by it
                T[r] = [x * s if x else x for x in rows[r]] + [rhs[r] * s]
                basis[r] = j
                used.add(j)
                break
        else:
            return None
    return T, basis


def _fr_solve_standard(rows, rhs, objective, ncols):
    """min objective.z s.t. rows.z = rhs, z >= 0.  Exact two-phase simplex.

    Returns (status, z): status "optimal" | "infeasible" | "unbounded".
    """
    m = len(rows)
    if m == 0:
        return "optimal", [Fraction(0)] * ncols
    direct = _fr_direct_basis(rows, rhs, ncols)
    if direct is not None:
        T, basis = direct
    else:
        # phase 1: artificial basis
        T = []
        for r in range(m):
            row = list(rows[r]) + [Fraction(0)] * m + [rhs[r]]
            if rhs[r] < 0:
                row = [-x for x in row]
            row[ncols + r] = Fraction(1)
            T.append(row)
        cost = [Fraction(0)] * (ncols + m + 1)
        for j in range(ncols):
            cost[j] = -sum(row[j] for row in T)
        cost[-1] = -sum(row[-1] for row in T)
        basis = [ncols + r for r in range(m)]
        _fr_run_simplex(T, cost, basis, range(ncols))
        if cost[-1] != 0:
            return "infeasible", None
        # drive leftover artificials out of the basis, dropping redundant rows
        drop = []
        for r in range(m):
            if basis[r] >= ncols:
                j = next((j for j in range(ncols) if T[r][j] != 0), None)
                if j is None:
                    drop.append(r)
                else:
                    _fr_pivot(T, cost, basis, r, j)
        for r in sorted(drop, reverse=True):
            del T[r], basis[r]
        T = [row[:ncols] + [row[-1]] for row in T]
    # phase 2
    cost = list(objective) + [Fraction(0)]
    for r, row in enumerate(T):
        if cost[basis[r]] != 0:
            f = cost[basis[r]]
            for k in range(ncols + 1):
                cost[k] -= f * row[k]
    if not _fr_run_simplex(T, cost, basis, range(ncols)):
        return "unbounded", None
    z = [Fraction(0)] * ncols
    for r, bv in enumerate(basis):
        z[bv] = T[r][-1]
    return "optimal", z


def fraction_feasible(system: Sequence[Constraint], nvars: int) -> tuple[Fraction, ...] | None:
    """Decide a conjunction of strict, non-strict and equality rows over
    nvars free variables: the two-phase Bland's-rule simplex on a Fraction
    tableau, maximizing a shared slack t <= 1 of the strict rows.  Returns a
    checked interior witness, or None when the system is infeasible."""
    system = list(system)
    for con in system:
        if any(v >= nvars or v < 0 for v, _ in con.terms):
            raise ValueError(f"constraint {con} references a variable >= nvars={nvars}")
    strict = any(con.rel == ">" for con in system)
    # columns: x_v = z[2v] - z[2v+1]; then (t+, t-) if needed; then slacks
    ncols = 2 * nvars + (2 if strict else 0)
    t_pos, t_neg = 2 * nvars, 2 * nvars + 1
    rows, rhs = [], []  # rows hold (coefficients, slack sign); sign 0 means equality
    for con in system:
        row = [Fraction(0)] * ncols
        for v, c in con.terms:
            row[2 * v] += c
            row[2 * v + 1] -= c
        if con.rel == ">":
            row[t_pos] -= 1
            row[t_neg] += 1
        rows.append((row, 0 if con.rel == "==" else -1))
        rhs.append(Fraction(-con.const))
    if strict:
        cap = [Fraction(0)] * ncols
        cap[t_pos] += 1
        cap[t_neg] -= 1
        rows.append((cap, 1))
        rhs.append(Fraction(1))
    nslack = sum(1 for _, sign in rows if sign)
    full = []
    k = 0
    for row, sign in rows:
        ext = row + [Fraction(0)] * nslack
        if sign:
            ext[ncols + k] = Fraction(sign)
            k += 1
        full.append(ext)
    total = ncols + nslack
    objective = [Fraction(0)] * total
    if strict:
        objective[t_pos], objective[t_neg] = Fraction(-1), Fraction(1)
    status, z = _fr_solve_standard(full, rhs, objective, total)
    if status != "optimal":
        return None
    if strict and z[t_pos] - z[t_neg] <= 0:
        return None
    point = [z[2 * v] - z[2 * v + 1] for v in range(nvars)]
    return checked_witness(point, system)


def fraction_strict_tableau(chunks: Sequence[Sequence[Sequence[int]]],
                            nvars: int) -> list[tuple[Fraction, ...] | None]:
    """The dual-simplex warm start of the strict LP max t s.t. every row
    minus t >= 0 and t <= 1, on a Fraction tableau with every pivot row
    divided through: linarith.StrictTableau before it became a feasibility
    tableau.  Its columns are z+, z-, t+, t-, the cap row's slack and one
    slack per row.  On homogeneous rows it pivots where StrictTableau does
    while the system stays feasible, so their witnesses agree.  Appends the
    chunks of dense homogeneous rows one after another and returns the
    witness after each, None from the first infeasible chunk on."""
    t = 2 * nvars
    T = [[Fraction(x) for x in [0] * t + [1, -1, 1, 1]]]
    cost = [Fraction(x) for x in [0] * t + [-1, 1, 0, 0]]
    basis = [t + 2]
    _fr_pivot(T, cost, basis, 0, t)
    rows: list[Sequence[int]] = []
    out: list[tuple[Fraction, ...] | None] = []
    for chunk in chunks:
        if out and out[-1] is None:
            out.append(None)
            continue
        width = len(cost) - 1
        pad = [Fraction(0)] * len(chunk)
        T = [row[:-1] + pad + row[-1:] for row in T]
        cost = cost[:-1] + pad + cost[-1:]
        for i, con in enumerate(chunk):
            row = [Fraction(0)] * (width + len(chunk) + 1)
            for v, c in enumerate(con):
                row[v], row[nvars + v] = Fraction(-c), Fraction(c)
            row[t], row[t + 1], row[width + i] = 1, -1, 1
            for r, b in enumerate(basis):
                f = row[b]
                if f:
                    row = [a - f * x for a, x in zip(row, T[r])]
            T.append(row)
            basis.append(width + i)
        rows.extend(chunk)
        feasible_lp = True
        while True:
            negative = [r for r, row in enumerate(T) if row[-1] < 0]
            if not negative:
                break
            leave = min(negative, key=lambda r: basis[r])
            ratios = [(cost[j] / -a, j) for j, a in enumerate(T[leave][:-1]) if a < 0]
            if not ratios:
                feasible_lp = False
                break
            _fr_pivot(T, cost, basis, leave, min(ratios)[1])
        if not feasible_lp or cost[-1] <= 0:
            out.append(None)
            continue
        z = [Fraction(0)] * (len(cost) - 1)
        for r, b in enumerate(basis):
            z[b] = T[r][-1]
        out.append(checked_point([z[v] - z[nvars + v] for v in range(nvars)], rows))
    return out


def random_weighted_dag(rng: random.Random, max_n: int = 5,
                        denominators=(1, 1, 2)) -> WeightedDag:
    """A random upper-triangular DAG with small rational weights; small
    values on purpose, so ties are common."""
    n = rng.randint(2, max_n)
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.55]
    g = Dag(n, edges)
    w = {
        e: Fraction(rng.randint(-3, 3), rng.choice(denominators))
        for e in edges
    }
    return WeightedDag(g, w)


def complete_dag(n: int) -> Dag:
    return Dag(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def tropical_matmul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Max-plus matrix product: entry (i,j) = max_k a_ik + b_kj."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            best = NEG_INF
            for k in range(n):
                cand = a.rows[i][k] + b.rows[k][j]
                if best < cand:
                    best = cand
            row.append(best)
        rows.append(row)
    return TropicalMatrix(rows)


def fraction_echelon(rows):
    """The replaced Fraction row echelon form, built greedily row by row:
    (echelon rows with pivot 1, their pivot columns, indices of the input
    rows that contributed them)."""
    E: list[list[Fraction]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for erow, p in zip(E, pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, erow)]
        p = next((j for j, x in enumerate(v) if x != 0), None)
        if p is not None:
            f = v[p]
            E.append([x / f for x in v])
            pivots.append(p)
            chosen.append(idx)
    return E, pivots, chosen


def affine_dimension(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[Fraction]]]:
    """Dimension of the affine hull of a point set, with a difference basis,
    by the Fraction echelon."""
    pts = [list(map(Fraction, p)) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    base = pts[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
    chosen = fraction_echelon(diffs)[2]
    return len(chosen), [diffs[i] for i in chosen]


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of the homogeneous system rows . x = 0,
    by back substitution in the Fraction echelon."""
    E, pivots, _ = fraction_echelon(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for erow, p in reversed(list(zip(E, pivots))):
            vec[p] = -sum(erow[j] * vec[j] for j in range(p + 1, ncols))
        basis.append(vec)
    return basis


def hull_dd_extreme_rays(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """The replaced double description: extreme rays of {y : row . y >= 0}
    for a pointed cone with rows of full rank dim, started from one Fraction
    null line per ray of the initial simplicial cone, with the
    combinatorial adjacency test alone and each new ray's zero set computed
    from the processed rows."""
    init = fraction_echelon(rows)[2]
    if len(init) != dim:
        raise ValueError("row system is not full-dimensional")
    rays = []
    for c in init:
        (line,) = nullspace([rows[i] for i in init if i != c], dim)
        ray = _primitive(line)
        if sum(a * b for a, b in zip(rows[c], ray)) < 0:
            ray = tuple(-x for x in ray)
        rays.append(ray)
    processed = [rows[i] for i in init]

    def zero_mask(ray) -> int:
        return sum(1 << k for k, row in enumerate(processed)
                   if sum(a * b for a, b in zip(row, ray)) == 0)

    masks = {r: zero_mask(r) for r in rays}
    for row in [rows[i] for i in range(len(rows)) if i not in set(init)]:
        vals = {r: sum(a * b for a, b in zip(row, r)) for r in rays}
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        minus = [r for r in rays if vals[r] < 0]
        newly = []
        for rp in plus:
            for rm in minus:
                common = masks[rp] & masks[rm]
                if any(masks[r] & common == common for r in rays if r != rp and r != rm):
                    continue
                newly.append(_primitive([vals[rp] * b - vals[rm] * a for a, b in zip(rp, rm)]))
        processed.append(row)
        bit = 1 << (len(processed) - 1)
        kept = {r: masks[r] for r in plus}
        for r in zero:
            kept[r] = masks[r] | bit
        for r in newly:
            if r not in kept:
                kept[r] = zero_mask(r)
        rays = list(kept)
        masks = kept
    return rays


def hull_facet_incidences(points: list[tuple[int, ...]]
                          ) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """The replaced vertex hull: for each facet, its incident point indices
    and an integer outer normal over the points' coordinates, found in the
    affine hull's Fraction pivot columns, around the centroid scaled by the
    point count, by hull_dd_extreme_rays."""
    m = len(points)
    base = points[0]
    cols = fraction_echelon([[x - y for x, y in zip(p, base)] for p in points[1:]])[1]
    dim = len(cols)
    if dim == 0:
        return []
    proj = [tuple(p[c] for c in cols) for p in points]
    total = [sum(p[k] for p in proj) for k in range(dim)]
    shifted = [tuple(m * x - t for x, t in zip(p, total)) for p in proj]
    rays = hull_dd_extreme_rays([_primitive([m] + [-x for x in p]) for p in shifted], dim + 1)
    facets = []
    for ray in rays:
        a0, a = ray[0], ray[1:]
        if a0 <= 0:
            raise AssertionError("facet inequality with nonpositive offset")
        incident = frozenset(i for i, p in enumerate(shifted)
                             if sum(c * x for c, x in zip(a, p)) == m * a0)
        normal = [0] * len(base)
        for c, x in zip(cols, a):
            normal[c] = x
        facets.append((incident, tuple(normal)))
    return facets


def lp_face_maxoid(g: Dag, face, points) -> Maxoid:
    """CI structure attached to a face by one exact LP: a rational functional
    in the relative interior of the face's normal cone (equal on the face's
    vertices, larger on all others, slack-maximized) interpreted as a weight
    vector.  points are polytope_vertices(g); raises ValueError when the
    vertex set is not a face."""
    coords = [p for _, p in points]
    nvars = len(g.sorted_edges)
    members = sorted(face.vertices)
    if not members or any(v >= len(coords) for v in members):
        raise ValueError("face references unknown vertices")
    base = coords[members[0]]
    # substitute the equal-value conditions out: work in a basis of the
    # subspace where all face vertices score alike
    equal_rows = [[Fraction(coords[s][k] - base[k]) for k in range(nvars)]
                  for s in members[1:]]
    span = nullspace(equal_rows, nvars) if equal_rows else [
        [Fraction(int(k == j)) for k in range(nvars)] for j in range(nvars)]
    reduced: list[Constraint] = []
    seen = set()
    for u in range(len(coords)):
        if u in face.vertices:
            continue
        diff = [Fraction(base[k] - coords[u][k]) for k in range(nvars)]
        row = {j: sum(b * d for b, d in zip(vec, diff)) for j, vec in enumerate(span)}
        if not any(row.values()):
            raise ValueError("vertex set is not a face of the polytope")
        con = Constraint.build(row, ">")
        if con not in seen:
            seen.add(con)
            reduced.append(con)
    y = fraction_feasible(reduced, len(span))
    if y is None:
        raise ValueError("vertex set is not a face of the polytope")
    c = [sum(y[j] * span[j][k] for j in range(len(span))) for k in range(nvars)]
    score = sum(ci * xi for ci, xi in zip(c, base))
    for u in range(len(coords)):
        val = sum(ci * xi for ci, xi in zip(c, coords[u]))
        ok = val == score if u in face.vertices else val < score
        if not ok:
            raise AssertionError("normal-cone functional failed exact re-verification")
    return kleene_maxoid(WeightedDag(g, dict(zip(g.sorted_edges, c))))


def pairwise_face_lattice(coords: list[tuple[int, ...]]) -> FaceLattice:
    """The replaced face lattice: every nonempty intersection of facets found
    by a frontier walk over frozensets, one Fraction affine_dimension per face
    and a test of every pair of faces for a cover (one dimension apart, the
    smaller vertex set strictly inside the larger), on the facets of the
    replaced hull, hull_facet_incidences."""
    if not coords:
        raise ValueError("need at least one point")
    facets = hull_facet_incidences(coords)
    top = frozenset(range(len(coords)))
    sets = {top}
    frontier = {top}
    while frontier:
        nxt = set()
        for face in frontier:
            for facet, _ in facets:
                cut = face & facet
                if cut and cut != face and cut not in sets:
                    sets.add(cut)
                    nxt.add(cut)
        frontier = nxt

    def face_dim(s: frozenset[int]) -> int:
        return affine_dimension([coords[i] for i in sorted(s)])[0]

    def normal(s: frozenset[int]) -> tuple[int, ...]:
        total = [0] * len(coords[0])
        for facet, a in facets:
            if s <= facet:
                total = [x + y for x, y in zip(total, a)]
        return tuple(total)

    faces = sorted((Face(s, face_dim(s), normal(s)) for s in sets),
                   key=lambda f: (f.dim, sorted(f.vertices)))
    covers = []
    for a, fa in enumerate(faces):
        for b, fb in enumerate(faces):
            if fb.dim == fa.dim + 1 and fa.vertices < fb.vertices:
                covers.append((a, b))
    return FaceLattice(tuple(faces), tuple(covers))


def lp_cone_adjacency(entries) -> list[tuple[int, int]]:
    """Pairs of cone indices whose closures share a facet: some inequality of
    the first cone, flipped to an equality, admits a point that satisfies its
    other rows strictly and the second cone's rows non-strictly, found by one
    exact LP per pair of cones and flipped row."""
    edges = []
    for a in range(len(entries)):
        rows_a = entries[a].inequalities
        nvars = len(entries[a].witness)
        for b in range(a + 1, len(entries)):
            rows_b = entries[b].inequalities
            for flip in rows_a:
                system = [as_constraint(flip, "==")]
                system += [as_constraint(r) for r in rows_a if r != flip]
                system += [as_constraint(r, ">=") for r in rows_b]
                if fraction_feasible(system, nvars) is not None:
                    edges.append((a, b))
                    break
    return edges


def mask_loop_dags(n: int, pairs: Sequence[tuple[int, int]],
                   closed_only: bool = False) -> Iterator[Dag]:
    """One Dag per edge mask over pairs (bit k for pairs[k]) in increasing
    mask order, masks with a cycle skipped and, when closed_only, graphs
    that differ from their transitive closure too: the replaced loop."""
    for mask in range(1 << len(pairs)):
        try:
            g = Dag(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
        except ValueError:
            continue
        if not closed_only or transitive_closure(g) == g:
            yield g


def cold_lp_maximal_cones(g: Dag) -> list[FanEntry]:
    """The replaced fan search: the same depth-first search over per-pair
    path choices, where a child whose new rows the parent's witness fails
    solves its whole system from scratch with the two-phase simplex."""
    index = _edge_index(g)
    nvars = len(index)
    pairs = _connected_pairs(g)
    path_lists = {pq: enumerate_paths(g, *pq) for pq in pairs}
    entries: list[FanEntry] = []

    def system_rows(choices, keys, minimal):
        return [row for key in keys
                for row in _pair_rows(g, index, key, choices[key], minimal)]

    def propagate(choices, key, path):
        forced = []
        for a in range(len(path)):
            for b in range(a + 1, len(path)):
                sub, subkey = path[a:b + 1], (path[a], path[b])
                if subkey in choices:
                    if choices[subkey] != sub:
                        for k in forced:
                            del choices[k]
                        return None
                else:
                    choices[subkey] = sub
                    forced.append(subkey)
        return forced

    def dfs(idx, choices, rows, witness):
        if idx == len(pairs):
            if witness is None:
                witness = fraction_feasible([], nvars)
            minimal = dict.fromkeys(system_rows(choices, pairs, minimal=True))
            system = CriticalSystem(tuple(sorted(choices.items())),
                                    {key: node_mask(path[1:-1])
                                     for key, path in sorted(choices.items())})
            entries.append(FanEntry(system, tuple(minimal),
                                    maxoid_from_blockers(g.n, system.blockers), witness))
            return
        key = pairs[idx]
        if key in choices:
            dfs(idx + 1, choices, rows, witness)
            return
        for path in path_lists[key]:
            forced = propagate(choices, key, path)
            if forced is None:
                continue
            new_rows = [r for r in system_rows(choices, forced, False) if r not in rows]
            if witness is not None and in_open_cone(new_rows, witness):
                w = witness
            else:
                w = fraction_feasible([as_constraint(r) for r in rows + new_rows], nvars)
            if w is not None:
                dfs(idx + 1, choices, rows + new_rows, w)
            for k in forced:
                del choices[k]

    dfs(0, {}, [], None)
    return entries


# ---------------------------------------------------------------------------
# The replaced formula engine.  For a fixed graph, the weight vectors whose CI
# structure contains a statement form a finite union of polyhedra, described
# by a Boolean formula over strict homogeneous inequalities: the absence of
# every connecting shape, where the presence of a critical-DAG edge k->l
# given K is
#
#     AND over blocked k->l paths pi of  OR over unblocked pi' of  w(pi') > w(pi).
#
# An implication fails exactly when "all premises and some negated
# conclusion" is satisfiable.  The negation of a strict atom is the reversed
# non-strict atom, so counterexamples may lie on ties; the generic mode adds
# an explicit tie-exclusion conjunct.


class Formula:
    __slots__ = ()


class _TrueFormula(Formula):
    __slots__ = ()

    def __repr__(self):
        return "TRUE"


class _FalseFormula(Formula):
    __slots__ = ()

    def __repr__(self):
        return "FALSE"


TRUE = _TrueFormula()
FALSE = _FalseFormula()


@dataclass(frozen=True)
class Atom(Formula):
    constraint: Constraint

    def __repr__(self):
        return f"[{self.constraint}]"


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __repr__(self):
        return "(" + " & ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.parts)) + ")"


def f_and(parts: Iterable[Formula]) -> Formula:
    kept = []
    for p in parts:
        if p is FALSE:
            return FALSE
        if p is not TRUE:
            kept.append(p)
    if not kept:
        return TRUE
    return kept[0] if len(kept) == 1 else And(tuple(kept))


def f_or(parts: Iterable[Formula]) -> Formula:
    kept = []
    for p in parts:
        if p is TRUE:
            return TRUE
        if p is not FALSE:
            kept.append(p)
    if not kept:
        return FALSE
    return kept[0] if len(kept) == 1 else Or(tuple(kept))


def negate(f: Formula) -> Formula:
    """Negation normal form; strict atoms close to reversed non-strict ones."""
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Atom):
        return Atom(f.constraint.negated())
    if isinstance(f, And):
        return f_or(negate(p) for p in f.parts)
    if isinstance(f, Or):
        return f_and(negate(p) for p in f.parts)
    raise TypeError(f"not a formula: {f!r}")


def evaluate(f: Formula, point) -> bool:
    """Truth value of a formula at a concrete weight vector."""
    if f is TRUE:
        return True
    if f is FALSE:
        return False
    if isinstance(f, Atom):
        return f.constraint.holds_at(point)
    if isinstance(f, And):
        return all(evaluate(p, point) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate(p, point) for p in f.parts)
    raise TypeError(f"not a formula: {f!r}")


def _weight_atom(index, winner, loser) -> Formula:
    row = _path_comparison(index, winner, loser)
    if not any(row):
        return FALSE  # identical weight, never strictly larger
    return Atom(as_constraint(row))


def _edge_presence(g: Dag, index, K: frozenset[int], cache: dict, k: int, l: int) -> Formula:
    """Formula for "k->l is an edge of the critical DAG given K"."""
    key = (k, l)
    if key in cache:
        return cache[key]
    paths = enumerate_paths(g, k, l) if k != l else []
    if not paths:
        result: Formula = FALSE
    else:
        blocked = [p for p in paths if set(p[1:-1]) & K]
        free = [p for p in paths if not set(p[1:-1]) & K]
        result = f_and(
            f_or(_weight_atom(index, winner, loser) for winner in free)
            for loser in blocked
        )
    cache[key] = result
    return result


def polyci_formula(g: Dag, s: CiStatement) -> Formula:
    """Formula true exactly on the weight vectors whose CI structure contains
    s: the negated disjunction over all concrete instantiations of the five
    connecting shapes, with structural conditions resolved at build time."""
    if s.j > g.n:
        raise ValueError(f"statement {s} exceeds the graph's node set")
    index = {e: k for k, e in enumerate(g.sorted_edges)}
    K = s.L
    cache: dict = {}

    def edge(a: int, b: int) -> Formula:
        return _edge_presence(g, index, K, cache, a, b)

    def shape(*pairs: Edge) -> Formula:
        return f_and(edge(a, b) for a, b in pairs)

    i, j = s.i, s.j
    outside = [p for p in g.nodes if p not in K and p != i and p != j]
    conditioned = sorted(K)

    def shapes() -> Iterator[Formula]:
        yield edge(i, j)
        yield edge(j, i)
        for p in outside:
            yield shape((p, i), (p, j))
        for l in conditioned:
            yield shape((i, l), (j, l))
        for x, y in ((i, j), (j, i)):
            for p in outside:
                for l in conditioned:
                    yield shape((p, x), (p, l), (y, l))
        for p in outside:
            for q in outside:
                if p == q:
                    continue
                for l in conditioned:
                    yield shape((p, i), (p, l), (q, l), (q, j))

    # lazy: the first shape present at every weight ends the disjunction
    return negate(f_or(shapes()))


def genericity_formula(g: Dag) -> Formula:
    """Tie exclusion: every two distinct parallel paths differ in weight."""
    index = {e: k for k, e in enumerate(g.sorted_edges)}
    parts = []
    for i in g.nodes:
        for j in sorted(g.descendants(i)):
            paths = enumerate_paths(g, i, j)
            for a in range(len(paths)):
                for b in range(a + 1, len(paths)):
                    parts.append(f_or([
                        _weight_atom(index, paths[a], paths[b]),
                        _weight_atom(index, paths[b], paths[a]),
                    ]))
    return f_and(parts)


def satisfiable(f: Formula, nvars: int) -> tuple[Fraction, ...] | None:
    """Lazy DNF search over a formula in negation normal form, as negate
    leaves it: OR nodes branched in order, the running conjunction pruned by
    exact feasibility (fraction_feasible) before every branch.  Returns the
    first witness found; deterministic."""

    def search(pending: list[Formula], system: list[Constraint]) -> tuple[Fraction, ...] | None:
        pending = list(pending)
        system = list(system)
        while pending:
            item = pending.pop(0)
            if item is TRUE:
                continue
            if item is FALSE:
                return None
            if isinstance(item, Atom):
                system.append(item.constraint)
                continue
            if isinstance(item, And):
                pending[0:0] = item.parts
                continue
            if isinstance(item, Or):
                if fraction_feasible(system, nvars) is None:
                    return None
                for part in item.parts:
                    result = search([part] + pending, system)
                    if result is not None:
                        return result
                return None
            raise TypeError(f"not a formula: {item!r}")
        return fraction_feasible(system, nvars)

    return search([f], [])


def formula_implication(g: Dag, premises, conclusions, generic: bool = False) -> Verdict:
    """The replaced local engine: AND(premises) => OR(conclusions) over the
    structures of g decided by satisfiability of all premises, every
    negated conclusion and, in generic mode, tie exclusion, conjoined
    lazily in that order.  A counterexample is re-verified."""

    def parts() -> Iterator[Formula]:
        for p in premises:
            yield polyci_formula(g, p)
        for q in conclusions:
            yield negate(polyci_formula(g, q))
        if generic:
            yield genericity_formula(g)

    w = satisfiable(f_and(parts()), len(g.sorted_edges))
    if w is None:
        return Verdict(True)
    wd = WeightedDag(g, dict(zip(g.sorted_edges, w)))
    _verify_counterexample(wd, premises, conclusions, generic)
    return Verdict(False, wd)


def scan_implication(n: int, premises, conclusions, generic: bool = False,
                     closed_only: bool = False) -> Verdict:
    """The replaced global scan: decide every DAG on 1..n (every transitively
    closed one, with closed_only) with the formula engine, in mask order, and
    return the first counterexample."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for g in mask_loop_dags(n, pairs, closed_only=closed_only):
        verdict = formula_implication(g, premises, conclusions, generic)
        if not verdict.holds:
            return verdict
    return Verdict(True)


@cache
def _structures(g: Dag, include_faces: bool) -> tuple:
    """Every (structure, weights) pair of g, its cones' then its faces',
    memoized per process."""
    return tuple(pair for batch in graph_structures(g, include_faces) for pair in batch)


def per_graph_scan_implication(scope, premises: Sequence[CiStatement],
                               conclusions: Sequence[CiStatement],
                               generic: bool = False) -> Verdict:
    """The replaced lookup: every graph's cone and face structures, graph by
    graph, each tried under every relabeling of the query's statement masks,
    duplicates included; the first match gives the counterexample."""
    premises = list(premises)
    conclusions = list(conclusions)
    if not premises and not conclusions:
        raise ValueError("nothing to decide")
    if isinstance(scope, Dag):
        n, graphs, labels = scope.n, [scope], [tuple(range(scope.n + 1))]
    else:
        n = int(scope)
        graphs = top_ordered_closed_dags(n)
        labels = [(0, *p) for p in permutations(range(1, n + 1))]
    _check_nodes(n, premises, conclusions)
    # under label, the query on the relabeled graph is this query on the
    # graph: its premise and conclusion statements as bitmasks
    queries = []
    for label in labels:
        back = [0] * (n + 1)
        for v, x in enumerate(label):
            back[x] = v
        queries.append((label, Maxoid(n, (relabeled_statement(p, back) for p in premises)).bits,
                        Maxoid(n, (relabeled_statement(q, back) for q in conclusions)).bits))
    for g in graphs:
        for m, weights in _structures(g, not generic):
            bits = m.bits
            for label, prem, conc in queries:
                if bits & prem == prem and not bits & conc:
                    w = _counterexample_weights(g, weights, label, isinstance(scope, Dag),
                                                generic)
                    wd = WeightedDag(Dag(n, w), w)
                    _verify_counterexample(wd, premises, conclusions, generic)
                    return Verdict(False, wd)
    return Verdict(True)


def relabeled_statement(s: CiStatement, label: Sequence[int]) -> CiStatement:
    """s with node v renamed label[v]."""
    return CiStatement(label[s.i], label[s.j], frozenset(label[k] for k in s.L))


def per_graph_census(family: TdagFamily, include_faces: bool
                     ) -> tuple[set[Maxoid], set[Maxoid]]:
    """The replaced census loop: (generic structures, all structures) with
    one fan search, and with include_faces one face lattice, per graph of
    the family."""
    generic: set[Maxoid] = set()
    everything: set[Maxoid] = set()
    for g in family.graphs:
        data = graph_maxoids(g, include_faces)
        for bits in data["generic"]:
            m = Maxoid.from_bits(family.n, bits)
            generic.add(m)
            everything.add(m)
        if include_faces:
            everything.update(Maxoid.from_bits(family.n, bits) for bits in data["faces"])
    return generic, everything


class NonGenericError(ValueError):
    """Raised when an operation requires a tie-free weight vector."""


def cone_of(wd: WeightedDag, minimal: bool = False) -> tuple[tuple[int, ...], ...]:
    """The replaced second path to a cone's rows: the strict rows of the open
    cone of weight vectors sharing wd's critical paths, one per (pair,
    non-critical path), taken from tropical.critical_paths.

    With minimal=True only comparisons between internally disjoint paths are
    kept; comparisons through a shared intermediate node are implied by the
    sub-pair comparisons, so both forms cut out the same open set.
    """
    if not is_generic(wd):
        raise NonGenericError("cone description requires tie-free weights")
    g = wd.g
    index = _edge_index(g)
    rows: dict[tuple[int, ...], None] = {}
    for i, j in _connected_pairs(g):
        crit = critical_paths(wd, i, j)[0]
        rows.update(dict.fromkeys(_pair_rows(g, index, (i, j), crit, minimal)))
    return tuple(rows)


def echelon_lineality_dimension(g: Dag) -> int:
    """The replaced lineality dimension: |E| minus the rank of the
    comparison rows of every internally disjoint pair of parallel paths."""
    index = _edge_index(g)
    normals = []
    for i, j in _connected_pairs(g):
        paths = enumerate_paths(g, i, j)
        for a in range(len(paths)):
            for b in range(a + 1, len(paths)):
                if _internally_disjoint(paths[a], paths[b]):
                    normals.append(_path_comparison(index, paths[a], paths[b]))
    if not normals:
        return len(index)
    return len(index) - rank_of(normals)

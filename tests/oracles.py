"""Independent test oracles: the register, one entry per concept.

An oracle recomputes a result from first principles or by an algorithm the
package replaced, and imports no helper of the function it checks.  It
goes only when another such oracle checks that function on a superset of
its inputs and mutations.  Each entry: oracles -> checked function; tests.

- Critical DAG. critical_dag_by_paths (every path), kleene_critical_edges
  (proper Kleene star) -> separation.critical_dag; test_separation
  test_critical_dag_matches_*, test_acceptance criterion 7c.
- Separation. kleene_maxoid (a critical DAG and set-based shape search
  per conditioning set) -> separation.maxoid and the cone and face
  structures; test_separation test_cone_and_face_structures_*,
  test_maxoid_matches_oracle_*, test_fan warm-started search.
  d_separated (textbook) -> every d-separation lies in the maxoid;
  test_maxoid_contains_all_d_separations, criterion 8.
- Kernel. per_subset_maxoid_from_blockers (one bitmask shape search per
  conditioning set) -> separation.maxoid_from_blockers on any blocker map;
  test_separation test_all_subsets_engine_*, test_packed_kernel_*.
- Reduction. star_transitive_reduction -> weighted_transitive_reduction;
  test_weighted_transitive_reduction_matches_the_kleene_star_maximum.
- Kleene star. tropical_matmul -> tropical.kleene_star; test_tropical
  test_star_idempotent_*, criterion 7c.
- Feasibility. fm_feasible (Fourier-Motzkin), fraction_feasible (two-phase
  Fraction simplex, witness checked) -> StrictTableau's verdicts and each
  other; FullStrictTableau (a column per variable) -> its pivots, points,
  bases and dictionary; test_linarith test_agrees_with_fourier_motzkin,
  *_fraction_simplex*, *_full_width_tableau*, test_half_width_*,
  test_packed_tableau_*.
- Echelon. fraction_echelon, with nullspace and affine_dimension on it ->
  linarith._echelon and the ranks read off it, polytope dimensions;
  test_linarith test_integer_echelon_*, test_nullspace_*, test_rank_*,
  criterion 3.
  polytope._simplex_rays is checked from its definition, without one.
- Fan. cold_lp_maximal_cones (one cold LP per search node) ->
  enumerate_maximal_cones; test_warm_started_search_matches_the_cold_lp_*
  on closed TDAGs and relabeled graphs.  cone_of (rows off the critical
  paths of a tie-free weight) and echelon_lineality_dimension (every
  disjoint path pair) -> lineality_dimension; test_fan test_cone_of_*,
  test_lineality_*, test_cli dict-tree tests.  All three take their pair
  order and rows from shortest_first_pairs and comparison_row.
- Polytope. hull_facet_incidences (Fraction-started double description)
  -> _facet_incidences; pairwise_face_lattice -> face_lattice;
  lp_face_maxoid, lp_cone_adjacency (one LP per face, per cone pair) ->
  face normals, face_maxoid, cone_adjacency; test_polytope *_pairwise_*,
  *_replaced_hull, *_lp_oracles.
- Implication. The formula engine (polyci_formula, genericity_formula,
  satisfiable; formula_implication per graph, scan_implication over all)
  -> decide_implication's verdicts; test_implication *_formula_oracle*,
  *_mask_loop_oracle, test_polyci_*.  per_graph_scan_implication (every
  graph, every relabeling) -> its counterexamples, which the formula
  engine does not pin; test_index_scan_*, two index tests.  Both verify
  a counterexample with kleene_maxoid.
- Census. per_graph_census (one fan and lattice per graph) ->
  census_structures, whose systems fan.restricted_systems reads off the
  complete fan; test_class_census_*.  The subgraph's own
  enumerate_maximal_cones, checked above -> restricted_systems;
  test_fan test_restricted_systems_*.
- Graph families. mask_loop_dags (a Dag per edge mask, kept when it is
  its own transitive closure) -> graph.closed_dag_masks and the families'
  order; test_*_mask_loop_order.  closed_dags lists that family for other
  tests.  isomorphism_classes (the replaced class finder: frozensets of
  edge tuples renamed through each representative's linear_extensions) ->
  graph.mask_classes; test_graph test_mask_classes_match_the_edge_set_*,
  test_isomorphism_classes_of_a_sub_family_*.
- Closure rules. looped_* (one loop body per rule) -> the axioms
  checkers; test_checkers_match_the_looped_oracle.
- Output. dict_tree_fan_output, dict_tree_polytope_output (one json.dumps
  of one dict tree) -> fan and polytope stdout; test_cli *_dict_tree_*.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, islice, permutations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from maxoid.axioms import ViolationReport
from maxoid.fan import CriticalSystem, FanEntry
from maxoid.graph import (
    Dag,
    Edge,
    Path,
    enumerate_paths,
    transitive_closure,
)
from maxoid.census import TdagFamily
from maxoid.implication import Verdict
from maxoid.polytope import Face, FaceLattice, graph_structures
from maxoid.separation import CiStatement, Maxoid, break_ties
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
            table.append((sum(1 << v for v in L), tuple(CiStatement(i, j, Ls)
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
    """The replaced maxoid_from_blockers: all separation statements on 1..n
    of the critical DAGs whose edges k->l are the keys of blockers, each
    kept given L exactly when L misses the bitmask blockers[(k, l)]."""
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


def primitive_row(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The positive multiple of a rational vector whose entries are
    coprime integers; the zero vector stays zero."""
    fractions = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in fractions))
    ints = [int(x * scale) for x in fractions]
    common = gcd(*ints) or 1
    return tuple(x // common for x in ints)


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
        *ints, const = primitive_row([c for _, c in terms] + [const])
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
        self.witness = tuple(map(Fraction, self.point))

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
        if d <= 0 or not in_open_cone(new.rows, new.point):
            raise AssertionError(f"point {new.point} / {d} leaves the open cone of {new.rows}")
        new.witness = tuple(Fraction(x, d) for x in new.point)
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


def star_transitive_reduction(wd: WeightedDag) -> WeightedDag:
    """The replaced weighted transitive reduction: keep an edge exactly
    when its weight beats every path through a third node, the best of
    which is read off the proper Kleene star."""
    a = kleene_star(wd, proper=True)
    keep = []
    for (u, v), x in wd.w.items():
        best_through = max(
            (a.entry(u, m) + a.entry(m, v) for m in wd.g.nodes if m != u and m != v),
            default=NEG_INF,
        )
        if best_through < x:
            keep.append((u, v))
    g2 = Dag(wd.g.n, keep)
    return WeightedDag(g2, {e: wd.w[e] for e in keep})


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
        ray = primitive_row(line)
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
                newly.append(primitive_row([vals[rp] * b - vals[rm] * a for a, b in zip(rp, rm)]))
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
    rays = hull_dd_extreme_rays([primitive_row([m] + [-x for x in p]) for p in shifted], dim + 1)
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
    members = [v for v in range(face.mask.bit_length()) if face.mask >> v & 1]
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
        if face.mask >> u & 1:
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
        ok = val == score if face.mask >> u & 1 else val < score
        if not ok:
            raise AssertionError("normal-cone functional failed exact re-verification")
    return kleene_maxoid(WeightedDag(g, dict(zip(g.sorted_edges, c))))


def pairwise_face_lattice(coords: list[tuple[int, ...]]) -> FaceLattice:
    """The replaced face lattice: every nonempty intersection of facets found
    by a frontier walk over frozensets, one Fraction affine_dimension per face
    and a test of every pair of faces for a cover (one dimension apart, the
    smaller vertex set strictly inside the larger), on the facets of the
    replaced hull, hull_facet_incidences; each face is returned as a vertex
    mask."""
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

    dims = {s: face_dim(s) for s in sets}
    order = sorted(sets, key=lambda s: (dims[s], sorted(s)))
    covers = [(a, b) for a, sa in enumerate(order) for b, sb in enumerate(order)
              if dims[sb] == dims[sa] + 1 and sa < sb]
    faces = tuple(Face(sum(1 << v for v in s), dims[s], normal(s)) for s in order)
    return FaceLattice(faces, tuple(covers))


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


def dict_tree_fan_output(g: Dag, entries: Sequence[FanEntry], lineality: int,
                         adjacency: Sequence[tuple[int, int]] | None = None,
                         pretty: bool = False) -> str:
    """The replaced `fan` output, stdout text with its final newline: the
    whole document as one dict tree encoded by one json.dumps, or the
    --pretty lines; adjacency None leaves the key out."""
    cones = [{
        "critical_paths": [{"pair": list(pq), "path": list(p)} for pq, p in e.system.choices],
        "inequalities": [list(row) for row in e.inequalities],
        "witness": [str(x) for x in e.witness],
        "maxoid": e.maxoid.to_json(),
    } for e in entries]
    data = {
        "edges": [list(e) for e in g.sorted_edges],
        "lineality_dimension": lineality,
        "cones": cones,
    }
    if adjacency is not None:
        data["adjacency"] = [list(p) for p in adjacency]
    if pretty:
        lines = [f"{len(cones)} maximal cones, lineality dimension {lineality}"]
        lines += [f"cone {k}: maxoid {{{'; '.join(c['maxoid'])}}}" for k, c in enumerate(cones)]
        return "\n".join(lines) + "\n"
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def dict_tree_polytope_output(g: Dag, coords: Sequence[tuple[int, ...]], lattice: FaceLattice,
                              structures: Sequence[Maxoid] | None = None,
                              pretty: bool = False) -> str:
    """The replaced `polytope` output, stdout text with its final newline:
    the whole document as one dict tree encoded by one json.dumps, or the
    --pretty line; structures None leaves face_maxoids out."""
    fvec = list(lattice.f_vector())
    if pretty:
        return f"dim {lattice.dim}, {len(coords)} vertices, f-vector {tuple(fvec)}\n"
    data = {
        "edges": [list(e) for e in g.sorted_edges],
        "dim": lattice.dim,
        "vertices": [list(p) for p in coords],
        "f_vector": fvec,
        "faces": [{"dim": f.dim, "vertices": [v for v in range(f.mask.bit_length())
                                               if f.mask >> v & 1]}
                  for f in lattice.faces],
    }
    if structures is not None:
        data["face_maxoids"] = [m.to_json() for m in structures]
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


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


def closed_dags(n: int) -> list[Dag]:
    """Every transitively closed DAG on 1..n with upward edges, in
    increasing order of its edge mask over the pairs i < j."""
    return list(mask_loop_dags(n, list(combinations(range(1, n + 1), 2)), closed_only=True))


def linear_extensions(g: Dag) -> Iterator[tuple[int, ...]]:
    """Every topological order of g, in lexicographic order."""
    parents = [0] * (g.n + 1)
    for u, v in g.edges:
        parents[v] |= 1 << u
    every = sum(1 << v for v in g.nodes)

    def extend(placed: int, order: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if placed == every:
            yield order
            return
        for v in g.nodes:
            if not placed >> v & 1 and parents[v] & placed == parents[v]:
                yield from extend(placed | 1 << v, order + (v,))

    return extend(0, ())


def isomorphism_classes(graphs: Iterable[Dag]) -> Iterator[tuple[Dag, list[tuple[int, ...]]]]:
    """The replaced class finder on Dags: the graphs, with upward edges,
    grouped by isomorphism as (representative, labels) per class, in input
    order of the representatives, each the first member of its class.  The
    labels are those of the representative's linear extensions whose
    renamed edge set, a frozenset of edge tuples, is an input graph not
    reached before."""
    graphs = list(graphs)
    place = {g.edges: k for k, g in enumerate(graphs)}
    reached = [False] * len(graphs)
    for k, g in enumerate(graphs):
        if reached[k]:
            continue
        labels = []
        for order in linear_extensions(g):
            label = [0] * (g.n + 1)
            for new, v in enumerate(order, 1):
                label[v] = new
            member = place.get(frozenset((label[u], label[v]) for u, v in g.edges))
            if member is not None and not reached[member]:
                reached[member] = True
                labels.append(tuple(label))
        yield g, labels


def comparison_row(edges: Sequence[Edge], winner: Path, loser: Path) -> tuple[int, ...]:
    """The row of weight(winner) - weight(loser) > 0 over the coordinates
    edges: +1 on an edge of winner alone, -1 on one of loser alone."""
    on_winner, on_loser = set(zip(winner, winner[1:])), set(zip(loser, loser[1:]))
    return tuple((e in on_winner) - (e in on_loser) for e in edges)


def shortest_first_pairs(g: Dag) -> list[tuple[int, int]]:
    """The ordered pairs (i, j) joined by a directed i->j path, by the
    length of a shortest one, found breadth first, then lexicographically."""
    pairs = []
    for i in g.nodes:
        seen, frontier, length = {i}, [i], 0
        while frontier:
            length += 1
            reached = []
            for u in frontier:
                for v in g.children(u):
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
            pairs += [(length, i, j) for j in reached]
            frontier = reached
    return [(i, j) for _, i, j in sorted(pairs)]


def _internally_disjoint(p: Path, q: Path) -> bool:
    return not (set(p[1:-1]) & set(q[1:-1]))


def _pair_rows(g: Dag, key, chosen: Path, minimal: bool) -> list[tuple[int, ...]]:
    """The replaced per-path row builder: one strict row per key path other
    than chosen that chosen must beat, from a fresh enumeration of the
    pair's paths; with minimal=True only the internally disjoint ones."""
    edges = g.sorted_edges
    return [comparison_row(edges, chosen, p) for p in enumerate_paths(g, *key)
            if p != chosen and (not minimal or _internally_disjoint(chosen, p))]


def over_common_denominator(point: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, den) with den the least common denominator of point."""
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def cold_lp_maximal_cones(g: Dag) -> list[FanEntry]:
    """The replaced fan search: the same depth-first search over per-pair
    path choices, where a child whose new rows the parent's witness fails
    solves its whole system from scratch with the two-phase simplex."""
    nvars = len(g.edges)
    pairs = shortest_first_pairs(g)
    path_lists = {pq: enumerate_paths(g, *pq) for pq in pairs}
    entries: list[FanEntry] = []

    def system_rows(choices, keys, minimal):
        return [row for key in keys
                for row in _pair_rows(g, key, choices[key], minimal)]

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
                                    {key: sum(1 << v for v in path[1:-1])
                                     for key, path in sorted(choices.items())})
            entries.append(FanEntry(system, tuple(minimal),
                                    per_subset_maxoid_from_blockers(g.n, system.blockers),
                                    *over_common_denominator(witness)))
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


def _weight_atom(edges, winner, loser) -> Formula:
    row = comparison_row(edges, winner, loser)
    if not any(row):
        return FALSE  # identical weight, never strictly larger
    return Atom(as_constraint(row))


def _edge_presence(g: Dag, edges, K: frozenset[int], cache: dict, k: int, l: int) -> Formula:
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
            f_or(_weight_atom(edges, winner, loser) for winner in free)
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
    edges = g.sorted_edges
    K = s.L
    cache: dict = {}

    def edge(a: int, b: int) -> Formula:
        return _edge_presence(g, edges, K, cache, a, b)

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
    edges = g.sorted_edges
    parts = []
    for i in g.nodes:
        for j in sorted(g.descendants(i)):
            paths = enumerate_paths(g, i, j)
            for a in range(len(paths)):
                for b in range(a + 1, len(paths)):
                    parts.append(f_or([
                        _weight_atom(edges, paths[a], paths[b]),
                        _weight_atom(edges, paths[b], paths[a]),
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
    return _checked_counterexample(WeightedDag(g, dict(zip(g.sorted_edges, w))),
                                   premises, conclusions, generic)


def _checked_counterexample(wd: WeightedDag, premises, conclusions, generic: bool) -> Verdict:
    """The failing verdict with counterexample wd, after kleene_maxoid
    shows that its structure holds every premise and no conclusion, and,
    in generic mode, that wd has no tie."""
    m = kleene_maxoid(wd)
    if (not all(p in m for p in premises) or any(q in m for q in conclusions)
            or generic and not is_generic(wd)):
        raise AssertionError(f"{wd} is no counterexample")
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
    """Every (structure, weight numerators, denominator) of g, its cones'
    then its faces', memoized per process."""
    return tuple(pair for batch in islice(graph_structures(g), 2 if include_faces else 1)
                 for pair in batch)


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
        graphs = closed_dags(n)
        labels = [(0, *p) for p in permutations(range(1, n + 1))]
    for s in (*premises, *conclusions):
        if not all(1 <= v <= n for v in (s.i, s.j, *s.L)):
            raise ValueError(f"statement {s} references nodes outside 1..{n}")
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
        for m, weights, den in _structures(g, not generic):
            bits = m.bits
            for label, prem, conc in queries:
                if bits & prem == prem and not bits & conc:
                    # the weights renamed by label, reduced in global modes
                    # and tie-broken in generic mode
                    w = {(label[u], label[v]): Fraction(x, den)
                         for (u, v), x in zip(g.sorted_edges, weights)}
                    wd = WeightedDag(Dag(n, w), w)
                    if not isinstance(scope, Dag):
                        wd = star_transitive_reduction(wd)
                    if generic and not is_generic(wd):
                        wd = break_ties(wd)
                    return _checked_counterexample(wd, premises, conclusions, generic)
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
        batches = graph_structures(g)
        generic.update(m for m, _, _ in next(batches))
        if include_faces:
            everything.update(m for m, _, _ in next(batches))
    return generic, everything | generic


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
    rows: dict[tuple[int, ...], None] = {}
    for i, j in shortest_first_pairs(g):
        crit = critical_paths(wd, i, j)[0]
        rows.update(dict.fromkeys(_pair_rows(g, (i, j), crit, minimal)))
    return tuple(rows)


def echelon_lineality_dimension(g: Dag) -> int:
    """The replaced lineality dimension: |E| minus the rank of the
    comparison rows of every internally disjoint pair of parallel paths."""
    edges = g.sorted_edges
    normals = []
    for i, j in shortest_first_pairs(g):
        paths = enumerate_paths(g, i, j)
        for a in range(len(paths)):
            for b in range(a + 1, len(paths)):
                if _internally_disjoint(paths[a], paths[b]):
                    normals.append(comparison_row(edges, paths[a], paths[b]))
    return len(edges) - len(fraction_echelon(normals)[2])


def _ci_membership(m: Maxoid):
    """holds(i, j, L): whether (i, j | L) is in m, through CiStatement lookup."""
    return lambda i, j, L: CiStatement(i, j, L) in m


def _pairwise(holds, I, J, L) -> bool:
    """Set statement (I, J | L) via the pairwise reduction; empty sides hold."""
    return all(holds(i, j, L) for i in I for j in J)


def _role_groups(nodes, roles: int):
    """Partition maps node -> role index (the last role means 'unused')."""
    for assignment in product(range(roles + 1), repeat=len(nodes)):
        yield [frozenset(v for v, r in zip(nodes, assignment) if r == k)
               for k in range(roles)]


def _stmts(I, J, L) -> tuple[CiStatement, ...]:
    return tuple(sorted((CiStatement(i, j, L) for i in I for j in J),
                        key=lambda s: s.sort_key))


def _report(rule, inst, m, premises, conclusion) -> ViolationReport:
    missing = tuple(s for s in conclusion if s not in m)
    return ViolationReport(rule, inst, premises, missing)


def _from_triples(*triples) -> tuple[CiStatement, ...]:
    return tuple(CiStatement(*t) for t in triples)


def looped_compositional_graphoid(m: Maxoid) -> list[ViolationReport]:
    """The replaced check_compositional_graphoid, one loop body per rule."""
    holds = _ci_membership(m)
    nodes = list(range(1, m.n + 1))
    out: list[ViolationReport] = []
    for I, J, K, L in _role_groups(nodes, 4):
        if not I or not J or not K:
            continue
        inst = (("I", I), ("J", J), ("K", K), ("L", L))
        ij_l = _pairwise(holds, I, J, L)
        ik_jl = _pairwise(holds, I, K, J | L)
        ijk_l = _pairwise(holds, I, J | K, L)
        ik_l = _pairwise(holds, I, K, L)
        ij_kl = _pairwise(holds, I, J, K | L)
        if ij_l and ik_jl and not ijk_l:
            out.append(_report("semigraphoid-forward", inst, m,
                               premises=_stmts(I, J, L) + _stmts(I, K, J | L),
                               conclusion=_stmts(I, J | K, L)))
        if ijk_l and not (ij_l and ik_jl):
            out.append(_report("semigraphoid-backward", inst, m,
                               premises=_stmts(I, J | K, L),
                               conclusion=_stmts(I, J, L) + _stmts(I, K, J | L)))
        if sorted(J) < sorted(K):
            if ij_kl and ik_jl and not ijk_l:
                out.append(_report("intersection", inst, m,
                                   premises=_stmts(I, J, K | L) + _stmts(I, K, J | L),
                                   conclusion=_stmts(I, J | K, L)))
            if ij_l and ik_l and not ijk_l:
                out.append(_report("composition", inst, m,
                                   premises=_stmts(I, J, L) + _stmts(I, K, L),
                                   conclusion=_stmts(I, J | K, L)))
    return out


def looped_amalgamation(m: Maxoid) -> list[ViolationReport]:
    """The replaced check_amalgamation."""
    holds = _ci_membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for i, j in combinations(nodes, 2):
        rest = [v for v in nodes if v != i and v != j]
        for K, L, M in _role_groups(rest, 3):
            if sorted(L) < sorted(K):
                continue
            if holds(i, j, K | M) and holds(i, j, L | M) and not holds(i, j, K | L | M):
                out.append(ViolationReport(
                    "amalgamation",
                    (("i", i), ("j", j), ("K", K), ("L", L), ("M", M)),
                    (CiStatement(i, j, K | M), CiStatement(i, j, L | M)),
                    (CiStatement(i, j, K | L | M),)))
    return out


def looped_strong_spohn(m: Maxoid, original_premise: bool = False) -> list[ViolationReport]:
    """The replaced check_strong_spohn."""
    holds = _ci_membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for quad in combinations(nodes, 4):
        rest = [v for v in nodes if v not in quad]
        for size in range(len(rest) + 1):
            for M_tuple in combinations(rest, size):
                M = frozenset(M_tuple)
                for k, l in combinations(quad, 2):
                    ij = [v for v in quad if v != k and v != l]
                    i, j = ij
                    p1 = (i, j, M | {k, l})
                    p2 = (k, l, M | {i})
                    p3 = (k, l, M | {j})
                    c = (k, l, M)
                    if holds(*p1) and holds(*p2) and holds(*p3) and not holds(*c):
                        out.append(ViolationReport(
                            "strong-spohn-1",
                            (("i", i), ("j", j), ("k", k), ("l", l), ("M", M)),
                            _from_triples(p1, p2, p3), _from_triples(c)))
                    for i, j in ((ij[0], ij[1]), (ij[1], ij[0])):
                        premises = [(i, j, M | {k, l}), (k, l, M | {i}), (k, l, M)]
                        if original_premise:
                            premises.append((k, l, M | {i, j}))
                        c2 = (k, l, M | {j})
                        if all(holds(*p) for p in premises) and not holds(*c2):
                            out.append(ViolationReport(
                                "strong-spohn-2",
                                (("i", i), ("j", j), ("k", k), ("l", l), ("M", M)),
                                _from_triples(*premises), _from_triples(c2)))
    return out


def looped_weak_transitivity(m: Maxoid) -> list[ViolationReport]:
    """The replaced check_weak_transitivity."""
    holds = _ci_membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for i, j in combinations(nodes, 2):
        for k in nodes:
            if k == i or k == j:
                continue
            rest = [v for v in nodes if v not in (i, j, k)]
            for size in range(len(rest) + 1):
                for L_tuple in combinations(rest, size):
                    L = frozenset(L_tuple)
                    p1, p2 = (i, j, L), (i, j, L | {k})
                    d1, d2 = (i, k, L), (j, k, L)
                    h1, h2, g1, g2 = holds(*p1), holds(*p2), holds(*d1), holds(*d2)
                    inst = (("i", i), ("j", j), ("k", k), ("L", L))
                    if h1 and h2 and not g1 and not g2:
                        out.append(ViolationReport(
                            "weak-transitivity-forward", inst,
                            _from_triples(p1, p2), _from_triples(d1, d2)))
                    if (g1 or g2) and not (h1 and h2):
                        present = [d for d, g in ((d1, g1), (d2, g2)) if g]
                        absent = [p for p, h in ((p1, h1), (p2, h2)) if not h]
                        out.append(ViolationReport(
                            "weak-transitivity-backward", inst,
                            _from_triples(*present), _from_triples(*absent)))
    return out

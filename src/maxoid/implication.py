"""CI implication decided by exact polyhedral feasibility.

For a fixed graph, the weight vectors whose CI structure contains a given
statement form a finite union of polyhedra, described by a Boolean formula
over strict homogeneous inequalities: the absence of every connecting shape,
where the presence of a critical-DAG edge k->l given K is

    AND over blocked k->l paths pi of  OR over unblocked pi' of  w(pi') > w(pi).

An implication fails exactly when "all premises and some negated conclusion"
is satisfiable; the satisfying weight vector is the counterexample, and it is
re-verified through the separation machinery before being returned.  The
negation of a strict atom is the reversed non-strict atom, so counterexamples
may lie on weight ties; the generic modes add an explicit tie-exclusion
conjunct.  Global modes quantify over graphs on a fixed labeled node set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .fan import _path_comparison
from .graph import Dag, enumerate_paths, transitive_closure
from .linarith import Constraint, Witness, feasible
from .separation import CiStatement, maxoid
from .tropical import WeightedDag, is_generic


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


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def __repr__(self):
        return f"~{self.inner!r}"


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
    if isinstance(f, Not):
        return _strip_not(f.inner)
    raise TypeError(f"not a formula: {f!r}")


def _strip_not(f: Formula) -> Formula:
    if isinstance(f, And):
        return f_and(_strip_not(p) for p in f.parts)
    if isinstance(f, Or):
        return f_or(_strip_not(p) for p in f.parts)
    if isinstance(f, Not):
        return negate(f.inner)
    return f


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
    if isinstance(f, Not):
        return not evaluate(f.inner, point)
    raise TypeError(f"not a formula: {f!r}")


def _weight_atom(index, winner, loser) -> Formula:
    row = _path_comparison(index, winner, loser)
    if not row.expr.terms:
        return FALSE  # identical weight, never strictly larger
    return Atom(row)


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

    i, j = s.i, s.j
    outside = [p for p in g.nodes if p not in K and p != i and p != j]
    shapes: list[Formula] = [edge(i, j), edge(j, i)]
    for p in outside:
        shapes.append(f_and([edge(p, i), edge(p, j)]))
    for l in sorted(K):
        shapes.append(f_and([edge(i, l), edge(j, l)]))
    for x, y in ((i, j), (j, i)):
        for p in outside:
            for l in sorted(K):
                shapes.append(f_and([edge(p, x), edge(p, l), edge(y, l)]))
    for p in outside:
        for q in outside:
            if p == q:
                continue
            for l in sorted(K):
                shapes.append(f_and([edge(p, i), edge(p, l), edge(q, l), edge(q, j)]))
    return negate(f_or(shapes))


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


def satisfiable(f: Formula, nvars: int) -> Witness | None:
    """Lazy DNF search: negations pushed to atoms, OR nodes branched in
    order, the running conjunction pruned by exact feasibility before every
    branch.  Returns the first witness found; deterministic."""
    f = _strip_not(f)

    def search(pending: list[Formula], system: list[Constraint]) -> Witness | None:
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
                if feasible(system, nvars) is None:
                    return None
                for part in item.parts:
                    result = search([part] + pending, system)
                    if result is not None:
                        return result
                return None
            raise TypeError(f"not a formula: {item!r}")
        return feasible(system, nvars)

    return search([f], [])


@dataclass(frozen=True)
class Verdict:
    """Outcome of an implication query; counterexamples carry a full weighted
    DAG whose CI structure satisfies every premise and no conclusion."""

    holds: bool
    counterexample: WeightedDag | None = None


def all_dags(n: int) -> Iterator[Dag]:
    """Every labeled DAG on nodes 1..n, in a fixed enumeration order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        try:
            yield Dag(n, edges)
        except ValueError:
            continue


def all_transitively_closed_dags(n: int) -> Iterator[Dag]:
    for g in all_dags(n):
        if transitive_closure(g) == g:
            yield g


def _local_formula(g: Dag, premises, conclusions, generic: bool) -> Formula:
    parts = [polyci_formula(g, p) for p in premises]
    parts += [negate(polyci_formula(g, q)) for q in conclusions]
    if generic:
        parts.append(genericity_formula(g))
    return f_and(parts)


def _verify_counterexample(wd: WeightedDag, premises, conclusions, generic: bool) -> None:
    m = maxoid(wd)
    for p in premises:
        if p not in m:
            raise RuntimeError(f"counterexample fails premise {p}")
    for q in conclusions:
        if q in m:
            raise RuntimeError(f"counterexample satisfies conclusion {q}")
    if generic and not is_generic(wd):
        raise RuntimeError("counterexample for a generic-mode query has a weight tie")


def decide_implication(scope, premises: Sequence[CiStatement],
                       conclusions: Sequence[CiStatement],
                       generic: bool = False,
                       graph_family: str = "auto") -> Verdict:
    """Decide AND(premises) => OR(conclusions) over CI structures.

    scope: a Dag restricts to the structures of that graph (local modes); an
    integer node count quantifies over all graphs on 1..n (global modes).
    generic=True restricts to tie-free weight vectors.

    Global modes iterate graphs and return the first counterexample.  It is
    enough to search transitively closed DAGs, since every CI structure also
    arises on the transitive closure of its graph; graph_family picks the
    space: "posets" (transitively closed only), "all", or "auto" (all DAGs
    up to 4 nodes for smaller counterexamples, posets beyond).
    """
    premises = list(premises)
    conclusions = list(conclusions)
    if not premises and not conclusions:
        raise ValueError("nothing to decide")
    if isinstance(scope, Dag):
        n = scope.n
        _check_nodes(n, premises, conclusions)
        f = _local_formula(scope, premises, conclusions, generic)
        w = satisfiable(f, len(scope.sorted_edges))
        if w is None:
            return Verdict(True)
        wd = WeightedDag(scope, dict(zip(scope.sorted_edges, w.point)))
        _verify_counterexample(wd, premises, conclusions, generic)
        return Verdict(False, wd)
    n = int(scope)
    _check_nodes(n, premises, conclusions)
    if graph_family == "auto":
        graph_family = "all" if n <= 4 else "posets"
    if graph_family == "all":
        graphs: Iterable[Dag] = all_dags(n)
    elif graph_family == "posets":
        graphs = all_transitively_closed_dags(n)
    else:
        raise ValueError(f"unknown graph family {graph_family!r}")
    for g in graphs:
        verdict = decide_implication(g, premises, conclusions, generic=generic)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def _check_nodes(n: int, premises, conclusions) -> None:
    for s in (*premises, *conclusions):
        if s.j > n or any(k > n for k in s.L):
            raise ValueError(f"statement {s} references nodes outside 1..{n}")

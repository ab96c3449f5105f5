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
conjunct.  The conjuncts of a local query are built lazily, premises first,
so a premise that no weight vector of the graph satisfies ends the query
before any conclusion or tie exclusion is built.

Global modes quantify over graphs on a fixed labeled node set.  Since every
CI structure of a graph also arises on its transitive closure, a graph is
decided only when its closure, decided once per query, fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .fan import _path_comparison
from .graph import Dag, Edge, acyclic_edge_sets, enumerate_paths
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
    if not row.terms:
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


def satisfiable(f: Formula, nvars: int) -> Witness | None:
    """Lazy DNF search over a formula in negation normal form, as negate
    leaves it: OR nodes branched in order, the running conjunction pruned by
    exact feasibility before every branch.  Returns the first witness found;
    deterministic."""

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


def _dag_family(n: int, graph_family: str
                ) -> Iterator[tuple[tuple[Edge, ...], tuple[Edge, ...]]]:
    """(edges, closure edges) of every DAG on nodes 1..n ("all") or of every
    transitively closed one ("posets"), in increasing order of the edge
    bitmask over the ordered node pairs."""
    if graph_family not in ("all", "posets"):
        raise ValueError(f"unknown graph family {graph_family!r}")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for edges, closure in acyclic_edge_sets(n, pairs):
        if graph_family == "all" or len(edges) == len(closure):
            yield edges, closure


def all_dags(n: int) -> Iterator[Dag]:
    """Every labeled DAG on nodes 1..n, in a fixed enumeration order."""
    return (Dag(n, edges) for edges, _ in _dag_family(n, "all"))


def all_transitively_closed_dags(n: int) -> Iterator[Dag]:
    return (Dag(n, edges) for edges, _ in _dag_family(n, "posets"))


def _local_formula(g: Dag, premises, conclusions, generic: bool) -> Formula:
    """The conjunction of all premises, every negated conclusion and, in
    generic mode, tie exclusion; built lazily in that order, so nothing is
    built after the first conjunct that is FALSE."""
    def parts() -> Iterator[Formula]:
        for p in premises:
            yield polyci_formula(g, p)
        for q in conclusions:
            yield negate(polyci_formula(g, q))
        if generic:
            yield genericity_formula(g)

    return f_and(parts())


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

    Global modes scan graphs in the order of all_dags and return the first
    counterexample, the one the local mode finds on the first graph that has
    one.  Every CI structure of a graph g also arises on its transitive
    closure: give each added edge a weight below every g-path between its
    ends, and no critical path changes; with distinct such weights far
    enough below, a generic weighting stays generic.  So a graph can only
    fail where its closure fails, and the scan decides each closure once per
    query (memoized by its edge set) and decides a graph itself only when its
    closure fails.  graph_family picks the space: "posets" (transitively
    closed only), "all", or "auto" (all DAGs up to 4 nodes for smaller
    counterexamples, posets beyond).
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
    closures: dict[tuple[Edge, ...], Verdict] = {}
    for edges, closure in _dag_family(n, graph_family):
        verdict = closures.get(closure)
        if verdict is None:
            verdict = decide_implication(Dag(n, closure), premises, conclusions,
                                         generic=generic)
            closures[closure] = verdict
        if verdict.holds:
            continue
        if len(edges) != len(closure):
            verdict = decide_implication(Dag(n, edges), premises, conclusions,
                                         generic=generic)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def _check_nodes(n: int, premises, conclusions) -> None:
    for s in (*premises, *conclusions):
        if s.j > n or any(k > n for k in s.L):
            raise ValueError(f"statement {s} references nodes outside 1..{n}")

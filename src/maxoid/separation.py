"""Separation in weighted DAGs via critical paths.

The critical DAG of (G, C) given a blocking set L keeps an edge k->l exactly
when some directed k->l path exists and no maximum-weight k->l path passes
through L (interior nodes only).  So it depends on the weights only through
the blocker sets B_kl, the interior nodes of the critical k->l paths: k->l
is kept exactly when L misses B_kl.  Two nodes are separated given L when
the critical DAG contains none of five short connecting shapes between
them; the set of all such separation statements is the CI structure of the
weighted DAG.  maxoid_from_blockers computes it from the sets B_kl held as
int bitmasks.  maxoid reads them off the Kleene star once; the fan and the
polytope pass a cone's chosen paths or the union of a face's vertices'
paths.  Everything here is exact and valid for arbitrary (also tied)
weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .graph import Dag, Path, enumerate_paths, transitive_closure
from .tropical import (
    NEG_INF,
    WeightedDag,
    critical_paths,
    kleene_star,
    path_weight,
)


@dataclass(frozen=True)
class CiStatement:
    """A canonical pairwise statement (i, j | L): i < j, L disjoint from both."""

    i: int
    j: int
    L: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("statement endpoints must be distinct")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        L = frozenset(self.L)
        if self.i in L or self.j in L:
            raise ValueError("conditioning set must be disjoint from the endpoints")
        object.__setattr__(self, "L", L)

    @property
    def sort_key(self) -> tuple:
        return (self.i, self.j, tuple(sorted(self.L)))

    def __str__(self) -> str:
        return f"{self.i},{self.j}|{','.join(str(k) for k in sorted(self.L))}"

    def __repr__(self) -> str:
        return f"CiStatement({self})"


_COMPACT_RE = re.compile(r"^(\d{2})\|(\d*)$")


def parse_ci_statement(text: str, n: int | None = None) -> CiStatement:
    """Parse "i,j|k1,k2,..." (empty conditioning side allowed) or, for node
    counts up to 9, the compact digit form "ij|kl"."""
    s = text.strip()
    if "|" not in s:
        raise ValueError(f"malformed CI statement {text!r}: missing '|'")
    left, right = s.split("|", 1)
    m = _COMPACT_RE.match(s.replace(" ", ""))
    if "," not in left and m and (n is None or n <= 9):
        i, j = int(m.group(1)[0]), int(m.group(1)[1])
        L = [int(c) for c in m.group(2)]
    else:
        try:
            i, j = (int(t) for t in left.split(","))
            L = [int(t) for t in right.split(",")] if right.strip() else []
        except ValueError:
            raise ValueError(f"malformed CI statement {text!r}") from None
    if n is not None:
        for v in (i, j, *L):
            if not 1 <= v <= n:
                raise ValueError(f"node {v} out of range 1..{n}")
    if len(L) != len(set(L)):
        raise ValueError(f"repeated conditioning node in {text!r}")
    return CiStatement(i, j, frozenset(L))


class Maxoid:
    """A canonical, deduplicated set of pairwise CI statements on 1..n."""

    __slots__ = ("n", "stmts")

    def __init__(self, n: int, statements: Iterable[CiStatement]):
        self.n = n
        self.stmts = frozenset(statements)
        for s in self.stmts:
            if s.j > n or any(k > n for k in s.L):
                raise ValueError(f"statement {s} exceeds ground set 1..{n}")

    def __contains__(self, s: CiStatement) -> bool:
        return s in self.stmts

    def __iter__(self) -> Iterator[CiStatement]:
        return iter(sorted(self.stmts, key=lambda s: s.sort_key))

    def __len__(self) -> int:
        return len(self.stmts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Maxoid) and self.n == other.n and self.stmts == other.stmts

    def __hash__(self) -> int:
        return hash((self.n, self.stmts))

    def __or__(self, other: "Maxoid") -> "Maxoid":
        if self.n != other.n:
            raise ValueError("ground sets differ")
        return Maxoid(self.n, self.stmts | other.stmts)

    def __repr__(self) -> str:
        return f"Maxoid(n={self.n}, {{{', '.join(str(s) for s in self)}}})"

    def to_json(self) -> list[str]:
        return [str(s) for s in self]

    @classmethod
    def from_json(cls, n: int, items: Iterable[str]) -> "Maxoid":
        return cls(n, (parse_ci_statement(t, n) for t in items))


def node_mask(nodes: Iterable[int]) -> int:
    """Bitmask of a node set: bit v set for node v."""
    return sum(1 << v for v in nodes)


def _blocker_sets(wd: WeightedDag) -> dict[tuple[int, int], int]:
    """B_kl for every connected pair k->l, as a node_mask: the nodes m
    with A_km + A_ml = A_kl, A the proper Kleene star, i.e. the interior
    nodes of the critical k->l paths (the star's -inf diagonal leaves k and
    l out)."""
    a = kleene_star(wd, proper=True)
    nodes = wd.g.nodes
    blockers = {}
    for k in nodes:
        for l in wd.g.descendants(k):
            akl = a.entry(k, l)
            blockers[(k, l)] = node_mask(m for m in nodes
                                         if a.entry(k, m) + a.entry(m, l) == akl)
    return blockers


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


def maxoid_from_blockers(n: int, blockers: Mapping[tuple[int, int], int]) -> Maxoid:
    """All separation statements on 1..n of the critical DAGs whose edges
    k->l are the keys of blockers, each kept given L exactly when L misses
    the bitmask blockers[(k, l)]."""
    stmts = []
    for L, statements in _statements_by_subset(n):
        stmts.extend(_separated(n, blockers, L, statements))
    return Maxoid(n, stmts)


def critical_dag(wd: WeightedDag, L: Iterable[int]) -> Dag:
    """The critical DAG of (G, C) given the blocking set L."""
    Ls = frozenset(L)
    if not Ls <= set(wd.g.nodes):
        raise ValueError("blocking set must consist of graph nodes")
    mask = node_mask(Ls)
    return Dag(wd.g.n, [e for e, b in _blocker_sets(wd).items() if not b & mask])


def c_star_separated(wd: WeightedDag, s: CiStatement) -> bool:
    """Whether the statement's endpoints are separated given s.L in (G, C)."""
    return any(_separated(wd.g.n, _blocker_sets(wd), node_mask(s.L), [s]))


def maxoid(wd: WeightedDag) -> Maxoid:
    """All separation statements of the weighted DAG, over every pair and
    every conditioning subset."""
    return maxoid_from_blockers(wd.g.n, _blocker_sets(wd))


def derive_set_statement(m: Maxoid, I: Iterable[int], J: Iterable[int],
                         L: Iterable[int]) -> bool:
    """Set-valued statement (I, J | L), reduced to the pairwise statements.

    Valid because the structures produced by maxoid() are closed under
    composition and decomposition.
    """
    Is, Js, Ls = frozenset(I), frozenset(J), frozenset(L)
    if not Is or not Js:
        raise ValueError("I and J must be nonempty")
    if Is & Js or Is & Ls or Js & Ls:
        raise ValueError("I, J, L must be pairwise disjoint")
    return all(CiStatement(i, j, Ls) in m for i in Is for j in Js)


def weighted_transitive_reduction(wd: WeightedDag) -> WeightedDag:
    """Keep an edge exactly when it is the unique critical path between its
    endpoints; weights are restricted to the surviving edges."""
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


def closure_weights(wd: WeightedDag) -> WeightedDag:
    """Extend the weights to the transitive closure without changing any
    critical path: new edges all get one common weight strictly below the
    smallest critical weight (minus one keeps integer inputs integral)."""
    closure = transitive_closure(wd.g)
    new_edges = closure.edges - wd.g.edges
    if not new_edges:
        return WeightedDag(closure, dict(wd.w))
    a = kleene_star(wd, proper=True)
    eps = min(a.entry(i, j) for i in wd.g.nodes for j in wd.g.descendants(i))
    delta = eps - 1
    w = dict(wd.w)
    for e in new_edges:
        w[e] = delta
    return WeightedDag(closure, w)


def perturb_across_facet(wd: WeightedDag, target: Path) -> WeightedDag:
    """Break a critical-path tie in favour of `target`.

    Adds eps to one edge of target that lies on none of the other tied
    critical paths, where eps is half the minimum nonzero absolute difference
    of parallel-path weights (1 if all parallel paths are tied).  This makes
    target uniquely critical between its endpoints and preserves every strict
    weight comparison elsewhere.
    """
    i, j = target[0], target[-1]
    tied = critical_paths(wd, i, j)
    if tuple(target) not in tied:
        raise ValueError("target path is not critical between its endpoints")
    if len(tied) == 1:
        raise ValueError("target path is already the unique critical path")
    others = [p for p in tied if p != tuple(target)]
    other_edges = {e for p in others for e in zip(p, p[1:])}
    bump = next((e for e in zip(target, target[1:]) if e not in other_edges), None)
    if bump is None:
        raise ValueError("every edge of target lies on another tied critical path")
    gap = _smallest_gap(wd)
    w = dict(wd.w)
    w[bump] += Fraction(1) if gap is None else gap / 2
    return WeightedDag(wd.g, w)


def _smallest_gap(wd: WeightedDag) -> Fraction | None:
    """The least nonzero difference between the weights of two parallel
    paths, None when every two parallel paths tie."""
    gaps = []
    for u in wd.g.nodes:
        for v in wd.g.descendants(u):
            weights = sorted({path_weight(wd, p) for p in enumerate_paths(wd.g, u, v)})
            gaps.extend(b - a for a, b in zip(weights, weights[1:]))
    return min(gaps, default=None)


def break_ties(wd: WeightedDag) -> WeightedDag:
    """Tie-free weights with the same strict comparisons as wd: edge k of
    the sorted edges gains eps * 2**k, eps the smallest nonzero gap between
    parallel-path weights (1 if there is none) over 2**(|E|+1).

    Any two paths' gains differ by less than eps * 2**|E|, half that gap, so
    every strict comparison between parallel paths keeps its sign, and with
    it every critical path of a weighting whose critical paths are unique.
    Two distinct parallel paths have distinct edge sets, so their gains,
    sums of distinct powers of two times eps, differ: no tie is left.
    """
    edges = wd.g.sorted_edges
    eps = (_smallest_gap(wd) or Fraction(1)) / 2 ** (len(edges) + 1)
    return WeightedDag(wd.g, {e: wd.w[e] + eps * 2 ** k for k, e in enumerate(edges)})

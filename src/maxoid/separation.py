"""Separation in weighted DAGs via critical paths.

The critical DAG of (G, C) given a blocking set L keeps an edge k->l exactly
when some directed k->l path exists and no maximum-weight k->l path passes
through L (interior nodes only).  So it depends on the weights only through
the blocker sets B_kl, the interior nodes of the critical k->l paths: k->l
is kept exactly when L misses B_kl.  Two nodes i, j outside L are separated
given L when the critical DAG contains none of five connecting shapes
between them, all through edges whose tail lies outside L: (a) an edge
between i and j; (b) a common parent p; (c) a common child l in L;
(d) p -> i, p -> l <- j with l in L, or its mirror image; (e) p -> i,
p -> l <- q, q -> j with l in L.  The set of all such statements (i, j | L)
is the CI structure of the weighted DAG, a Maxoid: one int with a bit per
statement on 1..n in sort_key order.

maxoid_from_blockers decides every L at once.  A family of subsets L of
1..n is a 2^n-bit int, and each quantity below is such a family:

    K_kl = the sets that miss B_kl | {k}   (k -> l kept, its tail outside L)
    I_l  = the sets that contain l
    R_il = I_l & (K_il | OR_p K_pi & K_pl)

R_il holds the sets in which l is a collider in L below i or below a parent
of i.  The pair (i, j) is then separated exactly on the sets that miss i
and j and avoid

    K_ij | K_ji | OR_p K_pi & K_pj | OR_l R_il & R_jl:

the first two terms are shape (a), the third (b), and R_il & R_jl covers
(c), (d) and its mirror, and (e), as each side of the collider l is a child
of i (j) or of a parent of i (j).  The shapes' distinctness conditions need
no test: i, j and the parents lie outside L and the colliders inside it,
p = j or q = i would be shape (a), and p = q shape (b).  That is O(n^3)
operations on 2^n-bit ints per structure; each set bit of a separated
family then becomes one statement bit through the pair's rank list.

maxoid reads the blocker sets off the Kleene star once; the fan and the
polytope pass a cone's chosen paths or the union of a face's vertices'
paths.  Everything here is exact and valid for arbitrary (also tied)
weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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


def _pair_subsets(n: int, i: int, j: int) -> list[tuple[int, ...]]:
    """The sets L of 1..n that miss i and j, as sorted tuples in the order
    of the statements (i, j | L)."""
    rest = [v for v in range(1, n + 1) if v != i and v != j]
    return sorted(L for size in range(len(rest) + 1) for L in combinations(rest, size))


class _StatementTable:
    """Every statement on 1..n in sort_key order: statement k is bit k of a
    Maxoid's int, so ascending bits walk the statements in that order.
    Built on first use, one per n (see _statement_tables)."""

    __slots__ = ("statements", "texts", "bit", "bit_of_text")

    def __init__(self, n: int):
        statements = [CiStatement(i, j, frozenset(L))
                      for i, j in combinations(range(1, n + 1), 2)
                      for L in _pair_subsets(n, i, j)]
        self.statements = tuple(statements)
        self.texts = tuple(map(str, statements))
        self.bit = {s: k for k, s in enumerate(statements)}
        self.bit_of_text = {t: k for k, t in enumerate(self.texts)}


class _PerN(dict):
    """key -> table(key), each table built on its first lookup; a dict, so
    a lookup in Maxoid.__contains__ makes no function call."""

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, key):
        built = self[key] = self.table(key)
        return built


_statement_tables = _PerN(_StatementTable)


class Maxoid:
    """A set of pairwise CI statements on 1..n, held as one int with a bit
    per statement on 1..n in sort_key order (see _statement_tables)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, statements: Iterable[CiStatement]):
        bit = _statement_tables[n].bit
        bits = 0
        for s in statements:
            k = bit.get(s)
            if k is None:
                raise ValueError(f"statement {s} exceeds ground set 1..{n}")
            bits |= 1 << k
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Maxoid":
        """The structure whose statements are the set bits of bits."""
        m = cls.__new__(cls)
        m.n = n
        m.bits = bits
        return m

    @property
    def stmts(self) -> frozenset[CiStatement]:
        """The statements as a frozenset."""
        return frozenset(self)

    def _indices(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __contains__(self, s: CiStatement) -> bool:
        k = _statement_tables[self.n].bit.get(s)
        return k is not None and self.bits >> k & 1 == 1

    def __iter__(self) -> Iterator[CiStatement]:
        statements = _statement_tables[self.n].statements
        return (statements[k] for k in self._indices())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Maxoid) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __or__(self, other: "Maxoid") -> "Maxoid":
        if self.n != other.n:
            raise ValueError("ground sets differ")
        return Maxoid.from_bits(self.n, self.bits | other.bits)

    def __repr__(self) -> str:
        return f"Maxoid(n={self.n}, {{{', '.join(str(s) for s in self)}}})"

    def to_json(self) -> list[str]:
        texts = _statement_tables[self.n].texts
        return [texts[k] for k in self._indices()]

    @classmethod
    def from_json(cls, n: int, items: Iterable[str]) -> "Maxoid":
        table = _statement_tables[n]
        bits = 0
        for text in items:
            k = table.bit_of_text.get(text)
            if k is None:
                k = table.bit[parse_ci_statement(text, n)]
            bits |= 1 << k
        return cls.from_bits(n, bits)


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


class _SubsetTables:
    """Tables of the all-subsets engine on 1..n, built on first use, one per
    n (see _subset_tables).  A family of subsets L of 1..n is a 2^n-bit int,
    with bit node_mask(L) >> 1 standing for L.

    member[v]: the sets that contain v (member[0] = 0).
    missing[b >> 1]: the sets that miss the node_mask b.
    pairs: per pair (i, j) in statement order, (i, j, the sets that miss i
    and j, the pair's first statement bit, rank), where (i, j | L) is
    statement rank[node_mask(L) >> 1] of the pair.
    """

    __slots__ = ("member", "missing", "pairs")

    def __init__(self, n: int):
        size = 1 << n
        member = [0] * (n + 1)
        for v in range(1, n + 1):
            member[v] = sum(1 << s for s in range(size) if s >> (v - 1) & 1)
        missing = [(1 << size) - 1] * size
        for b in range(1, size):
            missing[b] = missing[b & (b - 1)] & ~member[(b & -b).bit_length()]
        pairs = []
        for i, j in combinations(range(1, n + 1), 2):
            rank = [0] * size
            for r, L in enumerate(_pair_subsets(n, i, j)):
                rank[node_mask(L) >> 1] = r
            pairs.append((i, j, missing[(1 << i | 1 << j) >> 1],
                          len(pairs) << max(n - 2, 0), rank))
        self.member = member
        self.missing = missing
        self.pairs = pairs


_subset_tables = _PerN(_SubsetTables)


def _relabeling(key: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """For key (n, label), label a tuple indexed by node with node 0 fixed:
    entry k is the bit of statement k on 1..n with every node v renamed
    label[v].  Read off the subset tables' rank lists."""
    n, label = key
    tables = _subset_tables[n]
    # moved[node_mask(L) >> 1] = node_mask of L renamed, >> 1
    moved = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        moved[s] = moved[s ^ low] | 1 << label[low.bit_length()] - 1
    place = {(i, j): (first, rank) for i, j, _, first, rank in tables.pairs}
    out = [0] * (len(tables.pairs) << max(n - 2, 0))
    for i, j, outside, first, rank in tables.pairs:
        a, b = label[i], label[j]
        to_first, to_rank = place[(a, b) if a < b else (b, a)]
        while outside:
            low = outside & -outside
            s = low.bit_length() - 1
            out[first + rank[s]] = to_first + to_rank[moved[s]]
            outside ^= low
    return tuple(out)


# (n, label) -> _relabeling((n, label)), built on first use
_relabelings = _PerN(_relabeling)


def maxoid_from_blockers(n: int, blockers: Mapping[tuple[int, int], int]) -> Maxoid:
    """All separation statements on 1..n of the critical DAGs whose edges
    k->l are the keys of blockers, each kept given L exactly when L misses
    the bitmask blockers[(k, l)]; every L at once, as in the module
    docstring."""
    tables = _subset_tables[n]
    member, missing = tables.member, tables.missing
    # kept[k][l] = K_kl: the sets L given which k -> l is a critical edge
    # with its tail outside L
    kept = [[0] * (n + 1) for _ in range(n + 1)]
    children = [[] for _ in range(n + 1)]
    for (k, l), b in blockers.items():
        kept[k][l] = missing[(b | 1 << k) >> 1]
        children[k].append(l)
    # near[i][l] = K_il | OR_p K_pi & K_pl: l is a child of i or of a parent
    # of i; collide[i][l] = R_il, the sets that also contain l
    near = [row[:] for row in kept]
    for p, below in enumerate(children):
        kp = kept[p]
        for i in below:
            kpi = kp[i]
            row = near[i]
            for l in below:
                row[l] |= kpi & kp[l]
    collide = [[a & b for a, b in zip(member, row)] for row in near]
    bits = 0
    for i, j, outside, first, rank in tables.pairs:
        joined = near[i][j] | kept[j][i]
        for a, b in zip(collide[i], collide[j]):
            joined |= a & b
        separated = outside & ~joined
        pair_bits = 0
        while separated:
            low = separated & -separated
            pair_bits |= 1 << rank[low.bit_length() - 1]
            separated ^= low
        bits |= pair_bits << first
    return Maxoid.from_bits(n, bits)


def critical_dag(wd: WeightedDag, L: Iterable[int]) -> Dag:
    """The critical DAG of (G, C) given the blocking set L."""
    Ls = frozenset(L)
    if not Ls <= set(wd.g.nodes):
        raise ValueError("blocking set must consist of graph nodes")
    mask = node_mask(Ls)
    return Dag(wd.g.n, [e for e, b in _blocker_sets(wd).items() if not b & mask])


def c_star_separated(wd: WeightedDag, s: CiStatement) -> bool:
    """Whether the statement's endpoints are separated given s.L in (G, C):
    whether s lies in maxoid(wd).  ValueError when s leaves 1..n."""
    return Maxoid(wd.g.n, [s]).bits & maxoid(wd).bits != 0


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

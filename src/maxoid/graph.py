"""Directed acyclic graphs on dense integer nodes 1..n.

Provides exhaustive, memoized directed-path enumeration, the purely
combinatorial transitive closure, and the graph family of the census and
global implication as edge masks: the transitively closed DAGs with upward
edges, grown node by node, and their isomorphism classes.  Path enumeration
is exponential in the edge count in the worst case; all intended workloads
have at most a handful of nodes.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Iterator

Edge = tuple[int, int]
Path = tuple[int, ...]


class CycleError(ValueError):
    """Raised when an edge set admits a directed cycle."""


class Dag:
    """An immutable DAG on nodes 1..n.

    Acyclicity is verified at construction.  Self-loops and duplicate edges
    are rejected.  Isolated nodes are permitted.  Adjacency, a topological
    order and reachability are computed once and cached; path enumeration is
    memoized per instance.
    """

    __slots__ = ("n", "edges", "_children", "_parents", "_topo", "_desc", "_path_memo")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        edge_list = [(int(u), int(v)) for u, v in edges]
        for u, v in edge_list:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise ValueError("duplicate edge")
        self.n = n
        self.edges = edge_set
        children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        parents: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in sorted(edge_set):
            children[u].append(v)
            parents[v].append(u)
        self._children = {v: tuple(cs) for v, cs in children.items()}
        self._parents = {v: tuple(sorted(ps)) for v, ps in parents.items()}
        self._topo = self._toposort()
        self._desc: dict[int, frozenset[int]] | None = None
        self._path_memo: dict[tuple[int, int], tuple[Path, ...]] = {}

    def _toposort(self) -> tuple[int, ...]:
        import heapq

        indeg = {v: len(self._parents[v]) for v in range(1, self.n + 1)}
        heap = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        if len(order) != self.n:
            raise CycleError("cycle detected")
        return tuple(order)

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    @property
    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def parents(self, v: int) -> tuple[int, ...]:
        return self._parents[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def _node(self, v: int) -> int:
        """v, or ValueError when v is not a node of 1..n."""
        if not 1 <= v <= self.n:
            raise ValueError(f"node {v} out of range 1..{self.n}")
        return v

    def descendants(self, v: int) -> frozenset[int]:
        """All nodes reachable from v by a nonempty directed path;
        ValueError for a node outside 1..n."""
        if self._desc is None:
            desc: dict[int, set[int]] = {u: set() for u in self.nodes}
            for u in reversed(self._topo):
                for c in self._children[u]:
                    desc[u].add(c)
                    desc[u] |= desc[c]
            self._desc = {u: frozenset(s) for u, s in desc.items()}
        return self._desc[self._node(v)]

    def reaches(self, u: int, v: int) -> bool:
        """Whether a nonempty directed u -> v path exists; ValueError for a
        node outside 1..n."""
        return self._node(v) in self.descendants(u)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, edges={self.sorted_edges})"


def dag_from_edges(n: int, edges: Iterable[Edge]) -> Dag:
    """Build a Dag, validating ranges, simplicity and acyclicity."""
    return Dag(n, edges)


def enumerate_paths(g: Dag, i: int, j: int) -> list[Path]:
    """All node-simple directed i->j paths, in lexicographic order.

    Empty if j is unreachable from i; ValueError unless i and j are
    distinct nodes of g.  Worst case exponential in |E|.
    """
    if i == j:
        raise ValueError("path endpoints must be distinct")
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"node {v} out of range 1..{g.n}")
    memo = g._path_memo

    def suffixes(u: int) -> tuple[Path, ...]:
        key = (u, j)
        if key in memo:
            return memo[key]
        if u == j:
            result: tuple[Path, ...] = ((j,),)
        else:
            acc: list[Path] = []
            for c in g.children(u):
                if c == j or j in g.descendants(c):
                    acc.extend((u,) + p for p in suffixes(c))
            result = tuple(acc)
        memo[key] = result
        return result

    if not g.reaches(i, j):
        return []
    return list(suffixes(i))


def transitive_closure(g: Dag) -> Dag:
    """The DAG with an edge (i,j) exactly when a directed i->j path exists in g."""
    edges = [(u, v) for u in g.nodes for v in g.descendants(u)]
    return Dag(g.n, edges)


def mask_dag(n: int, mask: int) -> Dag:
    """The Dag on 1..n whose edges are the pairs of mask's bits."""
    return Dag(n, [e for k, e in enumerate(combinations(range(1, n + 1), 2)) if mask >> k & 1])


def _pair_bits(n: int) -> list[list[int]]:
    """bit[j][i], the bit of the pair i < j of 1..n in an edge mask."""
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(combinations(range(1, n + 1), 2)):
        bit[j][i] = 1 << k
    return bit


def closed_dag_masks(n: int, connected: bool = False) -> list[int]:
    """The edge masks of the transitively closed DAGs on 1..n with upward
    edges, weakly connected when connected, in increasing order.  Each grows
    from the graph it induces on 1..m-1 by the parents of m, which hold the
    parents of their members (Brinkmann and McKay, Order 19, 2002); a graph
    on 1..n is connected when they meet every component of the rest."""
    bit = _pair_bits(n)
    grown = [((), 0)]  # (the parents of each node 1..m as node bitmasks, mask)
    for m in range(1, n + 1):
        level = []
        for parents, mask in grown:
            components = []
            for v, ps in enumerate(parents if connected and m == n else (), 1):
                joined = 1 << v | sum(c for c in components if c & ps)
                components = [c for c in components if not c & ps] + [joined]
            down_sets = [(0, mask)]
            for v, ps in enumerate(parents, 1):
                down_sets += [(down | 1 << v, edges | bit[m][v])
                              for down, edges in down_sets if down & ps == ps]
            level += [(parents + (down,), edges)
                      for down, edges in down_sets if all(c & down for c in components)]
        grown = level
    return sorted(mask for _, mask in grown)


def mask_classes(n: int, masks: list[int]) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """The graphs on 1..n with these edge masks by isomorphism class, as
    (representative's mask, labels), the representative the class's first
    member.  A label renames node v to label[v]; the labels are those of
    the representative's topological orders, in lexicographic order (the
    identity first), that rename it to an input mask not reached before, so
    every mask is reached once.  Classes are found as they are yielded,
    after a ValueError for an entry that is not an edge mask of 1..n or
    repeats one."""
    place: dict[int, int] = {}
    for k, mask in enumerate(masks):
        if type(mask) is not int or not 0 <= mask < 1 << n * (n - 1) // 2:
            raise ValueError(f"{mask!r} is not an edge mask of 1..{n}")
        if place.setdefault(mask, k) != k:
            raise ValueError(f"{mask_dag(n, mask)!r} is listed twice")
    bit = _pair_bits(n)
    reached = [False] * len(masks)
    label = [0] * (n + 1)
    for k, mask in enumerate(masks):
        if reached[k]:
            continue
        parents = [[u for u in range(1, v) if mask & bit[v][u]] for v in range(n + 1)]
        need = [sum(1 << u for u in ps) for ps in parents]
        labels = []

        def extend(placed: int, at: int, image: int) -> None:
            # image: the renamed mask of the edges among the placed nodes
            if at > n:
                member = place.get(image)
                if member is not None and not reached[member]:
                    reached[member] = True
                    labels.append(tuple(label))
            for v in range(1, n + 1):
                if not placed >> v & 1 and need[v] & placed == need[v]:
                    label[v] = at
                    row, relabeled = bit[at], image
                    for u in parents[v]:
                        relabeled |= row[label[u]]
                    extend(placed | 1 << v, at + 1, relabeled)

        extend(0, 1, 0)
        yield mask, labels


def to_dot(g: Dag, name: str = "G") -> str:
    """Render the DAG in DOT format for inspection."""
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {v};" for v in g.nodes)
    lines.extend(f"  {u} -> {v};" for u, v in g.sorted_edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dag_to_json(g: Dag) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges]}


def dag_from_json(data) -> Dag:
    """Parse {"n": int, "edges": [[u,v], ...]} given as a dict or JSON string."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('expected an object {"n": ..., "edges": [[u,v], ...]}')
    n, edges = data["n"], data["edges"]
    # type() rather than isinstance(): JSON true and false are Python bools
    if type(n) is not int:
        raise ValueError(f'"n" must be a JSON integer, got {json.dumps(n, default=repr)}')
    if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(type(v) is int for v in e)
            for e in edges):
        raise ValueError('"edges" must be a list of [u, v] pairs of JSON integers')
    return Dag(n, [tuple(e) for e in edges])

"""Directed acyclic graphs on dense integer nodes 1..n.

Provides exhaustive, memoized directed-path enumeration, the purely
combinatorial transitive closure, and the graph family of the census and
global implication: the transitively closed DAGs with upward edges, one
edge mask each, kept when every path u -> v -> w has the edge u -> w.
Path enumeration is exponential in the edge count in the worst case; all
intended workloads have at most a handful of nodes.
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


def top_ordered_closed_dags(n: int) -> Iterator[Dag]:
    """Every transitively closed DAG on 1..n whose edges all point from a
    smaller to a larger label, disconnected ones included, in increasing
    order of their edge mask over the pairs i < j in lexicographic order.
    Every transitively closed DAG on 1..n is a relabeling of one of them.
    Forward edges close no cycle, so each mask is a DAG, kept when every
    path u -> v -> w in it comes with the edge u -> w."""
    return (Dag(n, edges) for edges in _closed_edge_lists(n))


def _closed_edge_lists(n: int) -> Iterator[list[Edge]]:
    """The sorted edge lists of top_ordered_closed_dags(n), in its order,
    with no Dag built."""
    pairs = list(combinations(range(1, n + 1), 2))
    bit = {e: 1 << k for k, e in enumerate(pairs)}
    triples = [(bit[u, v] | bit[v, w], bit[u, w])
               for u, v, w in combinations(range(1, n + 1), 3)]
    for mask in range(1 << len(pairs)):
        if all(mask & both != both or mask & closing for both, closing in triples):
            yield [e for e in pairs if mask & bit[e]]


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


def isomorphism_classes(graphs: Iterable[Dag]
                        ) -> Iterator[tuple[Dag, list[tuple[int, ...]]]]:
    """The graphs, DAGs on one node set whose edges point from a smaller to
    a larger label, grouped by isomorphism: (representative, labels) per
    class, in input order of the representatives, each the first member of
    its class.

    A label is a tuple indexed by node, node 0 fixed, and renames node v of
    the representative to label[v]; labels[0] is the identity.  Renaming the
    nodes of a topological order to 1, 2, ... in turn gives a graph whose
    edges point up, and every such graph isomorphic to the representative
    arises so: the labels are those of its linear extensions that land on an
    input graph, the first per graph, so every input graph is reached by
    exactly one label of one class.  Classes are found as they are yielded.
    """
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

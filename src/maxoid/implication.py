"""CI implication decided by looking up the structures of graphs.

The normal fan of a graph's polytope is complete, so every CI structure of
the graph is the structure of exactly one face of the polytope, and the
generic ones are those of its maximal cones.  AND(premises) =>
OR(conclusions) fails on a graph exactly when one of these structures
contains every premise and no conclusion, and the weights that realize it
are then a counterexample, which is re-verified through the separation
machinery before it is returned.

Global modes quantify over all graphs on the labeled node set 1..n.  Every
CI structure of a graph also arises on its transitive closure: give each
added edge a weight below every path between its ends, and no critical path
changes; with distinct such weights far enough below, a generic weighting
stays generic.  Every transitively closed DAG is a relabeling of one whose
edges point from smaller to larger labels, so the scan covers those,
disconnected ones included, under all n! relabelings.  It relabels the
query, not the structures, and so needs one graph per isomorphism class
(graph.mask_classes over the edge masks of graph.closed_dag_masks: 16 of
the 40 such graphs on four nodes, 63 of the 357 on five, a Dag built for
each representative only), the first in mask order: if a structure of a
later member pi(G) of G's class matches under a label, the same structure
of G matches under that label composed with pi, and G comes first, so the
first match is never at a later member.

Each process keeps one structure index per scope and mode: a list of
(bits, graph, weights, denominator) in scan order, graphs in
closed_dag_masks order (the class representatives in global modes,
the one graph in local modes), then each graph's cones in fan order, then
its faces of dimension at least 1 in lattice order.  A structure is
listed once, where the scan first meets it: a later copy matches under
exactly the labels the first one does, so it is never the first match.
Only the weights of a match become Fractions.  The index chains the batches
of polytope.graph_structures over its graphs and grows one batch at a time,
only as far as a scan reaches: a graph's faces are built only when a scan
moves past its last cone, and until then its fan entries are kept.
A query becomes one premise and one conclusion mask per relabeling, read
off a column per statement of the per-label bit tables of
separation._relabelings, built the first time a query names it.  The
index also keeps the counterexample weights of every (entry, label) match
it has answered, so a repeated failing query only builds a fresh weighted
DAG from them and re-verifies it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
from typing import Iterator, Sequence

from .graph import Dag, closed_dag_masks, mask_classes, mask_dag
from .polytope import graph_structures
from .separation import (
    CiStatement,
    _relabelings,
    _statement_tables,
    break_ties,
    maxoid,
    weighted_transitive_reduction,
)
from .tropical import WeightedDag, is_generic


@dataclass(frozen=True)
class Verdict:
    """Outcome of an implication query; counterexamples carry a full weighted
    DAG whose CI structure satisfies every premise and no conclusion."""

    holds: bool
    counterexample: WeightedDag | None = None


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
                       generic: bool = False) -> Verdict:
    """Decide AND(premises) => OR(conclusions) over CI structures.

    scope: a Dag restricts to the structures of that graph (local modes); an
    integer node count quantifies over all graphs on 1..n (global modes).
    generic=True restricts to tie-free weight vectors, that is to the cone
    structures.

    The scope's structure index is scanned in order (see the module
    docstring), and global modes try each structure under every relabeling
    in the order of itertools.permutations, the identity first; a structure
    matches when its bits hold every premise bit and no conclusion bit.  The
    first match gives the counterexample: its weights, relabeled and, in
    global modes, shrunk to the weighted transitive reduction, which keeps
    the Kleene star and so the structure.  In generic mode, ties between
    non-critical parallel paths that a cone witness may have are then
    broken (break_ties).
    """
    premises = list(premises)
    conclusions = list(conclusions)
    if not premises and not conclusions:
        raise ValueError("nothing to decide")
    local = isinstance(scope, Dag)
    n = scope.n if local else int(scope)
    _check_nodes(n, premises, conclusions)
    key = (scope if local else n, not generic)
    index = _indexes.get(key)
    if index is None:
        graphs = iter([scope]) if local else (
            mask_dag(n, mask) for mask, _ in mask_classes(n, closed_dag_masks(n)))
        index = _indexes[key] = _Index(graphs, not generic)
    try:
        match = _first_match(index, _queries(n, premises, conclusions, local))
    except BaseException:
        # a raising generator is finished, and the graphs it had yet to
        # list would be skipped
        _indexes.pop(key, None)
        raise
    if match is None:
        return Verdict(True)
    w = index.counterexamples.get(match)
    if w is None:
        place, label = match
        _, g, weights, den = index.entries[place]
        w = index.counterexamples[match] = _counterexample_weights(
            g, weights, den, label, local, generic)
    wd = WeightedDag(Dag(n, w), w)
    _verify_counterexample(wd, premises, conclusions, generic)
    return Verdict(False, wd)


class _Index:
    """The distinct structures of one scope and mode in scan order, as
    (bits, graph, weight numerators, denominator), grown a batch at a time
    by grow, and the counterexample weights of the (entry, label) matches
    met so far."""

    __slots__ = ("entries", "counterexamples", "_seen", "_batches")

    def __init__(self, graphs: Iterator[Dag], include_faces: bool):
        self.entries: list[tuple[int, Dag, tuple[int, ...], int]] = []
        self.counterexamples: dict[tuple[int, tuple[int, ...]], dict] = {}
        self._seen: set[int] = set()
        self._batches = ((g, batch) for g in graphs
                         for batch in islice(graph_structures(g), 2 if include_faces else 1))

    def grow(self) -> bool:
        """List the structures of the next batch that are not listed yet;
        False once every structure of the scope is listed."""
        batch = next(self._batches, None)
        if batch is None:
            return False
        g, realized = batch
        for m, weights, den in realized:
            if m.bits not in self._seen:
                self._seen.add(m.bits)
                self.entries.append((m.bits, g, weights, den))
        return True


# per-process structure indexes, keyed by (graph or node count, include_faces)
_indexes: dict[tuple[object, bool], _Index] = {}


def _first_match(index: _Index, queries):
    """(place in the index, label) of the first index entry that matches one
    of queries, ((premise mask, conclusion mask), label) pairs tried in
    order, growing the index as far as the scan reaches; None when none
    does."""
    entries = index.entries
    done = 0
    while True:
        for place, (bits, _, _, _) in enumerate(islice(entries, done, None), done):
            for (prem, conc), label in queries:
                if bits & prem == prem and not bits & conc:
                    return place, label
        done = len(entries)
        if not index.grow():
            return None


@functools.cache
def _labels(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(label, inverse) of every relabeling of 1..n, as tuples indexed by
    node with node 0 fixed, in the order of itertools.permutations."""
    out = []
    for p in permutations(range(1, n + 1)):
        label = (0, *p)
        back = [0] * (n + 1)
        for v, x in enumerate(label):
            back[x] = v
        out.append((label, tuple(back)))
    return tuple(out)


@functools.cache
def _relabeled_bits(n: int, k: int) -> tuple[int, ...]:
    """For each relabeling of _labels(n), the bit of statement k of the
    relabeled graph as a statement of the graph: under label, statement s
    of the relabeled graph is, on the graph, s renamed by the inverse of
    label.  One column of the per-n table, built on first use."""
    return tuple(_relabelings[n, back][k] for _, back in _labels(n))


def _queries(n: int, premises, conclusions, local: bool):
    """The query as ((premise mask, conclusion mask), label) pairs to try in
    order: the identity alone in local modes, else one pair per relabeling.
    Labels that give the same masks match the same structures, so only the
    first of them is kept."""
    bit = _statement_tables[n].bit
    if local:
        masks = tuple(sum({1 << bit[s] for s in side}) for side in (premises, conclusions))
        return [(masks, tuple(range(n + 1)))]
    labels = _labels(n)
    masks = []
    for side in (premises, conclusions):
        mask = [0] * len(labels)
        for k in {bit[s] for s in side}:
            for t, b in enumerate(_relabeled_bits(n, k)):
                mask[t] |= 1 << b
        masks.append(mask)
    first: dict[tuple[int, int], tuple[int, ...]] = {}
    for (label, _), pair in zip(labels, zip(*masks)):
        first.setdefault(pair, label)
    return list(first.items())


def _counterexample_weights(g: Dag, weights, den: int, label, local: bool,
                            generic: bool) -> dict:
    """The weights weights / den on g renamed by label, reduced unless local
    and tie-broken in generic mode, as an edge -> weight map."""
    w = {(label[u], label[v]): Fraction(x, den) for (u, v), x in zip(g.sorted_edges, weights)}
    wd = WeightedDag(Dag(g.n, w), w)
    if not local:
        wd = weighted_transitive_reduction(wd)
    if generic and not is_generic(wd):
        wd = break_ties(wd)
    return wd.w


def _check_nodes(n: int, premises, conclusions) -> None:
    for s in (*premises, *conclusions):
        if not all(1 <= v <= n for v in (s.i, s.j, *s.L)):
            raise ValueError(f"statement {s} references nodes outside 1..{n}")

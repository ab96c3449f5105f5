"""CI implication decided by looking up the structures of graphs.

The normal fan of a graph's polytope is complete, so every CI structure of
the graph is the structure of exactly one face of the polytope, and the
generic ones are those of its maximal cones; polytope.graph_structures
lists them with weights that realize them.  AND(premises) => OR(conclusions)
fails on a graph exactly when one of these structures contains every
premise and no conclusion, and its weights are then a counterexample, which
is re-verified through the separation machinery before it is returned.

Global modes quantify over all graphs on the labeled node set 1..n.  Every
CI structure of a graph also arises on its transitive closure: give each
added edge a weight below every path between its ends, and no critical path
changes; with distinct such weights far enough below, a generic weighting
stays generic.  Every transitively closed DAG is a relabeling of one whose
edges point from smaller to larger labels, so the scan covers those,
disconnected ones included, under all n! relabelings.  It relabels the
query, not the structures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .graph import Dag, top_ordered_closed_dags
from .polytope import graph_structures
from .separation import CiStatement, Maxoid, break_ties, maxoid, weighted_transitive_reduction
from .tropical import WeightedDag, is_generic

# per-process memo of each graph's (structure, weights) pairs, keyed by
# (graph, include_faces); repeated queries look structures up instead of
# enumerating them again
_structures = functools.cache(graph_structures)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an implication query; counterexamples carry a full weighted
    DAG whose CI structure satisfies every premise and no conclusion."""

    holds: bool
    counterexample: WeightedDag | None = None


def _relabeled(s: CiStatement, label: Sequence[int]) -> CiStatement:
    """s with node v renamed label[v]."""
    return CiStatement(label[s.i], label[s.j], frozenset(label[k] for k in s.L))


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

    Structures are scanned graph by graph: the cones of a graph in fan
    order, then its faces of dimension at least 1 in lattice order.  Global
    modes take the graphs of top_ordered_closed_dags, the edgeless one
    first, and try each structure under every relabeling in the order of
    itertools.permutations, the identity first; a structure matches when
    its bits hold every premise bit and no conclusion bit.  The first match
    gives the counterexample: its weights, relabeled and, in global modes,
    shrunk to the weighted transitive reduction, which keeps the Kleene
    star and so the structure.  In generic mode, ties between non-critical
    parallel paths that a cone witness may have are then broken
    (break_ties).
    """
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
        queries.append((label, Maxoid(n, (_relabeled(p, back) for p in premises)).bits,
                        Maxoid(n, (_relabeled(q, back) for q in conclusions)).bits))
    for g in graphs:
        cones, faces = _structures(g, not generic)
        for m, weights in cones + faces:
            bits = m.bits
            for label, prem, conc in queries:
                if bits & prem == prem and not bits & conc:
                    return Verdict(False, _counterexample(
                        g, weights, label, isinstance(scope, Dag), generic,
                        premises, conclusions))
    return Verdict(True)


def _counterexample(g: Dag, weights, label, local: bool, generic: bool,
                    premises, conclusions) -> WeightedDag:
    """The weights on g renamed by label, reduced unless local, tie-broken
    in generic mode, and re-verified."""
    w = {(label[u], label[v]): x for (u, v), x in zip(g.sorted_edges, weights)}
    wd = WeightedDag(Dag(g.n, w), w)
    if not local:
        wd = weighted_transitive_reduction(wd)
    if generic and not is_generic(wd):
        wd = break_ties(wd)
    _verify_counterexample(wd, premises, conclusions, generic)
    return wd


def _check_nodes(n: int, premises, conclusions) -> None:
    for s in (*premises, *conclusions):
        if s.j > n or any(k > n for k in s.L):
            raise ValueError(f"statement {s} references nodes outside 1..{n}")

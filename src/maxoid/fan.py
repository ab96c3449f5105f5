"""The weight-space fan of a DAG.

Weight space R^E is stratified by which path is heaviest between every
connected pair.  Each consistent choice of one path per pair that is
realizable by some generic weight vector spans a full-dimensional open cone;
the closures of these cones tile R^E and are in bijection with the CI
structures of generic weights.  Cones are enumerated by a depth-first search
over per-pair path choices with subpath-consistency and exact feasibility
pruning, so only realizable systems are ever completed.  A row is a path
comparison weight(winner) - weight(loser) > 0 as a tuple of ints over the
sorted edges; its entries are -1, 0 and 1, so it is primitive.  Before the
search, every path of every connected pair gets an id and its table entry
once: the sub-paths that choosing it forces, with their pairs; the
node_mask of its interior; its edge mask; its full rows against every
other path of its pair and, among them, its minimal rows against the
internally disjoint ones, all from one enumeration of the pair's paths,
which also gives the search its pair order.  Each distinct row gets an id
once, and the tables hold row ids.  A choice is then a path id per pair,
checked and forced from these tables, and a pair that an earlier choice
already forced is skipped in a loop.  The rows so far are marked in a bytearray indexed by
row id; a child's new rows are the unmarked rows of the sub-paths it forces,
each once, in sub-path order (the rows of a sub-path chosen earlier are all
marked).
The search carries down, next to its rows, a StrictTableau: a feasible
half-width dictionary of {c : every row >= 1}, which is nonempty exactly
when the open cone of the rows is.  A child node whose new rows its parent's
point already satisfies strictly keeps that tableau and solves no LP; any
other child appends the rows its tableau has not absorbed yet to a copy of
it and repairs that by dual simplex, so siblings still share the parent's
tableau.  The point stays in integers over the tableau's denominator from
the search to the printer: at a leaf checked_point tests it, in integers,
against every row of the cone's full system, and the entry keeps those
numerators and the denominator.  Its witness, the point as Fractions, is
made only when a caller asks for it; every pivot measured in the search has
d = 1, so the denominator is 1 on every fan measured.  A cone's CI structure
is read off its chosen paths, which are the critical paths of every weight
vector in it.  The cones of a complete fan share one lineality space, the
null space of any one cone's rows, so lineality_dimension reads it off an
entry that the caller already holds.

A subgraph's fan is a restriction of its graph's: restricted_systems reads
the critical systems of a subgraph h off the cones of a supergraph g's fan,
with no search and no path enumeration of h's own.  sliced_fan returns the
search's path tables with the cones, in a SlicedFan, so one table serves
both: h's paths are the table paths whose edge mask lies in h's, each
restriction is checked on the table rows between them, and a cone's
packed blockers on h's pairs identify its restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul, or_

from .graph import Dag, Path, enumerate_paths
from .linarith import StrictTableau, checked_point, rank_of
from .separation import Maxoid, _bit_indices, maxoid_from_blockers, node_mask


@dataclass(frozen=True)
class CriticalSystem:
    """One chosen path per connected ordered pair; the combinatorial label of
    a maximal cone.  Subpath-closed: the portion of a chosen path between any
    two of its nodes is the choice for that pair."""

    choices: tuple[tuple[tuple[int, int], Path], ...]
    # node_mask of each chosen path's interior, keyed like choices: under
    # weights of the open cone the critical k->l path is the chosen one, so
    # these are the blocker sets of separation.maxoid_from_blockers
    blockers: dict[tuple[int, int], int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class FanEntry:
    """A maximal cone: its critical system, the minimal rows of its open
    cone {c : every row > 0} over the sorted edges, its CI structure and an
    interior point point / den, with integer numerators and a positive
    integer den, checked against every row."""

    system: CriticalSystem
    inequalities: tuple[tuple[int, ...], ...]
    maxoid: Maxoid
    point: tuple[int, ...]
    den: int

    @property
    def witness(self) -> tuple[Fraction, ...]:
        """The interior point as Fractions, built on each call."""
        return tuple(Fraction(x, self.den) for x in self.point)


def _edge_index(g: Dag) -> dict[tuple[int, int], int]:
    return {e: k for k, e in enumerate(g.sorted_edges)}


def _path_comparison(index, winner: Path, loser: Path) -> tuple[int, ...]:
    """The row of weight(winner) - weight(loser) > 0 over edge coordinates."""
    row = [0] * len(index)
    for e in zip(winner, winner[1:]):
        row[index[e]] += 1
    for e in zip(loser, loser[1:]):
        row[index[e]] -= 1
    return tuple(row)


def enumerate_maximal_cones(g: Dag) -> list[FanEntry]:
    """All maximal cones of the fan, each with its critical system, a minimal
    inequality description, an interior witness and the witness's CI
    structure.  Exactly one entry per nonempty open cone; deterministic
    order."""
    return _search(g).entries


def _search(g: Dag) -> SlicedFan:
    """enumerate_maximal_cones' search: its entries with its path tables."""
    index = _edge_index(g)
    # one table entry per path, by path id, from one enumeration of each
    # connected pair's paths: the (pair position, path id) of each of its
    # sub-paths, the path itself included, which choosing it forces; its
    # interior's node_mask; its edge mask; the row ids of its full rows,
    # against every other path of its pair in path order, and of its
    # minimal rows, the full rows against the paths whose interior is
    # disjoint from its own.  Each distinct row gets its id once: it is
    # comparison[id]
    pairs = [(i, j) for i in g.nodes for j in sorted(g.descendants(i))]
    pair_paths: list[range] = []
    paths: list[Path] = []
    masks: list[int] = []
    row_ids: dict[tuple[int, ...], int] = {}
    full_rows: list[dict[int, int]] = []
    minimal_rows: list[list[int]] = []
    for key in pairs:
        found = enumerate_paths(g, *key)
        pair_paths.append(range(len(paths), len(paths) + len(found)))
        paths += found
        inner = [node_mask(p[1:-1]) for p in found]
        masks += inner
        for p, mask in zip(found, inner):
            full, minimal = {}, []
            for q, other, other_mask in zip(pair_paths[-1], found, inner):
                if other != p:
                    rid = row_ids.setdefault(_path_comparison(index, p, other), len(row_ids))
                    full[q] = rid
                    if not mask & other_mask:
                        minimal.append(rid)
            full_rows.append(full)
            minimal_rows.append(minimal)
    comparison = list(row_ids)
    edge_masks = [sum(1 << index[e] for e in zip(p, p[1:])) for p in paths]
    ids = {path: i for i, path in enumerate(paths)}
    position = {key: i for i, key in enumerate(pairs)}
    forces = [[(position[path[a], path[b]], ids[path[a:b + 1]])
               for a in range(len(path)) for b in range(a + 1, len(path))]
              for path in paths]
    # the ids of the full rows of every sub-path that choosing a path
    # forces, each once: two sub-paths can give one row (a->x->b against
    # a->b is also a->x->b->c against a->b->c), and the LP takes it once
    sub_rows = [list(dict.fromkeys(rid for _, sub in forced for rid in full_rows[sub].values()))
                for forced in forces]
    # the search takes the pairs by the length of their shortest path, then
    # lexicographically; chosen[i] is the path id chosen for pairs[i]
    order = sorted(range(len(pairs)),
                   key=lambda i: (min(len(paths[p]) for p in pair_paths[i]), pairs[i]))
    chosen: list[int | None] = [None] * len(pairs)
    # seen[id] is 1 while the row comparison[id] is among the rows so far
    seen = bytearray(len(comparison))
    entries: list[FanEntry] = []

    def dfs(idx: int, rows: list[tuple[int, ...]], tab: StrictTableau):
        while idx < len(order) and chosen[order[idx]] is not None:
            idx += 1
        if idx == len(order):
            # rows is the cone's whole system, the minimal rows among them
            checked_point(tab.point, rows, tab.d)
            minimal = dict.fromkeys(rid for i in order for rid in minimal_rows[chosen[i]])
            system = CriticalSystem(tuple(zip(pairs, map(paths.__getitem__, chosen))),
                                    dict(zip(pairs, map(masks.__getitem__, chosen))))
            entries.append(FanEntry(system, tuple(map(comparison.__getitem__, minimal)),
                                    maxoid_from_blockers(g.n, system.blockers),
                                    tuple(tab.point), tab.d))
            return
        for pid in pair_paths[order[idx]]:
            forced = []
            for pos, sub in forces[pid]:
                old = chosen[pos]
                if old is None:
                    forced.append((pos, sub))
                elif old != sub:
                    break
            else:  # no sub-pair chose another path: force the unset ones
                for pos, sub in forced:
                    chosen[pos] = sub
                # a sub-path chosen before brought all its rows in then
                new = [rid for rid in sub_rows[pid] if not seen[rid]]
                new_rows = [comparison[rid] for rid in new]
                if all(sum(map(mul, r, tab.point)) > 0 for r in new_rows):
                    child = tab  # the parent's point lies strictly inside the child too
                else:
                    # the tableau has absorbed rows[:len(tab.T)], one row of T each
                    child = tab.extended(rows[len(tab.T):] + new_rows)
                if child is not None:
                    rows.extend(new_rows)
                    for rid in new:
                        seen[rid] = 1
                    dfs(idx + 1, rows, child)
                    del rows[len(rows) - len(new_rows):]
                    for rid in new:
                        seen[rid] = 0
                for pos, _ in forced:
                    chosen[pos] = None

    try:
        dfs(0, [], StrictTableau(len(index)))
    finally:
        # dfs refers to itself; breaking that cycle frees the search state
        # on return instead of at the next garbage collection
        del dfs
    return SlicedFan(g, entries, index, pairs, pair_paths, ids, edge_masks, full_rows, comparison)


def lineality_dimension(entry: FanEntry) -> int:
    """Dimension of the common linear subspace of all cones, read off any
    one maximal cone: |E|, the length of its point, minus the rank of its
    minimal rows.  The closed cone is {c : every row >= 0}, whose lineality
    space is the null space of its rows, and all maximal cones of the
    complete fan share one lineality space."""
    return len(entry.point) - rank_of(entry.inequalities)


def _packed_blockers(system: CriticalSystem, n: int) -> int:
    """The system's blocker masks in one int, n + 1 bits per pair in the
    order of its blockers; a union of systems is the OR of theirs."""
    return sum(b << k * (n + 1) for k, b in enumerate(system.blockers.values()))


@dataclass(frozen=True)
class SlicedFan:
    """A graph's fan entries with the path tables of the search that found
    them.  index is the graph's edge index; pairs are the connected pairs in
    lexicographic order, as in every entry's choices; pair_paths[i] ranges
    over the ids of pairs[i]'s paths, in lexicographic order; ids[path] is a
    path's id, edge_masks[p] path p's mask of the bits index[e] of its edges
    e, and full_rows[p][q] the id of the row comparison[id] of p against q,
    another path of its pair.  Built on first read: choosing[p] has bit k
    set when entries[k] chooses path p; packed[k] is entries[k]'s blockers
    packed by _packed_blockers."""

    graph: Dag
    entries: list[FanEntry]
    index: dict[tuple[int, int], int]
    pairs: list[tuple[int, int]]
    pair_paths: list[range]
    ids: dict[Path, int]
    edge_masks: list[int]
    full_rows: list[dict[int, int]]
    comparison: list[tuple[int, ...]]

    @cached_property
    def choosing(self) -> list[int]:
        slices = [0] * len(self.ids)
        for k, entry in enumerate(self.entries):
            for _, path in entry.system.choices:
                slices[self.ids[path]] |= 1 << k
        return slices

    @cached_property
    def packed(self) -> list[int]:
        return [_packed_blockers(e.system, self.graph.n) for e in self.entries]


def sliced_fan(g: Dag) -> SlicedFan:
    """g's maximal cones, enumerate_maximal_cones(g), with the search's path
    tables and the cones' slices."""
    return _search(g)


def restricted_systems(h: Dag, fan: SlicedFan) -> list[CriticalSystem]:
    """The critical systems of h's maximal cones, read off the fan of a
    supergraph g = fan.graph of h (every edge of h an edge of g): one per
    distinct restriction, in the order of the first cone of g giving it.
    ValueError when an edge of h is not in g.

    The restriction of a system of g to h keeps its choices on the pairs
    connected in h.  h's systems are exactly the restrictions of the cones
    of g whose chosen paths on those pairs all lie in h, and the point of
    such a cone, restricted to h's edges, is interior to the restriction's
    cone of h's fan:
    - such a cone's chosen path of an h-pair is strictly heavier, at its
      point, than every other path of g between the same nodes, so than
      every other path of h: at the restricted point it is h's critical path
      of the pair, strictly, and the restriction is h's system there;
    - conversely, take a point interior to the cone of one of h's systems
      and give every edge outside h a weight below minus the sum of the
      absolute weights of h's edges.  Then every path that leaves h is
      lighter than every path of h between the same nodes, so on h's pairs
      g's critical paths are h's, strictly.  That holds on an open set of
      g's weight space, which meets the open cone of some maximal cone of g
      (their closures cover it); that cone chooses h's system on h's pairs.
    Everything is read off fan's tables.  h's paths of a pair are the
    pair's table paths whose edge mask lies in h's.  The cones that choose
    only h-paths on h's pairs are found bit-sliced: the AND over h's pairs
    of the OR of the slices of the pair's paths in h.  A DAG path is fixed
    by its end points and its interior node set, so a cone's blockers on
    h's pairs, packed[k] AND the bits of h's pairs, identify its
    restriction: one AND per cone.  Each restriction's point is checked,
    with checked_point, against every row of its system in h: its chosen
    path against every other path of h between the same nodes.  That is
    the table row on g's point: the row of two paths of h is zero off h's
    edges and h's own row on them, so it scores g's point as h's row
    scores the point restricted to h.
    """
    missing = h.edges - fan.index.keys()
    if missing:
        raise ValueError(f"edges {sorted(missing)} of the subgraph are not edges of the graph")
    outside = ~sum(1 << fan.index[e] for e in h.edges)
    pairs = {(i, j) for i in h.nodes for j in h.descendants(i)}
    width = fan.graph.n + 1
    ids, edge_masks, full_rows, comparison = fan.ids, fan.edge_masks, fan.full_rows, fan.comparison
    # h's pairs sit at on_h in fan.pairs, with the ids of their paths in h
    # in inner, and keep has the bits of their blockers in packed
    on_h: list[int] = []
    inner: list[list[int]] = []
    compatible = (1 << len(fan.entries)) - 1
    keep = 0
    for k, key in enumerate(fan.pairs):
        if key in pairs:
            on_h.append(k)
            inner.append([p for p in fan.pair_paths[k] if not edge_masks[p] & outside])
            compatible &= reduce(or_, map(fan.choosing.__getitem__, inner[-1]))
            keep |= (1 << width) - 1 << k * width
    systems: dict[int, CriticalSystem] = {}
    for k in _bit_indices(compatible):
        code = fan.packed[k] & keep
        if code not in systems:
            entry = fan.entries[k]
            choices = tuple(entry.system.choices[i] for i in on_h)
            full = [full_rows[ids[path]] for _, path in choices]
            checked_point(entry.point, (comparison[rows[q]] for rows, paths in zip(full, inner)
                                        for q in paths if q in rows), entry.den)
            blockers = entry.system.blockers
            systems[code] = CriticalSystem(choices, {key: blockers[key] for key, _ in choices})
    if not systems:
        raise AssertionError("no cone of the graph's fan restricts to the subgraph")
    return list(systems.values())

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
vector in it: a leaf records only its path ids and point, and after the
search one batch call of separation.maxoids_from_blockers on the chosen
paths' interiors gives every cone's structure, so up to 6 nodes the
kernel's word arithmetic runs once per chunk of cones, not once per cone
(see separation).  The cones of a complete fan share one lineality space,
the null space of any one cone's rows, so lineality_dimension reads it off
an entry that the caller already holds.

A subgraph's fan is a restriction of its graph's: restricted_systems reads
the critical systems of a subgraph h off the cones of a supergraph g's fan,
with no search and no path enumeration of h's own.  sliced_fan returns the
search's path tables with the cones, in a SlicedFan, so one table serves
both: h's paths are the table paths whose edge mask lies in h's, each
restriction's point is checked by scoring each of them once, and a cone's
packed blockers on h's pairs identify its restriction.  It keeps each
cone's chosen path ids, so restrictions read table rows by id.

The reversal rho: v -> n+1-v, with every edge reversed, maps every complete
DAG to itself, and so its fan: the cone of a system S goes to the cone of
rho(S), the system of the mirrored paths.  When rho maps g's edges onto
themselves, sliced_fan searches in symmetric mode (see _search): it takes
each pair next to its mirror pair, prunes every node whose path-id vector
is larger than its mirror's (lex-leader symmetry breaking), and emits each
kept cone's mirror with the kept point's coordinates permuted by rho's edge
map, checked like any point, and the structure computed from the mirrored
blockers.  About half the cones are searched: on complete-5 and complete-6
it makes 82 and 2075 LP calls against the full search's 156 and 4990.
Sorted into the full search's order, its entries are the full search's but
for their points, so a restriction or a census read off them does not
change.  enumerate_maximal_cones, whose points are printed, keeps the full
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import mul, or_

from .graph import Dag, Path, enumerate_paths
from .linarith import StrictTableau, checked_point, rank_of
from .separation import Maxoid, _bit_indices, maxoids_from_blockers, node_mask


@dataclass(frozen=True)
class CriticalSystem:
    """One chosen path per connected ordered pair; the combinatorial label of
    a maximal cone.  Subpath-closed: the portion of a chosen path between any
    two of its nodes is the choice for that pair."""

    choices: tuple[tuple[tuple[int, int], Path], ...]
    # node_mask of each chosen path's interior, keyed like choices: under
    # weights of the open cone the critical k->l path is the chosen one, so
    # these are the blocker sets of separation.maxoid_from_blockers and
    # the rows of its batch, maxoids_from_blockers
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


def _reversal(g: Dag) -> list[int] | None:
    """The edge map of the reversal rho: v -> n+1-v with every edge
    reversed, as positions in g.sorted_edges: rho sends sorted edge k to
    sorted edge reversal[k].  None when rho does not map g's edges onto
    themselves."""
    index = _edge_index(g)
    n1 = g.n + 1
    try:
        return [index[n1 - v, n1 - u] for u, v in g.sorted_edges]
    except KeyError:
        return None


def _search(g: Dag, reversal: list[int] | None = None) -> SlicedFan:
    """enumerate_maximal_cones' search: its entries with its path tables.

    With reversal, the edge map _reversal(g), the search runs in
    symmetric mode and returns the same entries in the same order, but for
    their points.  rho maps each path p of g from i to j, one to one, to the
    path rho(p) from n+1-j to n+1-i through the mirrored nodes, and a system
    S to rho(S), which chooses rho(p) where S chooses p.
    - rho(S) is subpath-closed when S is: the portion of rho(p) between
      rho(b) and rho(a) is rho of the portion of p between a and b, which S
      chooses, so rho(S) chooses it.
    - rho maps the open cone of S onto that of rho(S): let rho act on
      weights by (rho c)[rho(e)] = c[e].  Then rho(p) weighs at rho c what p
      weighs at c, and the paths of the pair rho(i, j) are rho of the paths
      of (i, j); so at rho c rho(S)'s path of every pair is strictly
      heavier than the pair's other paths exactly when S's paths are at c.
      rho is a linear involution, so it maps the one open cone onto the
      other.
    So the set of nonempty cones is closed under rho, and a cone's point
    permuted by the edge map is interior to the mirror cone.  The search
    takes each pair next to its mirror pair, and prunes a node when its
    choice vector (the path ids in that order) is lexicographically larger
    than its mirror's, the ids of rho of the choices of the mirrored pairs
    in the same order (Crawford, Ginsberg, Luks and Roy, KR 1996): the
    first position decided on both sides after an equal prefix decides,
    and no completion of the node can change it.  Of the two systems of an
    orbit the smaller vector is kept; a system equal to its mirror is kept
    alone.  Each kept leaf also emits its mirror, whose point checked_point
    tests against every full row of the mirror system, read from the
    tables, and whose structure, like every cone's, comes from the batch
    kernel on its own blockers after the search.  The full search's DFS
    order is the lexicographic order of the choice
    vectors in its pair order (two leaves part at one branching pair, the
    pairs before it equal), so sorting by that vector restores it.
    """
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
    # the full search takes the pairs by the length of their shortest path,
    # then lexicographically; chosen[i] is the path id chosen for pairs[i]
    shortest = [min(len(paths[p]) for p in pair_paths[i]) for i in range(len(pairs))]
    order = sorted(range(len(pairs)), key=lambda i: (shortest[i], pairs[i]))
    branch = order
    if reversal is not None:
        # rho on path ids and on pair positions; the symmetric search takes
        # each pair next to its mirror pair, by shortest path, span and label
        n1 = g.n + 1
        mirror_ids = [ids[tuple(n1 - v for v in reversed(p))] for p in paths]
        mirror_pos = [position[n1 - j, n1 - i] for i, j in pairs]
        branch = []
        for i in sorted(order, key=lambda i: (shortest[i], pairs[i][1] - pairs[i][0], pairs[i])):
            if i not in branch:
                branch += dict.fromkeys((i, mirror_pos[i]))
        partner = [mirror_pos[i] for i in branch]
    # a node's lex-leader state lead: its first lead positions of branch are
    # decided and equal to its mirror's; LESS, its choice vector is smaller
    # than its mirror's, so its leaves emit their mirrors too.  The full
    # search starts past LESS, where nothing is tested or mirrored
    LESS = len(branch) + 1
    chosen: list[int | None] = [None] * len(pairs)
    # seen[id] is 1 while the row comparison[id] is among the rows so far
    seen = bytearray(len(comparison))
    # per leaf, its cone's chosen path ids and its point and denominator;
    # the entries are built from these after the search
    path_ids: list[bytes | tuple[int, ...]] = []
    points: list[tuple[tuple[int, ...], int]] = []
    pack = bytes if len(paths) <= 256 else tuple

    def leader(k: int) -> int:
        """The lex-leader state after forcing, from state k: -1 when the
        mirror's vector is smaller, so that its own leaf emits this cone."""
        while k < len(branch):
            a, b = chosen[branch[k]], chosen[partner[k]]
            if a is None or b is None:
                return k
            b = mirror_ids[b]
            if a != b:
                return LESS if a < b else -1
            k += 1
        return k

    def emit(choice: list[int], point: list[int], d: int) -> None:
        """Record the cone that chooses the path ids choice, with its
        interior point point / d."""
        path_ids.append(pack(choice))
        points.append((tuple(point), d))

    def dfs(idx: int, rows: list[tuple[int, ...]], tab: StrictTableau, lead: int):
        while idx < len(branch) and chosen[branch[idx]] is not None:
            idx += 1
        if idx == len(branch):
            # rows is the cone's whole system, the minimal rows among them
            checked_point(tab.point, rows, tab.d)
            emit(chosen, tab.point, tab.d)
            if lead == LESS:  # the mirror is another cone: emit it too
                mirrored = [mirror_ids[chosen[i]] for i in mirror_pos]
                # rho is an involution, so the mirror point's coordinate of
                # edge k is the kept point's of edge reversal[k]; it is
                # checked against every full row of the mirror system, each
                # once
                point = list(map(tab.point.__getitem__, reversal))
                checked_point(point, map(comparison.__getitem__, dict.fromkeys(chain.from_iterable(
                    map(dict.values, map(full_rows.__getitem__, mirrored))))), tab.d)
                emit(mirrored, point, tab.d)
            return
        for pid in pair_paths[branch[idx]]:
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
                now = lead if lead >= LESS else leader(lead)
                if now >= 0:  # else the mirror's leaf emits this node's cones
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
                        dfs(idx + 1, rows, child, now)
                        del rows[len(rows) - len(new_rows):]
                        for rid in new:
                            seen[rid] = 0
                for pos, _ in forced:
                    chosen[pos] = None

    try:
        dfs(0, [], StrictTableau(len(index)), LESS + 1 if reversal is None else 0)
    finally:
        # dfs refers to itself; breaking that cycle frees the search state
        # on return instead of at the next garbage collection
        del dfs
    if reversal is not None:
        # the full search's order: its choice vectors in its pair order
        ranks = sorted(range(len(path_ids)), key=path_ids.__getitem__ if order == sorted(order)
                       else lambda k: pack(map(path_ids[k].__getitem__, order)))
        path_ids = [path_ids[k] for k in ranks]
        points = [points[k] for k in ranks]
    # every cone's structure, from its chosen paths' interiors, in batches
    structures = maxoids_from_blockers(g.n, pairs, (map(masks.__getitem__, choice)
                                                    for choice in path_ids))
    entries = []
    for choice, (point, d), bits in zip(path_ids, points, structures):
        minimal = dict.fromkeys(chain.from_iterable(
            map(minimal_rows.__getitem__, map(choice.__getitem__, order))))
        system = CriticalSystem(tuple(zip(pairs, map(paths.__getitem__, choice))),
                                dict(zip(pairs, map(masks.__getitem__, choice))))
        entries.append(FanEntry(system, tuple(map(comparison.__getitem__, minimal)),
                                Maxoid.from_bits(g.n, bits), point, d))
    return SlicedFan(g, entries, path_ids, index, pairs, pair_paths, ids, edge_masks)


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
    them.  path_ids[k] holds the ids of entries[k]'s chosen paths in pair
    order, as bytes when the graph has at most 256 paths; index is the
    graph's edge index; pairs are the connected pairs in lexicographic
    order, as in every entry's choices; pair_paths[i] ranges over the ids of
    pairs[i]'s paths, in lexicographic order; ids[path] is a path's id and
    edge_masks[p] path p's mask of the bits index[e] of its edges e.  Built
    on first read: choosing[p] has bit k set when
    entries[k] chooses path p; edges[p] lists the index[e] of path p's edges
    e, in path order; packed[k] is entries[k]'s blockers packed by
    _packed_blockers."""

    graph: Dag
    entries: list[FanEntry]
    path_ids: list[bytes | tuple[int, ...]]
    index: dict[tuple[int, int], int]
    pairs: list[tuple[int, int]]
    pair_paths: list[range]
    ids: dict[Path, int]
    edge_masks: list[int]

    @cached_property
    def choosing(self) -> list[int]:
        slices = [0] * len(self.ids)
        for k, chosen in enumerate(self.path_ids):
            for p in chosen:
                slices[p] |= 1 << k
        return slices

    @cached_property
    def edges(self) -> list[tuple[int, ...]]:
        index = self.index
        return [tuple(index[e] for e in zip(p, p[1:])) for p in self.ids]

    @cached_property
    def packed(self) -> list[int]:
        return [_packed_blockers(e.system, self.graph.n) for e in self.entries]


def sliced_fan(g: Dag) -> SlicedFan:
    """g's maximal cones, enumerate_maximal_cones(g) but for their points,
    with the search's path tables and the cones' slices.  Searched in
    _search's symmetric mode when the reversal rho maps g's edges onto
    themselves, as on every complete DAG: then about half the cones are
    searched and the others mirrored, with other points than the full
    search's."""
    return _search(g, _reversal(g))


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
    restriction: one AND per cone.  Each restriction's point is checked:
    its den is positive, and at its point each h-pair's chosen path, read
    by the cone's path ids, scores strictly above every other path of h
    between the same nodes, each path scored once, as the sum of the
    point's coordinates on its edges (edges[p]).  That tests the rows of
    its system in h on the restricted point: the row of two paths of h is
    zero off h's edges, so it scores g's point as h's row scores the point
    restricted to h, and it is positive exactly when the first path
    outscores the second.
    """
    missing = h.edges - fan.index.keys()
    if missing:
        raise ValueError(f"edges {sorted(missing)} of the subgraph are not edges of the graph")
    outside = ~sum(1 << fan.index[e] for e in h.edges)
    pairs = {(i, j) for i in h.nodes for j in h.descendants(i)}
    width = fan.graph.n + 1
    edge_masks = fan.edge_masks
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
    edges = fan.edges
    systems: dict[int, CriticalSystem] = {}
    for k in _bit_indices(compatible):
        code = fan.packed[k] & keep
        if code not in systems:
            entry, chosen = fan.entries[k], fan.path_ids[k]
            point, den = entry.point, entry.den
            if den <= 0:
                raise ValueError(f"denominator {den} of witness {point} is not positive")
            # the chosen path of each h-pair strictly heaviest in h at point
            for i, paths in zip(on_h, inner):
                c = chosen[i]
                best = sum(map(point.__getitem__, edges[c]))
                for q in paths:
                    if q != c and sum(map(point.__getitem__, edges[q])) >= best:
                        raise AssertionError(f"witness {point} / {den} violates path {c} "
                                             f"heavier than path {q}")
            choices = tuple(entry.system.choices[i] for i in on_h)
            blockers = entry.system.blockers
            systems[code] = CriticalSystem(choices, {key: blockers[key] for key, _ in choices})
    if not systems:
        raise AssertionError("no cone of the graph's fan restricts to the subgraph")
    return list(systems.values())

"""The weight-space fan of a DAG.

Weight space R^E is stratified by which path is heaviest between every
connected pair.  Each consistent choice of one path per pair that is
realizable by some generic weight vector spans a full-dimensional open cone;
the closures of these cones tile R^E and are in bijection with the CI
structures of generic weights.  Cones are enumerated by a depth-first search
over per-pair path choices with subpath-consistency and exact feasibility
pruning, so only realizable systems are ever completed.  A row is a
path comparison weight(winner) - weight(loser) > 0 as a tuple of ints over
the sorted edges; its entries are -1, 0 and 1, so it is primitive.  The
search carries down, next to its rows, a StrictTableau: a feasible compact
dictionary of {c : every row >= 1}, which is nonempty exactly when the open
cone of the rows is.  A child node whose new rows its parent's point
already satisfies strictly keeps that tableau and solves no LP; any other
child appends the rows its tableau has not absorbed yet to a copy of it and
repairs that by dual simplex, so siblings still share the parent's
tableau.  The point stays in integers over the tableau's denominator during
the search: only at a leaf is it checked, in integers, against every row of
the cone's full system, and only then made into the Fractions of the
entry's witness.  A cone's CI structure is read off its chosen paths, which
are the critical paths of every weight vector in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .graph import Dag, Path, enumerate_paths
from .linarith import StrictTableau, Witness, rank_of
from .separation import Maxoid, maxoid_from_blockers, node_mask
from .tropical import WeightedDag, critical_paths, is_generic


class NonGenericError(ValueError):
    """Raised when an operation requires a tie-free weight vector."""


@dataclass(frozen=True)
class CriticalSystem:
    """One chosen path per connected ordered pair; the combinatorial label of
    a maximal cone.  Subpath-closed: the portion of a chosen path between any
    two of its nodes is the choice for that pair."""

    choices: tuple[tuple[tuple[int, int], Path], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Path]) -> "CriticalSystem":
        return CriticalSystem(tuple(sorted(d.items())))

    def as_dict(self) -> dict[tuple[int, int], Path]:
        return dict(self.choices)

    def path(self, i: int, j: int) -> Path:
        return self.as_dict()[(i, j)]

    @cached_property
    def blockers(self) -> dict[tuple[int, int], int]:
        """node_mask of each chosen path's interior: under weights of the
        open cone the critical k->l path is the chosen one, so these are the
        blocker sets of separation.maxoid_from_blockers."""
        return {key: node_mask(path[1:-1]) for key, path in self.choices}


@dataclass(frozen=True)
class ConeDescription:
    """An open cone {c : every row > 0} in R^E; each row is a primitive
    tuple of ints over the sorted edges."""

    strict: tuple[tuple[int, ...], ...]
    nvars: int


@dataclass(frozen=True)
class FanEntry:
    system: CriticalSystem
    cone: ConeDescription
    maxoid: Maxoid
    witness: Witness


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


def _internally_disjoint(p: Path, q: Path) -> bool:
    return not (set(p[1:-1]) & set(q[1:-1]))


def _connected_pairs(g: Dag) -> list[tuple[int, int]]:
    """Ordered connected pairs, by length of the shortest path then lex."""
    pairs = []
    for i in g.nodes:
        for j in sorted(g.descendants(i)):
            shortest = min(len(p) for p in enumerate_paths(g, i, j))
            pairs.append((shortest, i, j))
    return [(i, j) for _, i, j in sorted(pairs)]


def cone_of(wd: WeightedDag, minimal: bool = False) -> ConeDescription:
    """Inequality description of the open cone of weight vectors sharing
    wd's critical paths: one strict row per (pair, non-critical path).

    With minimal=True only comparisons between internally disjoint paths are
    kept; comparisons through a shared intermediate node are implied by the
    sub-pair comparisons, so both forms cut out the same open set.
    """
    if not is_generic(wd):
        raise NonGenericError("cone description requires tie-free weights")
    g = wd.g
    index = _edge_index(g)
    rows: list[tuple[int, ...]] = []
    seen = set()
    for i, j in _connected_pairs(g):
        crit = critical_paths(wd, i, j)[0]
        for row in _pair_rows(g, index, (i, j), crit, minimal):
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return ConeDescription(tuple(rows), len(index))


def _pair_rows(g: Dag, index, key, chosen: Path, minimal: bool) -> list[tuple[int, ...]]:
    """One strict row per key path other than chosen that chosen must beat;
    with minimal=True only the internally disjoint ones."""
    return [_path_comparison(index, chosen, p) for p in enumerate_paths(g, *key)
            if p != chosen and (not minimal or _internally_disjoint(chosen, p))]


def enumerate_maximal_cones(g: Dag) -> list[FanEntry]:
    """All maximal cones of the fan, each with its critical system, a minimal
    inequality description, an interior witness and the witness's CI
    structure.  Exactly one entry per nonempty open cone; deterministic
    order."""
    index = _edge_index(g)
    nvars = len(index)
    pairs = _connected_pairs(g)
    path_lists = {pq: enumerate_paths(g, *pq) for pq in pairs}
    entries: list[FanEntry] = []
    row_memo: dict[tuple, list[tuple[int, ...]]] = {}

    def system_rows(choices: dict, keys, minimal: bool) -> list[tuple[int, ...]]:
        rows = []
        for key in keys:
            memo_key = (key, choices[key], minimal)
            if memo_key not in row_memo:
                row_memo[memo_key] = _pair_rows(g, index, key, choices[key], minimal)
            rows.extend(row_memo[memo_key])
        return rows

    def propagate(choices: dict, key, path: Path):
        """Assign path to key and force all sub-pair choices; None on clash."""
        forced = []
        for a in range(len(path)):
            for b in range(a + 1, len(path)):
                sub, subkey = path[a:b + 1], (path[a], path[b])
                if subkey in choices:
                    if choices[subkey] != sub:
                        undo(choices, forced)
                        return None
                else:
                    choices[subkey] = sub
                    forced.append(subkey)
        return forced

    def undo(choices: dict, forced):
        for k in forced:
            del choices[k]

    def dfs(idx: int, choices: dict, rows: list[tuple[int, ...]], seen: set,
            tab: StrictTableau):
        if idx == len(pairs):
            # rows is the cone's whole system, the minimal rows among them
            witness = Witness.checked(tab.point, rows, tab.d)
            minimal = dict.fromkeys(system_rows(choices, pairs, minimal=True))
            system = CriticalSystem.from_dict(choices)
            entries.append(FanEntry(
                system=system,
                cone=ConeDescription(tuple(minimal), nvars),
                maxoid=maxoid_from_blockers(g.n, system.blockers),
                witness=witness,
            ))
            return
        key = pairs[idx]
        if key in choices:
            dfs(idx + 1, choices, rows, seen, tab)
            return
        for path in path_lists[key]:
            forced = propagate(choices, key, path)
            if forced is None:
                continue
            new_rows = [r for r in system_rows(choices, forced, minimal=False)
                        if r not in seen]
            if all(sum(map(mul, r, tab.point)) > 0 for r in new_rows):
                child = tab  # the parent's point lies strictly inside the child too
            else:
                # the tableau has absorbed rows[:len(tab.T)], one row of T each
                child = tab.extended(rows[len(tab.T):] + new_rows)
            if child is not None:
                rows.extend(new_rows)
                seen.update(new_rows)
                dfs(idx + 1, choices, rows, seen, child)
                del rows[len(rows) - len(new_rows):]
                seen.difference_update(new_rows)
            undo(choices, forced)

    try:
        dfs(0, {}, [], set(), StrictTableau(nvars))
    finally:
        # dfs refers to itself; breaking that cycle frees the search state
        # on return instead of at the next garbage collection
        del dfs
    return entries


def lineality_dimension(g: Dag) -> int:
    """Dimension of the common linear subspace of all cones: |E| minus the
    rank of the minimal rows of one maximal cone, the one in which edge k
    of the sorted edges weighs 2^k.  Two distinct parallel paths have
    distinct edge sets, so these weights tie nowhere, and all maximal cones
    of the complete fan share one lineality space."""
    index = _edge_index(g)
    cone = cone_of(WeightedDag(g, {e: 2 ** k for e, k in index.items()}), minimal=True)
    return len(index) - rank_of(cone.strict)

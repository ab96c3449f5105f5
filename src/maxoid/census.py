"""Census of CI structures over topologically ordered transitively closed DAGs.

A TDAG has all edges (i,j) with i < j, is transitively closed and weakly
connected.  Every CI structure of any weighted DAG also arises on a
transitively closed graph, so TDAGs carry a complete census up to vertex
relabeling.  Generic structures come from the maximal cones of each graph's
fan; tied (non-generic) ones from the faces of each graph's polytope.

Every TDAG is a subgraph of the complete DAG on its nodes, so its fan is a
restriction of the complete DAG's (fan.restricted_systems): a census
searches the complete fan once, on its first graph that the cache does not
answer, and reads every graph's critical systems off it, with no path
search of the graph's own: off the one path table that the search built,
which fan.sliced_fan keeps with the cones and their chosen path ids.  The
complete DAG is its own reverse (v -> n+1-v, every edge reversed), so
sliced_fan searches one cone of each reversal orbit and mirrors the other:
about half the LPs of the full search, with the same systems in the same
order.  The generic structures are the systems' maxoids, from one batch
call of separation.maxoids_from_blockers per class on its systems'
blockers (the complete DAG's own are its fan entries', which the fan
batches likewise), and the face structures come from the polytope of the
same systems (polytope.face_structures, imported only when faces are
asked for).

The family is a list of edge masks (graph.closed_dag_masks grows them node
by node).  Separation does not depend on node names, so a graph's
structures under a relabeling are its structures relabeled.  The census
therefore reads one fan (and face lattice) per isomorphism class of the
family, on the class's first member (graph.mask_classes, found on the
masks: 44 classes for the 181 TDAGs on five nodes, 238 for the 2792 on
six), builds a Dag for that member only, and renames each structure to
every member of the class by walking its set bits through that member's
bit table (separation._relabelings).

Each representative's Dag goes to a worker, and its structures come back
as the ints of Maxoid.bits: bit k is the k-th statement in the order a
maxoid prints them.  A worker process searches the complete fan itself,
once, on its first miss.  These results can be cached on disk, so large
runs are resumable: set MAXOID_CACHE_DIR to enable.  The census caches one
file per class representative, holding those ints as JSON integers, named
by a hash of the graph and of the package's source, so a file written by
other code is never read; an unreadable or invalid file counts as a miss
and is rewritten.  A census that the cache answers for every class
searches no fan.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Callable, Iterator

from .fan import SlicedFan, restricted_systems, sliced_fan
from .graph import Dag, closed_dag_masks, dag_to_json, mask_classes, mask_dag
from .separation import (Maxoid, _mapped_bits, _relabelings, _statement_tables,
                         maxoids_from_blockers)

CACHE_ENV = "MAXOID_CACHE_DIR"


@dataclass
class TdagFamily:
    """Graphs on 1..n whose edges point from a smaller to a larger label, as
    edge masks: bit k stands for the k-th pair i < j in lexicographic order,
    as in graph.closed_dag_masks."""

    n: int
    masks: list[int]

    @property
    def graphs(self) -> list[Dag]:
        """A Dag per mask, in order."""
        return [mask_dag(self.n, mask) for mask in self.masks]

    @cached_property
    def classes(self) -> list[tuple[Dag, list[tuple[int, ...]]]]:
        """graph.mask_classes of the masks, with a Dag for each representative
        only; ValueError naming an entry that is not a distinct edge mask."""
        return [(mask_dag(self.n, mask), labels)
                for mask, labels in mask_classes(self.n, self.masks)]


def all_top_ordered_tdags(n: int) -> TdagFamily:
    """All transitively closed, weakly connected edge subsets of
    {(i,j): i<j}, in the order of graph.closed_dag_masks.  Connectivity
    subsumes the no-isolated-node requirement and is what the reference
    counts (3, 18, 181 for n = 3, 4, 5) pin down."""
    if n < 1:
        raise ValueError("need at least one node")
    return TdagFamily(n, closed_dag_masks(n, connected=True))


@cache
def _source_digest() -> str:
    """SHA-256 over the name and content of every module of the package,
    computed once per process."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(f"{name}\0{hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    return digest.hexdigest()


def _graph_key(g: Dag) -> str:
    blob = json.dumps({"dag": dag_to_json(g), "source": _source_digest()},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(g: Dag) -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, _graph_key(g) + ".json")


def _bits_list(value, limit: int) -> bool:
    """Whether value is a list of ints in [0, limit)."""
    return isinstance(value, list) and all(type(b) is int and 0 <= b < limit for b in value)


def _read_cache(path: str, n: int) -> dict | None:
    """The cached record at path, or None when it is missing, does not parse
    or is not a record of structures on 1..n: a nonempty generic list, since
    every fan has a cone, and a faces list unless that is absent or null."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    limit = 1 << len(_statement_tables[n].statements)
    if not (isinstance(data, dict) and _bits_list(data.get("generic"), limit) and data["generic"]
            and (data.get("faces") is None or _bits_list(data["faces"], limit))):
        return None
    return {"generic": data["generic"], "faces": data.get("faces")}


def _complete_fan(n: int) -> SlicedFan:
    """The sliced fan of the complete DAG on 1..n, edges pointing up."""
    return sliced_fan(Dag(n, combinations(range(1, n + 1), 2)))


def graph_maxoids(g: Dag, include_faces: bool,
                  fan: Callable[[], SlicedFan] | None = None) -> dict[str, list[int] | None]:
    """Generic (and optionally face) CI structures of one graph whose edges
    point up, as {"generic": [bits], "faces": [bits] or None}, where bits is
    Maxoid.bits: the generic ones in the order of the first cone of the
    complete fan that gives each system, the faces' in lattice order.
    Reads the disk cache when enabled; a miss computes what the call asks
    for and replaces the record.  fan returns the complete DAG's sliced
    fan and is called on a miss only; without it, a miss searches that fan
    itself."""
    path = _cache_path(g)
    data = _read_cache(path, g.n) if path else None
    if data is None or (include_faces and data["faces"] is None):
        complete = fan() if fan else _complete_fan(g.n)
        if g.edges == complete.graph.edges:
            systems = [e.system for e in complete.entries]
            generic = [e.maxoid.bits for e in complete.entries]
        else:
            systems = restricted_systems(g, complete)
            generic = maxoids_from_blockers(g.n, systems[0].blockers,
                                            (s.blockers.values() for s in systems))
        faces = None
        if include_faces:
            from .polytope import face_structures

            faces = [m.bits for m, _ in face_structures(g, systems)]
        data = {"generic": generic, "faces": faces}
        if path:
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
    return data


def _graph_text(g: Dag) -> str:
    return json.dumps(dag_to_json(g), sort_keys=True)


# a spawned worker's complete fan, searched on its first miss; each worker
# process lives for one census, so it serves one census only
_worker_fan: Callable[[], SlicedFan] | None = None


def _start_worker(n: int) -> None:
    global _worker_fan
    _worker_fan = cache(partial(_complete_fan, n))


def _worker(args, fan: Callable[[], SlicedFan] | None = None) -> dict:
    g, include_faces = args
    try:
        return graph_maxoids(g, include_faces, fan or _worker_fan)
    except Exception as exc:
        raise RuntimeError(f"census failed on graph {_graph_text(g)}: {exc!r}") from exc


def _spawned_map(fn, tasks: list, workers: int, initializer=None, initargs=()) -> Iterator:
    """fn over tasks on that many spawned worker processes, results in task
    order, each worker first running initializer(*initargs).  Spawn, not
    fork: a fork taken while another thread holds a lock copies that lock
    into the child held, and nobody releases it there.  A worker that dies
    (killed, out of memory) raises BrokenProcessPool here, where a
    multiprocessing.Pool loses its task and waits forever; tasks not yet
    started are cancelled when the caller stops early.  The pool's modules
    are imported here, so a serial census never loads them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=initializer, initargs=initargs)
    try:
        yield from pool.map(fn, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def census_structures(family: TdagFamily, include_faces: bool = True,
                      jobs: int = 1) -> tuple[set[Maxoid], set[Maxoid]]:
    """(generic structures, all structures) over the family in one pass.

    Generic structures come from every graph's maximal cones; the full set
    additionally contains the face structures of every graph's polytope
    (when include_faces is false, the two sets are equal; either way each
    structure is built once and the full set shares the generic ones).  A
    graph's structures under a relabeling are its structures relabeled, so each
    isomorphism class of the family (TdagFamily.classes) is computed
    once, on its representative, and each of its structures is renamed to
    every member of the class through that member's bit table.  Runs the
    representatives on min(jobs, number of classes) worker processes,
    serially when that is 1.  Each class's bits are renamed as its result
    arrives.  The complete DAG's fan is searched at most once per process
    of the call, on the first class the cache does not answer, and every
    class's systems are read off it; no fan outlives the call.
    """
    n = family.n
    classes = family.classes
    tasks = [(g, include_faces) for g, _ in classes]
    generic: set[int] = set()
    everything: set[int] = set()

    def renamed(structures: list[int], labels) -> Iterator[int]:
        yield from structures
        for label in labels[1:]:
            table = _relabelings[n, label]
            for bits in structures:
                yield _mapped_bits(bits, table)

    def collect(results: Iterator[dict], broken: type[Exception] | tuple = ()) -> None:
        # broken: what a dead worker raises from results; the serial path
        # has no pool, so nothing
        for g, labels in classes:
            try:
                data = next(results)
            except broken as exc:
                raise RuntimeError(f"census worker died; no result for graph {_graph_text(g)} "
                                   f"and the graphs after it: {exc}") from exc
            generic.update(renamed(data["generic"], labels))
            if include_faces:
                everything.update(renamed(data["faces"], labels))

    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        collect(_spawned_map(_worker, tasks, workers, _start_worker, (n,)), BrokenProcessPool)
    else:
        collect(map(partial(_worker, fan=cache(partial(_complete_fan, n))), tasks))
    structures = {Maxoid.from_bits(n, b) for b in generic}
    return structures, structures | {Maxoid.from_bits(n, b) for b in everything - generic}


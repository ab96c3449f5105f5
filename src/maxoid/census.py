"""Census of CI structures over topologically ordered transitively closed DAGs.

A TDAG has all edges (i,j) with i < j, is transitively closed and weakly
connected.  Every CI structure of any weighted DAG also arises on a
transitively closed graph, so TDAGs carry a complete census up to vertex
relabeling.  Generic structures come from the maximal cones of each graph's
fan; tied (non-generic) ones from the faces of each graph's polytope.

Separation does not depend on node names, so a graph's structures under a
relabeling are its structures relabeled.  The census therefore computes one
fan (and face lattice) per isomorphism class of the family, on the class's
first member (graph.isomorphism_classes: 44 classes for the 181 TDAGs on
five nodes, 238 for the 2792 on six), and renames each structure to every
member of the class by walking its set bits through that member's bit
table (separation._relabelings).

Each representative's Dag goes to a worker, and its structures come back
as the ints of Maxoid.bits: bit k is the k-th statement in the order a
maxoid prints them.  These results can be cached on disk, content-addressed
by the graph and the cache format version, so large runs are resumable:
set MAXOID_CACHE_DIR to enable.  The census caches one file per class
representative, holding those ints as JSON integers; an unreadable or
invalid file counts as a miss and is rewritten.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterator

from .graph import Dag, dag_to_json, isomorphism_classes, top_ordered_closed_dags
from .polytope import graph_structures
from .separation import Maxoid, _relabelings, _statement_tables

CACHE_ENV = "MAXOID_CACHE_DIR"
# Raise whenever what a cache file holds, or how it is computed, changes:
# files written under another version are then never read.
CACHE_FORMAT = 3


@dataclass
class TdagFamily:
    n: int
    graphs: list[Dag]


def _weakly_connected(n: int, edges) -> bool:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)}) <= 1


def all_top_ordered_tdags(n: int) -> TdagFamily:
    """All transitively closed, weakly connected edge subsets of
    {(i,j): i<j}, in a fixed enumeration order.  Connectivity subsumes the
    no-isolated-node requirement and is what the reference counts
    (3, 18, 181 for n = 3, 4, 5) pin down."""
    if n < 1:
        raise ValueError("need at least one node")
    graphs = [g for g in top_ordered_closed_dags(n) if _weakly_connected(n, g.edges)]
    return TdagFamily(n, graphs)


def _graph_key(g: Dag) -> str:
    blob = json.dumps({"dag": dag_to_json(g), "format": CACHE_FORMAT},
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


def graph_maxoids(g: Dag, include_faces: bool) -> dict[str, list[int] | None]:
    """Generic (and optionally face) CI structures of one graph, as
    {"generic": [bits], "faces": [bits] or None} in fan and lattice order,
    where bits is Maxoid.bits.  Reads the disk cache when enabled; a miss
    computes what the call asks for and replaces the record."""
    path = _cache_path(g)
    data = _read_cache(path, g.n) if path else None
    if data is None or (include_faces and data["faces"] is None):
        generic, *faces = ([m.bits for m, _ in batch]
                           for batch in graph_structures(g, include_faces))
        data = {"generic": generic, "faces": faces[0] if faces else None}
        if path:
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
    return data


def _graph_text(g: Dag) -> str:
    return json.dumps(dag_to_json(g), sort_keys=True)


def _worker(args) -> dict:
    g, include_faces = args
    try:
        return graph_maxoids(g, include_faces)
    except Exception as exc:
        raise RuntimeError(f"census failed on graph {_graph_text(g)}: {exc!r}") from exc


def _spawned_map(fn, tasks: list, workers: int) -> Iterator:
    """fn over tasks on that many spawned worker processes, results in task
    order.  Spawn, not fork: a fork taken while another thread holds a lock
    copies that lock into the child held, and nobody releases it there.  A
    worker that dies (killed, out of memory) raises BrokenProcessPool here,
    where a multiprocessing.Pool loses its task and waits forever; tasks not
    yet started are cancelled when the caller stops early."""
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield from pool.map(fn, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def census_structures(family: TdagFamily, include_faces: bool = True,
                      jobs: int = 1) -> tuple[set[Maxoid], set[Maxoid]]:
    """(generic structures, all structures) over the family in one pass.

    Generic structures come from every graph's maximal cones; the full set
    additionally contains the face structures of every graph's polytope
    (when include_faces is false, the two sets coincide).  A graph's
    structures under a relabeling are its structures relabeled, so each
    isomorphism class of the family (graph.isomorphism_classes) is computed
    once, on its representative, and each of its structures is renamed to
    every member of the class through that member's bit table.  Runs the
    representatives on min(jobs, number of classes) worker processes,
    serially when that is 1.  Each class's bits are renamed as its result
    arrives.
    """
    n = family.n
    classes = list(isomorphism_classes(family.graphs))
    assert sum(len(labels) for _, labels in classes) == len(family.graphs)
    tasks = [(g, include_faces) for g, _ in classes]
    generic: set[int] = set()
    everything: set[int] = set()

    def renamed(structures: list[int], labels) -> Iterator[int]:
        yield from structures
        for label in labels[1:]:
            table = _relabelings[n, label]
            for bits in structures:
                out = 0
                while bits:
                    low = bits & -bits
                    out |= 1 << table[low.bit_length() - 1]
                    bits ^= low
                yield out

    def collect(results: Iterator[dict]) -> None:
        for g, labels in classes:
            try:
                data = next(results)
            except BrokenProcessPool as exc:
                raise RuntimeError(f"census worker died; no result for graph {_graph_text(g)} "
                                   f"and the graphs after it: {exc}") from exc
            generic.update(renamed(data["generic"], labels))
            if include_faces:
                everything.update(renamed(data["faces"], labels))

    workers = min(jobs, len(tasks))
    collect(_spawned_map(_worker, tasks, workers) if workers > 1 else map(_worker, tasks))
    everything |= generic
    return ({Maxoid.from_bits(n, b) for b in generic},
            {Maxoid.from_bits(n, b) for b in everything})


def all_maxoids(family: TdagFamily, generic_only: bool = False,
                jobs: int = 1) -> set[Maxoid]:
    """Distinct CI structures over the family: the generic ones from every
    graph's maximal cones, plus (unless generic_only) all face structures
    from every graph's polytope."""
    generic, everything = census_structures(family, include_faces=not generic_only,
                                            jobs=jobs)
    return generic if generic_only else everything

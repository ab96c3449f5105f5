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

Per-graph results can be cached on disk, content-addressed by the graph and
the cache format version, so large runs are resumable: set MAXOID_CACHE_DIR
to enable.  The census caches one file per class representative.  An
unreadable cache file counts as a miss and is rewritten.
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
CACHE_FORMAT = 2


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


def _structure_list(value, n: int) -> bool:
    """Whether value is a list of structures, each a list of statement
    strings on 1..n in the canonical form Maxoid.to_json writes."""
    texts = _statement_tables[n].bit_of_text
    return isinstance(value, list) and all(
        isinstance(m, list) and all(isinstance(t, str) and t in texts for t in m)
        for m in value)


def _read_cache(path: str, n: int) -> dict:
    """The cached record at path, or {} when it is missing, does not parse or
    is not a record of structures on 1..n: a generic list, and a faces list
    unless that is absent or null.  A statement string that is not canonical
    or leaves 1..n makes the record a miss."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not (isinstance(data, dict) and _structure_list(data.get("generic"), n)
            and (data.get("faces") is None or _structure_list(data["faces"], n))):
        return {}
    return data


def graph_maxoids(g: Dag, include_faces: bool) -> dict[str, list[list[str]] | None]:
    """Generic (and optionally face) CI structures of one graph, as sorted
    statement lists; reads and refreshes the disk cache when enabled."""
    path = _cache_path(g)
    data = _read_cache(path, g.n) if path else {}
    if "generic" not in data or (include_faces and data.get("faces") is None):
        want_faces = include_faces and data.get("faces") is None
        cones, faces = graph_structures(g, want_faces)
        data.setdefault("generic", [m.to_json() for m, _ in cones])
        if want_faces:
            data["faces"] = [m.to_json() for m, _ in faces]
        if path:
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
    return data


def _worker(args) -> dict:
    graph_json, include_faces = args
    from .graph import dag_from_json

    try:
        return graph_maxoids(dag_from_json(graph_json), include_faces)
    except Exception as exc:
        graph = json.dumps(graph_json, sort_keys=True)
        raise RuntimeError(f"census failed on graph {graph}: {exc!r}") from exc


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
    serially when that is 1.  Each class's statement lists become bits as
    its result arrives, so no class's strings are held until the end.
    """
    n = family.n
    classes = list(isomorphism_classes(family.graphs))
    assert sum(len(labels) for _, labels in classes) == len(family.graphs)
    tasks = [(dag_to_json(g), include_faces) for g, _ in classes]
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
        for (graph_json, _), (_, labels) in zip(tasks, classes):
            try:
                data = next(results)
            except BrokenProcessPool as exc:
                graph = json.dumps(graph_json, sort_keys=True)
                raise RuntimeError(f"census worker died; no result for graph {graph} "
                                   f"and the graphs after it: {exc}") from exc
            cones = [Maxoid.from_json(n, stmts).bits for stmts in data["generic"]]
            generic.update(renamed(cones, labels))
            if include_faces:
                faces = [Maxoid.from_json(n, stmts).bits for stmts in data["faces"]]
                everything.update(renamed(faces, labels))

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

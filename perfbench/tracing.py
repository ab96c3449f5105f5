"""Span tracing of the maxoid package from outside it.

`Tracer.install()` replaces every public function of every maxoid module, at
every module namespace that binds it (so `fan.feasible` and
`polytope.feasible` are wrapped as well as `linarith.feasible`), with a
wrapper that records one span per call.  `uninstall()` puts the originals
back.  Nothing under src/ changes; an untraced run installs nothing.

A span has a name, start and end (ns), the index of its parent span (-1 at
the top) and an item id, the index of the CLI invocation it belongs to; a few
functions also record facts read from their arguments or result.  Spans are
kept in memory in flat arrays (a pass can make close to a million) and
written out by `write()`.  Self time is a span's duration minus the durations
of its direct children; calls never overlap, because the benchmark runs on
one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from time import perf_counter_ns

PACKAGE = "maxoid"


def _feasible_info(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    nvars = args[1] if len(args) > 1 else kwargs["nvars"]
    return (len(system), nvars, result is None)


def _decide_info(args, kwargs, result):
    scope = args[0] if args else kwargs["scope"]
    return "global" if isinstance(scope, int) else "local"


# facts recorded per call, by span name
_INFO = {
    "linarith.feasible": _feasible_info,
    "implication.decide_implication": _decide_info,
    "fan.enumerate_maximal_cones": lambda args, kwargs, result: len(result),
    "polytope.face_lattice": lambda args, kwargs, result: len(result.faces),
}


class Tracer:
    def __init__(self):
        self.item = -1
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.items = array("i")
        self.infos: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        tracer, stack, info, infos = self, self._stack, _INFO.get(name), self.infos
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, items = self.parents, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(prefix))]
        wrapped = {}
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            short = mod.__name__[len(prefix):]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self._wrap(value, f"{short}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Spans as gzip-compressed tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\titem\tinfo\n")
            for idx in range(len(self)):
                info = self.infos.get(idx)
                fh.write(f"{idx}\t{self.names[self.name_ids[idx]]}\t{self.starts[idx]}\t"
                         f"{self.ends[idx]}\t{self.parents[idx]}\t{self.items[idx]}\t"
                         f"{'' if info is None else json.dumps(info)}\n")


def nearest_rank(values, q):
    """The q-th percentile by the nearest-rank rule; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times (seconds) of the recorded spans."""
    names, infos = tracer.names, tracer.infos
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    child = [0] * len(durations)
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += durations[idx]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for idx, nid in enumerate(tracer.name_ids):
        calls[nid] += 1
        self_ns[nid] += durations[idx] - child[idx]
    ids = {name: nid for nid, name in enumerate(names)}

    def spans_of(name):
        nid = ids.get(name)
        return [idx for idx, n in enumerate(tracer.name_ids) if n == nid]

    def s(name):
        return self_ns[ids[name]] / 1e9 if name in ids else 0.0

    def n(name):
        return calls[ids[name]] if name in ids else 0

    feasible = [infos[idx] for idx in spans_of("linarith.feasible") if idx in infos]
    calls_ok = len(feasible)

    def mean(values):
        return sum(values) / calls_ok if calls_ok else 0.0

    adjacency = set(spans_of("fan.cone_adjacency"))
    decide = spans_of("implication.decide_implication")
    global_decide = {idx for idx in decide if infos.get(idx) == "global"}
    graph_ms = [durations[idx] / 1e6 for idx in spans_of("census.graph_maxoids")]
    return {
        "linarith.feasible.calls": n("linarith.feasible"),
        "linarith.feasible.self_s": s("linarith.feasible"),
        "linarith.feasible.infeasible_ratio": mean([f[2] for f in feasible]),
        "linarith.feasible.rows_mean": mean([f[0] for f in feasible]),
        "linarith.feasible.vars_mean": mean([f[1] for f in feasible]),
        "linarith.nullspace.self_s": s("linarith.nullspace"),
        "linarith.affine_dimension.self_s": s("linarith.affine_dimension"),
        "fan.enumerate_maximal_cones.self_s": s("fan.enumerate_maximal_cones"),
        "fan.cones": sum(infos.get(idx, 0) for idx in spans_of("fan.enumerate_maximal_cones")),
        "fan.cone_adjacency.self_s": s("fan.cone_adjacency"),
        "fan.cone_adjacency.lp_calls": sum(tracer.parents[idx] in adjacency
                                           for idx in spans_of("linarith.feasible")),
        "polytope.face_lattice.self_s": s("polytope.face_lattice"),
        "polytope.faces": sum(infos.get(idx, 0) for idx in spans_of("polytope.face_lattice")),
        "polytope.face_maxoid.calls": n("polytope.face_maxoid"),
        "polytope.face_maxoid.self_s": s("polytope.face_maxoid"),
        "polytope.polytope_vertices.self_s": s("polytope.polytope_vertices"),
        "implication.graphs_scanned": sum(tracer.parents[idx] in global_decide for idx in decide),
        "implication.enumeration_s": sum(durations[idx] - child[idx]
                                         for idx in global_decide) / 1e9,
        "implication.polyci_formula.self_s": s("implication.polyci_formula"),
        "implication.satisfiable.calls": n("implication.satisfiable"),
        "implication.satisfiable.self_s": s("implication.satisfiable"),
        "census.graph_maxoids.calls": n("census.graph_maxoids"),
        "census.graph_maxoids.self_s": s("census.graph_maxoids"),
        "census.graph_p90_ms": nearest_rank(graph_ms, 90),
        "census.all_top_ordered_tdags.self_s": s("census.all_top_ordered_tdags"),
        "graph.enumerate_paths.calls": n("graph.enumerate_paths"),
        "graph.enumerate_paths.self_s": s("graph.enumerate_paths"),
        "tropical.critical_paths.calls": n("tropical.critical_paths"),
        "separation.maxoid.calls": n("separation.maxoid"),
        "separation.maxoid.self_s": s("separation.maxoid"),
        "cli.run.self_s": s("cli.run"),
    }

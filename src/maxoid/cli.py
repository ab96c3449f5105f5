"""Command-line front end.

Machine output is JSON on stdout (byte-identical for identical inputs);
--pretty switches to a human-readable rendering.  Exit code 0 means the
computation completed (a failed implication still exits 0: the verdict is in
the JSON); parse and precondition errors exit nonzero with an error object.
All text formats are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .graph import Dag, dag_from_json, dag_to_json, to_dot
from .tropical import WeightedDag, kleene_star, weights_from_json, weights_to_list_json
from .separation import maxoid, parse_ci_statement
from .fan import enumerate_maximal_cones, lineality_dimension
from .polytope import cone_adjacency, face_lattice, face_maxoid, hasse_dot, polytope_vertices
from .implication import decide_implication
from .axioms import (
    check_amalgamation,
    check_compositional_graphoid,
    check_node_bound,
    check_strong_spohn,
    check_weak_transitivity,
)
from .census import all_top_ordered_tdags, census_structures

LONG_RUN_HINT = "pass --unbounded to run sizes beyond the quick default"
# most edges of a graph whose face lattice (polytope, fan --adjacency,
# implies --graph with ties) or whose fan alone (fan, implies --graph
# --generic) is computed without --unbounded: `polytope` on a 14-edge 6-node
# graph took 77 s with the Fraction echelon and takes 8.4 s with the integer
# one, and complete-6's hull alone takes 154 s (over 23 min before);
# complete-6's fan (15 edges) takes seconds and complete-7's (21 edges) over
# 800 s
LATTICE_EDGES = 13
FAN_EDGES = 15
# most nodes of a graph given to fan, polytope or implies --graph without
# --unbounded: the engine's tables grow as 4^n bits, and maxoid() on an
# edgeless 14-node DAG took 31 s at 475 MB
MOST_NODES = 12


def _emit(data, pretty_lines=None, pretty=False) -> None:
    if pretty and pretty_lines is not None:
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_weighted(dag_path: str, weights_path: str) -> WeightedDag:
    g = dag_from_json(_load_json(dag_path))
    return weights_from_json(g, _load_json(weights_path))


def _witness_json(wd: WeightedDag) -> dict:
    return {
        "n": wd.g.n,
        "edges": [list(e) for e in wd.g.sorted_edges],
        "weights": weights_to_list_json(wd),
    }


def _violations_json(reports) -> list[dict]:
    return [
        {
            "rule": r.rule,
            "instance": {k: sorted(v) if isinstance(v, frozenset) else v
                         for k, v in r.instance},
            "premises": [str(s) for s in r.premises],
            "missing": [str(s) for s in r.missing],
        }
        for r in reports
    ]


def _cmd_maxoid(args) -> None:
    wd = _load_weighted(args.dag, args.weights)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(wd.g))
    m = maxoid(wd)
    _emit(m.to_json(),
          pretty_lines=[f"{len(m)} statements:"] + [f"  {s}" for s in m],
          pretty=args.pretty)


def _cmd_kleene(args) -> None:
    wd = _load_weighted(args.dag, args.weights)
    star = kleene_star(wd, proper=args.proper)
    rows = star.to_json()
    _emit(rows, pretty_lines=["  ".join(f"{x:>8}" for x in row) for row in rows],
          pretty=args.pretty)


def _check_size(g: Dag, most_edges: int, what: str, args) -> None:
    """Refuse with the usage error when g has more than MOST_NODES nodes or
    more than most_edges edges and --unbounded is not given."""
    for count, most, unit in ((g.n, MOST_NODES, "nodes"), (len(g.edges), most_edges, "edges")):
        if count > most and not args.unbounded:
            raise SystemExit(_error(f"{what} on a graph with more than {most} {unit} "
                                    f"is long-running; {LONG_RUN_HINT}"))


def _cmd_fan(args) -> None:
    g = dag_from_json(_load_json(args.dag))
    if args.adjacency:
        _check_size(g, LATTICE_EDGES, "fan --adjacency", args)
    _check_size(g, FAN_EDGES, "fan", args)
    entries = enumerate_maximal_cones(g)
    edges = g.sorted_edges
    cones = []
    for e in entries:
        cones.append({
            "critical_paths": [{"pair": list(pq), "path": list(p)}
                               for pq, p in e.system.choices],
            "inequalities": [list(row) for row in e.inequalities],
            "witness": [str(x) for x in e.witness],
            "maxoid": e.maxoid.to_json(),
        })
    data = {
        "edges": [list(e) for e in edges],
        "lineality_dimension": lineality_dimension(g),
        "cones": cones,
    }
    if args.adjacency:
        data["adjacency"] = [list(p) for p in cone_adjacency(g, entries)]
    lines = [f"{len(cones)} maximal cones, lineality dimension {data['lineality_dimension']}"]
    for k, c in enumerate(cones):
        lines.append(f"cone {k}: maxoid {{{'; '.join(c['maxoid'])}}}")
    _emit(data, pretty_lines=lines, pretty=args.pretty)


def _cmd_polytope(args) -> None:
    g = dag_from_json(_load_json(args.dag))
    _check_size(g, LATTICE_EDGES, "polytope", args)
    entries = enumerate_maximal_cones(g)
    points = polytope_vertices(g, entries)
    coords = [p for _, p in points]
    lattice = face_lattice(coords)
    dim, fvec = lattice.dim, list(lattice.f_vector())
    data = {
        "edges": [list(e) for e in g.sorted_edges],
        "dim": dim,
        "vertices": [list(p) for p in coords],
        "f_vector": fvec,
        "faces": [{"dim": f.dim, "vertices": sorted(f.vertices)} for f in lattice.faces],
    }
    if args.face_maxoids:
        memo: dict = {}
        data["face_maxoids"] = [
            face_maxoid(g, f, entries, points, memo).to_json() for f in lattice.faces
        ]
    if args.hasse_dot:
        with open(args.hasse_dot, "w") as fh:
            fh.write(hasse_dot(lattice))
    _emit(data,
          pretty_lines=[f"dim {dim}, {len(coords)} vertices, f-vector {tuple(fvec)}"],
          pretty=args.pretty)


def _cmd_census(args) -> None:
    if args.jobs < 1:
        raise SystemExit(_error(f"--jobs must be at least 1, got {args.jobs}"))
    if args.nodes >= 6 and not args.unbounded:
        raise SystemExit(_error(f"census on {args.nodes} nodes is long-running; {LONG_RUN_HINT}"))
    family = all_top_ordered_tdags(args.nodes)
    generic, everything = census_structures(family, include_faces=not args.generic_only,
                                            jobs=args.jobs)
    data = {"tdags": len(family.graphs), "generic": len(generic)}
    if not args.generic_only:
        data["maxoids"] = len(everything)
        if args.dump:
            data["maxoids_list"] = sorted([m.to_json() for m in everything])
    elif args.dump:
        data["maxoids_list"] = sorted([m.to_json() for m in generic])
    _emit(data,
          pretty_lines=[f"{k}: {v}" for k, v in sorted(data.items()) if k != "maxoids_list"],
          pretty=args.pretty)


def _parse_query(text: str, n: int):
    if "=>" not in text:
        raise ValueError('implication must be written "premises => conclusions"')
    left, right = text.split("=>", 1)
    prem = [parse_ci_statement(t, n) for t in left.split(";") if t.strip()]
    conc = [parse_ci_statement(t, n) for t in right.split(";") if t.strip()]
    return prem, conc


def _cmd_implies(args) -> None:
    if (args.graph is None) == (args.nodes is None):
        raise SystemExit(_error("exactly one of --graph or --nodes is required"))
    if args.nodes is not None and args.nodes >= 6 and not args.unbounded:
        raise SystemExit(_error(f"implication over all graphs on {args.nodes} nodes "
                                f"is long-running; {LONG_RUN_HINT}"))
    scope = dag_from_json(_load_json(args.graph)) if args.graph else args.nodes
    if isinstance(scope, Dag):
        _check_size(scope, FAN_EDGES if args.generic else LATTICE_EDGES, "implication", args)
    n = scope.n if isinstance(scope, Dag) else scope
    premises, conclusions = _parse_query(args.query, n)
    verdict = decide_implication(scope, premises, conclusions, generic=args.generic)
    data = {"holds": verdict.holds,
            "counterexample": None if verdict.holds else _witness_json(verdict.counterexample)}
    lines = ["implication holds" if verdict.holds else "implication fails"]
    if not verdict.holds:
        lines.append(f"  graph edges: {sorted(verdict.counterexample.g.edges)}")
        lines.append(f"  weights: {weights_to_list_json(verdict.counterexample)}")
    _emit(data, pretty_lines=lines, pretty=args.pretty)


def _cmd_axioms(args) -> None:
    wd = _load_weighted(args.dag, args.weights)
    check_node_bound(wd.g.n)  # before maxoid() builds its 2^n-set tables
    m = maxoid(wd)
    data = {
        "compositional_graphoid": _violations_json(check_compositional_graphoid(m)),
        "amalgamation": _violations_json(check_amalgamation(m)),
        "strong_spohn": _violations_json(check_strong_spohn(m)),
        "weak_transitivity": _violations_json(check_weak_transitivity(m)),
    }
    lines = [f"{rule}: {'ok' if not v else f'{len(v)} violations'}"
             for rule, v in data.items()]
    _emit(data, pretty_lines=lines, pretty=args.pretty)


def _cmd_tdags(args) -> None:
    if args.nodes >= 7 and not args.unbounded:
        raise SystemExit(_error(f"enumeration on {args.nodes} nodes is long-running; {LONG_RUN_HINT}"))
    family = all_top_ordered_tdags(args.nodes)
    data = {"n": family.n, "count": len(family.graphs),
            "graphs": [dag_to_json(g) for g in family.graphs]}
    _emit(data, pretty_lines=[f"{len(family.graphs)} graphs on {family.n} nodes"],
          pretty=args.pretty)


def _error(message: str, kind: str = "usage") -> int:
    print(json.dumps({"error": {"type": kind, "message": message}},
                     sort_keys=True, separators=(",", ":")))
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so run reuses it."""
    ap = argparse.ArgumentParser(
        prog="maxoid",
        description="CI structures of weighted DAGs under max-plus arithmetic")
    ap.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxoid", help="CI structure of a weighted DAG")
    p.add_argument("dag")
    p.add_argument("weights")
    p.add_argument("--dot", metavar="FILE", help="also write the DAG in DOT format")
    p.set_defaults(func=_cmd_maxoid)

    p = sub.add_parser("kleene", help="matrix of maximum path weights")
    p.add_argument("dag")
    p.add_argument("weights")
    p.add_argument("--proper", action="store_true", help="diagonal -inf instead of 0")
    p.set_defaults(func=_cmd_kleene)

    p = sub.add_parser("fan", help="maximal cones of the weight-space fan")
    p.add_argument("dag")
    p.add_argument("--adjacency", action="store_true", help="also compute facet adjacency")
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("polytope", help="vertices, f-vector and face lattice")
    p.add_argument("dag")
    p.add_argument("--face-maxoids", action="store_true",
                   help="also compute the CI structure of every face")
    p.add_argument("--hasse-dot", metavar="FILE", help="write the face lattice in DOT format")
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("census", help="count distinct CI structures over TDAGs")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--generic-only", action="store_true")
    p.add_argument("--dump", action="store_true", help="include the structures themselves")
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("implies", help="decide a CI implication")
    p.add_argument("query", help='e.g. "1,4|3 => 2,4|1,3"; separate multiple statements with ";"')
    p.add_argument("--graph", help="DAG file: decide over this graph's structures")
    p.add_argument("--nodes", type=int, help="decide over all graphs on this many nodes")
    p.add_argument("--generic", action="store_true", help="restrict to tie-free weights")
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=_cmd_implies)

    p = sub.add_parser("axioms", help="closure-property report for a weighted DAG")
    p.add_argument("dag")
    p.add_argument("weights")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("tdags", help="enumerate topologically ordered transitively closed DAGs")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
    p.set_defaults(func=_cmd_tdags)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
        if code != 0:
            print(json.dumps({"error": {"type": "usage", "message": "invalid arguments"}},
                             sort_keys=True, separators=(",", ":")))
        return code
    try:
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, json.JSONDecodeError) as exc:
        return _error(str(exc), kind="io")
    except (ValueError, RuntimeError, AssertionError) as exc:
        return _error(str(exc), kind=type(exc).__name__)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

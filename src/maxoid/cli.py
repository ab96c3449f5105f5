"""Command-line front end.

Machine output is JSON on stdout (byte-identical for identical inputs);
--pretty switches to a human-readable rendering.  Exit code 0 means the
computation completed (a failed implication still exits 0: the verdict is in
the JSON); parse and precondition errors exit nonzero with an error object.
All text formats are documented in FORMATS.md.

Each command loads only the modules it runs.  At module level this file
imports what the package itself loads (graph, tropical, separation) and the
fan search (fan, linarith), which fan, polytope, census and implies all
reach; a leaf module (polytope, implication, axioms, census) is imported by
the command that uses it, when it runs, and census imports polytope only
when it computes faces and its process pool only when --jobs starts one.
A start-up therefore compiles and loads no module its command skips.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .graph import Dag, dag_from_json, dag_to_json, to_dot
from .tropical import WeightedDag, kleene_star, weights_from_json, weights_to_list_json
from .separation import _bit_indices, maxoid, parse_ci_statement
from .fan import enumerate_maximal_cones, lineality_dimension

LONG_RUN_HINT = "pass --unbounded to run sizes beyond the quick default"
# most edges of a graph whose face lattice (polytope, fan --adjacency,
# implies --graph with ties) or whose fan alone (fan, implies --graph
# --generic) is computed without --unbounded.  On the first 14-edge 6-node
# graph (1209 vertices, 60359 faces) `polytope` takes 4.2 s at 157 MB peak
# RSS, `polytope --face-maxoids` 4.4 s at 157 MB and `fan --adjacency`
# 3.9 s, and complete-6's hull alone takes 66 s.  `fan` on complete-6
# (15 edges) takes 0.57 s at 31 MB; complete-7's (21 edges) search, keeping
# every cone, takes 113 s at 1149 MB.  Single runs on a 2-core host, Python
# 3.11; the fan figures on a host about 1.6 times slower than the others.
LATTICE_EDGES = 13
FAN_EDGES = 15
# most nodes of a graph given to maxoid, fan, polytope or implies --graph
# without --unbounded: the engine's tables grow as 4^n bits, and maxoid()
# on an edgeless 13-node DAG took 7.1 s at 203 MB, on a 14-node one 31 s at
# 475 MB
MOST_NODES = 12


# the one JSON spelling of machine output: sorted keys, no spaces
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_document(fields: dict) -> None:
    """Print the JSON object fields to sys.stdout piece by piece, the bytes
    that print(_json(data)) prints for the same data: keys in sorted order,
    each value a JSON text, or an iterable of element texts that is written
    as an array one element at a time, so the whole text is never held in
    memory."""
    write = sys.stdout.write
    for k, key in enumerate(sorted(fields)):
        value = fields[key]
        write(f'{"," if k else "{"}{_json(key)}:')
        if isinstance(value, str):
            write(value)
        else:
            write("[")
            for i, text in enumerate(value):
                write(f",{text}" if i else text)
            write("]")
    write("}\n")


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
    _check_size(wd.g, None, "maxoid", args)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(wd.g))
    m = maxoid(wd)
    if args.pretty:
        print("\n".join([f"{len(m)} statements:"] + [f"  {s}" for s in m]))
    else:
        print(_json(m.to_json()))


def _cmd_kleene(args) -> None:
    wd = _load_weighted(args.dag, args.weights)
    star = kleene_star(wd, proper=args.proper)
    rows = star.to_json()
    if args.pretty:
        print("\n".join("  ".join(f"{x:>8}" for x in row) for row in rows))
    else:
        print(_json(rows))


def _refuse(what: str, args) -> None:
    """Exit with the usage error that refuses what as long-running, unless
    --unbounded is given."""
    if not args.unbounded:
        raise SystemExit(_error(f"{what} is long-running; {LONG_RUN_HINT}"))


def _check_size(g: Dag, most_edges: int | None, what: str, args) -> None:
    """Refuse what (see _refuse) when g has more than MOST_NODES nodes or,
    unless most_edges is None, more than most_edges edges."""
    for count, most, unit in ((g.n, MOST_NODES, "nodes"), (len(g.edges), most_edges, "edges")):
        if most is not None and count > most:
            _refuse(f"{what} on a graph with more than {most} {unit}", args)


def _cmd_fan(args) -> None:
    g = dag_from_json(_load_json(args.dag))
    if args.adjacency:
        _check_size(g, LATTICE_EDGES, "fan --adjacency", args)
    _check_size(g, FAN_EDGES, "fan", args)
    entries = enumerate_maximal_cones(g)
    lineality = lineality_dimension(entries[0])
    if args.pretty:
        print("\n".join([f"{len(entries)} maximal cones, lineality dimension {lineality}"]
                        + [f"cone {k}: maxoid {{{'; '.join(e.maxoid.to_json())}}}"
                           for k, e in enumerate(entries)]))
        return
    # neighbouring cones share most critical paths and rows: each distinct
    # one is encoded once per run (tuples encode as arrays), and every
    # cone's text is joined from those
    path_text = functools.cache(lambda c: _json({"pair": c[0], "path": c[1]}))
    row_text = functools.cache(_json)

    def strings(texts: list[str]) -> str:
        # the elements of a JSON array of strings that need no escaping, as
        # neither statements nor rationals do
        return '"' + '","'.join(texts) + '"' if texts else ""

    def cone(e) -> str:
        # the keys in sorted order, as _json spells the cone's dict; over
        # den 1, as on every fan measured, the witness is its numerators
        if e.den == 1:
            witness = list(map(str, e.point))
        else:
            witness = [str(Fraction(x, e.den)) for x in e.point]
        return (f'{{"critical_paths":[{",".join(map(path_text, e.system.choices))}],'
                f'"inequalities":[{",".join(map(row_text, e.inequalities))}],'
                f'"maxoid":[{strings(e.maxoid.to_json())}],'
                f'"witness":[{strings(witness)}]}}')

    fields = {
        "cones": map(cone, entries),
        "edges": _json([list(e) for e in g.sorted_edges]),
        "lineality_dimension": _json(lineality),
    }
    if args.adjacency:
        from .polytope import cone_adjacency

        fields["adjacency"] = _json([list(p) for p in cone_adjacency(g, entries)])
    _write_document(fields)


def _cmd_polytope(args) -> None:
    from .polytope import face_lattice, face_maxoids, hasse_dot, polytope_vertices

    g = dag_from_json(_load_json(args.dag))
    _check_size(g, LATTICE_EDGES, "polytope", args)
    entries = enumerate_maximal_cones(g)
    points = polytope_vertices(g, entries)
    coords = [p for _, p in points]
    lattice = face_lattice(coords)
    if args.hasse_dot:
        with open(args.hasse_dot, "w") as fh:
            fh.write(hasse_dot(lattice))
    if args.pretty:
        print(f"dim {lattice.dim}, {len(coords)} vertices, f-vector {lattice.f_vector()}")
        return
    fields = {
        "edges": _json([list(e) for e in g.sorted_edges]),
        "dim": _json(lattice.dim),
        "vertices": _json([list(p) for p in coords]),
        "f_vector": _json(lattice.f_vector()),
        # a face's fields are ints, which JSON spells as str() does
        "faces": (f'{{"dim":{f.dim},"vertices":[{",".join(map(str, _bit_indices(f.mask)))}]}}'
                  for f in lattice.faces),
    }
    if args.face_maxoids:
        # few distinct structures over many faces: each encoded once
        fields["face_maxoids"] = map(functools.cache(lambda m: _json(m.to_json())),
                                     face_maxoids(g, lattice.faces, points))
    _write_document(fields)


def _cmd_census(args) -> None:
    from .census import all_top_ordered_tdags, census_structures

    if args.jobs < 1:
        raise SystemExit(_error(f"--jobs must be at least 1, got {args.jobs}"))
    if args.nodes >= 6:
        _refuse(f"census on {args.nodes} nodes", args)
    family = all_top_ordered_tdags(args.nodes)
    generic, everything = census_structures(family, include_faces=not args.generic_only,
                                            jobs=args.jobs)
    data = {"tdags": len(family.masks), "generic": len(generic)}
    if not args.generic_only:
        data["maxoids"] = len(everything)
    if args.pretty:
        print("\n".join(f"{k}: {v}" for k, v in sorted(data.items())))
        return
    if args.dump:
        data["maxoids_list"] = sorted(m.to_json()
                                      for m in (generic if args.generic_only else everything))
    print(_json(data))


def _parse_query(text: str, n: int):
    if "=>" not in text:
        raise ValueError('implication must be written "premises => conclusions"')
    left, right = text.split("=>", 1)
    prem = [parse_ci_statement(t, n) for t in left.split(";") if t.strip()]
    conc = [parse_ci_statement(t, n) for t in right.split(";") if t.strip()]
    return prem, conc


def _cmd_implies(args) -> None:
    from .implication import decide_implication

    if (args.graph is None) == (args.nodes is None):
        raise SystemExit(_error("exactly one of --graph or --nodes is required"))
    if args.nodes is not None and args.nodes >= 6:
        _refuse(f"implication over all graphs on {args.nodes} nodes", args)
    scope = dag_from_json(_load_json(args.graph)) if args.graph else args.nodes
    if isinstance(scope, Dag):
        _check_size(scope, FAN_EDGES if args.generic else LATTICE_EDGES, "implication", args)
    n = scope.n if isinstance(scope, Dag) else scope
    premises, conclusions = _parse_query(args.query, n)
    verdict = decide_implication(scope, premises, conclusions, generic=args.generic)
    if args.pretty:
        lines = ["implication holds" if verdict.holds else "implication fails"]
        if not verdict.holds:
            lines.append(f"  graph edges: {sorted(verdict.counterexample.g.edges)}")
            lines.append(f"  weights: {weights_to_list_json(verdict.counterexample)}")
        print("\n".join(lines))
    else:
        print(_json({"holds": verdict.holds, "counterexample":
                     None if verdict.holds else _witness_json(verdict.counterexample)}))


def _cmd_axioms(args) -> None:
    from .axioms import (check_amalgamation, check_compositional_graphoid, check_node_bound,
                         check_strong_spohn, check_weak_transitivity)

    wd = _load_weighted(args.dag, args.weights)
    check_node_bound(wd.g.n)  # before maxoid() builds its 2^n-set tables
    m = maxoid(wd)
    data = {
        "compositional_graphoid": _violations_json(check_compositional_graphoid(m)),
        "amalgamation": _violations_json(check_amalgamation(m)),
        "strong_spohn": _violations_json(check_strong_spohn(m)),
        "weak_transitivity": _violations_json(check_weak_transitivity(m)),
    }
    if args.pretty:
        print("\n".join(f"{rule}: {'ok' if not v else f'{len(v)} violations'}"
                        for rule, v in data.items()))
    else:
        print(_json(data))


def _cmd_tdags(args) -> None:
    from .census import all_top_ordered_tdags

    if args.nodes >= 7:
        _refuse(f"enumeration on {args.nodes} nodes", args)
    family = all_top_ordered_tdags(args.nodes)
    if args.pretty:
        print(f"{len(family.masks)} graphs on {family.n} nodes")
    else:
        print(_json({"n": family.n, "count": len(family.masks),
                     "graphs": [dag_to_json(g) for g in family.graphs]}))


def _error(message: str, kind: str = "usage") -> int:
    print(_json({"error": {"type": kind, "message": message}}))
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
    p.add_argument("--unbounded", action="store_true", help="allow long-running sizes")
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
        return _error("invalid arguments") if code != 0 else code
    try:
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        # a closed stdout cannot take the error object either
        raise
    except (OSError, json.JSONDecodeError) as exc:
        return _error(str(exc), kind="io")
    except (ValueError, RuntimeError, AssertionError) as exc:
        return _error(str(exc), kind=type(exc).__name__)
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so that the
        # flush at exit raises no second error, and exit nonzero quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""The four workloads: seeded inputs, the CLI invocations of one pass, and the
correctness gate of every output.

Each workload turns a seed into the invocations of one pass.  Every
invocation carries its own check, which the runner calls on the captured
stdout outside the timed region and which raises `CheckFailed` on a wrong
answer.  The implies-mix oracle is read from oracle.json before set-up and
is not timed.  Statements are handled as canonical strings such as
"1,3|2,4", so oracle data does not depend on the package objects that
produced it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An output that the correctness gate rejects."""


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[str], None]


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _complete(n: int, drop=()) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in drop]


def _relabel(edges, perm) -> list[tuple[int, int]]:
    """perm[v - 1] is the new label of node v."""
    return sorted((perm[u - 1], perm[v - 1]) for u, v in edges)


def _perms(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    return rng.sample(list(itertools.permutations(range(1, n + 1))), k)


def _write_dag(directory: str, name: str, n: int, edges) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump({"n": n, "edges": [list(e) for e in edges]}, fh)
    return path


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _weighted(n: int, edges, weights):
    from maxoid.graph import Dag
    from maxoid.tropical import weighted_dag_from_list

    return weighted_dag_from_list(Dag(n, [tuple(e) for e in edges]), weights)


def _maxoid_of(wd) -> frozenset[str]:
    from maxoid.separation import maxoid

    return frozenset(maxoid(wd).to_json())


def _relabel_statement(text: str, perm) -> str:
    left, right = text.split("|")
    i, j = sorted(perm[int(t) - 1] for t in left.split(","))
    cond = sorted(perm[int(t) - 1] for t in right.split(",") if t)
    return f"{i},{j}|{','.join(map(str, cond))}"


# ---------------------------------------------------------------- fan-k5

def _check_fan(n: int, edges, cones: int, adjacent: int | None = None):
    def check(out: str) -> None:
        data = json.loads(out)
        _expect(data["edges"] == [list(e) for e in edges], "edge order differs from the input")
        _expect(len(data["cones"]) == cones, f"{len(data['cones'])} cones, expected {cones}")
        for k, cone in enumerate(data["cones"]):
            wd = _weighted(n, data["edges"], cone["witness"])
            _expect(_maxoid_of(wd) == frozenset(cone["maxoid"]),
                    f"cone {k}: witness maxoid differs from the reported one")
        if adjacent is not None:
            _expect(len(data["adjacency"]) == adjacent,
                    f"{len(data['adjacency'])} adjacent pairs, expected {adjacent}")
    return check


def _rotations(perm) -> list[tuple[int, ...]]:
    """perm followed by each cyclic shift of the labels: over the n results
    every node takes every label once."""
    n = len(perm)
    return [tuple((p - 1 + shift) % n + 1 for p in perm) for shift in range(n)]


def fan_k5(seed: int, oracle, directory: str) -> list[Invocation]:
    # The label of the source node alone explains about half of the spread of
    # fan time over the 120 relabelings, so one pass covers all five label
    # rotations of the seeded relabeling instead of one relabeling.
    invocations = []
    for k, perm in enumerate(_rotations(_perms(_rng("fan-k5", seed), 5, 1)[0])):
        edges = _relabel(_complete(5), perm)
        path = _write_dag(directory, f"k5-{k}.json", 5, edges)
        invocations.append(Invocation(["fan", path], _check_fan(5, edges, 103)))
    return invocations


# ---------------------------------------------------------------- polytope-faces

POLYTOPE_F_VECTOR = [32, 86, 93, 49, 12]  # complete 5-node DAG minus edge 3->4


def _check_polytope(out: str) -> None:
    data = json.loads(out)
    fvec, dim = data["f_vector"], data["dim"]
    _expect(len(data["vertices"]) == 32, f"{len(data['vertices'])} vertices, expected 32")
    _expect(len(fvec) == dim, "f-vector length differs from the dimension")
    euler = sum((-1) ** k * f for k, f in enumerate(fvec))
    _expect(euler == 1 - (-1) ** dim, f"f-vector {fvec} violates Euler's relation")
    _expect(fvec == POLYTOPE_F_VECTOR, f"f-vector {fvec}, expected {POLYTOPE_F_VECTOR}")
    _expect(len(data["faces"]) == sum(fvec) + 1, "face list does not match the f-vector")
    _expect(len(data["face_maxoids"]) == len(data["faces"]), "one face maxoid per face expected")


def polytope_faces(seed: int, oracle, directory: str) -> list[Invocation]:
    rng = _rng("polytope-faces", seed)
    invocations = []
    for k, perm in enumerate(_perms(rng, 5, 2)):
        edges = _relabel(_complete(5, drop={(3, 4)}), perm)
        path = _write_dag(directory, f"k5-minus-{k}.json", 5, edges)
        invocations.append(Invocation(["polytope", "--face-maxoids", path], _check_polytope))
    k4 = _relabel(_complete(4), _perms(rng, 4, 1)[0])
    path = _write_dag(directory, "k4.json", 4, k4)
    # the README reference f-vector of complete-4 is (9, 14, 7)
    invocations.append(Invocation(["fan", "--adjacency", path], _check_fan(4, k4, 9, adjacent=14)))
    return invocations


# ---------------------------------------------------------------- census-5g

def _check_census(out: str) -> None:
    data = json.loads(out)
    _expect(data == {"generic": 892, "tdags": 181}, f"census {data}")


def census_5g(seed: int, oracle, directory: str) -> list[Invocation]:
    # The census enumerates its own graphs, so the seed changes nothing here.
    argv = ["census", "--nodes", "5", "--generic-only", "--unbounded", "--jobs", "1"]
    return [Invocation(argv, _check_census)]


# ---------------------------------------------------------------- implies-mix

GLOBAL_QUOTA = {  # (generic, implication holds) -> queries on --nodes 4
    (True, True): 12, (True, False): 48, (False, True): 28, (False, False): 112,
}
# Queries on the complete 5-node DAG, all generic, are drawn among those whose
# premises no generic structure satisfies.  The other two classes are left
# out: a query with a counterexample takes 1.5 s to 11 s, depending on its
# shape and the labels, so five of them made up 80% of a pass and its spread
# between seeds; one whose premises are satisfiable and that holds takes 15 s
# to over 25 s.
LOCAL_QUERIES = 100


def _graph_structures(g) -> tuple[set[frozenset[str]], set[frozenset[str]]]:
    """(generic structures, all structures) of one graph: the maxoids of its
    maximal cones, and those of every face of its polytope."""
    from maxoid.fan import enumerate_maximal_cones
    from maxoid.polytope import face_lattice, face_maxoid, polytope_vertices
    from maxoid.separation import maxoid
    from maxoid.tropical import WeightedDag

    if not g.edges:
        m = frozenset(maxoid(WeightedDag(g, {})).to_json())
        return {m}, {m}
    entries = enumerate_maximal_cones(g)
    generic = {frozenset(e.maxoid.to_json()) for e in entries}
    points = polytope_vertices(g, entries)
    lattice = face_lattice([p for _, p in points])
    every = {frozenset(face_maxoid(g, f, entries, points).to_json()) for f in lattice.faces}
    return generic, generic | every


ORACLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")


def compute_oracle() -> dict:
    """Structure families the implies-mix verdicts are checked against, as
    sorted statement lists.

    Global (--nodes 4): every CI structure of a DAG on 4 labeled nodes arises
    on its transitive closure, so the family is the cone (generic) and face
    (all) structures of the transitively closed DAGs on nodes 1..4, taken
    from the topologically ordered ones under all 24 relabelings.
    Local: the 103 cone structures of the complete 5-node DAG.
    """
    from maxoid.fan import enumerate_maximal_cones
    from maxoid.graph import Dag, transitive_closure

    pairs = _complete(4)
    generic4: set = set()
    all4: set = set()
    for mask in range(1 << len(pairs)):
        g = Dag(4, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
        if transitive_closure(g) != g:
            continue
        gen, every = _graph_structures(g)
        for perm in itertools.permutations(range(1, 5)):
            generic4 |= {frozenset(_relabel_statement(s, perm) for s in m) for m in gen}
            all4 |= {frozenset(_relabel_statement(s, perm) for s in m) for m in every}
    k5 = {frozenset(e.maxoid.to_json()) for e in enumerate_maximal_cones(Dag(5, _complete(5)))}
    return {name: sorted(sorted(m) for m in family)
            for name, family in (("global_generic", generic4), ("global_all", all4),
                                 ("k5_cones", k5))}


def load_oracle() -> dict:
    """The oracle as computed once, when the benchmark was written, so that a
    later change to the package cannot alter what its answers are checked
    against; `python3 perfbench/workloads.py` recomputes it."""
    with open(ORACLE) as fh:
        data = json.load(fh)
    family = {name: [frozenset(m) for m in structures] for name, structures in data.items()}
    return {"global": {True: family["global_generic"], False: family["global_all"]},
            "local": family["k5_cones"]}


def _statement(rng: random.Random, n: int) -> str:
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    cond = [v for v in range(1, n + 1) if v not in (i, j) and rng.random() < 0.4]
    return f"{i},{j}|{','.join(map(str, cond))}"


def _query(rng: random.Random, n: int, most: int) -> tuple[list[str], str]:
    """1 to `most` distinct premises and a conclusion that is not one of them.
    A repeated premise, or the conclusion among the premises, makes a query
    that holds trivially; such queries cost 0.2 to 3.8 s each here, by how
    the engine meets the redundancy, and a few of them per pass made up most
    of the spread between seeds."""
    k = rng.randint(1, most)
    premises: list[str] = []
    while len(premises) < k:
        p = _statement(rng, n)
        if p not in premises:
            premises.append(p)
    conclusion = _statement(rng, n)
    while conclusion in premises:
        conclusion = _statement(rng, n)
    return premises, conclusion


def _counterexample(structures, premises, conclusion) -> bool:
    return any(all(p in m for p in premises) and conclusion not in m for m in structures)


def _check_verdict(n: int, premises, conclusion, generic: bool, holds: bool):
    def check(out: str) -> None:
        data = json.loads(out)
        _expect(data["holds"] == holds,
                f"engine says holds={data['holds']}, oracle says holds={holds}")
        if holds:
            return
        cx = data["counterexample"]
        _expect(cx["n"] == n, "counterexample on the wrong node count")
        wd = _weighted(cx["n"], cx["edges"], cx["weights"])
        m = _maxoid_of(wd)
        _expect(all(p in m for p in premises), "counterexample misses a premise")
        _expect(conclusion not in m, "counterexample satisfies the conclusion")
        if generic:
            from maxoid.tropical import is_generic

            _expect(is_generic(wd), "generic-mode counterexample has a weight tie")
    return check


def implies_mix(seed: int, oracle, directory: str) -> list[Invocation]:
    rng = _rng("implies-mix", seed, "queries")
    queries = []
    quota = dict(GLOBAL_QUOTA)
    while any(quota.values()):
        premises, conclusion = _query(rng, 4, 3)
        generic = rng.random() < 0.3
        holds = not _counterexample(oracle["global"][generic], premises, conclusion)
        if quota[generic, holds]:
            quota[generic, holds] -= 1
            argv = ["implies", "--nodes", "4", f"{'; '.join(premises)} => {conclusion}"]
            queries.append(Invocation(argv + ["--generic"] * generic,
                                      _check_verdict(4, premises, conclusion, generic, holds)))
    # local queries are drawn on complete-5 as labeled, then query and graph
    # are relabeled together
    perm = _perms(_rng("implies-mix", seed, "k5"), 5, 1)[0]
    k5 = _write_dag(directory, "k5.json", 5, _relabel(_complete(5), perm))
    while len(queries) < sum(GLOBAL_QUOTA.values()) + LOCAL_QUERIES:
        premises, conclusion = _query(rng, 5, 2)
        if any(all(p in m for p in premises) for m in oracle["local"]):
            continue
        premises = [_relabel_statement(p, perm) for p in premises]
        conclusion = _relabel_statement(conclusion, perm)
        argv = ["implies", "--graph", k5, f"{'; '.join(premises)} => {conclusion}", "--generic"]
        queries.append(Invocation(argv, _check_verdict(5, premises, conclusion, True, True)))
    rng.shuffle(queries)
    return queries


@dataclass(frozen=True)
class Workload:
    make: Callable  # (seed, oracle, input directory) -> invocations of one pass
    oracle: Callable | None = None  # () -> oracle data, loaded once per run
    # latency percentiles over single invocations (queries) rather than passes
    per_query: bool = False


WORKLOADS = {
    "fan-k5": Workload(fan_k5),
    "polytope-faces": Workload(polytope_faces),
    "census-5g": Workload(census_5g),
    "implies-mix": Workload(implies_mix, load_oracle, per_query=True),
}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(ORACLE), os.pardir, "src"))
    with open(ORACLE, "w") as fh:
        json.dump(compute_oracle(), fh, separators=(",", ":"))
        fh.write("\n")

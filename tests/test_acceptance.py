"""Acceptance suite.

One test per criterion, each printing a PASS line with the checked values
(run with -rA or -s to see them).  The long-running 5-node census and the
generic 6-node census only run when MAXOID_LONG_TESTS=1; the 6-node
complete-DAG vertex count, a few seconds since the fan search warm-starts
its LPs, always runs.

Criterion 7a demands zero violations of every closure rule maxoids satisfy:
compositional graphoid, amalgamation, the first blocking-set Spohn rule and
the second in its classical four-premise form.  The second rule as displayed,
with three premises, is not sound (the two-edge collider DAG 2->4<-3 with
node 1 isolated violates it; test_axioms.py carries this counterexample), so
7a still runs it and checks that every firing is a replayable violation
whose classical fourth premise (k,l|ijM) is absent.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from maxoid.axioms import (
    check_amalgamation,
    check_compositional_graphoid,
    check_strong_spohn,
    check_weak_transitivity,
)
from maxoid.census import all_maxoids, all_top_ordered_tdags
from maxoid.fan import enumerate_maximal_cones, lineality_dimension
from maxoid.graph import Dag
from maxoid.implication import decide_implication
from maxoid.polytope import face_lattice, face_maxoid, polytope_vertices
from maxoid.separation import (
    CiStatement,
    closure_weights,
    critical_dag,
    maxoid,
    parse_ci_statement,
    weighted_transitive_reduction,
)
from maxoid.tropical import kleene_star, weighted_dag_from_list, WeightedDag
from oracles import (
    affine_dimension,
    critical_dag_by_paths,
    d_separated,
    in_open_cone,
    random_weighted_dag,
    tropical_matmul,
)


DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
FIG2 = Dag(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def ci(text):
    return parse_ci_statement(text)


def stmts(*texts):
    return {ci(t) for t in texts}


def complete_dag(n):
    return Dag(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_criterion_1_worked_example_with_reduction_and_closure():
    t0 = time.monotonic()
    wd = weighted_dag_from_list(FIG2, [1, 1, 1, 3, 1])
    m = maxoid(wd)
    assert m.stmts == stmts("1,3|2", "1,3|2,4", "1,4|2", "1,4|2,3")
    assert maxoid(weighted_transitive_reduction(wd)) == m
    assert maxoid(closure_weights(wd)) == m
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: reference maxoid of the 5-edge instance, equal under "
          f"reduction and closure ({elapsed:.2f}s)")


def test_criterion_2_diamond_fan_and_shared_facet():
    t0 = time.monotonic()
    entries = enumerate_maximal_cones(DIAMOND)
    assert len(entries) == 2
    m1 = stmts("2,3|1", "1,4|2,3", "1,4|2")
    m2 = stmts("2,3|1", "1,4|2,3", "1,4|3")
    assert {e.maxoid.stmts for e in entries} == {frozenset(m1), frozenset(m2)}
    points = polytope_vertices(DIAMOND, entries)
    lattice = face_lattice([p for _, p in points])
    shared = next(f for f in lattice.faces if f.dim == 1)
    m3 = face_maxoid(DIAMOND, shared, entries, points)
    assert m3 == entries[0].maxoid | entries[1].maxoid
    assert m3.stmts == m1 | m2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"CRITERION 2 PASS: two maximal cones, facet structure is the union "
          f"({elapsed:.2f}s)")


def test_criterion_3_complete_dag_table():
    t0 = time.monotonic()
    expected = {3: (1, 2), 4: (3, 9), 5: (6, 103)}
    seen = {}
    for n in (3, 4):
        g = complete_dag(n)
        entries = enumerate_maximal_cones(g)
        coords = [p for _, p in polytope_vertices(g, entries)]
        seen[n] = (affine_dimension(coords)[0], len(coords))
    k4 = complete_dag(4)
    e4 = enumerate_maximal_cones(k4)
    fvec = face_lattice([p for _, p in polytope_vertices(k4, e4)]).f_vector()
    lin = lineality_dimension(e4[0])
    small_elapsed = time.monotonic() - t0
    g5 = complete_dag(5)
    entries5 = enumerate_maximal_cones(g5)
    coords5 = [p for _, p in polytope_vertices(g5, entries5)]
    seen[5] = (affine_dimension(coords5)[0], len(coords5))
    elapsed = time.monotonic() - t0
    assert seen == expected
    assert fvec == (9, 14, 7)
    assert lin == 3
    assert small_elapsed < 60.0
    assert elapsed < 600.0
    print(f"CRITERION 3 PASS: (dim, vertices) = {seen}, 4-node f-vector {fvec}, "
          f"lineality {lin} ({elapsed:.1f}s)")


def test_criterion_3_long_complete_dag_6_vertex_count(monkeypatch, capsys, tmp_path):
    from maxoid import linarith
    from maxoid.cli import run

    pivots = 0
    pivot = linarith._pivot

    def counting_pivot(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    monkeypatch.setattr(linarith, "_pivot", counting_pivot)
    dag = tmp_path / "complete6.json"
    dag.write_text(json.dumps({"n": 6, "edges": [list(e) for e in complete_dag(6).sorted_edges]}))
    assert run(["fan", str(dag)]) == 0
    out = capsys.readouterr().out.encode()
    assert len(json.loads(out)["cones"]) == 3324
    # Bland's rule fixes every pivot, so a change of their number is a
    # change of the simplex
    assert pivots == 9314
    # the witnesses, rows and structures of the whole search
    assert len(out) == 6156732
    assert hashlib.sha256(out).hexdigest() == (
        "a65911889c38342aa9a9111c44569ab220ac9913daa911cedac06b0d170c04b1")
    print("CRITERION 3 (long) PASS: 3324 maximal cones on the 6-node complete DAG, "
          "9314 pivots, pinned fan output")


def test_criterion_4_census_table():
    t0 = time.monotonic()
    fam3 = all_top_ordered_tdags(3)
    assert (len(fam3.graphs), len(all_maxoids(fam3)),
            len(all_maxoids(fam3, generic_only=True))) == (3, 4, 4)
    fam4 = all_top_ordered_tdags(4)
    counts4 = (len(fam4.graphs), len(all_maxoids(fam4)),
               len(all_maxoids(fam4, generic_only=True)))
    elapsed = time.monotonic() - t0
    assert counts4 == (18, 41, 40)
    assert elapsed < 300.0
    print(f"CRITERION 4 PASS: census (3,4,4) and (18,41,40) ({elapsed:.1f}s)")


@pytest.mark.long
def test_criterion_4_long_census_5_nodes():
    fam = all_top_ordered_tdags(5)
    generic = all_maxoids(fam, generic_only=True, jobs=4)
    everything = all_maxoids(fam, jobs=4)
    assert (len(fam.graphs), len(everything), len(generic)) == (181, 987, 892)
    print("CRITERION 4 (long) PASS: census (181, 987, 892)")


@pytest.mark.long
def test_criterion_4_long_census_6_nodes_generic():
    """The generic 6-node census, computed here and not a value from the
    paper: every complete-6 cone structure is in it, and a seeded sample of
    its structures are compositional graphoids."""
    fam = all_top_ordered_tdags(6)
    generic = all_maxoids(fam, generic_only=True, jobs=2)
    assert (len(fam.graphs), len(generic)) == (2792, 45692)
    cones = {e.maxoid for e in enumerate_maximal_cones(complete_dag(6))}
    assert len(cones) == 3324 and cones <= generic
    sample = random.Random(6).sample(sorted(generic, key=lambda m: m.bits), 200)
    assert not [m for m in sample if check_compositional_graphoid(m)]
    print("CRITERION 4 (long) PASS: generic 6-node census (2792, 45692), "
          "complete-6 cones included, 200 sampled compositional graphoids")


def test_criterion_5_implication_suite():
    t0 = time.monotonic()
    k4 = complete_dag(4)
    forward = decide_implication(k4, [ci("14|3")], [ci("24|13")])
    assert forward.holds
    reverse = decide_implication(k4, [ci("24|13")], [ci("14|3")])
    assert not reverse.holds
    m = maxoid(reverse.counterexample)
    assert ci("24|13") in m and ci("14|3") not in m
    global_forward = decide_implication(4, [ci("14|3")], [ci("24|13")])
    assert not global_forward.holds
    spohn_queries = [
        ([ci("14|23"), ci("23|1")], [ci("23|4")]),
        ([ci("14|23"), ci("23|")], [ci("23|4")]),
        ([ci("23|"), ci("23|1")], [ci("23|4")]),
    ]
    for prem, conc in spohn_queries:
        v = decide_implication(4, prem, conc)
        assert not v.holds
        mm = maxoid(v.counterexample)
        assert all(p in mm for p in prem) and all(q not in mm for q in conc)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"CRITERION 5 PASS: local implication holds, reverse and global "
          f"versions fail with verified counterexamples ({elapsed:.1f}s)")


def test_criterion_6_membership_cross_check():
    entries = enumerate_maximal_cones(complete_dag(4))
    assert len(entries) == 9
    holders = [e for e in entries if ci("14|3") in e.maxoid]
    assert len(holders) == 2
    assert all(ci("24|13") in e.maxoid for e in holders)
    print("CRITERION 6 PASS: 2 of 9 generic structures contain (1,4|3), both "
          "contain (2,4|1,3)")


def _random_instances(count, max_n, seed):
    rng = random.Random(seed)
    return [random_weighted_dag(rng, max_n=max_n) for _ in range(count)]


def test_criterion_7a_closure_properties_on_random_structures():
    """Zero violations of the compositional-graphoid, amalgamation and sound
    Spohn rules (the first rule, and the second with its classical fourth
    premise (k,l|ijM)).  The displayed three-premise second rule is also run
    on every structure: each of its firings must re-check and lack exactly
    that fourth premise, so it fires only where the sound form is silent.
    The failure message carries the first offending rule instance."""
    violations = []
    displayed_firings = 0
    instances = _random_instances(120, 5, seed=424242)
    for wd in instances:
        m = maxoid(wd)
        for reports in (check_compositional_graphoid(m), check_amalgamation(m),
                        check_strong_spohn(m, original_premise=True)):
            if reports:
                violations.append((wd, "violated", reports[0]))
                break
        for report in check_strong_spohn(m):
            inst = dict(report.instance)
            fourth = CiStatement(inst["k"], inst["l"],
                                 {inst["i"], inst["j"]} | inst["M"])
            if (report.rule != "strong-spohn-2" or not report.recheck(m)
                    or fourth in m):
                violations.append((wd, "displayed-rule firing not explained by "
                                   "a missing fourth premise", report))
            else:
                displayed_firings += 1
    assert not violations, (
        f"{len(violations)} rule failures on {len(instances)} structures; "
        f"first ({violations[0][1]}): {violations[0][2]} on {violations[0][0]}"
    )
    print(f"CRITERION 7a PASS: zero violations of the sound rules on "
          f"{len(instances)} random structures; all {displayed_firings} "
          f"firings of the displayed three-premise Spohn rule lack (k,l|ijM)")


def test_criterion_7b_weak_transitivity_violation():
    m2 = maxoid(weighted_dag_from_list(DIAMOND, [1, 2, 1, 2]))
    forward = [r for r in check_weak_transitivity(m2)
               if r.rule == "weak-transitivity-forward"]
    assert len(forward) == 1
    inst = dict(forward[0].instance)
    assert (inst["i"], inst["j"], inst["k"], inst["L"]) == (1, 4, 2, frozenset({3}))
    print("CRITERION 7b PASS: weak transitivity fails at (1,4,2,{3}) on the "
          "second diamond structure")


def test_criterion_7c_kleene_idempotence_and_critical_dag_oracle():
    rng = random.Random(71717)
    for _ in range(60):
        wd = random_weighted_dag(rng, max_n=6)
        star = kleene_star(wd)
        assert tropical_matmul(star, star) == star
        L = frozenset(v for v in wd.g.nodes if rng.random() < 0.4)
        assert critical_dag(wd, L).edges == critical_dag_by_paths(wd, L)
    print("CRITERION 7c PASS: star idempotence and definitional critical-DAG "
          "agreement on 60 random instances")


def test_criterion_7d_blocking_set_monotonicity():
    rng = random.Random(5150)
    for _ in range(60):
        wd = random_weighted_dag(rng, max_n=5)
        nodes = list(wd.g.nodes)
        small = frozenset(v for v in nodes if rng.random() < 0.35)
        big = small | frozenset(v for v in nodes if rng.random() < 0.35)
        assert critical_dag(wd, big).edges <= critical_dag(wd, small).edges
    print("CRITERION 7d PASS: critical-DAG edges shrink as the blocking set grows")


def test_criterion_7e_witnesses_reverify_exactly():
    # fan witnesses against their own cones
    for g in (DIAMOND, complete_dag(4)):
        for e in enumerate_maximal_cones(g):
            assert in_open_cone(e.inequalities, e.witness)
    # implication counterexamples against the statements they must realize
    v = decide_implication(complete_dag(4), [ci("24|13")], [ci("14|3")])
    m = maxoid(v.counterexample)
    assert ci("24|13") in m and ci("14|3") not in m
    print("CRITERION 7e PASS: all emitted witnesses re-verify by exact substitution")


def test_criterion_7f_cone_samples_reproduce_structures():
    rng = random.Random(8888)
    for g in (DIAMOND, complete_dag(3), complete_dag(4)):
        for e in enumerate_maximal_cones(g):
            produced = 0
            for denom in (7, 23, 101, 1009, 10007, 100003):
                for _ in range(4):
                    cand = tuple(x + Fraction(rng.randint(-3, 3), denom)
                                 for x in e.witness)
                    if in_open_cone(e.inequalities, cand):
                        wd = WeightedDag(g, dict(zip(g.sorted_edges, cand)))
                        assert maxoid(wd) == e.maxoid
                        produced += 1
                if produced >= 10:
                    break
            assert produced >= 10
    print("CRITERION 7f PASS: 10 interior samples per cone reproduce each "
          "cone's structure")


def test_criterion_8_d_separation_containment():
    rng = random.Random(31415)
    checked = 0
    for _ in range(40):
        wd = random_weighted_dag(rng, max_n=5)
        m = maxoid(wd)
        nodes = list(wd.g.nodes)
        for i, j in combinations(nodes, 2):
            rest = [v for v in nodes if v not in (i, j)]
            for size in range(len(rest) + 1):
                for L in combinations(rest, size):
                    if d_separated(wd.g, i, j, frozenset(L)):
                        assert CiStatement(i, j, frozenset(L)) in m
                        checked += 1
    assert checked > 200
    print(f"CRITERION 8 PASS: {checked} d-separations all contained in their "
          "structures")

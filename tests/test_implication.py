import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from maxoid import implication, polytope
from maxoid.cli import _witness_json
from maxoid.fan import enumerate_maximal_cones
from maxoid.graph import Dag, closed_dag_masks, transitive_closure
from maxoid.implication import (
    _labels,
    _relabeled_bits,
    _verify_counterexample,
    decide_implication,
)
from maxoid.polytope import graph_structures
from maxoid.separation import (
    CiStatement,
    _statement_tables,
    c_star_separated,
    maxoid,
    parse_ci_statement,
)
from maxoid.tropical import WeightedDag, is_generic
from oracles import (
    FALSE,
    TRUE,
    Atom,
    Constraint,
    complete_dag,
    evaluate,
    f_and,
    f_or,
    formula_implication,
    genericity_formula,
    mask_loop_dags,
    negate,
    per_graph_scan_implication,
    polyci_formula,
    random_weighted_dag,
    relabeled_statement,
    satisfiable,
    scan_implication,
)

K4 = complete_dag(4)


def ci(text):
    return parse_ci_statement(text)


def atom(coeffs):
    return Atom(Constraint.build(coeffs, ">"))


def test_formula_constant_folding():
    a = atom({0: 1})
    assert f_and([TRUE, a]) == a
    assert f_and([FALSE, a]) is FALSE
    assert f_or([TRUE, a]) is TRUE
    assert f_or([]) is FALSE
    assert f_and([]) is TRUE
    assert negate(negate(a)) == a


def test_polyci_single_edge_statement():
    # the only connection shape for (2,4 | 1,3) on the complete DAG is the
    # direct edge, present exactly when c24 beats the blocked path through 3
    f = polyci_formula(K4, ci("24|13"))
    assert isinstance(f, Atom)
    assert f.constraint.rel == ">="
    assert dict(f.constraint.terms) == {3: 1, 4: -1, 5: 1}  # c23 - c24 + c34 >= 0


def test_polyci_statement_with_no_instantiable_shape_is_true():
    g = Dag(4, [(1, 2), (3, 4)])
    assert polyci_formula(g, ci("1,3|")) is TRUE
    assert polyci_formula(g, ci("1,2|")) is FALSE  # direct edge always connects


def test_polyci_agrees_with_separation_on_random_weights():
    rng = random.Random(123)
    for _ in range(60):
        wd = random_weighted_dag(rng, max_n=5)
        nodes = list(wd.g.nodes)
        i, j = rng.sample(nodes, 2)
        rest = [v for v in nodes if v not in (i, j)]
        L = frozenset(v for v in rest if rng.random() < 0.5)
        s = ci(f"{min(i,j)},{max(i,j)}|{','.join(map(str, sorted(L)))}" if L
               else f"{min(i,j)},{max(i,j)}|")
        f = polyci_formula(wd.g, s)
        point = tuple(wd.w[e] for e in wd.g.sorted_edges)
        assert evaluate(f, point) == c_star_separated(wd, s)


def test_satisfiable_simple():
    a = atom({0: 1})
    assert satisfiable(f_and([a, negate(a)]), 1) is None
    w = satisfiable(f_or([f_and([a, negate(a)]), atom({0: -1})]), 1)
    assert w is not None and w[0] < 0


def test_reference_implication_forward_holds_locally():
    v = decide_implication(K4, [ci("14|3")], [ci("24|13")])
    assert v.holds and v.counterexample is None


def test_reference_implication_reverse_fails_with_verified_witness():
    v = decide_implication(K4, [ci("24|13")], [ci("14|3")])
    assert not v.holds
    m = maxoid(v.counterexample)
    assert ci("24|13") in m and ci("14|3") not in m


def test_reference_implication_fails_globally():
    v = decide_implication(4, [ci("14|3")], [ci("24|13")])
    assert not v.holds
    m = maxoid(v.counterexample)
    assert ci("14|3") in m and ci("24|13") not in m


@pytest.mark.parametrize("query", [
    ("14|23", "23|1", "23|4"),
    ("14|23", "23|", "23|4"),
    ("23|", "23|1", "23|4"),
])
def test_spohn_premise_minimality_counterexamples(query):
    p1, p2, conc = (ci(t) for t in query)
    v = decide_implication(4, [p1, p2], [conc])
    assert not v.holds
    m = maxoid(v.counterexample)
    assert p1 in m and p2 in m and conc not in m


def test_generic_mode_witness_is_generic():
    # locally the reverse implication fails even on generic weights
    v = decide_implication(K4, [ci("24|13")], [ci("14|3")], generic=True)
    assert not v.holds
    assert is_generic(v.counterexample)


def test_local_agrees_with_cone_enumeration_brute_force():
    rng = random.Random(2718)
    from maxoid.polytope import face_lattice, face_maxoid, polytope_vertices

    for g in (Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), complete_dag(3), complete_dag(4)):
        entries = enumerate_maximal_cones(g)
        pts = polytope_vertices(g, entries)
        lat = face_lattice([p for _, p in pts])
        structures = {e.maxoid for e in entries}
        structures |= {face_maxoid(g, f, entries, pts) for f in lat.faces}
        all_stmts = _all_statements(g.n)
        for _ in range(12):
            prem = [rng.choice(all_stmts)]
            conc = [rng.choice(all_stmts)]
            expected_all = all(
                any(q in m for q in conc)
                for m in structures if all(p in m for p in prem)
            )
            got = decide_implication(g, prem, conc)
            assert got.holds == expected_all
            expected_generic = all(
                any(q in m for q in conc)
                for m in (e.maxoid for e in entries) if all(p in m for p in prem)
            )
            got_gen = decide_implication(g, prem, conc, generic=True)
            assert got_gen.holds == expected_generic


def _all_statements(n):
    from itertools import combinations

    from maxoid.separation import CiStatement

    out = []
    for i, j in combinations(range(1, n + 1), 2):
        rest = [v for v in range(1, n + 1) if v not in (i, j)]
        for size in range(len(rest) + 1):
            for L in combinations(rest, size):
                out.append(CiStatement(i, j, frozenset(L)))
    return out


def test_genericity_formula_excludes_ties():
    d = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    f = genericity_formula(d)
    tied = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    split = (Fraction(2), Fraction(1), Fraction(2), Fraction(1))
    assert not evaluate(f, tied)
    assert evaluate(f, split)


def test_graph_family_enumeration_counts():
    # the oracle over all ordered pairs: labeled DAGs (OEIS A003024) and
    # labeled posets (A001035) on 4 nodes
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    assert sum(1 for _ in mask_loop_dags(4, pairs)) == 543
    assert sum(1 for _ in mask_loop_dags(4, pairs, closed_only=True)) == 219
    # the family of global implication queries, disconnected graphs included
    assert ([len(closed_dag_masks(n)) for n in (3, 4, 5, 6)]
            == [7, 40, 357, 4824])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_graph_families_keep_the_mask_loop_order(n):
    # the masks grown node by node against a Dag per mask of every edge set
    forward = list(combinations(range(1, n + 1), 2))
    graphs = list(mask_loop_dags(n, forward, closed_only=True))
    assert closed_dag_masks(n) == [sum(1 << forward.index(e) for e in g.edges) for g in graphs]
    assert len(graphs) == [1, 1, 2, 7, 40, 357, 4824][n]


def _lift_to_closure(wd: WeightedDag) -> WeightedDag:
    """The closure of wd's graph, each added edge weighted below every path
    between its ends, with distinct powers of two keeping a generic
    weighting generic: two closure paths with the same added edges differ
    on g-paths alone, two with different ones by more than any g-path."""
    bound = sum(abs(x) for x in wd.w.values()) + 1
    added = sorted(transitive_closure(wd.g).edges - wd.g.edges)
    w = dict(wd.w)
    for t, e in enumerate(added):
        w[e] = -bound * 2 ** (t + 1)
    return WeightedDag(transitive_closure(wd.g), w)


def test_structures_lift_to_the_transitive_closure():
    # the closure theorem the global scan's skip rests on
    rng = random.Random(1729)
    seen = Counter()
    while min(seen[True], seen[False]) < 40:
        generic_draw = rng.random() < 0.5
        denominators = (1, 3, 7, 11, 13) if generic_draw else (1, 1, 2)
        wd = random_weighted_dag(rng, max_n=5, denominators=denominators)
        if generic_draw:
            wd = WeightedDag(wd.g, {e: x * rng.randint(1, 97) for e, x in wd.w.items()})
        if transitive_closure(wd.g) == wd.g:
            continue
        lifted = _lift_to_closure(wd)
        assert maxoid(lifted) == maxoid(wd), wd
        generic = is_generic(wd)
        if generic:
            assert is_generic(lifted), wd
        seen[generic] += 1


def _random_statement(rng, n):
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    rest = [v for v in range(1, n + 1) if v not in (i, j)]
    return CiStatement(i, j, frozenset(v for v in rest if rng.random() < 0.4))


def _random_query(rng, n):
    premises = list(dict.fromkeys(_random_statement(rng, n) for _ in range(rng.randint(1, 3))))
    return premises, [_random_statement(rng, n)]


def _check_verdict(got, want, premises, conclusions, generic, n):
    """Equal verdicts, and a counterexample on n nodes that re-verifies."""
    assert got.holds == want.holds
    if not got.holds:
        assert got.counterexample.g.n == n
        _verify_counterexample(got.counterexample, premises, conclusions, generic)


def test_global_scan_matches_the_mask_loop_oracle():
    # verdicts only: the counterexample is the first match in the lookup's
    # scan order, which need not be the graph the mask loop meets first
    rng = random.Random(5151)
    seen = Counter()
    for q in range(300):
        n = 3 if q % 3 else 4
        premises, conclusions = _random_query(rng, n)
        generic = rng.random() < 0.4
        closed_only = rng.random() < 0.5
        got = decide_implication(n, premises, conclusions, generic)
        want = scan_implication(n, premises, conclusions, generic, closed_only)
        _check_verdict(got, want, premises, conclusions, generic, n)
        seen[closed_only, generic, got.holds] += 1
    assert len(seen) == 8, seen


def _differential(rng, queries, local_n):
    """Lookup against the formula oracle on seeded queries, half generic:
    local ones on randomly labeled graphs with up to local_n nodes, global ones on 3
    or 4 nodes against the mask loop over transitively closed DAGs.
    Returns the counts by (scope, generic, holds)."""
    seen = Counter()
    for q in range(queries):
        generic = q % 4 < 2
        if q % 2:
            g = random_weighted_dag(rng, max_n=local_n).g
            label = [0, *rng.sample(g.nodes, g.n)]  # not top-ordered in general
            g = Dag(g.n, [(label[u], label[v]) for u, v in g.edges])
            premises, conclusions = _random_query(rng, g.n)
            got = decide_implication(g, premises, conclusions, generic)
            want = formula_implication(g, premises, conclusions, generic)
            scope, n = "local", g.n
        else:
            n = rng.randint(3, 4)
            premises, conclusions = _random_query(rng, n)
            got = decide_implication(n, premises, conclusions, generic)
            want = scan_implication(n, premises, conclusions, generic, closed_only=True)
            scope = "global"
        _check_verdict(got, want, premises, conclusions, generic, n)
        seen[scope, generic, got.holds] += 1
    return seen


def test_lookup_matches_the_formula_oracle():
    seen = _differential(random.Random(8080), 240, 4)
    assert len(seen) == 8, seen


@pytest.mark.long
def test_lookup_matches_the_formula_oracle_long():
    # global 5-node queries are left out: the mask loop's formula engine
    # takes minutes on one that holds
    seen = _differential(random.Random(9090), 520, 5)
    assert len(seen) == 8, seen


def test_holding_global_implication_scans_the_whole_family():
    # a semigraphoid consequence holds over every graph on three nodes
    v = decide_implication(3, [ci("1,2|"), ci("1,3|2")], [ci("1,3|")])
    assert v.holds and v.counterexample is None
    v_gen = decide_implication(3, [ci("1,2|"), ci("1,3|2")], [ci("1,3|")], generic=True)
    assert v_gen.holds


def test_generic_and_plain_modes_differ_on_a_tie():
    # only the tied diamond structure contains both premises, so the plain
    # mode finds a counterexample on the hyperplane while the generic mode
    # holds vacuously
    d = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    prem = [ci("1,4|2"), ci("1,4|3")]
    conc = [ci("1,2|")]
    plain = decide_implication(d, prem, conc)
    assert not plain.holds
    assert not is_generic(plain.counterexample)
    m = maxoid(plain.counterexample)
    assert all(p in m for p in prem) and conc[0] not in m
    assert decide_implication(d, prem, conc, generic=True).holds


def test_generic_counterexample_breaks_the_cone_witness_ties():
    # the first cone of complete-4 with 2,4|1,3 and without 1,4|3 has a
    # witness with tied non-critical parallel paths; the counterexample keeps
    # its structure and has no tie
    prem, conc = [ci("24|13")], [ci("14|3")]
    cones = next(graph_structures(K4))
    m, point, den = next(c for c in cones if prem[0] in c[0] and conc[0] not in c[0])
    raw = WeightedDag(K4, {e: Fraction(x, den) for e, x in zip(K4.sorted_edges, point)})
    assert maxoid(raw) == m and not is_generic(raw)
    v = decide_implication(K4, prem, conc, generic=True)
    assert not v.holds
    assert v.counterexample.g == K4
    assert is_generic(v.counterexample) and maxoid(v.counterexample) == m


def test_statement_outside_scope_rejected():
    with pytest.raises(ValueError):
        decide_implication(K4, [ci("1,5|")], [ci("14|3")])
    with pytest.raises(ValueError):
        decide_implication(3, [ci("1,2|")], [ci("1,4|")])
    # node 0 and node n + 1, as premise and as conclusion, local and global
    for scope in (K4, 4):
        for text in ("0,1|", "1,2|0", "1,5|", "1,2|3,5"):
            with pytest.raises(ValueError, match=r"outside 1\.\.4"):
                decide_implication(scope, [ci(text)], [ci("1,2|3")])
            with pytest.raises(ValueError, match=r"outside 1\.\.4"):
                decide_implication(scope, [ci("1,2|3")], [ci(text)])


def _witness(v):
    return None if v.holds else json.dumps(_witness_json(v.counterexample), sort_keys=True)


def test_index_scan_matches_the_per_graph_scan():
    # equal verdicts and byte-identical counterexamples: dropping repeated
    # structures and building faces late keep the first match
    rng = random.Random(6161)
    seen = Counter()
    for q in range(160):
        generic = q % 4 < 2
        if q % 2:
            g = random_weighted_dag(rng, max_n=5).g
            label = [0, *rng.sample(g.nodes, g.n)]
            scope, n = Dag(g.n, [(label[u], label[v]) for u, v in g.edges]), g.n
        else:
            scope = n = rng.randint(3, 4)
        premises, conclusions = _random_query(rng, n)
        got = decide_implication(scope, premises, conclusions, generic)
        want = per_graph_scan_implication(scope, premises, conclusions, generic)
        assert (got.holds, _witness(got)) == (want.holds, _witness(want)), (scope, premises)
        seen[isinstance(scope, Dag), generic, got.holds] += 1
    assert len(seen) == 8, seen


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relabeling_bit_tables_permute_the_statements_as_relabeled_does(n):
    table = _statement_tables[n]
    columns = [_relabeled_bits(n, k) for k in range(len(table.statements))]
    labels = _labels(n)
    assert [label for label, _ in labels] == [(0, *p) for p in permutations(range(1, n + 1))]
    for t, (label, back) in enumerate(labels):
        assert [back[x] for x in label] == list(range(n + 1))
        row = [column[t] for column in columns]
        assert sorted(row) == list(range(len(table.statements)))
        assert [table.statements[b] for b in row] == [relabeled_statement(s, back)
                                                      for s in table.statements]


def test_query_a_cone_answers_builds_no_face_lattice(monkeypatch):
    monkeypatch.setattr(implication, "_indexes", {})
    lattices = []
    face_lattice = polytope.face_lattice
    monkeypatch.setattr(polytope, "face_lattice",
                        lambda points: lattices.append(points) or face_lattice(points))
    v = decide_implication(complete_dag(5), [ci("2,4|1,3")], [ci("1,4|3")])
    assert not v.holds and lattices == []
    # the spy sees the lattice of a graph whose last cone a scan moves past
    assert decide_implication(K4, [ci("14|3")], [ci("24|13")]).holds
    assert len(lattices) == 1


def _counting_fans(monkeypatch, fail_at=None):
    """The graphs whose fans the index enumerates, from a fresh index; the
    fail_at-th enumeration raises instead."""
    monkeypatch.setattr(implication, "_indexes", {})
    graphs = []
    enumerate_fan = polytope.enumerate_maximal_cones

    def spy(g):
        graphs.append(g)
        if len(graphs) == fail_at:
            raise RuntimeError("interrupted")
        return enumerate_fan(g)

    monkeypatch.setattr(polytope, "enumerate_maximal_cones", spy)
    return graphs


def test_failing_global_query_grows_the_index_only_as_far_as_it_scans(monkeypatch):
    graphs = _counting_fans(monkeypatch)
    query = [ci("1,4|3")], [ci("2,4|1,3")]
    assert not decide_implication(5, *query).holds
    assert 0 < len(graphs) < 63
    reached = len(graphs)
    again = decide_implication(5, *query)
    assert len(graphs) == reached
    # the oracle's own structures go through the spy too, so it runs last
    assert _witness(again) == _witness(per_graph_scan_implication(5, *query))


def test_index_that_fails_to_grow_is_dropped(monkeypatch):
    # a graph taken from the scope but never listed must not be skipped by
    # the next query
    graphs = _counting_fans(monkeypatch, fail_at=3)
    query = [ci("1,2|"), ci("1,3|2")], [ci("1,3|")]
    with pytest.raises(RuntimeError, match="interrupted"):
        decide_implication(4, *query, generic=True)
    assert implication._indexes == {}
    assert decide_implication(4, *query, generic=True).holds
    assert len(graphs) == 3 + 16


def test_repeated_failing_query_reuses_its_counterexample_weights(monkeypatch):
    monkeypatch.setattr(implication, "_indexes", {})
    calls = Counter()
    for name in ("weighted_transitive_reduction", "_verify_counterexample"):
        spied = getattr(implication, name)
        monkeypatch.setattr(implication, name,
                            lambda *a, _f=spied, _n=name: calls.update([_n]) or _f(*a))
    query = [ci("1,4|3")], [ci("2,4|1,3")]
    first = decide_implication(4, *query)
    again = decide_implication(4, *query)
    assert calls == {"weighted_transitive_reduction": 1, "_verify_counterexample": 2}
    assert first.counterexample == again.counterexample
    assert first.counterexample is not again.counterexample
    assert _witness(first) == _witness(per_graph_scan_implication(4, *query))

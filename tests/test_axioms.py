import random
from itertools import combinations

import pytest

from maxoid.axioms import (
    _graphoid_instances,
    check_amalgamation,
    check_compositional_graphoid,
    check_strong_spohn,
    check_weak_transitivity,
)
from maxoid.census import all_top_ordered_tdags, census_structures
from maxoid.graph import Dag
from maxoid.separation import Maxoid, _statement_tables, maxoid, parse_ci_statement
from maxoid.tropical import weighted_dag_from_list
from oracles import (
    looped_amalgamation,
    looped_compositional_graphoid,
    looped_strong_spohn,
    looped_weak_transitivity,
    random_weighted_dag,
)

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


def ci(text):
    return parse_ci_statement(text)


def test_diamond_maxoids_are_clean():
    for weights in ([2, 1, 2, 1], [1, 2, 1, 2], [1, 1, 1, 1]):
        m = maxoid(weighted_dag_from_list(DIAMOND, weights))
        assert check_compositional_graphoid(m) == []
        assert check_amalgamation(m) == []
        assert check_strong_spohn(m) == []


def test_vacuously_closed_artificial_set():
    m = Maxoid(3, [ci("1,2|3")])
    assert check_compositional_graphoid(m) == []


def test_contraction_violation_flagged():
    m = Maxoid(3, [ci("1,2|"), ci("1,3|2")])
    reports = check_compositional_graphoid(m)
    rules = {r.rule for r in reports}
    assert "semigraphoid-forward" in rules
    flagged = next(r for r in reports if r.rule == "semigraphoid-forward")
    assert ci("1,3|") in flagged.missing
    assert flagged.recheck(m)
    # adding the missing statement clears the forward rule
    fixed = Maxoid(3, [ci("1,2|"), ci("1,3|2"), ci("1,3|")])
    assert not any(r.rule == "semigraphoid-forward"
                   for r in check_compositional_graphoid(fixed))


def test_amalgamation_cassiopeia_pattern():
    m = Maxoid(5, [ci("1,5|2"), ci("1,5|4")])
    reports = check_amalgamation(m)
    assert len(reports) == 1
    assert reports[0].missing == (ci("1,5|2,4"),)
    assert reports[0].recheck(m)


def test_empty_structure_passes_everything():
    m = Maxoid(4, [])
    assert check_compositional_graphoid(m) == []
    assert check_amalgamation(m) == []
    assert check_strong_spohn(m) == []
    assert check_weak_transitivity(m) == []


def test_weak_transitivity_violation_of_second_diamond_maxoid():
    m2 = maxoid(weighted_dag_from_list(DIAMOND, [1, 2, 1, 2]))
    reports = check_weak_transitivity(m2)
    forward = [r for r in reports if r.rule == "weak-transitivity-forward"]
    assert len(forward) == 1
    inst = dict(forward[0].instance)
    assert (inst["i"], inst["j"], inst["k"], inst["L"]) == (1, 4, 2, frozenset({3}))
    assert set(forward[0].premises) == {ci("1,4|3"), ci("1,4|2,3")}
    assert set(forward[0].missing) == {ci("1,2|3"), ci("2,4|3")}


def test_strong_spohn_artificial_violation():
    # premises of the first rule without its conclusion
    m = Maxoid(4, [ci("1,2|3,4"), ci("3,4|1"), ci("3,4|2")])
    reports = check_strong_spohn(m)
    assert any(r.rule == "strong-spohn-1" and r.missing == (ci("3,4|"),)
               for r in reports)


def test_second_spohn_rule_as_displayed_fails_on_a_collider_structure():
    """The three-premise form of the second rule is not a sound property:
    the two-edge collider DAG 2 -> 4 <- 3 with node 1 isolated satisfies
    (1,4|2,3), (2,3|1) and (2,3|) yet conditioning on the collider connects
    2 and 3.  The classical form with the fourth premise (2,3|1,4) holds."""
    g = Dag(4, [(2, 4), (3, 4)])
    m = maxoid(weighted_dag_from_list(g, [0, 0]))
    assert ci("1,4|2,3") in m and ci("2,3|1") in m and ci("2,3|") in m
    assert ci("2,3|4") not in m
    reports = check_strong_spohn(m)
    hit = [r for r in reports if r.rule == "strong-spohn-2"
           and dict(r.instance)["j"] == 4 and dict(r.instance)["i"] == 1]
    assert hit and hit[0].recheck(m)
    assert check_strong_spohn(m, original_premise=True) == []


def test_checkers_are_order_independent():
    stmts = [ci("1,5|2"), ci("1,5|4")]
    a = check_amalgamation(Maxoid(5, stmts))
    b = check_amalgamation(Maxoid(5, list(reversed(stmts))))
    assert a == b


def test_node_bound_guard():
    m = Maxoid(7, [])
    with pytest.raises(ValueError):
        check_compositional_graphoid(m)
    assert check_compositional_graphoid(m, force=True) == []


def test_random_maxoids_satisfy_the_sound_closure_properties():
    """Compositional graphoid, amalgamation, the first Spohn rule and the
    classical second rule never fire on computed structures; the displayed
    three-premise second rule does, so it is excluded here.  Its minimal
    counterexample is the collider test above, and acceptance criterion 7a
    checks that each of its firings on random structures lacks the classical
    fourth premise."""
    rng = random.Random(90125)
    for _ in range(40):
        m = maxoid(random_weighted_dag(rng, max_n=5))
        assert check_compositional_graphoid(m) == []
        assert check_amalgamation(m) == []
        assert not [r for r in check_strong_spohn(m) if r.rule == "strong-spohn-1"]
        assert check_strong_spohn(m, original_premise=True) == []


CHECKERS = [
    (check_compositional_graphoid, looped_compositional_graphoid, {}),
    (check_amalgamation, looped_amalgamation, {}),
    (check_strong_spohn, looped_strong_spohn, {"original_premise": False}),
    (check_strong_spohn, looped_strong_spohn, {"original_premise": True}),
    (check_weak_transitivity, looped_weak_transitivity, {}),
]


def _random_five_node_maxoids(count=8):
    rng = random.Random(2323)
    for _ in range(count):
        g = Dag(5, [e for e in combinations(range(1, 6), 2) if rng.random() < 0.6])
        yield maxoid(weighted_dag_from_list(g, [rng.randint(-2, 2) for _ in g.sorted_edges]))


def _random_bit_sets(density):
    """Seeded structures on 3-5 nodes, six per node count, each statement
    present with the given probability."""
    rng = random.Random(int(density * 100))
    for n in (3, 4, 5):
        size = len(_statement_tables[n].statements)
        for _ in range(6):
            bits = sum(1 << k for k in range(size) if rng.random() < density)
            yield Maxoid.from_bits(n, bits)


STRUCTURES = {
    "census-4": lambda: sorted(census_structures(all_top_ordered_tdags(4))[1],
                               key=lambda m: m.bits),
    "random-5": lambda: list(_random_five_node_maxoids()),
    "dense": lambda: list(_random_bit_sets(0.85)),
    "sparse": lambda: list(_random_bit_sets(0.3)),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURES))
def test_checkers_match_the_looped_oracle(kind):
    """The one evaluator over instance tuples reports exactly what the
    replaced per-rule loops reported, field by field, in the same order."""
    structures = STRUCTURES[kind]()
    if kind == "census-4":
        assert len(structures) == 41
    fired = set()
    for m in structures:
        for check, oracle, options in CHECKERS:
            got, want = check(m, **options), oracle(m, **options)
            assert ([(r.rule, r.instance, r.premises, r.missing, str(r)) for r in got]
                    == [(r.rule, r.instance, r.premises, r.missing, str(r)) for r in want])
            fired.update(r.rule for r in got)
    if kind in ("dense", "sparse"):
        # composition never fires: through the pairwise reduction its
        # conclusion's statements are exactly its premises' statements
        assert fired == {"semigraphoid-forward", "semigraphoid-backward", "intersection",
                         "amalgamation", "strong-spohn-1", "strong-spohn-2",
                         "weak-transitivity-forward", "weak-transitivity-backward"}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_composition_conclusions_are_exactly_their_premises(n):
    # through the pairwise reduction (I, J∪K | L) is (I, J | L) and (I, K | L)
    compositions = [(premises, conclusions)
                    for rule, _, premises, conclusions, _, _ in _graphoid_instances(n)
                    if rule == "composition"]
    assert compositions
    for premises, conclusions in compositions:
        assert set(conclusions) == set(premises)

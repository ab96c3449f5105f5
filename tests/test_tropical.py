from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxoid.graph import Dag, enumerate_paths
from maxoid.tropical import (
    NEG_INF,
    critical_paths,
    genericity_witness,
    is_generic,
    kleene_star,
    parse_extended_rational,
    path_weight,
    weighted_dag_from_list,
    weighted_dag_from_matrix,
    weights_from_json,
    weights_to_list_json,
    weights_to_matrix_json,
    WeightedDag,
)
from oracles import random_weighted_dag, tropical_matmul


FIG2 = Dag(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def fig2(weights=(1, 1, 1, 3, 1)):
    return weighted_dag_from_list(FIG2, list(weights))


def test_neg_inf_semantics():
    assert NEG_INF + Fraction(5) is NEG_INF
    assert Fraction(5) + NEG_INF is NEG_INF
    assert max(NEG_INF, Fraction(-7)) == Fraction(-7)
    assert NEG_INF < Fraction(-10**9) and not NEG_INF < NEG_INF


def test_weights_must_cover_edges_exactly():
    g = Dag(2, [(1, 2)])
    with pytest.raises(ValueError):
        WeightedDag(g, {})
    with pytest.raises(ValueError):
        WeightedDag(g, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(TypeError):
        WeightedDag(g, {(1, 2): 0.5})


def test_path_weight_examples():
    wd = fig2()
    assert path_weight(wd, (1, 2, 4)) == 4  # 1 + 3, checked by hand
    assert path_weight(wd, (1, 2, 3, 4)) == 3  # 1 + 1 + 1
    assert path_weight(wd, (2, 4)) == wd.weight(2, 4)
    with pytest.raises(ValueError):
        path_weight(wd, (1, 4))


def test_kleene_star_chain():
    g = Dag(3, [(1, 2), (2, 3)])
    wd = weighted_dag_from_list(g, [1, 1])
    star = kleene_star(wd)
    assert star.entry(1, 3) == 2
    assert star.entry(1, 1) == 0
    assert star.entry(3, 1) is NEG_INF


@pytest.mark.parametrize("i, j, node", [(0, 3, 0), (2, 0, 0), (1, 9, 9)])
def test_star_entry_refuses_a_node_outside_the_graph(i, j, node):
    # node 0 must not wrap round to node 3
    star = kleene_star(weighted_dag_from_list(Dag(3, [(1, 2), (2, 3)]), [1, 5]))
    with pytest.raises(ValueError, match=f"node {node} out of range 1..3"):
        star.entry(i, j)


def test_kleene_star_fig2_entry_is_brute_force_max():
    wd = fig2()
    # oracle: maximum over the three enumerated 1->4 paths
    expected = max(path_weight(wd, p) for p in enumerate_paths(FIG2, 1, 4))
    assert expected == 4
    assert kleene_star(wd).entry(1, 4) == 4


def test_kleene_star_edgeless():
    wd = WeightedDag(Dag(3, []), {})
    star = kleene_star(wd)
    assert all(star.entry(i, j) is NEG_INF for i in range(1, 4) for j in range(1, 4) if i != j)


def test_proper_variant_diagonal():
    wd = fig2()
    proper = kleene_star(wd, proper=True)
    assert all(proper.entry(i, i) is NEG_INF for i in range(1, 5))
    assert proper.entry(1, 4) == 4


def test_critical_paths_diamond():
    d = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    wd = weighted_dag_from_list(d, [2, 1, 2, 1])
    assert critical_paths(wd, 1, 4) == [(1, 2, 4)]
    tied = weighted_dag_from_list(d, [1, 1, 1, 1])
    assert critical_paths(tied, 1, 4) == [(1, 2, 4), (1, 3, 4)]
    assert critical_paths(wd, 4, 1) == []


def test_critical_paths_refuse_a_node_outside_the_graph():
    wd = weighted_dag_from_list(Dag(3, [(1, 2), (2, 3)]), [1, 1])
    with pytest.raises(ValueError, match="node 9 out of range 1..3"):
        critical_paths(wd, 1, 9)


def test_critical_paths_fig2():
    assert critical_paths(fig2(), 1, 4) == [(1, 2, 4)]


def test_genericity():
    assert is_generic(fig2())
    d = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    tied = weighted_dag_from_list(d, [1, 1, 1, 1])
    assert not is_generic(tied)
    w = genericity_witness(tied)
    assert w == ((1, 2, 4), (1, 3, 4))
    assert path_weight(tied, w[0]) == path_weight(tied, w[1])
    chain = weighted_dag_from_list(Dag(3, [(1, 2), (2, 3)]), [5, 5])
    assert is_generic(chain)


def test_star_idempotent_and_matches_enumeration_on_random_instances():
    import random

    rng = random.Random(20240817)
    for _ in range(40):
        wd = random_weighted_dag(rng, max_n=7)
        star = kleene_star(wd)
        assert tropical_matmul(star, star) == star
        for i in wd.g.nodes:
            for j in wd.g.nodes:
                if i == j:
                    continue
                paths = enumerate_paths(wd.g, i, j)
                expected = max((path_weight(wd, p) for p in paths), default=NEG_INF)
                assert star.entry(i, j) == expected


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=30, deadline=None)
def test_critical_path_weights_equal_star_entry(seed):
    import random

    wd = random_weighted_dag(random.Random(seed), max_n=5)
    proper = kleene_star(wd, proper=True)
    for i in wd.g.nodes:
        for j in wd.g.nodes:
            if i == j:
                continue
            crit = critical_paths(wd, i, j)
            if crit:
                assert {path_weight(wd, p) for p in crit} == {proper.entry(i, j)}
            else:
                assert proper.entry(i, j) is NEG_INF


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=30, deadline=None)
def test_genericity_witness_pairs_have_equal_weight(seed):
    import random

    wd = random_weighted_dag(random.Random(seed), max_n=5)
    w = genericity_witness(wd)
    if w is None:
        assert is_generic(wd)
    else:
        p, q = w
        assert p != q and path_weight(wd, p) == path_weight(wd, q)


def test_rational_parsing():
    assert parse_extended_rational("3/4") == Fraction(3, 4)
    assert parse_extended_rational("-2") == -2
    assert parse_extended_rational("-inf") is NEG_INF
    with pytest.raises(TypeError):
        parse_extended_rational(0.25)


def test_matrix_form_round_trip():
    wd = fig2()
    m = weights_to_matrix_json(wd)
    assert m[0][1] == "1" and m[1][3] == "3" and m[3][0] == "-inf"
    again = weighted_dag_from_matrix(FIG2, m)
    assert again == wd
    assert weights_from_json(FIG2, m) == wd
    assert weights_from_json(FIG2, weights_to_list_json(wd)) == wd


def test_matrix_form_validates_support():
    bad = [["-inf"] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        weighted_dag_from_matrix(FIG2, bad)  # missing finite weight on an edge
    full = weights_to_matrix_json(fig2())
    full[3][0] = "1"  # weight on a non-edge
    with pytest.raises(ValueError):
        weighted_dag_from_matrix(FIG2, full)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxoid.graph import (
    CycleError,
    Dag,
    dag_from_edges,
    dag_from_json,
    dag_to_json,
    enumerate_paths,
    isomorphism_classes,
    linear_extensions,
    to_dot,
    top_ordered_closed_dags,
    transitive_closure,
)
from maxoid.census import all_top_ordered_tdags
from oracles import complete_dag


def test_diamond_construction():
    g = dag_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert g.n == 4
    assert g.has_edge(1, 2) and not g.has_edge(2, 1)
    assert g.topological_order == (1, 2, 3, 4)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        dag_from_edges(3, [(1, 2), (2, 3), (3, 1)])


def test_self_loop_and_duplicates_rejected():
    with pytest.raises(ValueError):
        dag_from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        dag_from_edges(2, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        dag_from_edges(2, [(1, 3)])


def test_edgeless_graph_allowed():
    g = dag_from_edges(2, [])
    assert g.edges == frozenset()
    assert enumerate_paths(g, 1, 2) == []


def test_non_identity_topological_labels():
    g = dag_from_edges(3, [(3, 1), (1, 2)])
    assert g.topological_order == (3, 1, 2)
    assert enumerate_paths(g, 3, 2) == [(3, 1, 2)]


def test_paths_diamond():
    g = dag_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert enumerate_paths(g, 1, 4) == [(1, 2, 4), (1, 3, 4)]
    assert enumerate_paths(g, 4, 1) == []


def test_paths_complete_dag_4():
    paths = enumerate_paths(complete_dag(4), 1, 4)
    assert len(paths) == 4
    assert paths == sorted(paths)


def test_paths_require_distinct_endpoints():
    with pytest.raises(ValueError):
        enumerate_paths(complete_dag(3), 2, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_dag_path_count(n):
    assert len(enumerate_paths(complete_dag(n), 1, n)) == 2 ** (n - 2)


def test_closure_chain():
    g = dag_from_edges(3, [(1, 2), (2, 3)])
    assert transitive_closure(g).edges == {(1, 2), (2, 3), (1, 3)}


def test_closure_fig2_adds_only_one_edge():
    g = dag_from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    closed = transitive_closure(g)
    assert closed.edges - g.edges == {(1, 4)}


def test_closure_fixed_point_on_complete_dag():
    g = complete_dag(4)
    assert transitive_closure(g) == g


@st.composite
def random_dags(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag(n, [p for p, keep in zip(pairs, mask) if keep])


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_closure_idempotent(g):
    closed = transitive_closure(g)
    assert transitive_closure(closed) == closed


@given(random_dags(max_n=5))
@settings(max_examples=40, deadline=None)
def test_reversed_paths_never_exist(g):
    for i in g.nodes:
        for j in g.descendants(i):
            for p in enumerate_paths(g, i, j):
                back = tuple(reversed(p))
                assert not all(g.has_edge(u, v) for u, v in zip(back, back[1:]))


def test_json_round_trip():
    g = dag_from_edges(4, [(1, 3), (2, 4), (1, 2)])
    assert dag_from_json(dag_to_json(g)) == g
    assert dag_from_json('{"n": 2, "edges": [[1, 2]]}') == Dag(2, [(1, 2)])
    with pytest.raises(ValueError):
        dag_from_json({"edges": []})


def test_dot_export_mentions_all_parts():
    g = dag_from_edges(3, [(1, 2)])
    dot = to_dot(g)
    assert "1 -> 2;" in dot and "3;" in dot


def test_linear_extensions_of_the_diamond():
    g = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert list(linear_extensions(g)) == [(1, 2, 3, 4), (1, 3, 2, 4)]
    assert len(list(linear_extensions(Dag(4, [])))) == 24


def _check_classes(graphs):
    classes = list(isomorphism_classes(graphs))
    place = {g: k for k, g in enumerate(graphs)}
    reached = []
    for rep, labels in classes:
        assert labels[0] == tuple(range(rep.n + 1))
        for label in labels:
            member = Dag(rep.n, [(label[u], label[v]) for u, v in rep.edges])
            assert place[member] >= place[rep]
            reached.append(member)
    assert sorted(map(place.get, reached)) == list(range(len(graphs)))
    return classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_isomorphism_classes_are_the_posets(n):
    # OEIS A000112 (posets) and A000608 (connected posets)
    closed = _check_classes(list(top_ordered_closed_dags(n)))
    assert len(closed) == [1, 2, 5, 16, 63, 318][n - 1]
    connected = _check_classes(all_top_ordered_tdags(n).graphs)
    assert len(connected) == [1, 1, 3, 10, 44, 238][n - 1]


def test_isomorphism_classes_of_a_sub_family_count_only_its_members():
    graphs = all_top_ordered_tdags(5).graphs[::7]
    classes = _check_classes(graphs)
    assert len(classes) < len(graphs)
    (rep, labels), = isomorphism_classes(graphs[:1])
    assert rep == graphs[0] and labels == [tuple(range(6))]

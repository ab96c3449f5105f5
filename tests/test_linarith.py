import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxoid.linarith import (
    StrictTableau,
    _echelon,
    _primitive,
    checked_point,
    pivot_columns,
    rank_of,
)
from oracles import (
    Constraint,
    FullStrictTableau,
    affine_dimension,
    as_constraint,
    fm_feasible,
    fraction_echelon,
    fraction_feasible,
    fraction_strict_tableau,
    nullspace,
)


def gt(coeffs, const=0):
    return Constraint.build(coeffs, ">", const)


def ge(coeffs, const=0):
    return Constraint.build(coeffs, ">=", const)


def eq(coeffs, const=0):
    return Constraint.build(coeffs, "==", const)


def strict_witness(rows, nvars):
    """The checked StrictTableau witness of dense strict rows, None when
    their open cone is empty."""
    tab = StrictTableau(nvars).extended(rows)
    return None if tab is None else checked_point(tab.point, rows, tab.d)


def dense(con, nvars):
    """The dense row of a homogeneous Constraint."""
    coeffs = dict(con.terms)
    return tuple(coeffs.get(v, 0) for v in range(nvars))


def test_open_interval():
    w = strict_witness([(1, 0), (-1, 1)], 2)
    assert w is not None and 0 < w[0] < w[1]


def test_contradiction():
    assert strict_witness([(1,), (-1,)], 1) is None


def test_strict_versus_nonstrict_boundary():
    # the oracle simplex, which the formula oracle runs on negated atoms:
    # x >= 0 and -x >= 0 admit only x = 0 ...
    w = fraction_feasible([ge({0: 1}), ge({0: -1})], 1)
    assert w is not None and w[0] == 0
    # ... so making one side strict kills it
    assert fraction_feasible([gt({0: 1}), ge({0: -1})], 1) is None


def test_diamond_cone_witness_reproduces_maxoid():
    from maxoid.graph import Dag
    from maxoid.separation import maxoid, parse_ci_statement
    from maxoid.tropical import WeightedDag

    cone = (1, -1, 1, -1)  # edges (1,2),(1,3),(2,4),(3,4)
    w = strict_witness([cone], 4)
    d = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    wd = WeightedDag(d, dict(zip(d.sorted_edges, w)))
    assert maxoid(wd).stmts == {parse_ci_statement(t) for t in ("2,3|1", "1,4|2,3", "1,4|2")}


def test_equalities():
    # the oracle simplex's artificial phase
    w = fraction_feasible([eq({0: 1, 1: 1}, -2), ge({0: 1, 1: -1})], 2)
    assert w[0] + w[1] == 2 and w[0] >= w[1]
    assert fraction_feasible([eq({0: 1}, -1), eq({0: 1}, -2)], 1) is None


def test_empty_system_and_out_of_range():
    assert strict_witness([], 2) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        strict_witness([(0, 0, 0, 0, 0, 1)], 2)


def test_witness_checked_raises_on_violation():
    with pytest.raises(AssertionError):
        checked_point((Fraction(0),), [(1,)])
    with pytest.raises(AssertionError, match=r"witness \(1, -1\) / 3 violates \(1, 1\) > 0"):
        checked_point((1, -1), [(1, 1)], 3)
    assert checked_point((1, 2), [(-1, 1)], 4) == (Fraction(1, 4), Fraction(1, 2))


def test_determinism():
    system = [(1, -1, 0), (0, 1, -1), (-5, 0, 1)]
    w = strict_witness(system, 3)
    assert w is not None and w == strict_witness(system, 3)


def test_normalized_constraint():
    c = gt({0: Fraction(2, 3), 1: Fraction(-4, 3)})
    assert c.terms == ((0, 1), (1, -2))
    c2 = ge({0: Fraction(1, 2)}, Fraction(3, 2))
    assert c2.terms == ((0, 1),) and c2.const == 3


def test_negated():
    assert gt({0: 1}).negated() == ge({0: -1})
    assert ge({0: 1}).negated() == gt({0: -1})
    with pytest.raises(ValueError):
        eq({0: 1}).negated()


@st.composite
def small_rows(draw, rational=False, relations=(">", ">=", "=="), homogeneous=False):
    """Up to 6 raw rows (coefficients, constant, relation) in up to 4
    variables with small integer entries, or small rational ones when
    rational is set; every constant is 0 when homogeneous is set."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=6))

    def entry(bound):
        num = draw(st.integers(min_value=-bound, max_value=bound))
        return Fraction(num, draw(st.sampled_from([1, 2, 3, 6]))) if rational else num

    rows = []
    for _ in range(nrows):
        coeffs = {v: entry(3) for v in range(nvars)}
        const = 0 if homogeneous else entry(4)
        rel = draw(st.sampled_from(list(relations)))
        rows.append((coeffs, const, rel))
    return rows, nvars


def small_systems(rational=False, relations=(">", ">=", "=="), homogeneous=False):
    """The rows of small_rows, built into constraints."""
    return small_rows(rational, relations, homogeneous).map(
        lambda case: ([Constraint.build(c, rel, k) for c, k, rel in case[0]], case[1]))


def _holds_directly(coeffs, const, rel, point) -> bool:
    val = sum(Fraction(c) * point[v] for v, c in coeffs.items()) + const
    return val > 0 if rel == ">" else val >= 0 if rel == ">=" else val == 0


@given(small_rows(rational=True), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_build_stores_the_primitive_row_of_the_same_half_space(case, seed):
    rows, nvars = case
    rng = random.Random(seed)
    for coeffs, const, rel in rows:
        con = Constraint.build(coeffs, rel, const)
        values = [c for _, c in con.terms] + [con.const]
        assert all(type(x) is int for x in values)
        assert gcd(*values) == (1 if any(coeffs.values()) or const else 0)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = {v: c * scale for v, c in coeffs.items()}
        assert Constraint.build(scaled, rel, const * scale) == con
        points = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
                  for _ in range(4)]
        # points solved onto the hyperplane, where '>' and '>=' part
        for v in (v for v, c in coeffs.items() if c != 0):
            p = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
            p[v] = 0
            p[v] = -(sum(c * p[u] for u, c in coeffs.items()) + const) / coeffs[v]
            points.append(p)
        for p in points:
            expected = _holds_directly(coeffs, const, rel, p)
            assert con.holds_at(p) == expected
            den = lcm(*(x.denominator for x in p))
            assert con.holds_at([int(x * den) for x in p], den) == expected


@given(small_systems())
@settings(max_examples=120, deadline=None)
def test_agrees_with_fourier_motzkin(case):
    # the oracle simplex against Fourier-Motzkin elimination
    system, nvars = case
    w = fraction_feasible(system, nvars)
    assert (w is not None) == fm_feasible(system, nvars)
    if w is not None:
        assert all(con.holds_at(w) for con in system)


@given(small_systems(rational=True, relations=(">",), homogeneous=True))
@settings(max_examples=150, deadline=None)
def test_rational_systems_agree_with_the_fraction_simplex(case):
    # rational rows enter the integer tableau as their primitive rows, and
    # the tableau's cone is empty exactly when the strict system is
    system, nvars = case
    w = strict_witness([dense(con, nvars) for con in system], nvars)
    assert (w is None) == (fraction_feasible(system, nvars) is None)
    if w is not None:
        assert all(con.holds_at(w) for con in system)


@pytest.mark.parametrize("system, nvars", [
    # an artificial left basic at level zero leaves on a negative pivot
    ([eq({0: -1}), ge({0: 2})], 1),
    ([eq({0: 1}), eq({0: -1, 1: 2}, -2), ge({0: 2}), ge({1: 1})], 2),
    ([gt({0: -2, 1: -2}, -2), ge({1: 1}), eq({1: -1})], 2),
    ([eq({0: -2}, 1), gt({0: -2}, -2), ge({0: 2}, -1)], 1),
    # a redundant equality row is dropped after phase 1
    ([eq({0: 1, 1: 1}, -2), eq({0: 2, 1: 2}, -4), gt({0: 1, 1: -1})], 2),
    ([eq({}, 0), gt({0: 1})], 1),
    # inconsistent equalities
    ([eq({0: 1, 1: -1}, 3), eq({0: -1, 1: 1}, 3)], 2),
    # a solution with denominator 3
    ([eq({0: 3}, -2), gt({0: 1})], 1),
    # ties in the ratio test, broken by Bland's rule
    ([gt({0: 2, 1: 1}), gt({0: 1, 1: 1})], 2),
    ([gt({1: -1}), gt({0: 2, 1: -2})], 2),
])
def test_fraction_simplex_cases(system, nvars):
    w = fraction_feasible(system, nvars)
    assert (w is not None) == fm_feasible(system, nvars)


def test_fan_cone_systems_match_the_fraction_simplex():
    # the fan's homogeneous path-comparison rows, solved in one batch
    from maxoid.fan import enumerate_maximal_cones
    from maxoid.graph import Dag
    from oracles import complete_dag

    # in one batch from the root
    for g in (complete_dag(4), Dag(5, [(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)])):
        for e in enumerate_maximal_cones(g):
            system, nvars = e.inequalities, len(g.sorted_edges)
            assert strict_witness(system, nvars) is not None
            assert fraction_feasible([as_constraint(r) for r in system], nvars) is not None


def _random_strict_chunks(rng):
    """Up to 4 chunks of up to 4 primitive dense rows in up to 4 variables,
    like the fan's rows; zero rows and opposite rows make some systems
    infeasible."""
    nvars = rng.randint(1, 4)
    chunks = []
    for _ in range(rng.randint(1, 4)):
        chunks.append([_primitive([rng.randint(-3, 3) for v in range(nvars)])
                       for _ in range(rng.randint(1, 4))])
    return chunks, nvars


@pytest.fixture
def pivots(monkeypatch):
    """Pivot counts of the compact tableau and of the full-width oracle,
    by module: {"compact": ..., "full": ...}."""
    import oracles
    from maxoid import linarith

    counts = {"compact": 0, "full": 0}
    for module, name, key in ((linarith, "_pivot", "compact"),
                              (oracles, "_full_pivot", "full")):
        def counting(*args, _pivot=getattr(module, name), _key=key):
            counts[_key] += 1
            return _pivot(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_compact_tableau_matches_the_full_width_tableau(seed, pivots):
    # the compact dictionary against the full-width tableau it replaced:
    # after every chunk the same verdict, point and denominator, reached by
    # the same number of pivots
    rng = random.Random(f"strict-tableau/{seed}")
    verdicts = set()
    for _ in range(100):
        chunks, nvars = _random_strict_chunks(rng)
        tab, full = StrictTableau(nvars), FullStrictTableau(nvars)
        for chunk in chunks:
            tab, full = tab.extended(chunk), full.extended(chunk)
            assert (tab is None) == (full is None)
            assert pivots["compact"] == pivots["full"]
            if tab is None:
                break
            assert (tab.point, tab.d) == (full.point, full.d)
            assert len(tab.T) == len(full.rows)
        verdicts.add(tab is None)
    assert verdicts == {True, False}


class _BothTableaus:
    """A compact tableau and the full-width oracle extended in step, each
    extension checked for the same verdict, point, denominator and number
    of pivots; it reads as the compact one."""

    def __init__(self, nvars, pivots, pair=None):
        self.pivots = pivots
        self.compact, self.full = pair or (StrictTableau(nvars), FullStrictTableau(nvars))
        self.T, self.point, self.d = self.compact.T, self.compact.point, self.compact.d

    def extended(self, rows):
        compact, full = self.compact.extended(rows), self.full.extended(rows)
        assert (compact is None) == (full is None)
        assert self.pivots["compact"] == self.pivots["full"]
        if compact is None:
            return None
        assert (compact.point, compact.d) == (full.point, full.d)
        return _BothTableaus(None, self.pivots, (compact, full))


@pytest.mark.parametrize("n", [4, 5])
def test_compact_tableau_matches_the_full_width_tableau_on_fans(n, pivots, monkeypatch):
    # every extension of the complete-4 and complete-5 fan searches, run on
    # both tableaus at once, and the same cones as with the compact one alone
    from maxoid import fan
    from oracles import complete_dag

    expected = fan.enumerate_maximal_cones(complete_dag(n))
    pivots["compact"] = 0
    monkeypatch.setattr(fan, "StrictTableau", lambda nvars: _BothTableaus(nvars, pivots))
    assert fan.enumerate_maximal_cones(complete_dag(n)) == expected
    assert pivots["compact"] == pivots["full"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_strict_tableau_in_chunks_matches_the_fraction_simplex(seed):
    # the feasibility tableau against the t-capped Fraction simplex it
    # replaced: on homogeneous rows the two pivot alike while the system is
    # feasible, so each witness is identical; the final verdict is that of
    # a cold solve
    rng = random.Random(f"strict-tableau/{seed}")
    verdicts = set()
    for _ in range(100):
        chunks, nvars = _random_strict_chunks(rng)
        expected = fraction_strict_tableau(chunks, nvars)
        tab, rows = StrictTableau(nvars), []
        for chunk, want in zip(chunks, expected):
            rows += chunk
            tab = tab and tab.extended(chunk)
            assert (tab and checked_point(tab.point, rows, tab.d)) == want
            assert tab is None or len(tab.T) == len(rows)
        assert (tab is None) == (fraction_feasible([as_constraint(r) for r in rows],
                                                   nvars) is None)
        verdicts.add(tab is None)
    assert verdicts == {True, False}


def test_strict_tableau_leaves_the_parent_unchanged():
    root = StrictTableau(2)
    assert root.point == [0, 0] and root.extended([]).point == root.point
    parent = root.extended([(1, -1)])
    state = ([row[:] for row in parent.T], parent.basis[:], parent.cols[:], parent.d)
    left = parent.extended([(0, 1), (-1, 3)])
    assert parent.extended([(0, -1)]) is not None
    assert state == (parent.T, parent.basis, parent.cols, parent.d)
    assert len(left.T) == len(parent.T) + 2
    checked_point(left.point, [(1, -1), (0, 1), (-1, 3)], left.d)
    assert left.extended([(-1, 1)]) is None


def test_strict_tableau_takes_strict_rows_in_range_only():
    tab = StrictTableau(2)
    with pytest.raises(ValueError):
        tab.extended([(0, 0, 1)])
    with pytest.raises(ValueError):
        tab.extended([(1,)])


@pytest.mark.parametrize("n, count", [(4, 17), (5, 251)])
def test_complete_dag_fans_take_the_pinned_pivot_counts(n, count, pivots):
    # Bland's rule fixes every pivot, so a change of their number is a
    # change of the simplex
    from maxoid.fan import enumerate_maximal_cones
    from oracles import complete_dag

    enumerate_maximal_cones(complete_dag(n))
    assert pivots["compact"] == count


def test_rank_and_affine_dimension():
    assert rank_of([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert rank_of([]) == 0
    assert rank_of([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    dim, basis = affine_dimension([(0, 0), (1, 1)])
    assert dim == 1 and basis == [[1, 1]]
    assert affine_dimension([(2, 5)])[0] == 0
    # weight-space normals of the four-cycle comparison: lineality 4 - 1
    assert 4 - rank_of([[1, -1, 1, -1]]) == 3


def test_complete_dag_4_normal_rank():
    # the three independent parallel-path comparisons of the 6-edge complete DAG
    normals = [
        [-1, 1, 0, -1, 0, 0],
        [0, 0, 0, -1, 1, -1],
        [-1, 0, 1, 0, -1, 0],
        [0, -1, 1, 0, 0, -1],
        [-1, 0, 1, -1, 0, -1],
    ]
    assert 6 - rank_of(normals) == 3


def test_nullspace_and_pivots():
    ns = nullspace([[1, -1, 1, -1]], 4)
    assert len(ns) == 3
    for vec in ns:
        assert vec[0] - vec[1] + vec[2] - vec[3] == 0
    assert pivot_columns([[0, 1, 2], [0, 1, 3]]) == [1, 2]


def _random_echelon_input(rng: random.Random) -> list[list]:
    """Rows over up to 16 columns with small integer or Fraction entries,
    sparse so that many rows depend on earlier ones; zero rows, repeated
    rows and rows combined from earlier ones are mixed in."""
    ncols = rng.randint(1, 16)
    rational = rng.random() < 0.5

    def entry():
        if rng.random() < 0.6:
            return 0
        if rational:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-4, 4)

    rows: list[list] = []
    for _ in range(rng.randint(0, 20)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_integer_echelon_matches_the_fraction_echelon(seed):
    # same pivots, chosen rows and rank; each integer echelon row is the
    # primitive multiple, with a positive pivot, of the Fraction one
    rng = random.Random(seed)
    for _ in range(100):
        rows = _random_echelon_input(rng)
        E, pivots, chosen = _echelon(rows)
        F, fpivots, fchosen = fraction_echelon(rows)
        assert (pivots, chosen) == (fpivots, fchosen), rows
        assert rank_of(rows) == len(fchosen)
        for erow, frow, p in zip(E, F, pivots):
            assert all(isinstance(x, int) for x in erow)
            assert erow[p] > 0 and gcd(*erow) == 1
            assert [Fraction(x, erow[p]) for x in erow] == frow

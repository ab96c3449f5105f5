"""Exact max-plus arithmetic on edge-weighted DAGs.

Weights are arbitrary-precision rationals; the tropical zero is the
distinguished value NEG_INF.  All core computations are exact: which path is
heaviest is a knife-edge decision and the downstream weight-space geometry
is destroyed by rounding, so floats are rejected everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .graph import Dag, Edge, Path, enumerate_paths


class _NegInf:
    """Singleton additive absorbing element, smaller than every rational."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash(("maxoid", "-inf"))

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __add__(self, other):
        return self

    __radd__ = __add__


NEG_INF = _NegInf()

ExtRational = Union[Fraction, _NegInf]


def as_fraction(value) -> Fraction:
    """Coerce an int/Fraction weight, rejecting floats."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"weights must be exact rationals, got {value!r}")
    return Fraction(value)


def parse_extended_rational(value) -> ExtRational:
    """Parse an int, "p/q" or integer string, or "-inf"."""
    if isinstance(value, str):
        if value.strip() == "-inf":
            return NEG_INF
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    return as_fraction(value)


def format_extended_rational(value: ExtRational) -> str:
    return "-inf" if value is NEG_INF or isinstance(value, _NegInf) else str(value)


class WeightedDag:
    """A Dag together with one exact rational weight per edge."""

    __slots__ = ("g", "w")

    def __init__(self, g: Dag, w: Mapping[Edge, Fraction]):
        weights = {tuple(e): as_fraction(x) for e, x in w.items()}
        if set(weights) != g.edges:
            raise ValueError("weight map must cover exactly the edge set")
        self.g = g
        self.w = weights

    def weight(self, u: int, v: int) -> Fraction:
        return self.w[(u, v)]

    def edge_weight_list(self) -> list[Fraction]:
        """Weights in lexicographic edge order."""
        return [self.w[e] for e in self.g.sorted_edges]

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedDag) and self.g == other.g and self.w == other.w

    def __hash__(self) -> int:
        return hash((self.g, tuple(sorted(self.w.items()))))

    def __repr__(self) -> str:
        ws = ", ".join(f"{u}->{v}: {x}" for (u, v), x in sorted(self.w.items()))
        return f"WeightedDag(n={self.g.n}, {{{ws}}})"


def weighted_dag_from_list(g: Dag, values: Sequence) -> WeightedDag:
    """Weights given as a list aligned with the lexicographically sorted edges."""
    edges = g.sorted_edges
    if len(values) != len(edges):
        raise ValueError(f"expected {len(edges)} weights, got {len(values)}")
    return WeightedDag(g, dict(zip(edges, map(as_fraction, values))))


class TropicalMatrix:
    """A square grid of rationals extended by NEG_INF."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[ExtRational]]):
        self.n = len(rows)
        if any(len(r) != self.n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = tuple(tuple(r) for r in rows)

    def entry(self, i: int, j: int) -> ExtRational:
        """1-based access; ValueError for a node outside 1..n."""
        for v in (i, j):
            if not 1 <= v <= self.n:
                raise ValueError(f"node {v} out of range 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, TropicalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_extended_rational(x) for x in row) for row in self.rows)
        return f"TropicalMatrix[{body}]"

    def to_json(self) -> list[list[str]]:
        return [[format_extended_rational(x) for x in row] for row in self.rows]


def path_weight(wd: WeightedDag, p: Path) -> Fraction:
    """Exact sum of edge weights along p; every step must be an edge of wd."""
    if len(p) < 2:
        raise ValueError("a path has at least two nodes")
    total = Fraction(0)
    for u, v in zip(p, p[1:]):
        if (u, v) not in wd.w:
            raise ValueError(f"path step {u}->{v} is not an edge of the weighted DAG")
        total += wd.w[(u, v)]
    return total


def kleene_star(wd: WeightedDag, proper: bool = False) -> TropicalMatrix:
    """Matrix of maximum path weights between all node pairs.

    Off-diagonal entry (i,j) is the maximum weight over directed i->j paths,
    NEG_INF when there is none.  The diagonal is 0 by default; with
    proper=True it is NEG_INF (a DAG has no closed walks).  Computed by
    longest-path dynamic programming in topological order, no enumeration.
    """
    g = wd.g
    n = g.n
    rows: list[list[ExtRational]] = [[NEG_INF] * n for _ in range(n)]
    topo = g.topological_order
    pos = {v: k for k, v in enumerate(topo)}
    for s in g.nodes:
        dist: list[ExtRational] = [NEG_INF] * (n + 1)
        dist[s] = Fraction(0)
        for v in topo[pos[s] + 1:]:
            best: ExtRational = NEG_INF
            for p in g.parents(v):
                cand = dist[p] + wd.w[(p, v)]
                if best < cand:
                    best = cand
            dist[v] = best
            if v != s:
                rows[s - 1][v - 1] = best
    for i in range(n):
        rows[i][i] = NEG_INF if proper else Fraction(0)
    return TropicalMatrix(rows)


def critical_paths(wd: WeightedDag, i: int, j: int) -> list[Path]:
    """All maximum-weight i->j paths (several under ties), lexicographic order."""
    paths = enumerate_paths(wd.g, i, j)
    if not paths:
        return []
    weights = [path_weight(wd, p) for p in paths]
    best = max(weights)
    return [p for p, w in zip(paths, weights) if w == best]


def genericity_witness(wd: WeightedDag) -> tuple[Path, Path] | None:
    """A pair of distinct equal-weight parallel paths, or None if none exists."""
    for i in wd.g.nodes:
        for j in sorted(wd.g.descendants(i)):
            seen: dict[Fraction, Path] = {}
            for p in enumerate_paths(wd.g, i, j):
                w = path_weight(wd, p)
                if w in seen:
                    return seen[w], p
                seen[w] = p
    return None


def is_generic(wd: WeightedDag) -> bool:
    """True when no two distinct parallel paths have equal weight."""
    return genericity_witness(wd) is None


def weighted_dag_from_matrix(g: Dag, matrix: Sequence[Sequence]) -> WeightedDag:
    """Weights given as an n x n grid, finite exactly on the edges of g."""
    n = g.n
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError(f"expected a {n}x{n} matrix")
    w = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = parse_extended_rational(matrix[i - 1][j - 1])
            if (i, j) in g.edges:
                if x is NEG_INF:
                    raise ValueError(f"edge ({i},{j}) must carry a finite weight")
                w[(i, j)] = x
            elif x is not NEG_INF:
                raise ValueError(f"entry ({i},{j}) must be -inf: no such edge")
    return WeightedDag(g, w)


def _check_json_weights(values) -> None:
    """Reject weights that JSON gives as anything but integers and strings."""
    for x in values:
        if type(x) not in (int, str):  # JSON true and false are Python bools
            raise ValueError("weights must be JSON integers or strings, got "
                             + json.dumps(x, default=repr))


def weights_from_json(g: Dag, data) -> WeightedDag:
    """Accept either the n x n matrix form or the edge-ordered list form,
    whose weights are finite."""
    if not isinstance(data, list):
        raise ValueError("weights must be a JSON array")
    if data and all(isinstance(r, list) for r in data):
        _check_json_weights(x for r in data for x in r)
        return weighted_dag_from_matrix(g, data)
    _check_json_weights(data)
    values = [parse_extended_rational(v) for v in data]
    if any(v is NEG_INF for v in values):
        raise ValueError("edge-list weights must be finite")
    return weighted_dag_from_list(g, values)


def weights_to_matrix_json(wd: WeightedDag) -> list[list[str]]:
    n = wd.g.n
    out = [["-inf"] * n for _ in range(n)]
    for (u, v), x in wd.w.items():
        out[u - 1][v - 1] = str(x)
    return out


def weights_to_list_json(wd: WeightedDag) -> list[str]:
    return [str(x) for x in wd.edge_weight_list()]

"""Closure-property checkers for abstract CI structures.

Each checker exhaustively instantiates one inference rule against a set of
pairwise statements and reports every instantiation whose premises are
present but whose conclusion is not.  Set-valued statements are evaluated
through the pairwise reduction (valid for the structures produced here,
which are closed under composition and decomposition); instantiation is
exponential in the node count and bounded to 6 nodes unless forced.
Each statement is looked up as a bit of the Maxoid's int by its (i, j, L)
triple; CiStatements are built only for the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .separation import CiStatement, Maxoid

_DEFAULT_NODE_BOUND = 6


@dataclass(frozen=True)
class ViolationReport:
    """One failed rule instantiation, replayable against the structure."""

    rule: str
    instance: tuple[tuple[str, object], ...]
    premises: tuple[CiStatement, ...]
    missing: tuple[CiStatement, ...]

    def recheck(self, m: Maxoid) -> bool:
        """True when the violation still holds in m."""
        return (all(p in m for p in self.premises)
                and all(q not in m for q in self.missing))

    def __str__(self) -> str:
        inst = ", ".join(f"{k}={_fmt(v)}" for k, v in self.instance)
        have = "; ".join(map(str, self.premises))
        want = "; ".join(map(str, self.missing))
        return f"{self.rule} at ({inst}): premises [{have}] without [{want}]"


def _fmt(v) -> str:
    if isinstance(v, frozenset):
        return "{" + ",".join(map(str, sorted(v))) + "}"
    return str(v)


def check_node_bound(n: int, force: bool = False) -> None:
    """ValueError past 6 nodes unless force=True; callers may check n first."""
    if n > _DEFAULT_NODE_BOUND and not force:
        raise ValueError(
            f"exhaustive instantiation over {n} nodes exceeds the bound of "
            f"{_DEFAULT_NODE_BOUND} nodes")


@lru_cache(maxsize=None)
def _statement_bits(n: int) -> dict[tuple[int, int, frozenset[int]], int]:
    """(i, j, L) -> the bit of (i, j | L) in a Maxoid on 1..n, with the
    endpoints in either order."""
    count = n * (n - 1) // 2 << max(n - 2, 0)
    index = {}
    for k, s in enumerate(Maxoid.from_bits(n, (1 << count) - 1)):
        index[s.i, s.j, s.L] = index[s.j, s.i, s.L] = k
    return index


def _membership(m: Maxoid):
    """holds(i, j, L): whether (i, j | L) is in m, for a frozenset L."""
    index, bits = _statement_bits(m.n), m.bits

    def holds(i: int, j: int, L: frozenset[int]) -> bool:
        return bits >> index[i, j, L] & 1 == 1

    return holds


def _pairwise(holds, I: frozenset[int], J: frozenset[int], L: frozenset[int]) -> bool:
    """Set statement (I, J | L) via the pairwise reduction; empty sides hold."""
    return all(holds(i, j, L) for i in I for j in J)


def _role_assignments(nodes, roles: int):
    """Partition maps node -> role index (the last role means 'unused')."""
    for assignment in product(range(roles + 1), repeat=len(nodes)):
        groups = [frozenset(v for v, r in zip(nodes, assignment) if r == k)
                  for k in range(roles)]
        yield groups


def check_compositional_graphoid(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """Semigraphoid (both directions of its equivalence), Intersection and
    Composition, instantiated over all disjoint sets I, J, K, L."""
    check_node_bound(m.n, force)
    holds = _membership(m)
    nodes = list(range(1, m.n + 1))
    out: list[ViolationReport] = []
    for I, J, K, L in _role_assignments(nodes, 4):
        if not I or not J or not K:
            continue
        inst = (("I", I), ("J", J), ("K", K), ("L", L))
        ij_l = _pairwise(holds, I, J, L)
        ik_jl = _pairwise(holds, I, K, J | L)
        ijk_l = _pairwise(holds, I, J | K, L)
        ik_l = _pairwise(holds, I, K, L)
        ij_kl = _pairwise(holds, I, J, K | L)
        if ij_l and ik_jl and not ijk_l:
            out.append(_report("semigraphoid-forward", inst, m, I, J, K, L,
                               premises=_stmts(I, J, L) + _stmts(I, K, J | L),
                               conclusion=_stmts(I, J | K, L)))
        if ijk_l and not (ij_l and ik_jl):
            out.append(_report("semigraphoid-backward", inst, m, I, J, K, L,
                               premises=_stmts(I, J | K, L),
                               conclusion=_stmts(I, J, L) + _stmts(I, K, J | L)))
        if sorted(J) < sorted(K):  # intersection and composition are J/K-symmetric
            if ij_kl and ik_jl and not ijk_l:
                out.append(_report("intersection", inst, m, I, J, K, L,
                                   premises=_stmts(I, J, K | L) + _stmts(I, K, J | L),
                                   conclusion=_stmts(I, J | K, L)))
            if ij_l and ik_l and not ijk_l:
                out.append(_report("composition", inst, m, I, J, K, L,
                                   premises=_stmts(I, J, L) + _stmts(I, K, L),
                                   conclusion=_stmts(I, J | K, L)))
    return out


def _stmts(I, J, L) -> tuple[CiStatement, ...]:
    return tuple(sorted((CiStatement(i, j, L) for i in I for j in J),
                        key=lambda s: s.sort_key))


def _report(rule, inst, m, I, J, K, L, premises, conclusion) -> ViolationReport:
    missing = tuple(s for s in conclusion if s not in m)
    return ViolationReport(rule, inst, premises, missing)


def check_amalgamation(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """(i,j|KM) and (i,j|LM) imply (i,j|KLM), over disjoint K, L, M."""
    check_node_bound(m.n, force)
    holds = _membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for i, j in combinations(nodes, 2):
        rest = [v for v in nodes if v != i and v != j]
        for K, L, M in _role_assignments(rest, 3):
            if sorted(L) < sorted(K):  # the rule is K/L-symmetric
                continue
            if holds(i, j, K | M) and holds(i, j, L | M) and not holds(i, j, K | L | M):
                out.append(ViolationReport(
                    "amalgamation",
                    (("i", i), ("j", j), ("K", K), ("L", L), ("M", M)),
                    (CiStatement(i, j, K | M), CiStatement(i, j, L | M)),
                    (CiStatement(i, j, K | L | M),)))
    return out


def check_strong_spohn(m: Maxoid, force: bool = False,
                       original_premise: bool = False) -> list[ViolationReport]:
    """The two blocking-set strengthenings of the Spohn property.

    Checked exactly as displayed by default.  Beware that the second rule,

        (i,j|klM) and (k,l|iM) and (k,l|M)  =>  (k,l|jM),

    is falsifiable: on the two-edge collider DAG k -> j <- l with i isolated,
    all three premises are plain d-separations while conditioning on the
    collider j connects k and l.  With original_premise=True the classical
    fourth premise (k,l|ijM) is added to the second rule, which restores a
    sound property.
    """
    check_node_bound(m.n, force)
    holds = _membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for quad in combinations(nodes, 4):
        rest = [v for v in nodes if v not in quad]
        for size in range(len(rest) + 1):
            for M_tuple in combinations(rest, size):
                M = frozenset(M_tuple)
                for k, l in combinations(quad, 2):
                    ij = [v for v in quad if v != k and v != l]
                    # rule 1: symmetric in i, j
                    i, j = ij
                    p1 = (i, j, M | {k, l})
                    p2 = (k, l, M | {i})
                    p3 = (k, l, M | {j})
                    c = (k, l, M)
                    if holds(*p1) and holds(*p2) and holds(*p3) and not holds(*c):
                        out.append(ViolationReport(
                            "strong-spohn-1",
                            (("i", i), ("j", j), ("k", k), ("l", l), ("M", M)),
                            _from_triples(p1, p2, p3), _from_triples(c)))
                    # rule 2: i and j play different parts
                    for i, j in ((ij[0], ij[1]), (ij[1], ij[0])):
                        premises = [(i, j, M | {k, l}), (k, l, M | {i}), (k, l, M)]
                        if original_premise:
                            premises.append((k, l, M | {i, j}))
                        c2 = (k, l, M | {j})
                        if all(holds(*p) for p in premises) and not holds(*c2):
                            out.append(ViolationReport(
                                "strong-spohn-2",
                                (("i", i), ("j", j), ("k", k), ("l", l), ("M", M)),
                                _from_triples(*premises), _from_triples(c2)))
    return out


def _from_triples(*triples) -> tuple[CiStatement, ...]:
    return tuple(CiStatement(*t) for t in triples)


def check_weak_transitivity(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """(i,j|L) and (i,j|kL) versus (i,k|L) or (j,k|L): both directions of the
    equivalence are checked and reported separately."""
    check_node_bound(m.n, force)
    holds = _membership(m)
    nodes = list(range(1, m.n + 1))
    out = []
    for i, j in combinations(nodes, 2):
        for k in nodes:
            if k == i or k == j:
                continue
            rest = [v for v in nodes if v not in (i, j, k)]
            for size in range(len(rest) + 1):
                for L_tuple in combinations(rest, size):
                    L = frozenset(L_tuple)
                    p1, p2 = (i, j, L), (i, j, L | {k})
                    d1, d2 = (i, k, L), (j, k, L)
                    h1, h2, g1, g2 = holds(*p1), holds(*p2), holds(*d1), holds(*d2)
                    inst = (("i", i), ("j", j), ("k", k), ("L", L))
                    if h1 and h2 and not g1 and not g2:
                        out.append(ViolationReport(
                            "weak-transitivity-forward", inst,
                            _from_triples(p1, p2), _from_triples(d1, d2)))
                    if (g1 or g2) and not (h1 and h2):
                        present = [d for d, g in ((d1, g1), (d2, g2)) if g]
                        absent = [p for p, h in ((p1, h1), (p2, h2)) if not h]
                        out.append(ViolationReport(
                            "weak-transitivity-backward", inst,
                            _from_triples(*present), _from_triples(*absent)))
    return out

"""Closure-property checkers for abstract CI structures.

Each checker exhaustively instantiates one inference rule against a set of
pairwise statements and reports every instantiation whose premises are
present but whose conclusion is not.  Set-valued statements are evaluated
through the pairwise reduction (valid for the structures produced here,
which are closed under composition and decomposition); instantiation is
exponential in the node count and bounded to 6 nodes unless forced.

Every rule family is a lazy generator of instance tuples

    (rule, instance, premises, conclusions, any_premise, any_conclusion),

where premises and conclusions are tuples of statement bits of Maxoid.bits
(from _statement_bits), in the order the report lists them, and the two
flags give the rule's shape: all premises imply all conclusions unless a
flag reads a side as "any".  Weak transitivity forward is all premises =>
any conclusion, backward any premise => all conclusions; the other six
rules are all => all.  One evaluator, _violations, reads every family: an
instance is violated when its premise side holds and its conclusion side
does not, and its report lists the premises that hold and the conclusions
that are missing, as CiStatements of _statement_tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .separation import CiStatement, Maxoid, _statement_tables

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
    index = {}
    for k, s in enumerate(_statement_tables[n].statements):
        index[s.i, s.j, s.L] = index[s.j, s.i, s.L] = k
    return index


def _violations(m: Maxoid, instances) -> list[ViolationReport]:
    """A report for every instance tuple (see the module docstring) whose
    premise side holds in m and whose conclusion side does not."""
    statements, bits = _statement_tables[m.n].statements, m.bits
    out = []
    for rule, inst, premises, conclusions, any_premise, any_conclusion in instances:
        held = [k for k in premises if bits >> k & 1]
        if not held or not any_premise and len(held) < len(premises):
            continue
        missing = [k for k in conclusions if not bits >> k & 1]
        if not missing or any_conclusion and len(missing) < len(conclusions):
            continue
        out.append(ViolationReport(rule, inst, tuple(statements[k] for k in held),
                                   tuple(statements[k] for k in missing)))
    return out


def _role_assignments(nodes, roles: int):
    """Partition maps node -> role index (the last role means 'unused')."""
    for assignment in product(range(roles + 1), repeat=len(nodes)):
        groups = [[] for _ in range(roles + 1)]
        for v, r in zip(nodes, assignment):
            groups[r].append(v)
        yield list(map(frozenset, groups[:roles]))


def _subsets(nodes):
    """Every subset of nodes as a frozenset, by size, then lexicographically."""
    for size in range(len(nodes) + 1):
        yield from map(frozenset, combinations(nodes, size))


def _graphoid_instances(n: int):
    """Semigraphoid (both directions of its equivalence), Intersection and
    Composition over all disjoint sets I, J, K, L with I, J, K nonempty."""
    index = _statement_bits(n)

    def pairs(I, J, L):  # the bits of (I, J | L), in sort_key order
        return tuple(sorted(index[i, j, L] for i in I for j in J))

    for I, J, K, L in _role_assignments(list(range(1, n + 1)), 4):
        if not I or not J or not K:
            continue
        inst = (("I", I), ("J", J), ("K", K), ("L", L))
        ij_l, ik_jl, ijk_l = pairs(I, J, L), pairs(I, K, J | L), pairs(I, J | K, L)
        yield "semigraphoid-forward", inst, ij_l + ik_jl, ijk_l, False, False
        yield "semigraphoid-backward", inst, ijk_l, ij_l + ik_jl, False, False
        if sorted(J) < sorted(K):  # intersection and composition are J/K-symmetric
            yield "intersection", inst, pairs(I, J, K | L) + ik_jl, ijk_l, False, False
            yield "composition", inst, ij_l + pairs(I, K, L), ijk_l, False, False


def _amalgamation_instances(n: int):
    """(i,j|KM) and (i,j|LM) imply (i,j|KLM), over disjoint K, L, M."""
    index = _statement_bits(n)
    nodes = list(range(1, n + 1))
    for i, j in combinations(nodes, 2):
        rest = [v for v in nodes if v != i and v != j]
        for K, L, M in _role_assignments(rest, 3):
            if sorted(L) < sorted(K):  # the rule is K/L-symmetric
                continue
            yield ("amalgamation", (("i", i), ("j", j), ("K", K), ("L", L), ("M", M)),
                   (index[i, j, K | M], index[i, j, L | M]), (index[i, j, K | L | M],),
                   False, False)


def _spohn_instances(n: int, original_premise: bool):
    """Both Spohn rules, the second with its classical fourth premise
    (k,l|ijM) when original_premise is set (see check_strong_spohn)."""
    index = _statement_bits(n)
    nodes = list(range(1, n + 1))
    for quad in combinations(nodes, 4):
        for M in _subsets([v for v in nodes if v not in quad]):
            for k, l in combinations(quad, 2):
                i, j = (v for v in quad if v != k and v != l)
                # rule 1: symmetric in i, j
                yield ("strong-spohn-1", (("i", i), ("j", j), ("k", k), ("l", l), ("M", M)),
                       (index[i, j, M | {k, l}], index[k, l, M | {i}], index[k, l, M | {j}]),
                       (index[k, l, M],), False, False)
                # rule 2: i and j play different parts
                for a, b in ((i, j), (j, i)):
                    premises = (index[a, b, M | {k, l}], index[k, l, M | {a}], index[k, l, M])
                    if original_premise:
                        premises += (index[k, l, M | {a, b}],)
                    yield ("strong-spohn-2", (("i", a), ("j", b), ("k", k), ("l", l), ("M", M)),
                           premises, (index[k, l, M | {b}],), False, False)


def _weak_transitivity_instances(n: int):
    """(i,j|L) and (i,j|kL) versus (i,k|L) or (j,k|L), both directions."""
    index = _statement_bits(n)
    nodes = list(range(1, n + 1))
    for i, j in combinations(nodes, 2):
        for k in nodes:
            if k == i or k == j:
                continue
            for L in _subsets([v for v in nodes if v not in (i, j, k)]):
                inst = (("i", i), ("j", j), ("k", k), ("L", L))
                both = (index[i, j, L], index[i, j, L | {k}])
                either = (index[i, k, L], index[j, k, L])
                yield "weak-transitivity-forward", inst, both, either, False, True
                yield "weak-transitivity-backward", inst, either, both, True, False


def check_compositional_graphoid(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """Semigraphoid (both directions of its equivalence), Intersection and
    Composition, instantiated over all disjoint sets I, J, K, L.

    Composition, (I,J|L) and (I,K|L) imply (I,J∪K|L), cannot fire: through
    the pairwise reduction its conclusion's statements (i,j|L) for i in I
    and j in J∪K are exactly its premises' statements, so no structure
    violates it.  Its instances are still listed and evaluated; that
    maxoids are compositional rests on the reduction, not on this check.
    """
    check_node_bound(m.n, force)
    return _violations(m, _graphoid_instances(m.n))


def check_amalgamation(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """(i,j|KM) and (i,j|LM) imply (i,j|KLM), over disjoint K, L, M."""
    check_node_bound(m.n, force)
    return _violations(m, _amalgamation_instances(m.n))


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
    return _violations(m, _spohn_instances(m.n, original_premise))


def check_weak_transitivity(m: Maxoid, force: bool = False) -> list[ViolationReport]:
    """(i,j|L) and (i,j|kL) versus (i,k|L) or (j,k|L): both directions of the
    equivalence are checked and reported separately."""
    check_node_bound(m.n, force)
    return _violations(m, _weak_transitivity_instances(m.n))

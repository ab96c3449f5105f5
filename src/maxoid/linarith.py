"""Exact rational linear algebra: open-cone feasibility and echelon forms.

StrictTableau decides whether the open cone {x : every row > 0} of some
homogeneous strict rows is nonempty and produces a verified interior
witness.  By scaling, it is nonempty exactly when {x : every row >= 1} is,
so the tableau solves that feasibility problem and has no objective.  The
simplex uses Bland's rule throughout, so it terminates and is deterministic
for a fixed input ordering.  It is the package's only simplex.

Every row is a primitive integer vector from the moment it is built:
Constraint.build scales its coefficients and constant by the positive factor
that makes them integers with gcd 1, which keeps the half-space.  So the
tableau holds Python ints A over one positive common denominator d and
stands for the rational tableau A/d.  A pivot on p = A[r][j] replaces every
other row a by (a*p - a[j]*A[r]) / d and sets d to p, after negating row r
if p < 0 (integer-preserving pivoting: Edmonds 1967; Bareiss 1968).
Exactness invariant: every entry of A is, up to sign, a minor of the
starting integer tableau and d is the absolute determinant of the current
basis, so each division is exact and no gcd is ever taken.  Since d > 0,
A/d has the signs of A, so the pivots, and the witness, are those of the
same simplex on a Fraction tableau.  The witness is re-verified against
every row in integers over d before Fractions appear in it as num_v / d.

StrictTableau keeps such a feasible tableau so that a search can append
rows to it instead of solving from scratch.  An appended row enters with
its own slack basic, and the current basic columns are eliminated from it
as row*d - sum(row[b_r] * T[r]) over the basic rows r: this is the row the
pivots so far would have made of it, over the same d, so the exactness
invariant holds.  Dual simplex (Lemke 1954) with zero costs then repairs
the negative right-hand sides by Bland's rule: the basic variable of
smallest index with a negative right-hand side leaves, and the smallest
column with a negative entry in its row enters.  A leaving row with no
negative entry certifies infeasibility, as sum(T[r][j] y_j) = T[r][-1] < 0
has no solution y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)


def _primitive(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The positive multiple of a rational or integer vector with coprime
    integer entries (the zero vector stays zero)."""
    mult = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [x.numerator * (mult // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class Constraint:
    """sum(c_v * x_v) + const REL 0 with REL one of '>', '>=', '=='.

    The row is primitive: integer coefficients and constant with gcd 1."""

    terms: tuple[tuple[int, int], ...]
    const: int
    rel: str

    def __post_init__(self):
        if self.rel not in (">", ">=", "=="):
            raise ValueError(f"unknown relation {self.rel!r}")

    @staticmethod
    def build(coeffs: Mapping[int, Fraction | int], rel: str, const=0) -> "Constraint":
        """The row scaled by the positive factor that makes it primitive, so
        the half-space (or hyperplane) is unchanged."""
        terms = sorted((v, c) for v, c in coeffs.items() if c != 0)
        *ints, const = _primitive([c for _, c in terms] + [const])
        return Constraint(tuple((v, a) for (v, _), a in zip(terms, ints)), const, rel)

    def holds_at(self, point: Sequence[Fraction | int], den: int = 1) -> bool:
        """Whether the row holds at point / den, for a positive den."""
        val = sum(c * point[v] for v, c in self.terms) + self.const * den
        if self.rel == ">":
            return val > 0
        if self.rel == ">=":
            return val >= 0
        return val == 0

    def negated(self) -> "Constraint":
        """Complement within closed/open half-spaces; '==' has no single negation."""
        if self.rel == "==":
            raise ValueError("negation of an equality is a disjunction")
        terms = tuple((v, -c) for v, c in self.terms)
        return Constraint(terms, -self.const, ">=" if self.rel == ">" else ">")

    def __str__(self) -> str:
        parts = [f"{c}*x{v}" for v, c in self.terms]
        if self.const or not parts:
            parts.append(str(self.const))
        return f"{' + '.join(parts)} {self.rel} 0"


@dataclass(frozen=True)
class Witness:
    """A rational point; construction re-verifies it against its system."""

    point: tuple[Fraction, ...]

    @classmethod
    def checked(cls, point: Sequence[Fraction | int], system: Iterable[Constraint],
                den: int = 1) -> "Witness":
        """The witness point / den, after checking every row at it."""
        for con in system:
            if not con.holds_at(point, den):
                raise AssertionError(f"witness {tuple(point)} / {den} violates {con}")
        return cls(tuple(Fraction(x, den) for x in point))


def _pivot(T, basis, d, r, j):
    """Integer-preserving pivot on T[r][j] over the common denominator d.

    Every other row a becomes (a*piv - a[j]*T[r]) // d, an exact division,
    and piv becomes the new denominator; T[r] itself is kept.  A negative
    pivot negates the pivot row first, so the denominator stays positive.
    Returns the new denominator."""
    prow = T[r]
    piv = prow[j]
    if piv < 0:
        piv = -piv
        prow = T[r] = [-x for x in prow]
    for i, row in enumerate(T):
        if i != r:
            T[i] = _combine(row, prow, piv, d, j)
    basis[r] = j
    return piv


def _combine(row, prow, piv, d, j):
    """One row of a pivot: (row*piv - row[j]*prow) // d."""
    f = row[j]
    if f:
        return [(a * piv - f * b) // d for a, b in zip(row, prow)]
    if piv == d:
        return row
    return [a * piv // d for a in row]


class StrictTableau:
    """A feasible tableau of {x : every absorbed row is >= 1}, kept so that
    rows can be appended to it.  The absorbed rows are homogeneous, so this
    set is nonempty exactly when their open cone {x : every row > 0} is.

    Columns are z+ and z- for x (x_v = z[v] - z[nvars + v]), then one slack
    per absorbed row, then the right-hand side.  T holds the integer rows
    over the common denominator d, and point the integer numerators of the
    witness over d.  The root has no rows and its witness is x = 0.
    extended() copies the tableau and never changes it, so a search can
    hand one tableau to every child.

    The z+ block comes before the whole z- block, rather than interleaved
    as x_v = z[2v] - z[2v+1], on purpose: on a tie, Bland's smallest-index
    rule then prefers any z+ column to any z- column, and the complete-5
    fan takes 251 dual pivots this way against 324 with the interleaved
    order.
    """

    __slots__ = ("nvars", "rows", "T", "basis", "d", "point", "witness")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: tuple[Constraint, ...] = ()
        self.T, self.basis, self.d = [], [], 1
        self.point = [0] * nvars
        self.witness = Witness.checked(self.point, ())

    def extended(self, rows: Sequence[Constraint]) -> "StrictTableau | None":
        """A new feasible tableau with rows appended, or None when the open
        cone of all rows so far is empty.

        Each row sum(c_v x_v) > 0 enters as -c.x + s = -1 with its slack s
        basic, eliminated against the current basis; then dual simplex
        restores feasibility (see the module docstring).  The witness is
        re-verified against every absorbed row."""
        for con in rows:
            if con.rel != ">" or con.const or any(not 0 <= v < self.nvars for v, _ in con.terms):
                raise ValueError(f"{con} is not a homogeneous strict row over {self.nvars} variables")
        new = StrictTableau.__new__(StrictTableau)
        new.nvars, new.rows = self.nvars, self.rows + tuple(rows)
        k, d, width = len(rows), self.d, 2 * self.nvars + len(self.rows)
        pad = [0] * k
        T = [row[:-1] + pad + row[-1:] for row in self.T]
        basis = list(self.basis)
        for i, con in enumerate(rows):
            row = [0] * (width + k + 1)
            for v, c in con.terms:
                row[v], row[self.nvars + v] = -c, c
            row[width + i], row[-1] = 1, -1
            elim = [x * d for x in row]
            for r, b in enumerate(basis):
                f = row[b]
                if f:
                    elim = [a - f * x for a, x in zip(elim, T[r])]
            T.append(elim)
            basis.append(width + i)
        while True:
            # dual simplex, Bland's rule: leave on the smallest basic index
            # with a negative right-hand side, enter on the smallest column
            # with a negative entry in the leaving row
            leave = None
            for r, row in enumerate(T):
                if row[-1] < 0 and (leave is None or basis[r] < basis[leave]):
                    leave = r
            if leave is None:
                break
            prow = T[leave]
            enter = next((j for j, a in enumerate(prow[:-1]) if a < 0), None)
            if enter is None:
                # sum(prow[j] y_j) = prow[-1] < 0 has no solution y >= 0
                return None
            d = _pivot(T, basis, d, leave, enter)
        z = [0] * (2 * self.nvars)
        for r, b in enumerate(basis):
            if b < len(z):
                z[b] = T[r][-1]
        new.T, new.basis, new.d = T, basis, d
        new.point = [z[v] - z[self.nvars + v] for v in range(self.nvars)]
        new.witness = Witness.checked(new.point, new.rows, d)
        return new


def rank_of(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: the size of a maximal linearly independent subset."""
    return len(independent_rows(rows))


def _echelon(rows):
    """Fraction row echelon form, built greedily row by row: (echelon rows,
    their pivot columns, indices of the input rows that contributed them)."""
    E: list[list[Fraction]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for erow, p in zip(E, pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, erow)]
        p = next((j for j, x in enumerate(v) if x != 0), None)
        if p is not None:
            f = v[p]
            E.append([x / f for x in v])
            pivots.append(p)
            chosen.append(idx)
    return E, pivots, chosen


def independent_rows(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a greedily chosen maximal linearly independent subset."""
    return _echelon(rows)[2]


def pivot_columns(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Column indices carrying the pivots of the row echelon form."""
    return _echelon(rows)[1]


def affine_dimension(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[Fraction]]]:
    """Dimension of the affine hull of a point set, with a difference basis."""
    pts = [list(map(Fraction, p)) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    base = pts[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
    chosen = independent_rows(diffs)
    return len(chosen), [diffs[i] for i in chosen]


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of the homogeneous system rows . x = 0."""
    E, pivots, _ = _echelon(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fcol in free:
        vec = [ZERO] * ncols
        vec[fcol] = Fraction(1)
        for erow, p in reversed(list(zip(E, pivots))):
            vec[p] = -sum(erow[j] * vec[j] for j in range(p + 1, ncols))
        basis.append(vec)
    return basis

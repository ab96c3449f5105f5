"""Exact integer linear algebra: open-cone feasibility and echelon forms.

A row is a tuple of Python ints, one per variable, and stands for the
homogeneous strict inequality sum(row[v] * x_v) > 0.  StrictTableau decides
whether the open cone {x : every row > 0} of such rows is nonempty and keeps
an interior point of it.  By scaling, the cone is nonempty exactly when
{x : every row >= 1} is, so the tableau solves that feasibility problem and
has no objective.  The simplex uses Bland's rule throughout, so it
terminates and is deterministic for a fixed input ordering.  It is the
package's only simplex.

The tableau is a compact dictionary (Avis, "lrs", 2000): it stores only
the columns of the nonbasic variables, each row over them and the
right-hand side.  The variables are z+ and z- for x (x_v = z[v] -
z[nvars + v]) and one slack per absorbed row, so there are always 2*nvars
nonbasic columns however many rows are absorbed.  The entries are Python
ints A over one positive common denominator d and stand for the rational
dictionary A/d.  A pivot on the entry p = A[r][k] replaces every other row
a by (a*p - a[k]*A[r]) / d and sets d to p, after negating row r if p < 0
(integer-preserving pivoting: Edmonds 1967; Bareiss 1968).  Exactness
invariant: every entry is, up to sign, a minor of the starting integer
tableau and d is the absolute determinant of the current basis, so each
division is exact and no gcd is ever taken.  Column k then stands for the
variable that left the basis: with s the sign of p, it holds s*d in row r
and -s*f in every other row, where f is that row's old entry in column k.
These are the entries that the leaving variable's column of the full
tableau, with one column per variable, would hold after the same pivot, so
the compact dictionary takes the pivots of the full tableau on about half
as many columns.  Since d > 0, A/d has the signs of A, so the pivots, and
the point, are those of the same simplex on a Fraction tableau.

An appended row enters with its own slack basic, and the basic z variables
are eliminated from it as row*d - sum(row[b_r] * A[r]) over their rows r:
this is the row the pivots so far would have made of it, over the same d,
so the exactness invariant holds.  Dual simplex (Lemke 1954) with zero
costs then repairs the negative right-hand sides by Bland's rule: the basic
variable of smallest index with a negative right-hand side leaves, and the
nonbasic variable of smallest index with a negative entry in its row
enters.  A leaving row with no negative entry certifies infeasibility, as
sum(A[r][k] y_k) = A[r][-1] < 0 has no solution y >= 0.

The tableau keeps its point as integer numerators over d and checks
nothing; a caller re-verifies the point it returns with checked_point,
which tests every row in integers before Fractions appear in it as
num_v / d.

Ranks, independent rows and pivot columns come from one fraction-free row
echelon form, _echelon: a rational row is first scaled to a primitive
integer row, and every echelon row stays primitive, so no Fraction is made.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

def _primitive(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The positive multiple of a rational or integer vector with coprime
    integer entries (the zero vector stays zero)."""
    mult = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [x.numerator * (mult // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


def checked_point(point: Sequence[Fraction | int], rows: Iterable[Sequence[int]],
                  den: int = 1) -> tuple[Fraction, ...]:
    """point / den as Fractions, for a positive den, after checking in the
    given arithmetic that every row is positive at point."""
    for row in rows:
        if sum(map(mul, row, point)) <= 0:
            raise AssertionError(f"witness {tuple(point)} / {den} violates {tuple(row)} > 0")
    return tuple(Fraction(x, den) for x in point)


def _pivot(T, basis, cols, d, r, k):
    """Integer-preserving dual-simplex pivot on the negative entry T[r][k]
    over the common denominator d.

    The pivot row is negated, so the new denominator piv = -T[r][k] is
    positive; every other row a becomes (a*piv - a[k]*prow) // d, an exact
    division.  Column k then belongs to the leaving variable, with -d in the
    pivot row and a[k] in every other row.  Rows are replaced, never
    changed in place, so tableaus may share them.  Returns piv."""
    prow = [-x for x in T[r]]
    piv = prow[k]
    for i, row in enumerate(T):
        if i != r:
            f = row[k]
            if f:
                new = [(a * piv - f * b) // d for a, b in zip(row, prow)]
                new[k] = f
                T[i] = new
            elif piv != d:
                T[i] = [a * piv // d for a in row]
    prow[k] = -d
    T[r] = prow
    basis[r], cols[k] = cols[k], basis[r]
    return piv


class StrictTableau:
    """A feasible compact dictionary of {x : every absorbed row >= 1}, kept
    so that rows can be appended to it.  The absorbed rows are homogeneous,
    so this set is nonempty exactly when their open cone {x : every row > 0}
    is.

    Variables 0..nvars-1 are z+ and nvars..2*nvars-1 are z- for x
    (x_v = z[v] - z[nvars + v]); variable 2*nvars + i is the slack of the
    i-th absorbed row.  T holds one row per absorbed row, so len(T) counts
    them: the row of basic variable basis[r], with entry k the coefficient
    of nonbasic variable cols[k] and the right-hand side last, over the
    common denominator d.  point holds the integer numerators over d of the
    tableau's point x.  The root has no rows, every z nonbasic, and the
    point x = 0.  extended() shares rows with the tableau it extends and
    never changes it, so a search can hand one tableau to every child.

    Pivots follow Bland's rule on variable indices, not column positions,
    and so are the pivots of the full tableau with one column per variable.
    The z+ block comes before the whole z- block, rather than interleaved
    as x_v = z[2v] - z[2v+1], on purpose: on a tie, the smallest-index
    rule then prefers any z+ variable to any z- variable, and the
    complete-5 fan takes 251 dual pivots this way against 324 with the
    interleaved order.
    """

    __slots__ = ("nvars", "T", "basis", "cols", "d", "point")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.T, self.basis, self.cols, self.d = [], [], list(range(2 * nvars)), 1
        self.point = [0] * nvars

    def extended(self, rows: Sequence[Sequence[int]]) -> "StrictTableau | None":
        """A new feasible tableau with rows appended, or None when the open
        cone of all rows so far is empty.

        Each row c enters as -c.x + s = -1 with its slack s basic,
        eliminated against the basic z variables; then dual simplex restores
        feasibility (see the module docstring)."""
        nvars, nz = self.nvars, 2 * self.nvars
        for row in rows:
            if len(row) != nvars:
                raise ValueError(f"{tuple(row)} is not a row over {nvars} variables")
        T, basis, cols, d = list(self.T), list(self.basis), list(self.cols), self.d
        for row in rows:
            coef = [-c for c in row]
            coef += row
            elim = [coef[v] * d if v < nz else 0 for v in cols]
            elim.append(-d)
            for r, b in enumerate(basis):
                if b < nz and coef[b]:
                    f = coef[b]
                    elim = [a - f * x for a, x in zip(elim, T[r])]
            basis.append(nz + len(T))
            T.append(elim)
        while True:
            # dual simplex, Bland's rule: leave on the smallest basic
            # variable with a negative right-hand side, enter on the
            # smallest nonbasic variable with a negative entry in its row
            leave = None
            for r, row in enumerate(T):
                if row[-1] < 0 and (leave is None or basis[r] < basis[leave]):
                    leave = r
            if leave is None:
                break
            prow = T[leave]
            enter = None
            for k, v in enumerate(cols):
                if prow[k] < 0 and (enter is None or v < cols[enter]):
                    enter = k
            if enter is None:
                # sum(prow[k] y_k) = prow[-1] < 0 has no solution y >= 0
                return None
            d = _pivot(T, basis, cols, d, leave, enter)
        z = [0] * nz
        for r, b in enumerate(basis):
            if b < nz:
                z[b] = T[r][-1]
        new = StrictTableau.__new__(StrictTableau)
        new.nvars, new.T, new.basis, new.cols, new.d = nvars, T, basis, cols, d
        new.point = [z[v] - z[nvars + v] for v in range(nvars)]
        return new


def rank_of(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank: the size of a maximal linearly independent subset."""
    return len(independent_rows(rows))


def _echelon(rows):
    """Fraction-free row echelon form, built greedily row by row: (echelon
    rows, their pivot columns, indices of the input rows that contributed
    them).

    Each input row is scaled to a primitive integer row (_primitive), and
    each echelon row is primitive with a positive pivot.  A row v is
    reduced against an echelon row e with pivot p as e[p]*v - v[p]*e; the
    earlier pivots stay 0 in it, since e is 0 on them.  The reduced row is
    a nonzero multiple of the one that Fraction elimination leaves, so the
    pivot columns and the chosen rows are the same."""
    E: list[list[int]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, row in enumerate(rows):
        v = _primitive(row)
        for erow, p in zip(E, pivots):
            f = v[p]
            if f:
                e = erow[p]
                v = [e * a - f * b for a, b in zip(v, erow)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            g = gcd(*v)
            if v[p] < 0:
                g = -g
            E.append([x // g for x in v])
            pivots.append(p)
            chosen.append(idx)
    return E, pivots, chosen


def independent_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[int]:
    """Indices of a greedily chosen maximal linearly independent subset."""
    return _echelon(rows)[2]


def pivot_columns(rows: Sequence[Sequence[Fraction | int]]) -> list[int]:
    """Column indices carrying the pivots of the row echelon form."""
    return _echelon(rows)[1]

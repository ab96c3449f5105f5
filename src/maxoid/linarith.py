"""Exact integer linear algebra: open-cone feasibility and echelon forms.

A row is a tuple of Python ints, one per variable, and stands for the
homogeneous strict inequality sum(row[v] * x_v) > 0.  StrictTableau decides
whether the open cone {x : every row > 0} of such rows is nonempty and keeps
an interior point of it.  By scaling, the cone is nonempty exactly when
{x : every row >= 1} is, so the tableau solves that feasibility problem and
has no objective.  The simplex uses Bland's rule throughout, so it
terminates and is deterministic for a fixed input ordering.  It is the
package's only simplex.

The tableau is a compact dictionary (Avis, "lrs", 2000) of half the
usual width.  The variables are z+ and z- for x (x_v = z[v] - z[nvars +
v]) and one slack per absorbed row; the dictionary holds one row per basic
variable over the nonbasic ones and the right-hand side.  The entries are
Python ints A over one positive common denominator d and stand for the
rational dictionary A/d.  The z+_v and z-_v columns of each edge variable
mirror each other, since x only ever enters as z+ - z-: while both are
nonbasic their columns are exact negatives, and while one of them is basic
in row r the other's column is -d in row r and 0 elsewhere (the basis never
holds both, as their columns are dependent).  So the tableau stores nvars
slots: one per pair with both z nonbasic, holding the z+ column, and one
per nonbasic slack, of which there are as many as basic z variables.  This
is the whole dictionary: any other column is a stored one negated or an
implicit partner column.

A pivot on the negative entry p of the entering column in row r replaces
every other row a by (a*|p| + c*T[r]) / d, with c the entering column's
entry in row a (for z-_v, the slot's entry negated), negates row r and
sets d to |p| (integer-preserving pivoting: Edmonds 1967; Bareiss 1968).
Exactness invariant: every entry is, up to sign, a minor of the starting
integer tableau and d is the absolute determinant of the current basis, so
each division is exact and no gcd is ever taken.  The slot of the entering
variable then holds the leaving variable's column, negated when the
leaving variable is z-_u so that the slot holds z+_u.  When the leaving
variable is a z, its partner may enter on its implicit entry -d: that
pivot only negates the row.  These are the pivots, and the entries, of the
full tableau with one column per variable, on nvars stored columns where
that tableau has 2*nvars plus one per row.  Since d > 0, A/d has the signs
of A, so the pivots, and the point, are those of the same simplex on a
Fraction tableau.  When d = |p| = 1 the update is a + c*T[r], with
no multiply and no division; every pivot measured in the fan searches is
of this kind.

An appended row enters with its own slack basic, and the basic z variables
are eliminated from it as row*d - sum(row[b_r] * A[r]) over their rows r:
this is the row the pivots so far would have made of it, over the same d,
so the exactness invariant holds, and its entry in each implicit partner
column is 0.  Dual simplex (Lemke 1954) with zero costs then repairs the
negative right-hand sides by Bland's rule on variable indices: the basic
variable of smallest index with a negative right-hand side leaves, and the
nonbasic variable of smallest index with a negative entry in its row
enters.  A stored pair slot offers z+_v when its entry is negative and z-_v
when it is positive; a leaving z always offers its partner.  A leaving
slack row with no candidate certifies infeasibility, as sum(A[r][k] y_k) =
A[r][-1] < 0 has no solution y >= 0.

The tableau keeps its point as integer numerators over d and checks
nothing; a caller re-verifies the point it returns with checked_point,
which tests every row in integers and makes no Fraction num_v / d.

Ranks, the polytope's pivot columns and starting rows, and its inverse of
a nonsingular matrix come from one fraction-free reduced row echelon form,
_echelon: a rational row is first scaled to a primitive integer row, and
every echelon row stays primitive, so no Fraction is made.
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
                  den: int = 1) -> None:
    """Check that den is positive and, in the arithmetic of point, that
    every row is positive at point, which for an integer point stands for
    point / den."""
    if den <= 0:
        raise ValueError(f"denominator {den} of witness {tuple(point)} is not positive")
    for row in rows:
        if sum(map(mul, row, point)) <= 0:
            raise AssertionError(f"witness {tuple(point)} / {den} violates {tuple(row)} > 0")


def _pivot(T, basis, cols, d, r, k, nvars):
    """Integer-preserving dual-simplex pivot on row r over the common
    denominator d; returns the new denominator.

    With k None, the partner of the basic z in row r enters on its implicit
    entry -d: no other row changes, and row r is negated.  Otherwise the
    variable of slot k enters, z+_v or a slack on a negative entry a =
    T[r][k], z-_v on a positive one.  With piv = |a| and m the pivot row
    times the sign of a, every other row becomes (row*piv - row[k]*m) // d,
    an exact division, and row - row[k]*m when piv = d = 1, as at every
    pivot measured in the fan searches.  Row r becomes -T[r]; slot k then
    holds the leaving variable's column, with -d in row r and the entering
    column's old entry in every other row, negated when z-_u leaves, so
    that the slot holds z+_u.  Rows are replaced, never changed in place,
    so tableaus may share them."""
    prow = T[r]
    leaving = basis[r]
    if k is None:
        basis[r] = leaving + nvars if leaving < nvars else leaving - nvars
        T[r] = [-x for x in prow]
        return d
    a = prow[k]
    if a < 0:
        piv, m = -a, [-x for x in prow]
        basis[r] = cols[k]
    else:
        piv, m = a, prow
        basis[r] = cols[k] + nvars
    # the slot holds z+_u when z-_u leaves: its column is negated
    negate = nvars <= leaving < 2 * nvars
    cols[k] = leaving - nvars if negate else leaving
    # the entering column is the slot's column times -1 when a > 0
    flip = negate != (a > 0)
    for i, row in enumerate(T):
        if i != r:
            f = row[k]
            if f:
                if piv == d == 1:
                    new = [x - f * b for x, b in zip(row, m)]
                else:
                    new = [(x * piv - f * b) // d for x, b in zip(row, m)]
                new[k] = -f if flip else f
                T[i] = new
            elif piv != d:
                T[i] = [x * piv // d for x in row]
    new = [-x for x in prow]
    new[k] = d if negate else -d
    T[r] = new
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
    of slot k and the right-hand side last, over the common denominator d.
    There are nvars slots.  Slot k holds a slack when cols[k] >= 2*nvars,
    and otherwise the pair v = cols[k] with both z+_v and z-_v nonbasic: the
    slot's column is z+_v's, and z-_v's is its negative.  A pair with one z
    basic in row r has no slot: the other z's column is -d in row r and 0
    elsewhere (see the module docstring).  point holds the integer
    numerators over d of the tableau's point x.  The root has no rows, every
    pair in its own slot, and the point x = 0.  extended() shares rows with
    the tableau it extends and never changes it, so a search can hand one
    tableau to every child.

    Pivots follow Bland's rule on variable indices, not slot positions, and
    so are the pivots of the full tableau with one column per variable.
    The z+ block comes before the whole z- block, rather than interleaved
    as x_v = z[2v] - z[2v+1], on purpose: on a tie, the smallest-index
    rule then prefers any z+ variable to any z- variable, and the
    complete-5 fan takes 251 dual pivots this way against 324 with the
    interleaved order.
    """

    __slots__ = ("nvars", "T", "basis", "cols", "d", "point")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.T, self.basis, self.cols, self.d = [], [], list(range(nvars)), 1
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
            # z+_v has the coefficient -row[v] and z-_v the coefficient row[v]
            elim = [-row[v] * d if v < nvars else 0 for v in cols]
            elim.append(-d)
            for r, b in enumerate(basis):
                if b < nz:
                    f = -row[b] if b < nvars else row[b - nvars]
                    if f:
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
            prow, b = T[leave], basis[leave]
            enter = slot = None
            if b < nz:
                # a leaving z's partner has the entry -d in its row
                enter = b + nvars if b < nvars else b - nvars
            for k, v in enumerate(cols):
                a = prow[k]
                if a > 0 and v < nvars:
                    v += nvars  # z-_v, whose column is the slot's negated
                elif a >= 0:
                    continue
                if enter is None or v < enter:
                    enter, slot = v, k
            if enter is None:
                # sum(prow[k] y_k) = prow[-1] < 0 has no solution y >= 0
                return None
            d = _pivot(T, basis, cols, d, leave, slot, nvars)
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
    return len(_echelon(rows)[2])


def _cleared(v, e, p):
    """e[p]*v - v[p]*e: v with its entry at column p cleared by the row e,
    whose entry there is positive, as a positive multiple of the Fraction
    row v - (v[p]/e[p])*e."""
    f = v[p]
    if not f:
        return v
    ep = e[p]
    return [ep * a - f * b for a, b in zip(v, e)]


def _echelon(rows):
    """Fraction-free reduced row echelon form (Gauss-Jordan), built
    greedily row by row: (echelon rows, their pivot columns, indices of the
    input rows that contributed them).

    Each input row is scaled to a primitive integer row (_primitive), and
    each echelon row is primitive with a positive pivot and zeros on every
    other pivot column.  A new row is cleared by each echelon row in turn
    (_cleared); when a nonzero row is left, its first nonzero column is the
    new pivot, and that column is cleared from the rows above.  Each row is
    a positive multiple of the one that Fraction Gauss-Jordan elimination
    leaves, so the pivot columns and the chosen rows are those of Fraction
    elimination, and the rows are the reduced form, which is unique once
    the chosen rows are fixed."""
    E: list[list[int]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, row in enumerate(rows):
        v = _primitive(row)
        for erow, p in zip(E, pivots):
            v = _cleared(v, erow, p)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            g = gcd(*v)
            if v[p] < 0:
                g = -g
            v = [x // g for x in v]
            for k, erow in enumerate(E):
                if erow[p]:
                    w = _cleared(erow, v, p)
                    g = gcd(*w)
                    E[k] = [x // g for x in w]
            E.append(v)
            pivots.append(p)
            chosen.append(idx)
    return E, pivots, chosen

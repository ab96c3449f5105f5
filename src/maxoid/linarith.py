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

Each row of the tableau is one Python int: slot k is the signed field of
W bits at bits k·W, and the right-hand side sits on top, at bits nvars·W
and up, with no width of its own.  The row with fields a_k and right-hand
side h is the integer sum(a_k 2^(kW)) + h 2^(nvars·W), the row's
polynomial at 2^W, so adding rows and multiplying them by integers act on
every field at once.  The width keeps the fields apart.  The columns of the
starting tableau are -c and c for z+ and z- (c the column of a variable in
the absorbed rows), unit columns for the slacks and -1 for the right-hand
side.  A slot entry or d is the determinant of a basis with at most one
column replaced by a slot's; the slack columns in it expand away, and the
z columns left are of distinct pairs, so it is, up to sign, a minor of
order at most nvars of the absorbed rows.  By Hadamard's bound it is at
most (c²·nvars)^(nvars/2) in absolute value, c the largest absolute entry
of the absorbed rows, and W holds that bound and a sign (_width).  Only the
right-hand side brings in the column of -1s and minors of order nvars + 1,
and it has the top of the int to itself.  So every slot field lies in
(-2^(W-1), 2^(W-1)), the slot fields below the top sum to less than
2^(nvars·W - 1) in absolute value, and:
- the right-hand side is negative exactly when the row is below
  -2^(nvars·W - 1), one comparison, and it is read with one add and one
  shift;
- a slot field is read by adding half a unit of it, to undo the borrow of
  the fields below, then shifting and masking;
- a unit pivot updates a row with one multiply-add, a - c*m with the new
  slot entry folded into the pivot row m; a general one with one
  multiply-add and one division, (a*|p| - c*m) // d.  Bareiss makes every
  field of a*|p| - c*m a multiple of d, so the packed int is d times the
  packed quotient and the division by d is exact; the intermediate fields
  may outgrow W, but the int is still the exact polynomial, and the
  quotient's fields fit again;
- an appended row c is eliminated as -d on top plus sum(c[v] * X[v]), one
  multiply-add per variable: X[v] is -d in the slot of v's pair, or the
  row of v's basic z, negated for z-_v.
A row with an entry larger than c widens W; the tableau then unpacks its
rows and packs them at the wider width before it absorbs the row.

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
from itertools import chain
from math import gcd, isqrt, lcm
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


def _width(nvars: int, c: int) -> int:
    """The field width W of a tableau over nvars variables whose absorbed
    rows have entries of absolute value at most c >= 1: every slot entry
    and d is, up to sign, a minor of order at most nvars of those rows, so
    at most (c²·nvars)^(nvars/2) by Hadamard's bound, and W holds that
    bound and a sign."""
    return isqrt((c * c * nvars) ** nvars).bit_length() + 1


def _fields(R: int, nvars: int, W: int) -> list[int]:
    """The nvars signed W-bit slot fields of the packed row R, then its
    right-hand side.  Adding half = 2^(W-1) to every slot field makes each
    one a plain W-bit digit, with no borrow from the field below."""
    half, mask, shift = 1 << W >> 1, (1 << W) - 1, nvars * W
    R += half * (((1 << shift) - 1) // mask)
    return [(R >> at & mask) - half for at in range(0, shift, W)] + [R >> shift]


def _packed(fields: Sequence[int], W: int) -> int:
    """The row whose field k at bits k·W is fields[k]: the last field, the
    right-hand side, sits on top."""
    R = 0
    for a in reversed(fields):
        R = (R << W) + a
    return R


def _pivot(T, basis, cols, d, r, k, a, nvars, W):
    """Integer-preserving dual-simplex pivot on row r over the common
    denominator d, on rows packed W bits a field; returns the new
    denominator.

    With k None, the partner of the basic z in row r enters on its implicit
    entry -d: no other row changes, and row r is negated.  Otherwise the
    variable of slot k enters, on the entry a of row r in slot k: z+_v or a
    slack when a is negative, z-_v when it is positive.  With piv = |a| and
    m the pivot row times the sign of a, every other row with the entry f
    in slot k becomes (row*piv - f*m) // d, an exact division, and
    row - f*m when piv = d = 1, as at every pivot measured in the fan
    searches; either is one multiply-add on the packed row, with the slot's
    new entry folded into m.  Row r becomes -T[r]; slot k then holds the
    leaving variable's column, with -d in row r and the entering column's
    old entry in every other row, negated when z-_u leaves, so that the
    slot holds z+_u.  Rows are ints, so tableaus may share them."""
    prow = T[r]
    leaving = basis[r]
    if k is None:
        basis[r] = leaving + nvars if leaving < nvars else leaving - nvars
        T[r] = -prow
        return d
    if a < 0:
        piv, m = -a, -prow
        basis[r] = cols[k]
    else:
        piv, m = a, prow
        basis[r] = cols[k] + nvars
    # the slot holds z+_u when z-_u leaves: its column is negated
    negate = nvars <= leaving < 2 * nvars
    cols[k] = leaving - nvars if negate else leaving
    at = k * W
    place = 1 << at
    # m's slot k holds piv, which would clear the slot; the updated row is
    # to hold f there, or -f when the entering column is the slot's column
    # times -1 while the slot keeps its sign, or the other way round
    m = m + d * place if negate != (a > 0) else m - d * place
    half, mask = 1 << W >> 1, (1 << W) - 1
    # slot k of a row, read after the rounding that the fields below need
    off = (place >> 1) + (half << at)
    unit = piv == d == 1
    for i, row in enumerate(T):
        if i != r:
            f = ((row + off) >> at & mask) - half
            if f:
                T[i] = row - f * m if unit else (row * piv - f * m) // d
            elif piv != d:
                T[i] = row * piv // d
    T[r] = -prow + ((d if negate else -d) + a) * place
    return piv


class StrictTableau:
    """A feasible compact dictionary of {x : every absorbed row >= 1}, kept
    so that rows can be appended to it.  The absorbed rows are homogeneous,
    so this set is nonempty exactly when their open cone {x : every row > 0}
    is.

    Variables 0..nvars-1 are z+ and nvars..2*nvars-1 are z- for x
    (x_v = z[v] - z[nvars + v]); variable 2*nvars + i is the slack of the
    i-th absorbed row.  T holds one row per absorbed row, so len(T) counts
    them: the row of basic variable basis[r], packed into one int with the
    coefficient of slot k in the signed W-bit field at bits k·W and the
    right-hand side on top, over the common denominator d.  c is the
    largest absolute entry of the absorbed rows, at least 1, and W is
    _width(nvars, c).  There are nvars slots.  Slot k holds a slack when
    cols[k] >= 2*nvars, and otherwise the pair v = cols[k] with both z+_v
    and z-_v nonbasic: the slot's column is z+_v's, and z-_v's is its
    negative.  A pair with one z basic in row r has no slot: the other z's
    column is -d in row r and 0 elsewhere (see the module docstring).  point
    holds the integer numerators over d of the tableau's point x.  The root
    has no rows, every pair in its own slot, and the point x = 0.
    extended() shares rows with the tableau it extends and never changes
    it, so a search can hand one tableau to every child.

    Pivots follow Bland's rule on variable indices, not slot positions, and
    so are the pivots of the full tableau with one column per variable.
    The z+ block comes before the whole z- block, rather than interleaved
    as x_v = z[2v] - z[2v+1], on purpose: on a tie, the smallest-index
    rule then prefers any z+ variable to any z- variable, and the
    complete-5 fan takes 251 dual pivots this way against 324 with the
    interleaved order.
    """

    __slots__ = ("nvars", "T", "basis", "cols", "d", "point", "c", "W")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.T, self.basis, self.cols, self.d = [], [], list(range(nvars)), 1
        self.point = [0] * nvars
        self.c, self.W = 1, _width(nvars, 1)

    def extended(self, rows: Sequence[Sequence[int]]) -> "StrictTableau | None":
        """A new feasible tableau with rows appended, or None when the open
        cone of all rows so far is empty.

        Each row c enters as -c.x + s = -1 with its slack s basic,
        eliminated against the basic z variables; then dual simplex restores
        feasibility (see the module docstring).  When the rows hold a
        larger entry than every absorbed row, the absorbed rows are first
        packed again at the wider fields that it needs."""
        nvars, nz = self.nvars, 2 * self.nvars
        for row in rows:
            if len(row) != nvars:
                raise ValueError(f"{tuple(row)} is not a row over {nvars} variables")
        c = self.c
        entries = set(chain.from_iterable(rows))
        if entries:
            c = max(c, max(entries), -min(entries))
        T, basis, cols, d, W = list(self.T), list(self.basis), list(self.cols), self.d, self.W
        if c > self.c:
            wider = _width(nvars, c)
            if wider > W:
                T = [_packed(_fields(R, nvars, W), wider) for R in T]
                W = wider
        shift = nvars * W
        # z+_v has the coefficient -row[v] and z-_v the coefficient row[v].
        # Over d the eliminated row is -d on top plus the sum of row[v]*X[v]:
        # X[v] is -d in the slot of v's pair, or the row of a basic z+_v,
        # which is subtracted -row[v] times, or minus the row of a basic z-_v
        X = [0] * nvars
        for v, at in zip(cols, range(0, shift, W)):
            if v < nvars:
                X[v] = -d << at
        for b, R in zip(basis, T):
            if b < nvars:
                X[b] = R
            elif b < nz:
                X[b - nvars] = -R
        base = -d << shift
        for row in rows:
            basis.append(nz + len(T))
            T.append(sum(map(mul, row, X), base))
        # the slot fields below the right-hand side sum to less than low in
        # absolute value, so a row's right-hand side is negative exactly
        # when the row is below -low, and it is (row + low) >> shift
        low = 1 << shift >> 1
        below = -low
        half, mask = 1 << W >> 1, (1 << W) - 1
        # half in every slot field: added to a row, it makes each slot field
        # a plain W-bit digit
        halves = half * (((1 << shift) - 1) // mask)
        first = len(self.T)
        while True:
            # dual simplex, Bland's rule: leave on the smallest basic
            # variable with a negative right-hand side, enter on the
            # smallest nonbasic variable with a negative entry in its row
            # (before the first pivot only the appended rows can be negative)
            leave = None
            for r in range(first, len(T)):
                if T[r] < below and (leave is None or basis[r] < basis[leave]):
                    leave = r
            if leave is None:
                break
            first = 0
            b = basis[leave]
            enter = slot = entry = None
            if b < nz:
                # a leaving z's partner has the entry -d in its row
                enter = b + nvars if b < nvars else b - nvars
            prow, at = T[leave] + halves, -W
            for k, v in enumerate(cols):
                at += W
                a = (prow >> at & mask) - half
                if a > 0 and v < nvars:
                    v += nvars  # z-_v, whose column is the slot's negated
                elif a >= 0:
                    continue
                if enter is None or v < enter:
                    enter, slot, entry = v, k, a
            if enter is None:
                # the row's sum(a_k y_k) = rhs < 0 has no solution y >= 0
                return None
            d = _pivot(T, basis, cols, d, leave, slot, entry, nvars, W)
        # x_v is the basic z+_v, or minus the basic z-_v, or 0
        point = [0] * nvars
        for r, b in enumerate(basis):
            if b < nvars:
                point[b] = (T[r] + low) >> shift
            elif b < nz:
                point[b - nvars] = -((T[r] + low) >> shift)
        new = StrictTableau.__new__(StrictTableau)
        new.nvars, new.T, new.basis, new.cols, new.d = nvars, T, basis, cols, d
        new.c, new.W, new.point = c, W, point
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

"""Exact rational linear algebra: the substrate for all geometry in this package.

Everything is exact: Fraction, or integer rows that stand for rational rows
up to a positive factor; no floating point anywhere.  Signs of
determinants and half-space memberships must be bit-exact, so approximate
arithmetic is not an option.

The integer core (`echelon`, `integer_kernel`, `frame_det`, `scaled_det`,
the Smith form) is the pipeline's one elimination route; `rref`,
`solve_affine`, `kernel_basis` and `change_of_basis_det` are Fraction views
the tests use, and `determinant` serves the tests and the CLI selftest.
"""

from __future__ import annotations

import operator
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple  # tuple of Fraction, or of int for an integer row or frame

ZERO = Fraction(0)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vec(u: Vec) -> bool:
    return all(x == 0 for x in u)


def integer_form(form: Sequence) -> tuple[int, ...]:
    """A form with int or Fraction entries scaled to coprime integers by a
    positive factor: the same half-space, the same orientation."""
    return primitive_row(_integer_row(form)[1])


def integer_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """The dot product of two integer rows."""
    return sum(map(operator.mul, u, v))


class Matrix:
    """Immutable dense matrix of int or Fraction entries, kept as given
    (anything else becomes a Fraction) and never divided with `/`.  An int
    matrix equals, and hashes like, the Fraction one of the same values."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(
            tuple(x if type(x) in (int, Fraction) else Fraction(x)
                  for x in row)
            for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            return Matrix.zeros(0, cols)
        return Matrix(rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix._wrap(tuple((0,) * c for _ in range(r)), c)

    @staticmethod
    def _wrap(entries: tuple, cols: int) -> "Matrix":
        """A matrix on rows that are already tuples of int or Fraction
        entries of length `cols`, taken without conversion or checks."""
        m = Matrix([])
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        return m

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def transpose(self) -> "Matrix":
        cols = list(zip(*self.entries)) if self.rows else [()] * self.cols
        return Matrix._wrap(tuple(cols), self.rows if cols else 0)

    def mul(self, other: "Matrix") -> "Matrix":
        """Fraction-free product.  Two factors that have entries, all of
        them int, give the int product over their nonzero entries (an
        action matrix has a few a column).  Otherwise every row of self and
        every column of other is scaled to integers, the integers are
        multiplied, and each entry is divided by its two scales once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.cols and all(type(x) is int for m in (self, other)
                             for row in m.entries for x in row):
            nonzero = [[(j, y) for j, y in enumerate(row) if y]
                       for row in other.entries]
            out = []
            for a in self.entries:
                acc = [0] * other.cols
                for k, x in enumerate(a):
                    if x:
                        for j, y in nonzero[k]:
                            acc[j] += x * y
                out.append(tuple(acc))
            return Matrix._wrap(tuple(out), other.cols)
        cols = list(zip(*other.entries)) if other.rows else [()] * other.cols
        cols = list(map(_integer_row, cols))
        return Matrix._wrap(tuple(
            tuple(Fraction(integer_dot(a, b), da * db)
                  for db, b in cols)
            for da, a in map(_integer_row, self.entries)), other.cols)

    def matvec(self, v: Vec) -> Vec:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(dot(r, v) for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols


def from_columns(columns: Sequence[Vec]) -> Matrix:
    if not columns:
        raise ValueError("need at least one column")
    dim = len(columns[0])
    return Matrix([[c[i] for c in columns] for i in range(dim)])


def _integer_row(row: Vec) -> tuple[int, list[int]]:
    """(den, den * row), den the least common multiple of the row's
    denominators."""
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return 1, [x.numerator for x in row]
    return den, [x.numerator * (den // x.denominator) for x in row]


def leading_column(row: Sequence[int]) -> int:
    """Column of the first nonzero entry, -1 for a zero row."""
    for c, x in enumerate(row):
        if x:
            return c
    return -1


def reduce_row(row: Sequence[int], rows: Sequence[Sequence[int]],
               pivots: Sequence[int]) -> Sequence[int]:
    """Residue of an integer row modulo integer echelon rows (see
    `echelon`): a positive multiple of row plus a combination of rows that
    is zero in every pivot column.  Each step cross-multiplies by the
    pivot, which is positive, so the residue of an inequality form is an
    inequality form for the same set.  The content is not divided out."""
    for r, c in zip(rows, pivots):
        f = row[c]
        if f:
            p = r[c]
            g = gcd(p, f)
            p, f = p // g, f // g
            row = [p * x - f * y for x, y in zip(row, r)]
    return row


def primitive_row(row: Sequence[int], lead: int = 1) -> tuple[int, ...]:
    """An integer row divided by its content, times the sign of `lead`."""
    g = gcd(*row)
    if lead < 0:
        g = -g
    return tuple(x // g for x in row) if g not in (0, 1) else tuple(row)


def echelon(rows: Iterable[Sequence[int]],
            base: Sequence[tuple[int, ...]] = ()
            ) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows: (E, pivot
    columns), E the reduced row echelon form with every row scaled to a
    primitive integer row with positive pivot, in pivot order.

    The rows are inserted one at a time: each is reduced modulo the rows so
    far (`reduce_row`), made primitive, and its pivot column is cleared from
    the rows so far by cross-multiplication.  `base`, if given, must be such
    an E already; its rows are the rows so far at the start.  The RREF is
    unique, so E is the RREF with each row scaled by a positive integer,
    whatever the order of the rows.
    """
    out = list(base)
    pivots = [leading_column(r) for r in out]
    for row in rows:
        row = reduce_row(row, out, pivots)
        c = leading_column(row)
        if c < 0:
            continue
        row = primitive_row(row, row[c])
        p = row[c]
        for k, r in enumerate(out):
            f = r[c]
            if f:
                g = gcd(p, f)
                out[k] = primitive_row([p // g * x - f // g * y
                                        for x, y in zip(r, row)])
        k = bisect(pivots, c)
        pivots.insert(k, c)
        out.insert(k, row)
    return tuple(out), pivots


def echelon_rationals(rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """The RREF over Fraction of integer echelon rows: each row divided by
    its pivot entry."""
    out = []
    for row in rows:
        p = row[leading_column(row)]
        out.append(tuple(Fraction(x, p) if x else ZERO for x in row))
    return tuple(out)


def integer_rows(forms: Iterable[Iterable]) -> list[list[int]]:
    """Each form scaled to integers by a positive factor."""
    return [_integer_row(vec(f))[1] for f in forms]


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form: (R, rank, pivot column indices).

    The Fraction view of `echelon` on the rows scaled to integers, padded
    with zero rows to the shape of m.
    """
    rows, pivots = echelon(_integer_row(row)[1] for row in m.entries)
    R = echelon_rationals(rows) + ((ZERO,) * m.cols,) * (m.rows - len(rows))
    return Matrix._wrap(R, m.cols), len(rows), pivots


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, deterministic:
    the kernel basis read off the RREF, with a 1 in each free column.

    It is `integer_kernel` of the echelon rows with each vector divided by
    its entry in its free column, which is its last nonzero entry (a row
    with a nonzero entry in a free column has its pivot before it)."""
    rows, _ = echelon(_integer_row(row)[1] for row in m.entries)
    out = []
    for v in integer_kernel(rows, m.cols):
        d = next(x for x in reversed(v) if x)
        out.append(tuple(Fraction(x, d) if x else ZERO for x in v))
    return out


def integer_kernel(rows: Sequence[Sequence[int]],
                   cols: int) -> list[tuple[int, ...]]:
    """Kernel basis of the first `cols` columns of integer rows in reduced
    echelon form with positive pivots (see `echelon`), each vector in
    coprime integers: one vector per free column, positive in that column
    and zero in every other free column.  A form restricted to this basis
    has a positive multiple of each coordinate of its restriction to the
    rational one (`kernel_basis`), so every question about a cone has the
    same answer in either."""
    pivots = [leading_column(r) for r in rows]
    pivset = set(pivots)
    basis = []
    for c in range(cols):
        if c in pivset:
            continue
        used = [(r, pc) for r, pc in zip(rows, pivots) if pc < cols and r[c]]
        m = lcm(*(r[pc] for r, pc in used))
        v = [0] * cols
        v[c] = m
        for r, pc in used:
            v[pc] = -r[c] * (m // r[pc])
        basis.append(primitive_row(v))
    return basis


def scaled_points(points: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(D, D * points), D the least common denominator of every entry of
    every point: the points scaled to integers by one positive factor."""
    den = lcm(*(x.denominator for p in points for x in p))
    return den, [[x.numerator * (den // x.denominator) for x in p]
                 for p in points]


def point_key(p: Sequence) -> tuple[int, tuple[int, ...]]:
    """A rational point as (D, D p), D the least common denominator of its
    entries: equal points, and only they, have equal keys, and a coordinate
    permutation of p permutes D p alone."""
    den, (ints,) = scaled_points([p])
    return den, tuple(ints)


def determinant(m: Matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination of the rows
    scaled to integers; the row scales are divided out once, at the end."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    a = []
    for row in m.entries:
        den, ints = _integer_row(row)
        scale *= den
        a.append(ints)
    return Fraction(_bareiss(a), scale)


def scaled_det(vectors: Sequence[Sequence]) -> int:
    """The determinant of the square matrix with the given rows (or
    columns), each scaled to integers by a positive factor: an int of the
    sign of the determinant of the vectors as given, which may have int or
    Fraction entries."""
    if any(len(v) != len(vectors) for v in vectors):
        raise ValueError("determinant of a non-square matrix")
    return _bareiss([_integer_row(v)[1] for v in vectors])


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix, given as a list of row
    lists that it overwrites.  After step k every remaining entry is a
    (k+1)-minor, so the division by the previous pivot is exact."""
    n = len(a)
    det_sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det_sign = -det_sign
        prow = a[k]
        p = prow[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
    return det_sign * prev


def solve_affine(equalities: Matrix, rhs: Vec) -> Optional[Vec]:
    """One particular solution of equalities @ x = rhs, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if equalities.rows != len(rhs):
        raise ValueError("rhs length does not match row count")
    aug = Matrix([list(row) + [rhs[i]] for i, row in enumerate(equalities.entries)])
    R, rk, pivots = rref(aug)
    if equalities.cols in pivots:
        return None
    x = [ZERO] * equalities.cols
    for r, c in enumerate(pivots):
        x[c] = R.entries[r][equalities.cols]
    return tuple(x)


def change_of_basis_det(frm: Sequence[Vec], to: Sequence[Vec]) -> Fraction:
    """det of the matrix expressing the vectors `frm` in the basis `to`.

    Both lists must span the same subspace and have equal length.
    """
    return Fraction(*frame_det(frm, to))


def frame_det(frm: Sequence[Sequence], to: Sequence[Sequence]
              ) -> tuple[int, int]:
    """change_of_basis_det as integers (num, den), den > 0, so its sign is
    the sign of num.  The vectors may have int or Fraction entries.

    Each vector is scaled to integers by a positive factor, and one
    fraction-free elimination (`echelon`) of [to | frm] solves for every
    vector of frm at once: row r of the result is the coordinate row r of
    frm times the positive pivot p_r of that row.  The coordinate
    determinant is the Bareiss determinant of that block divided by the
    product of the pivots; the vector scales are divided out at the end.
    """
    if len(frm) != len(to):
        raise ValueError("basis size mismatch")
    if not to:
        raise ValueError("need at least one column")
    k = len(to)
    num = den = 1
    cols = []
    for v in to:
        d, ints = _integer_row(v)
        num *= d
        cols.append(ints)
    for v in frm:
        d, ints = _integer_row(v)
        den *= d
        cols.append(ints)
    rows, pivots = echelon(zip(*cols))
    if pivots and pivots[-1] >= k:
        raise ValueError("vector not in span of target basis")
    if len(pivots) < k:
        return 0, 1
    for r, c in zip(rows, pivots):
        den *= r[c]
    return num * _bareiss([list(r[k:]) for r in rows]), den


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V = D.  V is built the first time it is read, by replaying
    the recorded column operations on the identity: `(i, j, 0)` swaps
    columns i and j, `(src, dst, f)` with f != 0 adds f times column src to
    column dst."""
    U: Matrix
    D: Matrix
    rank: int
    col_ops: tuple = field(repr=False, compare=False)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.D.entries[i][i] for i in range(self.rank))

    @cached_property
    def V(self) -> Matrix:
        nc = self.D.cols
        v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
        for i, j, f in self.col_ops:
            if f:
                for row in v:
                    row[j] += f * row[i]
            else:
                for row in v:
                    row[i], row[j] = row[j], row[i]
        return Matrix(v)


def smith_normal_form(m) -> SmithForm:
    """Smith normal form U @ A @ V = D over the integers, of a Matrix or of
    a list of integer rows.

    Pivot choice: smallest nonzero absolute value in the remaining block,
    the first in row-major order on ties, which keeps coefficient growth
    down on the small matrices seen here.  The scan stops at the first
    entry of absolute value 1, which nothing undercuts, and a pivot of 1
    divides every entry, so it skips the divisibility rescan.  A finished
    pivot leaves its row and column zero off the diagonal, so the rows
    above the block are zero in its columns, its rows are zero in the
    columns before it, and every operation on A is confined to the block.
    The operations, and so U, D and the recorded column operations, are
    those of a scan of the whole matrix.
    The column operations are recorded, not applied to V; see SmithForm.
    """
    if isinstance(m, Matrix):
        rows, nc = m.entries, m.cols
    else:
        rows, nc = m, len(m[0]) if m else 0
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError("smith_normal_form requires integer entries")
    nr = len(rows)
    a = [[x if type(x) is int else x.numerator for x in row] for row in rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    col_ops: list[tuple[int, int, int]] = []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(t, nr):
            row = a[k]
            row[i], row[j] = row[j], row[i]
        col_ops.append((i, j, 0))

    def add_row(src, dst, f):
        a[dst][t:] = [x + f * y for x, y in zip(a[dst][t:], a[src][t:])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    t = 0
    while True:
        best = None
        for i in range(t, nr):
            block = a[i][t:]
            least = min(map(abs, filter(None, block)), default=0)
            if least and (best is None or least < best[0]):
                best = (least, i, t + min(block.index(x) for x in
                                          (least, -least) if x in block))
                if least == 1:
                    break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        # clear the row and column of the pivot; pivot magnitude shrinks on
        # every retry, so this terminates
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            # a column operation only changes the rows nonzero in column t
            live = [row for row in a[t:] if row[t]]
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in live:
                            row[j] -= q * row[t]
                        col_ops.append((t, j, -q))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        live = [row for row in a[t:] if row[t]]
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # divisibility: pivot must divide every later entry
        p = a[t][t]
        bad = None if p == 1 else next(
            (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])),
            None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    # Matrix([]) has no columns, so neither has the D of a matrix without rows
    return SmithForm(U=Matrix._wrap(tuple(map(tuple, u)), nr),
                     D=Matrix._wrap(tuple(map(tuple, a)), nc if nr else 0),
                     rank=t, col_ops=tuple(col_ops))


def sparse_rank_and_factors(cols: dict) -> tuple[int, list[int]]:
    """Rank and invariant factors of a sparse integer matrix.

    `cols` maps column id -> {row id: nonzero int}.  Unit pivots are
    eliminated by unimodular operations (exact); whatever remains without a
    unit entry is finished by dense Smith normal form.  The elimination
    owns its input: it works on the column dicts in place, so a caller that
    reads them again passes a copy.

    One sweep over the columns in their given order: each column pivots on
    its first unit entry, and a column with no unit is passed over and left
    to the dense finish, even if a later pivot writes a unit into it.  The
    order does not matter: unimodular row and column operations change
    neither the rank nor the invariant factors, whichever pivots they use.
    """
    cols = {c: col for c, col in cols.items() if col}
    rows: dict = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    rank = 0
    for pc in list(cols):
        col = cols.get(pc, {})        # a column that emptied is gone
        pr = next((r for r, v in col.items() if v in (1, -1)), None)
        if pr is None:
            continue
        pv = col[pr]
        # clear column pc with integer row operations; entries that cancel
        # are deleted in place, and no column empties while row pr holds it
        pivot_row = rows.pop(pr)
        del pivot_row[pc]
        for r, x in cols.pop(pc).items():
            if r == pr:
                continue
            f = x * pv                     # pv in {1,-1}: f = entry / pivot
            row = rows[r]
            for c2, v2 in pivot_row.items():
                cur = row.get(c2, 0) - f * v2
                if cur == 0:
                    del row[c2], cols[c2][r]
                else:
                    row[c2] = cols[c2][r] = cur
            del row[pc]
            if not row:
                del rows[r]
        # row pr is now isolated: drop it, and each column it empties
        for c2 in pivot_row:
            del cols[c2][pr]
            if not cols[c2]:
                del cols[c2]
        rank += 1
    if not cols:
        return rank, []
    row_ids = sorted({r for col in cols.values() for r in col})
    col_ids = sorted(cols)
    ridx = {r: i for i, r in enumerate(row_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for j, c in enumerate(col_ids):
        for r, v in cols[c].items():
            dense[ridx[r]][j] = v
    sf = smith_normal_form(dense)
    return rank + sf.rank, [f for f in sf.invariant_factors if f != 1]

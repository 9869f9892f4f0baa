"""Exact rational linear algebra: the substrate for all geometry in this package.

Everything is done over Fraction; no floating point anywhere.  Signs of
determinants and half-space memberships must be bit-exact, so approximate
arithmetic is not an option.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

Vec = tuple  # tuple of Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def zero_vec(dim: int) -> Vec:
    return (ZERO,) * dim


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vec(u: Vec) -> bool:
    return all(x == 0 for x in u)


def primitive_signed(form: Vec) -> Vec:
    """Scale a rational form to coprime integers by a positive factor.

    The sign is preserved, so this is safe for inequality forms.
    """
    den = 1
    for x in form:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in form]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return zero_vec(len(form))
    return tuple(Fraction(x, g) for x in ints)


def primitive(form: Vec) -> Vec:
    """Scale a rational form to coprime integers with first nonzero entry > 0.

    Only for objects defined up to sign (canonical wall functionals); never
    use on inequality forms.
    """
    p = primitive_signed(form)
    lead = next((x for x in p if x != 0), None)
    if lead is not None and lead < 0:
        p = tuple(-x for x in p)
    return p


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
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
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix._wrap(tuple((ZERO,) * c for _ in range(r)), c)

    @staticmethod
    def _wrap(entries: tuple, cols: int) -> "Matrix":
        """A matrix on rows that are already tuples of Fractions of length
        `cols`, taken without conversion or checks."""
        m = Matrix([])
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ot = other.transpose()
        return Matrix([[dot(r, c) for c in ot.entries] for r in self.entries])

    def matvec(self, v: Vec) -> Vec:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(dot(r, v) for r in self.entries)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.rows == 0:
            return self
        if self.rows == 0:
            return other
        if self.cols != other.cols:
            raise ValueError("shape mismatch in stack")
        return Matrix(list(self.entries) + list(other.entries))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols


def from_columns(columns: Sequence[Vec]) -> Matrix:
    if not columns:
        raise ValueError("need at least one column")
    dim = len(columns[0])
    return Matrix([[c[i] for c in columns] for i in range(dim)])


def _integer_row(row: Vec) -> list[int]:
    """The row times the least common multiple of its denominators."""
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form: (R, rank, pivot column indices).

    Fraction-free Gauss-Jordan elimination: each row is scaled to integers,
    rows are combined by cross-multiplication and divided by their content,
    and the only divisions by the pivots happen once, at the end.  The RREF
    is unique, so this is the same matrix a rational elimination gives.
    """
    a = [_integer_row(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nr):
            row = a[i]
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(row, prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    rows = [tuple(Fraction(x, row[c]) if x else ZERO for x in row)
            for row, c in zip(a, pivots)]
    rows += [(ZERO,) * nc] * (nr - r)
    return Matrix._wrap(tuple(rows), nc), r, pivots


def rref_pivots(rref_m: Matrix) -> list[int]:
    """Pivot columns of a matrix that is already in RREF: the leading
    nonzero column of each nonzero row."""
    pivots = []
    for row in rref_m.entries:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            break
        pivots.append(c)
    return pivots


def rank(m: Matrix) -> int:
    return rref(m)[1]


def row_space_reduce(form: Vec, rref_m: Matrix, pivots: Sequence[int]) -> Vec:
    """Residue of a linear form modulo the row space of an RREF matrix."""
    res = list(form)
    for r, c in enumerate(pivots):
        f = res[c]
        if f:
            for j, y in enumerate(rref_m.entries[r]):
                if y:
                    res[j] -= f * y
    return tuple(res)


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, deterministic."""
    R, rk, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivset:
            continue
        v = [ZERO] * m.cols
        v[c] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R.entries[r][c]
        basis.append(tuple(v))
    return basis


def determinant(m: Matrix) -> Fraction:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    det = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = ONE / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


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


def solve_in_basis(basis: Sequence[Vec], target: Vec) -> Optional[Vec]:
    """Coordinates of target in the given spanning list, or None if outside."""
    mat = from_columns(list(basis))
    return solve_affine(mat, target)


def change_of_basis_det(frm: Sequence[Vec], to: Sequence[Vec]) -> Fraction:
    """det of the matrix expressing the vectors `frm` in the basis `to`.

    Both lists must span the same subspace and have equal length.
    """
    if len(frm) != len(to):
        raise ValueError("basis size mismatch")
    cols = []
    for v in frm:
        coords = solve_in_basis(to, v)
        if coords is None:
            raise ValueError("vector not in span of target basis")
        cols.append(coords)
    return determinant(from_columns(cols))


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class SmithForm:
    U: Matrix
    D: Matrix
    V: Matrix
    rank: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(int(self.D.entries[i][i]) for i in range(self.rank))


def smith_normal_form(m: Matrix) -> SmithForm:
    """Smith normal form U @ A @ V = D over the integers.

    Pivot choice: smallest nonzero absolute value in the remaining block,
    which keeps coefficient growth down on the small matrices seen here.
    """
    if not m.is_integral():
        raise ValueError("smith_normal_form requires integer entries")
    nr, nc = m.rows, m.cols
    a = [[int(x) for x in row] for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while True:
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
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
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # divisibility: pivot must divide every later entry
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return SmithForm(U=Matrix(u), D=Matrix(a), V=Matrix(v), rank=t)


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    return smith_normal_form(m).invariant_factors


def sparse_rank_and_factors(cols: dict) -> tuple[int, list[int]]:
    """Rank and invariant factors of a sparse integer matrix.

    `cols` maps column id -> {row id: nonzero int}.  Unit pivots are
    eliminated by unimodular operations (exact); whatever remains without a
    unit entry is finished by dense Smith normal form.
    """
    cols = {c: dict(col) for c, col in cols.items() if col}
    rows: dict = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    rank = 0
    while True:
        best = None
        for c, col in cols.items():
            for r, v in col.items():
                if v in (1, -1):
                    fill = (len(col) - 1) * (len(rows[r]) - 1)
                    if best is None or fill < best[0]:
                        best = (fill, r, c, v)
                        if fill == 0:
                            break
            if best and best[0] == 0:
                break
        if best is None:
            break
        _, pr, pc, pv = best
        pivot_col = cols[pc]
        # clear column pc with integer row operations
        for r in [x for x in pivot_col if x != pr]:
            f = pivot_col[r] * pv          # pv in {1,-1}: f = entry / pivot
            for c2, v2 in list(rows[pr].items()):
                if c2 == pc:
                    continue
                cur = rows[r].get(c2, 0) - f * v2
                if cur == 0:
                    rows[r].pop(c2, None)
                    cols[c2].pop(r, None)
                else:
                    rows[r][c2] = cur
                    cols[c2][r] = cur
            rows[r].pop(pc, None)
        # row pr and column pc are now isolated
        for c2 in list(rows[pr]):
            cols[c2].pop(pr, None)
            if not cols[c2]:
                del cols[c2]
        del rows[pr]
        cols.pop(pc, None)
        rank += 1
        cols = {c: col for c, col in cols.items() if col}
        rows = {r: row for r, row in rows.items() if row}
    if not cols:
        return rank, []
    row_ids = sorted({r for col in cols.values() for r in col})
    col_ids = sorted(cols)
    ridx = {r: i for i, r in enumerate(row_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for j, c in enumerate(col_ids):
        for r, v in cols[c].items():
            dense[ridx[r]][j] = v
    sf = smith_normal_form(Matrix(dense))
    return rank + sf.rank, [f for f in sf.invariant_factors if f != 1]

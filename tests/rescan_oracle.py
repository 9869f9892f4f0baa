"""Two eliminations as they were before their scans were cut, kept as
oracles for the tests.

`full_scan_smith_form`: every pivot step scans the whole remaining block
for the least entry and rescans it for divisibility, and every row and
column operation runs over the whole matrix.  `exactlin.smith_normal_form`
must perform the same operations, so the tests compare U, D, rank and the
recorded column operations.

`rescan_rank_and_factors`: the sparse elimination that rescans every entry
of every remaining column to choose each unit pivot.  Rank and invariant
factors do not depend on the pivot order, so `sparse_rank_and_factors`
must return the same pair.
"""

from fanpart.exactlin import Matrix, SmithForm, smith_normal_form


def full_scan_smith_form(m) -> SmithForm:
    """Smith normal form U @ A @ V = D over the integers, of a Matrix or of
    a list of integer rows.

    Pivot choice: smallest nonzero absolute value in the remaining block,
    which keeps coefficient growth down on the small matrices seen here.
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
        for row in a:
            row[i], row[j] = row[j], row[i]
        col_ops.append((i, j, 0))

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        if f:
            col_ops.append((src, dst, f))

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
    return SmithForm(U=Matrix(u), D=Matrix(a), rank=t,
                      col_ops=tuple(col_ops))


def rescan_rank_and_factors(cols: dict) -> tuple[int, list[int]]:
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

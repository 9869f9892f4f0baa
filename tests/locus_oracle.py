"""Brute-force meeting locus of a simplex and a half-open subspace.

Every vertex of the polytope {lam >= 0, sum(lam) = 1, E P lam = 0,
W P lam >= 0} (P the points as columns, E the equalities, W the wall
inequalities) is found by making each subset of the inequalities tight and
keeping the unique, feasible solutions; the dimension of the locus is the
rank of the vertex differences.  Exponential in the number of
inequalities, so only for a handful of points and forms.

Only used in tests, as an oracle that shares no code path with the
package's Fourier-Motzkin routine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Plain Gauss-Jordan over the rationals: (nonzero rows, pivots)."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _unique_solution(rows, rhs, m):
    """The solution of rows . x = rhs when there is exactly one."""
    red, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(m)):
        return None
    return tuple(row[m] for row in red)


def _value(form, point) -> Fraction:
    return sum(Fraction(x) * y for x, y in zip(form, point))


def locus_vertices(points, eq_forms, ineq_forms) -> set:
    """Barycentric coordinates of the vertices of the meeting locus."""
    m = len(points)
    eqs = [[_value(f, p) for p in points] for f in eq_forms]
    eqs.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * len(eq_forms) + [Fraction(1)]
    ineqs = [[Fraction(int(i == j)) for i in range(m)] for j in range(m)]
    ineqs += [[_value(q, p) for p in points] for q in ineq_forms]
    verts = set()
    for size in range(min(m, len(ineqs)) + 1):
        for tight in itertools.combinations(ineqs, size):
            lam = _unique_solution(eqs + list(tight),
                                   rhs + [Fraction(0)] * size, m)
            if lam is not None and all(_value(row, lam) >= 0
                                       for row in ineqs):
                verts.add(lam)
    return verts


def locus_dim(points, eq_forms, ineq_forms):
    """Dimension of the meeting locus; None when it is empty."""
    verts = sorted(locus_vertices(points, eq_forms, ineq_forms))
    if not verts:
        return None
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    return len(_rref(diffs)[1]) if diffs else 0

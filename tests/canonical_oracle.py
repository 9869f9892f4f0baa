"""The canonical form of a half-open subspace, one change at a time.

This is the iterative canonicalisation the package used before its form was
split into one reduction and one pass over the cone: reduce the
inequalities modulo the equalities, promote the first inequality that is
forced to vanish on the cone, re-reduce and start over; then drop one
redundant inequality at a time, starting over after each drop.  It counts
the promotions and drops, so a test can show that its random inputs
exercise both.

Only used in tests, as an oracle for `make_subspace`.  It shares the exact
arithmetic (`rref`, `kernel_basis`, Fourier-Motzkin) but none of the
control flow.  `stage_one_key` is the rational stage-one form, over
Fraction, for the integer stage-one form of the package, and
`rational_key` the rational form of a subspace, rebuilt from its rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from fanpart.arrangement import _fm_feasible, _restrict
from fanpart.exactlin import (Matrix, Vec, integer_form, is_zero_vec,
                              kernel_basis, rref, vec)


def row_space_reduce(form: Vec, rref_m: Matrix, pivots) -> Vec:
    """Residue of a linear form modulo the row space of an RREF matrix."""
    res = list(form)
    for r, c in enumerate(pivots):
        f = res[c]
        if f:
            for j, y in enumerate(rref_m.entries[r]):
                if y:
                    res[j] -= f * y
    return tuple(res)


def canonical_key(eq_forms, ineq_forms, ambient_dim, stats=None):
    """The key (equality RREF entries, sorted inequalities) of the canonical
    form; `stats`, if given, gets "promoted" and "dropped" counts added."""
    stats = stats if stats is not None else {}
    stats.setdefault("promoted", 0)
    stats.setdefault("dropped", 0)
    eq_rows = [vec(f) for f in eq_forms]
    ineqs = [vec(f) for f in ineq_forms]
    R, rk, pivots = rref(Matrix.from_rows(eq_rows, cols=ambient_dim))
    R = Matrix.from_rows(list(R.entries)[:rk], cols=ambient_dim)
    while True:
        reduced = []
        for q in ineqs:
            qr = integer_form(row_space_reduce(q, R, pivots))
            if not is_zero_vec(qr):
                reduced.append(qr)
        reduced = sorted(set(reduced))
        if not reduced:
            ineqs = reduced
            break
        kb = kernel_basis(R)
        restricted = _restrict(reduced, kb)
        forced = None
        for j, q in enumerate(reduced):
            if not _fm_feasible(restricted, [restricted[j]], len(kb)):
                forced = q
                break
        if forced is None:
            ineqs = reduced
            break
        stats["promoted"] += 1
        eq_rows = list(R.entries) + [forced]
        R, rk, pivots = rref(Matrix.from_rows(eq_rows, cols=ambient_dim))
        R = Matrix.from_rows(list(R.entries)[:rk], cols=ambient_dim)
        ineqs = [o for o in reduced if o != forced]
    irredundant = list(ineqs)
    if len(irredundant) > 1:
        kb = kernel_basis(R)
        restricted = dict(zip(irredundant, _restrict(irredundant, kb)))
        changed = True
        while changed:
            changed = False
            for q in list(irredundant):
                rest = [restricted[o] for o in irredundant if o != q]
                neg_q = tuple(-x for x in restricted[q])
                if not _fm_feasible(rest, [neg_q], len(kb)):
                    irredundant.remove(q)
                    stats["dropped"] += 1
                    changed = True
                    break
    return (R.entries, tuple(sorted(irredundant)))


def _gauss_jordan(rows, ncols):
    """The nonzero rows of the RREF of Fraction rows, by textbook
    elimination: divide the pivot row by its pivot, subtract it from every
    other row."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def _primitive(form):
    """A Fraction form scaled by a positive factor to coprime integers."""
    den = 1
    for x in form:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in form]
    g = gcd(*ints)
    return tuple(Fraction(x // g) for x in ints) if g else tuple(form)


def stage_one_key(eq_forms, ineq_forms, ambient_dim):
    """The rational stage-one form of a description, computed over
    Fraction with no code from the package: the equalities in RREF without
    zero rows, and the inequalities reduced modulo them, scaled to
    primitive integers by a positive factor, deduplicated and sorted."""
    R = _gauss_jordan([vec(f) for f in eq_forms], ambient_dim)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in R]
    reduced = set()
    for q in ineq_forms:
        q = list(vec(q))
        for row, c in zip(R, pivots):
            f = q[c]
            if f != 0:
                q = [x - f * y for x, y in zip(q, row)]
        if any(x != 0 for x in q):
            reduced.add(_primitive(q))
    return R, tuple(sorted(reduced))


def rational_key(s):
    """The canonical form of a subspace over Fraction, rebuilt from its
    integer rows with no code from the package: (the equality RREF, the
    inequalities), the form `canonical_key` returns."""
    rows = [[Fraction(x) for x in r] for r in s.rows]
    return _gauss_jordan(rows, s.ambient_dim), s.inequalities


def positive_multiple(u, v) -> bool:
    """Is u = c v for some c > 0, v a nonzero vector?"""
    k = next(i for i, x in enumerate(v) if x)
    c = Fraction(u[k]) / v[k]
    return c > 0 and all(x == c * y for x, y in zip(u, v))

"""Independent geometric model of a compactified union of linear subspaces.

The unit-sphere link of the union is stratified by the sign vectors of a
full-rank list of linear forms; every stratum is a salient relatively open
polyhedral cone, so the strata are the open cells of a regular CW structure
and the order complex of their closure poset is an honest triangulation.
Betti numbers of the union follow by suspension.

Only used in tests, as an oracle that shares no code path with the
decomposition in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from fanpart.exactlin import (Matrix, integer_form, kernel_basis,
                              leading_column, primitive_row, rref,
                              sparse_rank_and_factors, vec)
from fanpart.arrangement import _fm_feasible


def _dedupe_forms(forms):
    seen = []
    for f in forms:
        p = integer_form(f)
        p = primitive_row(p, p[leading_column(p)])   # f and -f agree
        if any(x != 0 for x in p) and p not in seen:
            seen.append(p)
    return seen


def link_cells(element_rows: list[list], ambient: int):
    """Sign-vector cells of the link of the union of the given subspaces.

    element_rows: one list of equality forms per subspace.
    Returns (cells, dims) where cells are full sign vectors over the form
    list and dims are the cone dimensions.
    """
    forms = _dedupe_forms([vec(r) for rows in element_rows for r in rows])
    # complete to full rank so that every stratum is a salient cone
    stack = Matrix.from_rows(list(forms), cols=ambient)
    _, rk, _ = rref(stack)
    for i in range(ambient):
        if rk == ambient:
            break
        e = vec([1 if j == i else 0 for j in range(ambient)])
        cand = Matrix.from_rows(list(forms) + [e], cols=ambient)
        _, rk2, _ = rref(cand)
        if rk2 > rk:
            forms.append(e)
            rk = rk2
    cells = set()
    dims = {}
    for rows in element_rows:
        E, rkE, _ = rref(Matrix.from_rows([vec(r) for r in rows],
                                          cols=ambient))
        kb = kernel_basis(Matrix.from_rows(list(E.entries)[:rkE],
                                           cols=ambient))
        if not kb:
            continue
        restricted = [tuple(sum(f[i] * b[i] for i in range(ambient))
                            for b in kb) for f in forms]
        partial = [()]
        for rf in restricted:
            new = []
            for sigma in partial:
                for s in (0, 1, -1):
                    loose = []
                    strict = []
                    eqs = []
                    for prev, val in zip(sigma + (s,), restricted):
                        if prev == 0:
                            eqs.append(val)
                        elif prev == 1:
                            strict.append(val)
                        else:
                            strict.append(tuple(-x for x in val))
                    # eliminate the equalities by restricting further
                    eqm = Matrix.from_rows(eqs, cols=len(kb)) if eqs else \
                        Matrix.zeros(0, len(kb))
                    kb2 = kernel_basis(eqm)
                    if not kb2:
                        if strict:
                            continue
                        new.append(sigma + (s,))
                        continue
                    rs = [tuple(sum(f[i] * b[i] for i in range(len(kb)))
                                for b in kb2) for f in strict]
                    if _fm_feasible([], rs, len(kb2)):
                        new.append(sigma + (s,))
            partial = new
        for sigma in partial:
            zero_forms = [f for f, s in zip(forms, sigma) if s == 0]
            zm = Matrix.from_rows(zero_forms, cols=ambient) if zero_forms \
                else Matrix.zeros(0, ambient)
            d = ambient - rref(zm)[1]
            if d == 0:
                continue
            if sigma not in cells:
                cells.add(sigma)
                dims[sigma] = d
    return sorted(cells), dims


def link_betti(element_rows: list[list], ambient: int, degrees) -> dict:
    """Reduced Betti numbers of the link in the requested degrees, computed
    from the order complex of the cell poset by exact sparse elimination."""
    cells, dims = link_cells(element_rows, ambient)
    idx = {c: i for i, c in enumerate(cells)}
    below = {i: [] for i in range(len(cells))}   # proper faces of cell i
    for i, tau in enumerate(cells):
        for j, sig in enumerate(cells):
            if i == j:
                continue
            if all(s == 0 or s == t for s, t in zip(sig, tau)):
                below[i].append(j)
    chains_by_len: dict[int, list] = {}

    def extend(chain, last):
        chains_by_len.setdefault(len(chain), []).append(tuple(chain))
        for nxt in below[last]:
            extend(chain + [nxt], nxt)

    for i in range(len(cells)):
        extend([i], i)
    out = {}
    for d in degrees:
        def sparse_boundary(k):
            cols = {}
            for ch in chains_by_len.get(k + 1, []):
                col = {}
                for omit in range(len(ch)):
                    col[ch[:omit] + ch[omit + 1:]] = (-1) ** omit
                cols[ch] = col
            return cols
        n_d = len(chains_by_len.get(d + 1, []))
        if n_d == 0:
            out[d] = 0
            continue
        rank_d, _ = sparse_rank_and_factors(sparse_boundary(d))
        rank_up, _ = sparse_rank_and_factors(sparse_boundary(d + 1))
        out[d] = n_d - rank_d - rank_up
    return out


def union_homology_rank(element_rows: list[list], ambient: int,
                        degree: int) -> int:
    """Rank of H_degree of the compactified union (= reduced H_{degree-1}
    of the link, by suspension)."""
    return link_betti(element_rows, ambient, [degree - 1])[degree - 1]

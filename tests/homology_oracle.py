"""Reduced integer homology from dense boundary matrices and sympy's Smith
normal form.

H~_d = ker(d_d) / im(d_{d+1}) on the augmented chain complex: its rank is
the number of d-faces minus the ranks of d_d and d_{d+1}, and its torsion
is the invariant factors of d_{d+1} above 1.  The Smith forms come from
sympy, so no step goes through `fanpart.exactlin`; degree -1 needs no
special case, the augmentation d_0 has rank 1 unless the complex is empty.

Only used in tests, as an oracle for `homology.reduced_homology`.
"""

from __future__ import annotations

import sympy
from sympy.matrices.normalforms import smith_normal_form

from fanpart.homology import boundary_matrix


def _nonzero_factors(bd) -> list[int]:
    """|diagonal| of the Smith form of an integer matrix, zeros dropped."""
    if not bd.rows or not bd.cols:
        return []
    m = sympy.Matrix([[int(x) for x in row] for row in bd.entries])
    snf = smith_normal_form(m, domain=sympy.ZZ)
    return sorted(abs(int(x)) for x in snf.diagonal() if x != 0)


def dense_homology(cx, d: int) -> tuple[int, list[int]]:
    """(rank, torsion) of the reduced homology of `cx` in degree d."""
    rank_d = len(_nonzero_factors(boundary_matrix(cx, d)))
    factors_up = _nonzero_factors(boundary_matrix(cx, d + 1))
    n_d = len(cx.faces(d))
    return n_d - rank_d - len(factors_up), [f for f in factors_up if f > 1]

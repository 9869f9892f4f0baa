"""Orientation signs computed directly, as a check on the transported signs
of the group action.

`orientation_sign` takes the determinant of a group element on a stable
carrier through its orthogonal complement; `join_sphere_sign` reads the
sign a wall sphere picks up under an element that maps its pair of sheets
to itself.  Only used in tests.
"""

from __future__ import annotations

from fanpart.arrangement import HalfOpenSubspace
from fanpart.coinvariants import _page_image, transport_sign
from fanpart.exactlin import Matrix, dot, kernel_basis
from fanpart.groups import ActionGroup, GroupElement, act, det_character
from fanpart.homology import ZZBasis


def orientation_sign(group: ActionGroup, g: GroupElement,
                     carrier: HalfOpenSubspace) -> int:
    """Sign of det of g restricted to a g-stable carrier, computed as
    det_ambient(g) * det on an explicit basis of the orthogonal complement.
    The carrier basis is the rational kernel of the carrier's rows, not the
    one the package stores."""
    basis = kernel_basis(Matrix.from_rows(carrier.rows,
                                          cols=group.ambient_dim))
    for v in basis:
        if any(dot(r, act(g, v)) for r in carrier.rows):
            raise ValueError("element does not stabilize the carrier")
    comp = kernel_basis(Matrix(basis)) if basis else \
        kernel_basis(Matrix.zeros(0, group.ambient_dim))
    if not comp:
        return det_character(g)
    comp_sign = transport_sign(g, comp, comp)
    return det_character(g) * comp_sign


def join_sphere_sign(group: ActionGroup, zz: ZZBasis, g: GroupElement,
                     node: int, elem_pair: tuple[int, int]) -> int:
    """Sign picked up by the wall sphere on (elem_pair) at `node` under a
    g that maps the pair to itself (possibly swapping the two sheets)."""
    wall = zz.wall_by_node[node]
    images = {}
    for e in elem_pair:
        v2, e2, side2, sgn = _page_image(group, zz, g, wall, e)
        if v2 != node or e2 not in elem_pair or side2 != wall.rep_side[e2]:
            raise ValueError("element does not stabilize this wall sphere")
        images[e] = (e2, sgn)
    e0, e1 = elem_pair
    if images[e0][0] == e0:                      # sheets fixed
        if images[e0][1] != images[e1][1]:
            raise ValueError("inconsistent sheet orientation signs")
        return images[e0][1]
    # sheets swapped: the two-point factor contributes one extra sign
    if images[e0][1] != images[e1][1]:
        raise ValueError("inconsistent sheet orientation signs")
    return -images[e0][1]

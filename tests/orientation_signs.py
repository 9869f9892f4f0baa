"""Orientation signs computed directly: the independent oracle of every
orientation sign the package reads off free-column minors
(`exactlin.free_minor_sign`), the transport signs of the group action and
the rewrite signs of the wall tables, and of the parity rule of the disc
check.

`frame_det` is the determinant of one frame in another by one
fraction-free solve, with no reference to the carriers' free columns.
`transport_sign` is the sign of a moved basis in a target basis by one
`frame_det`.
`orientation_sign` takes the determinant of a group element on a stable
carrier through its orthogonal complement; `join_sphere_sign` reads the
sign a wall sphere picks up under an element that maps its pair of sheets
to itself, from `page_image_by_frame`: the full (spine, ray) frame of one
sheet against the target page, one `frame_det` per sheet.
`action_matrix_by_cone_sums` builds each action matrix with the image of
a wall generator summed sheet by sheet over the cone coefficients, with a
check that they sum to zero (`wall_gen_image_by_cone_sums`).
`moved_point_by_fractions` and `orientation_det_by_fractions` are the
crossing points and orientation determinants of Steps 7-8 on Fraction
points, as the integer route reads them up to positive factors.  Only
used in tests.
"""

from __future__ import annotations

from typing import Sequence

from fanpart.arrangement import HalfOpenSubspace
from fanpart.coinvariants import _top_gen_image, _wall_pages
from fanpart.exactlin import (Matrix, Vec, _bareiss, _integer_row,
                              determinant, dot, echelon, from_columns,
                              integer_dot, kernel_basis, rref, sign,
                              solve_affine, vec)
from fanpart.groups import ActionGroup, GroupElement, act, det_character
from fanpart.homology import WallNode, ZZBasis


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


def transport_sign(g: GroupElement, basis_from: Sequence[Vec],
                   basis_to: Sequence[Vec]) -> int:
    """Sign of det of (g applied to basis_from) expressed in basis_to."""
    moved = [act(g, v) for v in basis_from]
    return sign(frame_det(moved, basis_to)[0])


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


def page_image_by_frame(zz: ZZBasis, g: GroupElement, wall: WallNode,
                        elem: int) -> tuple[int, int, int, int]:
    """Image data of the representative cone of `elem` at `wall` under g,
    (target wall node, target element, target side, orientation sign):
    the sign of the whole frame [g spine, g ray] in [spine2, ray2]."""
    poset = zz.poset
    v2 = poset.act_node(g, wall.node)
    wall2 = zz.wall_by_node[v2]
    e2 = poset.act_node(g, elem)
    gray = act(g, wall.rays[(elem, wall.rep_side[elem])])
    side2 = sign(integer_dot(wall2.functionals[e2], gray))
    num, _ = frame_det([act(g, v) for v in wall.spine_basis] + [gray],
                       wall2.spine_basis + [wall2.rays[(e2, side2)]])
    return v2, e2, side2, sign(num)


def join_sphere_sign(group: ActionGroup, zz: ZZBasis, g: GroupElement,
                     node: int, elem_pair: tuple[int, int]) -> int:
    """Sign picked up by the wall sphere on (elem_pair) at `node` under a
    g that maps the pair to itself (possibly swapping the two sheets)."""
    wall = zz.wall_by_node[node]
    images = {}
    for e in elem_pair:
        v2, e2, side2, sgn = page_image_by_frame(zz, g, wall, e)
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


def wall_gen_image_by_cone_sums(zz: ZZBasis, wall: WallNode, elem: int,
                                pages: dict) -> dict:
    """Image of the generator C(elem) - C(base) as basis coordinates, from
    the cone and sphere coefficients of both sheets; `pages` maps each
    sheet of the wall to its image (`_wall_pages`)."""
    base = wall.elements[0]
    cone_coeff: dict[int, int] = {}
    top_coeff: dict[int, int] = {}
    v2_seen = None
    for e, c in ((elem, 1), (base, -1)):
        v2, e2, side2, sgn = pages[e]
        v2_seen = v2
        wall2 = zz.wall_by_node[v2]
        coeff = c * sgn
        if side2 != wall2.rep_side[e2]:
            # C(anti) = C(rep) - s * [sphere of e2]
            s = wall2.rewrite_sign[e2]
            top_coeff[e2] = top_coeff.get(e2, 0) - coeff * s
        cone_coeff[e2] = cone_coeff.get(e2, 0) + coeff
    if sum(cone_coeff.values()) != 0:
        raise ValueError("cone image lost augmentation zero")
    wall2 = zz.wall_by_node[v2_seen]
    out: dict[int, int] = {}
    base2 = wall2.elements[0]
    for e2, c in cone_coeff.items():
        if c == 0 or e2 == base2:
            continue
        out[zz.wall_index(v2_seen, e2)] = out.get(
            zz.wall_index(v2_seen, e2), 0) + c
    for e2, c in top_coeff.items():
        if c == 0:
            continue
        idx = zz.top_index(e2)
        out[idx] = out.get(idx, 0) + c
    return out


def action_matrix_by_cone_sums(zz: ZZBasis, g: GroupElement) -> Matrix:
    """The plain-action matrix of g on the basis, column j the image of
    generator j."""
    pages = {w.node: _wall_pages(zz, g, w) for w in zz.walls}
    cols = []
    for gen in zz.generators:
        if gen.kind == "top":
            img = _top_gen_image(zz, g, gen.node)
        else:
            img = wall_gen_image_by_cone_sums(
                zz, zz.wall_by_node[gen.node], gen.element, pages[gen.node])
        cols.append([img.get(i, 0) for i in range(zz.rank)])
    return Matrix([list(row) for row in zip(*cols)])


def moved_point_by_fractions(elem: HalfOpenSubspace, point: Vec, disc,
                             shift: Vec):
    """Where the disc, moved from `point` by `shift`, crosses the element's
    carrier: p + s + D t with E (p + s + D t) = 0, t solved over Fraction.
    None unless t exists and is unique."""
    start = tuple(p + s for p, s in zip(point, shift))
    ED = Matrix([[dot(r, d) for d in disc] for r in elem.rows])
    t = solve_affine(ED, tuple(-dot(r, start) for r in elem.rows))
    if t is None or rref(ED)[1] != len(disc):
        return None
    return tuple(x + sum(d[i] * y for d, y in zip(disc, t))
                 for i, x in enumerate(start))


def orientation_det_by_fractions(columns, n: int):
    """Determinant of the columns together with the all-ones vector."""
    return determinant(from_columns(list(columns) + [vec([1] * n)]))

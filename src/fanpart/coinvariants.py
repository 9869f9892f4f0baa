"""Group action on the top homology with orientation signs, the
determinant-twisted action, and coinvariant quotients.

Signs are never guessed: the image of a fundamental sphere is transported by
the change-of-basis determinant between stored orientation bases, and the
image of a wall cone is transported by the determinant of its (spine, ray)
frame against the canonical frame of the target page.  When a group element
throws a cone across to the non-canonical page of a full subspace, the
rewrite C(anti) = C(rep) - s * [sphere] converts it back to basis form; this
is where the boundary-wall correction terms come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exactlin import (Matrix, Vec, change_of_basis_det, dot, kernel_basis,
                       sign, smith_normal_form, vec)
from .groups import ActionGroup, GroupElement, act, det_character
from .arrangement import HalfOpenSubspace
from .homology import UnsupportedArrangement, WallNode, ZZBasis


def transport_sign(g: GroupElement, basis_from: Sequence[Vec],
                   basis_to: Sequence[Vec]) -> int:
    """Sign of det of (g applied to basis_from) expressed in basis_to."""
    moved = [act(g, v) for v in basis_from]
    return sign(change_of_basis_det(moved, basis_to))


def orientation_sign(group: ActionGroup, g: GroupElement,
                     carrier: HalfOpenSubspace) -> int:
    """Sign of det of g restricted to a g-stable carrier, computed as
    det_ambient(g) * det on an explicit basis of the orthogonal complement."""
    basis = carrier.carrier_basis()
    eqs = carrier.equalities
    for v in basis:
        if any(x != 0 for x in eqs.matvec(act(g, v))):
            raise ValueError("element does not stabilize the carrier")
    comp = kernel_basis(Matrix(basis)) if basis else \
        kernel_basis(Matrix.zeros(0, group.ambient_dim))
    if not comp:
        return det_character(g)
    comp_sign = transport_sign(g, comp, comp)
    return det_character(g) * comp_sign


@dataclass
class OrientedGeneratorAction:
    """Integer matrices of the plain (untwisted) action on the basis."""

    group: ActionGroup
    basis: ZZBasis
    matrices: dict            # word -> Matrix (rank x rank, integer)

    def matrix(self, g: GroupElement) -> Matrix:
        return self.matrices[g.word]

    def modified_matrix(self, g: GroupElement) -> Matrix:
        d = det_character(g)
        m = self.matrices[g.word]
        if d == 1:
            return m
        return Matrix([[-x for x in row] for row in m.entries])


def _page_image(group: ActionGroup, zz: ZZBasis, g: GroupElement,
                wall: WallNode, elem: int) -> tuple[int, int, int, int]:
    """Image data of the representative cone of `elem` at `wall` under g:
    (target wall node, target element, target side, orientation sign)."""
    poset = zz.poset
    v2 = poset.act_node(g, wall.node)
    wall2 = zz.wall_by_node.get(v2)
    if wall2 is None:
        raise UnsupportedArrangement(
            f"image node {v2} of walls under {g!r} carries no wall table")
    e2 = poset.act_node(g, elem)
    ray = wall.rays[(elem, wall.rep_side[elem])]
    gray = act(g, ray)
    side2 = sign(dot(wall2.functionals[e2], gray))
    if side2 == 0:
        raise UnsupportedArrangement("transported ray landed on the wall")
    if (e2, side2) not in wall2.rays:
        raise UnsupportedArrangement(
            "transported cone left its half-subspace; image not expressible")
    frame_from = [act(g, v) for v in wall.spine_basis] + [gray]
    frame_to = list(wall2.spine_basis) + [wall2.rays[(e2, side2)]]
    sgn = sign(change_of_basis_det(frame_from, frame_to))
    return v2, e2, side2, sgn


def _wall_gen_image(group: ActionGroup, zz: ZZBasis, g: GroupElement,
                    wall: WallNode, elem: int) -> dict:
    """Image of the generator C(elem) - C(base) as basis coordinates."""
    poset = zz.poset
    base = wall.elements[0]
    cone_coeff: dict[int, int] = {}
    top_coeff: dict[int, int] = {}
    v2_seen = None
    for e, c in ((elem, 1), (base, -1)):
        v2, e2, side2, sgn = _page_image(group, zz, g, wall, e)
        v2_seen = v2
        wall2 = zz.wall_by_node[v2]
        coeff = c * sgn
        if side2 != wall2.rep_side[e2]:
            # C(anti) = C(rep) - s * [sphere of e2]
            s = wall2.rewrite_sign[e2]
            top_coeff[e2] = top_coeff.get(e2, 0) - coeff * s
        cone_coeff[e2] = cone_coeff.get(e2, 0) + coeff
    if sum(cone_coeff.values()) != 0:
        raise UnsupportedArrangement("cone image lost augmentation zero")
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


def _top_gen_image(group: ActionGroup, zz: ZZBasis, g: GroupElement,
                   node: int) -> dict:
    poset = zz.poset
    n2 = poset.act_node(g, node)
    if ("top", n2) not in zz.index:
        raise UnsupportedArrangement(
            f"image of a full maximal element is not in the basis: node {n2}")
    sgn = transport_sign(g, zz.top_basis[node], zz.top_basis[n2])
    return {zz.top_index(n2): sgn}


def induced_action(group: ActionGroup, zz: ZZBasis) -> OrientedGeneratorAction:
    """Plain-action matrices of every group element on the basis."""
    r = zz.rank
    matrices = {}
    for g in group.elements:
        cols = []
        for gen in zz.generators:
            if gen.kind == "top":
                img = _top_gen_image(group, zz, g, gen.node)
            else:
                wall = zz.wall_by_node[gen.node]
                img = _wall_gen_image(group, zz, g, wall, gen.element)
            col = [0] * r
            for idx, c in img.items():
                col[idx] = c
            cols.append(col)
        matrices[g.word] = Matrix([[cols[j][i] for j in range(r)]
                                   for i in range(r)])
    return OrientedGeneratorAction(group, zz, matrices)


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


@dataclass
class CoinvariantGroup:
    invariant_factors: list[int]          # the factors > 1
    rank: int                             # free rank of the quotient
    U: Matrix                             # unimodular coordinate change
    diag: list[int]                       # all nonzero SNF diagonal entries
    module_rank: int

    def project(self, x: Sequence) -> tuple:
        y = self.U.matvec(vec(x))
        tors = []
        for i, d in enumerate(self.diag):
            if d > 1:
                tors.append(int(y[i]) % d)
        free = [int(y[i]) for i in range(len(self.diag), self.module_rank)]
        return tuple(tors), tuple(free)

    def is_zero(self, x: Sequence) -> bool:
        tors, free = self.project(x)
        return all(t == 0 for t in tors) and all(f == 0 for f in free)

    def order_of(self, x: Sequence) -> Optional[int]:
        """Order of the class of x; None when infinite."""
        tors, free = self.project(x)
        if any(free):
            return None
        order = 1
        factors = [d for d in self.diag if d > 1]
        from math import gcd
        for t, d in zip(tors, factors):
            k = d // gcd(d, t) if t else 1
            order = order * k // gcd(order, k)
        return order

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z{d}" for d in self.invariant_factors]
        return " (+) ".join(parts) if parts else "0"


def coinvariants_from_relations(relations: list[Vec], module_rank: int
                                ) -> CoinvariantGroup:
    if not relations:
        return CoinvariantGroup([], module_rank, Matrix.identity(module_rank),
                                [], module_rank)
    rel = Matrix([[r[i] for r in relations] for i in range(module_rank)])
    sf = smith_normal_form(rel)
    diag = [int(sf.D.entries[i][i]) for i in range(sf.rank)]
    factors = [d for d in diag if d > 1]
    return CoinvariantGroup(factors, module_rank - sf.rank, sf.U, diag,
                            module_rank)


def modified_coinvariants(action: OrientedGeneratorAction,
                          group: ActionGroup,
                          generators_only: bool = False) -> CoinvariantGroup:
    """Quotient by the span of g*x - x for the determinant-twisted action."""
    r = action.basis.rank
    rels = []
    elements = group.generators if generators_only else group.elements
    for g in elements:
        m = action.modified_matrix(g)
        for j in range(r):
            col = [m.entries[i][j] - (1 if i == j else 0) for i in range(r)]
            if any(col):
                rels.append(vec(col))
    return coinvariants_from_relations(rels, r)


def dual_coinvariants(action: OrientedGeneratorAction,
                      group: ActionGroup) -> CoinvariantGroup:
    """Coinvariants of the dual module Hom(H, Z) with (g.F)(x) = F(g^-1 * x).

    The obstruction class naturally lives here; its coordinates are the
    pairing values against the basis.
    """
    r = action.basis.rank
    rels = []
    for g in group.elements:
        m = action.modified_matrix(group.inv(g)).transpose()
        for j in range(r):
            col = [m.entries[i][j] - (1 if i == j else 0) for i in range(r)]
            if any(col):
                rels.append(vec(col))
    return coinvariants_from_relations(rels, r)

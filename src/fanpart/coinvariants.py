"""Group action on the top homology with orientation signs, the
determinant-twisted action, and coinvariant quotients.

Signs are never guessed: the image of a fundamental sphere is transported by
the change-of-basis determinant between stored orientation bases, and the
image of a wall cone is transported by the determinant of its (spine, ray)
frame against the canonical frame of the target page.  Projection onto the
free columns F of the target carrier's echelon rows is injective on the
carrier, so each determinant is det(frame[:, F]) / det(B[:, F]) for the
target basis B.  When a group element throws a cone across to the
non-canonical page of a full subspace, the rewrite C(anti) = C(rep) - s *
[sphere] converts it back to basis form; this is where the boundary-wall
correction terms come from.  So a wall generator C(e) - C(base) has one
image: sgn (C'(g e) - C'(g base)), C'(x) the generator of sheet x on the
image wall (none for its base sheet), plus -sgn s [sphere of x] for each
sheet x that lands on the non-canonical page.

Step 6 is one routine, `twisted_coinvariants`, which certificates, fixtures
and the selftest read: the primal quotient's shape by sparse elimination,
the dual quotient by a Smith form that keeps its `U`, and their three laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exactlin import (Matrix, Vec, integer_dot, leading_column, scaled_det,
                       sign, smith_normal_form, sparse_rank_and_factors)
from .groups import (ActionGroup, GroupElement, act, det_character,
                     distinct_actions)
from .homology import UnsupportedArrangement, WallNode, ZZBasis


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
        return Matrix._wrap(tuple(tuple(-x for x in row) for row in m.entries),
                            m.cols)


def _carrier_frames(zz: ZZBasis) -> dict:
    """node -> (rows, F, sign det(B[:, F])) for each top node and wall: its
    carrier's echelon rows, their free columns F and its stored basis B."""
    frames, dim = {}, zz.poset.arrangement.ambient_dim
    for node, basis in (*zz.top_basis.items(),
                        *((w.node, w.spine_basis) for w in zz.walls)):
        rows = zz.poset.nodes[node].subspace.rows
        free = sorted(set(range(dim)) - {leading_column(r) for r in rows})
        frames[node] = rows, free, sign(scaled_det(
            [[v[c] for c in free] for v in basis]))
    return frames


def _transport_sign(g: GroupElement, basis: Sequence[Vec],
                    frame: tuple) -> int:
    """Sign of det of (g applied to basis) in the basis of a target frame
    (`_carrier_frames`); a moved vector off its carrier is a ValueError."""
    rows, free, basis_sign = frame
    moved = [act(g, v) for v in basis]
    if any(integer_dot(row, v) for row in rows for v in moved):
        raise ValueError("vector not in span of target basis")
    return basis_sign * sign(scaled_det([[v[c] for c in free]
                                         for v in moved]))


def _wall_pages(zz: ZZBasis, g: GroupElement, wall: WallNode,
                frames: dict) -> dict:
    """Image data of the representative cone of every sheet of `wall`
    under g: sheet -> (target wall node, target element, target side,
    orientation sign), read off the integer frames of the two walls.

    The frame [g spine, g ray] in [spine2, ray2] is block triangular:
    g spine lies in span(spine2), on which the target sheet's wall form
    phi2 vanishes.  So its determinant is det(g spine in spine2) times
    phi2(g ray) / phi2(ray2), and the spine sign is taken once per wall.
    Each sheet checks that g ray lies in its target sheet's carrier and
    that the ray factor is positive; `frames` is `_carrier_frames(zz)`."""
    poset = zz.poset
    v2 = poset.act_node(g, wall.node)
    wall2 = zz.wall_by_node.get(v2)
    if wall2 is None:
        raise UnsupportedArrangement(
            f"image node {v2} of walls under {g!r} carries no wall table")
    spine_sign = _transport_sign(g, wall.spine_basis, frames[v2])
    pages = {}
    for e in wall.elements:
        e2 = poset.arrangement.moves[g.perm][e]
        gray = act(g, wall.rays[(e, wall.rep_side[e])])
        if any(integer_dot(r, gray) for r in poset.nodes[e2].subspace.rows):
            raise ValueError(
                "transported ray is not in the carrier of its image sheet")
        phi2 = wall2.functionals[e2]
        side2 = sign(integer_dot(phi2, gray))
        if side2 == 0:
            raise UnsupportedArrangement("transported ray landed on the wall")
        ray2 = wall2.rays.get((e2, side2))
        if ray2 is None:
            raise UnsupportedArrangement(
                "transported cone left its half-subspace; image not "
                "expressible")
        if sign(integer_dot(phi2, ray2)) != side2:
            raise UnsupportedArrangement(
                "ray factor of a transported frame is not positive")
        pages[e] = (v2, e2, side2, spine_sign)
    return pages


def _wall_gen_image(zz: ZZBasis, wall: WallNode, elem: int,
                    pages: dict) -> dict:
    """Image of the generator C(elem) - C(base) as basis coordinates, by
    the formula of the module docstring, with sgn the spine sign and s the
    image wall's rewrite sign; `pages` maps each sheet of the wall to its
    image (`_wall_pages`).  g moves distinct sheets to distinct sheets, so
    no coordinate is written twice."""
    out: dict[int, int] = {}
    for e, c in ((elem, 1), (wall.elements[0], -1)):
        v2, e2, side2, sgn = pages[e]
        wall2 = zz.wall_by_node[v2]
        if e2 != wall2.elements[0]:
            out[zz.wall_index(v2, e2)] = c * sgn
        if side2 != wall2.rep_side[e2]:
            out[zz.top_index(e2)] = -c * sgn * wall2.rewrite_sign[e2]
    return out


def _top_gen_image(zz: ZZBasis, g: GroupElement, node: int,
                   frames: dict) -> dict:
    n2 = zz.poset.act_node(g, node)
    if ("top", n2) not in zz.index:
        raise UnsupportedArrangement(
            f"image of a full maximal element is not in the basis: node {n2}")
    return {zz.top_index(n2):
            _transport_sign(g, zz.top_basis[node], frames[n2])}


def induced_action(group: ActionGroup, zz: ZZBasis) -> OrientedGeneratorAction:
    """Plain-action matrices of every group element on the basis.

    A matrix reads g only through its permutation (`act`, `act_node`), so
    it is computed once per distinct permutation (`distinct_actions`) and
    shared by the elements that act alike.  Under each element the images
    of the sheets of a wall are computed once, when the first generator on
    that wall needs them: the base sheet enters the image of every
    generator on the wall, and every other sheet is a generator."""
    r, frames = zz.rank, _carrier_frames(zz)
    by_perm = {}
    for g in distinct_actions(group):
        pages: dict = {}          # wall node -> `_wall_pages`
        cols = []
        for gen in zz.generators:
            if gen.kind == "top":
                img = _top_gen_image(zz, g, gen.node, frames)
            else:
                wall = zz.wall_by_node[gen.node]
                if gen.node not in pages:
                    pages[gen.node] = _wall_pages(zz, g, wall, frames)
                img = _wall_gen_image(zz, wall, gen.element, pages[gen.node])
            col = [0] * r
            for idx, c in img.items():
                col[idx] = c
            cols.append(col)
        by_perm[g.perm] = Matrix._wrap(tuple(zip(*cols)), r)
    return OrientedGeneratorAction(
        group, zz, {g.word: by_perm[g.perm] for g in group.elements})


@dataclass
class CoinvariantGroup:
    invariant_factors: list[int]          # the factors > 1
    rank: int                             # free rank of the quotient
    U: Matrix                             # unimodular coordinate change
    diag: list[int]                       # all nonzero SNF diagonal entries
    module_rank: int

    def project(self, x: Sequence[int]) -> tuple:
        y = [integer_dot(row, x) for row in self.U.entries]
        tors = tuple(y[i] % d for i, d in enumerate(self.diag) if d > 1)
        return tors, tuple(y[len(self.diag):self.module_rank])

    def is_zero(self, x: Sequence) -> bool:
        tors, free = self.project(x)
        return all(t == 0 for t in tors) and all(f == 0 for f in free)

    def order_of(self, x: Sequence) -> Optional[int]:
        """Order of the class of x; None when infinite."""
        tors, free = self.project(x)
        if any(free):
            return None
        order = 1
        for t, d in zip(tors, self.invariant_factors):
            order = lcm(order, d // gcd(d, t))
        return order


def describe_factors(factors: Sequence[int], free_rank: int) -> str:
    """The group Z^free_rank + Z_f1 + ... as text, e.g. "Z (+) Z2"."""
    parts = ["Z"] * free_rank + [f"Z{f}" for f in factors]
    return " (+) ".join(parts) if parts else "0"


def coinvariants_from_relations(relations: Sequence[Sequence[int]],
                                module_rank: int) -> CoinvariantGroup:
    """Quotient of Z^module_rank by the span of the integer relations."""
    sf = smith_normal_form([[r[i] for r in relations]
                            for i in range(module_rank)])
    diag = list(sf.invariant_factors)
    factors = [d for d in diag if d > 1]
    return CoinvariantGroup(factors, module_rank - sf.rank, sf.U, diag,
                            module_rank)


def _relations(matrices: Iterable[Matrix]) -> list[tuple]:
    """The nonzero columns of M - I over the matrices, each kept once in
    the order of first occurrence; a non-integer entry is a ValueError."""
    rels: dict = {}
    for m in matrices:
        for j, col in enumerate(zip(*m.entries)):
            rel = list(col)
            rel[j] -= 1
            if any(rel):
                rels[tuple(rel)] = None
    if any(x.denominator != 1 for rel in rels for x in rel):
        raise ValueError("relations require integer entries")
    return list(rels)


def _shape(matrices: Iterable[Matrix], r: int) -> tuple[list[int], int]:
    """(factors > 1, free rank) of Z^r by `_relations(matrices)`, from
    `sparse_rank_and_factors`, with no `U`."""
    rank, factors = sparse_rank_and_factors(
        {k: {i: x for i, x in enumerate(rel) if x}
         for k, rel in enumerate(_relations(matrices))})
    return factors, r - rank


def modified_coinvariants(action: OrientedGeneratorAction,
                          group: ActionGroup) -> tuple[list[int], int]:
    """`_shape` of the quotient by g*x - x for the determinant-twisted
    action, over one element per distinct permutation."""
    return _shape(map(action.modified_matrix, distinct_actions(group)),
                  action.basis.rank)


def dual_coinvariants(action: OrientedGeneratorAction,
                      group: ActionGroup) -> CoinvariantGroup:
    """Coinvariants of the dual module Hom(H, Z) with (g.F)(x) = F(g^-1 * x).

    The obstruction class lives here; its coordinates are the pairing
    values against the basis.  Elements that act alike have inverses that
    act alike, so one element per distinct permutation gives every
    relation, first met in group order."""
    return coinvariants_from_relations(
        _relations(action.modified_matrix(group.inv(g)).transpose()
                   for g in distinct_actions(group)), action.basis.rank)


def twisted_coinvariants(group: ActionGroup, zz: ZZBasis) -> tuple:
    """Step 6 on one build of the action: (primal shape, dual, laws).  Only
    the dual, which the pairing projects through, keeps a `U`.  The laws,
    by name: the action is a representation (on the generators and
    their product), the generators' relations give the primal shape, and
    the dual and primal quotients agree (Smith form against sparse
    elimination)."""
    action = induced_action(group, zz)
    m, gens = action.matrix, group.generators
    shape = modified_coinvariants(action, group)
    dg = dual_coinvariants(action, group)
    return shape, dg, {
        "action is a representation": all(
            m(x).mul(m(y)) == m(group.mul(x, y))
            for x in gens for y in (*gens, reduce(group.mul, gens))),
        "generator relations suffice":
            _shape(map(action.modified_matrix, gens), zz.rank) == shape,
        "dual and primal quotients agree":
            (dg.invariant_factors, dg.rank) == shape}

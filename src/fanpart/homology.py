"""Simplicial homology of order complexes, and the free basis of the top
homology of a compactified arrangement union.

The decomposition used here assembles the top homology from two kinds of
cycles: fundamental spheres of full linear maximal elements, and "wall
spheres" at linear codimension-one intersection nodes, built from the
compactified node joined with a pair of points on two of the sheets meeting
along it.  A sheet can be a half-subspace (one page) or a full subspace cut
by the node into two pages; a pair of opposite pages of the same full
subspace closes up into that subspace's fundamental sphere, which is the
rewrite rule connecting the two kinds of generators.

All other poset nodes are required to contribute nothing; this is verified
by computing the reduced homology of their lower order complexes in the
relevant degree.  The order complex is replaced by the crosscut complex on
the maximal elements (crosscut theorem), whose facets are the supports of
the node's covers, and that by the nerve of its facets: every nonempty
intersection of facets is a face, hence contractible, so the nerve has the
same integer homology, torsion included (nerve theorem; A. Bjorner,
Topological methods, Handbook of Combinatorics, 1995, Sec. 10).  The nerve
has one vertex per facet, far fewer faces than the crosscut complex on deep
nodes.  The group permutes the poset, so nodes of one orbit have
isomorphic lower intervals: each degree is computed once per node orbit,
on the orbit representative the poset keeps, and the degree above the top
only where the table of chain heights allows a class.  Homology itself is
one route for every complex: each boundary map is built on face positions
and reduced by sparse unimodular elimination on unit pivots, and whatever
is left without a unit entry gets a dense Smith normal form finish.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .exactlin import (Frozen, Matrix, echelon, free_minor_sign,
                       integer_kernel, leading_column, primitive_row,
                       reduce_row, sparse_rank_and_factors)
from .arrangement import HalfOpenSubspace, IntersectionPoset


class UnsupportedArrangement(Exception):
    """The arrangement falls outside the regime this decomposition handles."""


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex(Frozen):
    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: tuple, facets: tuple):
        # facets: tuples of vertex ids, strictly increasing
        self._set(vertices=vertices, facets=facets)

    def faces(self, k: int) -> list[tuple]:
        if k < 0:
            return [()] if k == -1 else []
        out = set()
        for f in self.facets:
            if len(f) >= k + 1:
                out.update(itertools.combinations(f, k + 1))
        return sorted(out)

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)


def complex_from_facets(facets) -> SimplicialComplex:
    facets = {tuple(sorted(f)) for f in facets if f}
    maximal = [f for f in facets
               if not any(f != g and set(f) <= set(g) for g in facets)]
    vertices = tuple(sorted({v for f in maximal for v in f}))
    return SimplicialComplex(vertices, tuple(sorted(maximal)))


class HomologyGroup:
    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: list[int]):
        self.rank, self.torsion = rank, torsion

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _boundary(lower: list[tuple], faces: list[tuple]) -> dict:
    """The boundary map from `faces` to `lower`, the faces one degree
    down, on positions: column j -> {i: +-1} over the faces lower[i] of
    faces[j].  A vertex maps to the empty face, the augmentation."""
    position = {f: i for i, f in enumerate(lower)}
    return {j: {position[f[:k] + f[k + 1:]]: -1 if k & 1 else 1
                for k in range(len(f))}
            for j, f in enumerate(faces)}


def boundary_matrix(cx: SimplicialComplex, d: int) -> Matrix:
    """Boundary from d-chains to (d-1)-chains as a dense matrix, rows and
    columns in the order of `faces`."""
    rows_faces = cx.faces(d - 1)
    cols = _boundary(rows_faces, cx.faces(d))
    if not rows_faces or not cols:
        return Matrix.zeros(len(rows_faces), len(cols))
    return Matrix([[col.get(i, 0) for col in cols.values()]
                   for i in range(len(rows_faces))])


def reduced_homology(cx: SimplicialComplex, d: int) -> HomologyGroup:
    """Reduced simplicial homology with integer coefficients in degree d.

    Rank and torsion come from the ranks and invariant factors of the
    boundaries out of degrees d and d + 1: one sparse unimodular
    elimination each, with a dense Smith finish on what has no unit pivot.
    The faces of degrees d - 1, d and d + 1 are listed once, and both
    boundaries are built on their positions.  The chain complex is
    augmented (the empty face in degree -1), so no degree needs a case of
    its own.
    """
    down, mid, up = (cx.faces(k) for k in (d - 1, d, d + 1))
    rank_d, _ = sparse_rank_and_factors(_boundary(down, mid))
    rank_up, torsion = sparse_rank_and_factors(_boundary(mid, up))
    return HomologyGroup(len(mid) - rank_d - rank_up, torsion)


# ---------------------------------------------------------------------------
# order complexes of poset lower cones (elements strictly containing a node)


def order_complex(poset: IntersectionPoset, node: int) -> SimplicialComplex:
    """Nerve of the chains of nodes whose set strictly contains `node`.

    In the reverse-inclusion order of the intersection poset this is the
    complex of chains strictly below the node; it is empty for a maximal
    element.  A maximal chain above the node steps up by covers until it
    reaches a maximal element, so the facets are the cover paths.
    """
    facets: list[list[int]] = []

    def extend(chain: list[int]):
        ups = poset.covers[chain[-1]]
        if not ups:
            facets.append(chain[1:])
        for c in ups:
            extend(chain + [c])

    extend([node])
    return complex_from_facets(facets)


def crosscut_complex(poset: IntersectionPoset, node: int) -> SimplicialComplex:
    """Complex on the maximal elements above `node`: a set spans a face when
    its common intersection still strictly contains `node`.

    Homotopy equivalent to the order complex because the poset is closed
    under intersections, so every bounded subset of the crosscut has a meet.
    A support shrinks as the node grows, so the facets are the supports of
    the minimal nodes above, the covers.
    """
    facets = sorted(tuple(poset.support_ids(c)) for c in poset.covers[node])
    return SimplicialComplex(tuple(sorted({v for f in facets for v in f})),
                             tuple(facets))


def nerve(cx: SimplicialComplex) -> SimplicialComplex:
    """Nerve of the cover of `cx` by its facets, on the facet indices.

    A set of facets spans a face when they share a vertex, so the facets of
    the nerve are the maximal sets {i : v in facet i} over the vertices v.
    """
    covers: dict = {}
    for i, f in enumerate(cx.facets):
        for v in f:
            covers.setdefault(v, []).append(i)
    return complex_from_facets(covers.values())


def node_homology(poset: IntersectionPoset, node: int, d: int) -> HomologyGroup:
    """Reduced homology in degree d of the lower order complex of `node`,
    computed on the nerve of its crosscut complex, once per node orbit: a
    group element is a poset automorphism, so the lower intervals of a
    node and of its orbit representative `poset.orbit[node]` are
    isomorphic and have the same homology."""
    r = poset.orbit[node]
    memo = poset._homology_memo
    if (r, d) not in memo:
        memo[r, d] = reduced_homology(nerve(crosscut_complex(poset, r)), d)
    return memo[r, d]


# ---------------------------------------------------------------------------
# wall/page tables and the basis of the top homology


class WallNode:
    """The frames of a wall, all integer vectors: a vector scaled by a
    positive factor changes no orientation sign and no side of a wall."""

    __slots__ = ("node", "spine_basis", "elements", "functionals",
                 "rep_side", "rays", "rewrite_sign")

    def __init__(self, node: int, spine_basis: list[tuple],
                 elements: list[int], functionals: dict[int, tuple],
                 rep_side: dict[int, int], rays: dict[tuple[int, int], tuple],
                 rewrite_sign: dict[int, int]):
        # the node's carrier basis; the maximal elements above, sorted
        self.node, self.spine_basis = node, spine_basis
        self.elements = elements
        # element -> primitive wall form
        self.functionals, self.rep_side = functionals, rep_side
        # (element, side) -> ray point; full element -> s in
        # C(anti) = C(rep) - s * [sphere]
        self.rays, self.rewrite_sign = rays, rewrite_sign


class ZZGenerator(Frozen):
    __slots__ = ("kind", "node", "element")

    def __init__(self, kind: str, node: int, element: Optional[int] = None):
        # "top" or "wall", the carrier poset node, and for wall generators
        # the varying sheet
        self._set(kind=kind, node=node, element=element)

    def __repr__(self):
        if self.kind == "top":
            return f"[node {self.node}]"
        return f"[wall {self.node}: {self.element}]"


class ZZBasis:
    __slots__ = ("poset", "top_dim", "top_nodes", "walls", "generators",
                 "index", "top_basis", "wall_by_node")

    def __init__(self, poset: IntersectionPoset, top_dim: int,
                 top_nodes: list[int], walls: list[WallNode],
                 generators: list[ZZGenerator], index: dict | None = None,
                 top_basis: dict | None = None,
                 wall_by_node: dict | None = None):
        # top_nodes: the full maximal elements, sorted
        self.poset, self.top_dim, self.top_nodes = poset, top_dim, top_nodes
        self.walls, self.generators = walls, generators
        self.index = {} if index is None else index
        # node -> carrier basis
        self.top_basis = {} if top_basis is None else top_basis
        self.wall_by_node = {} if wall_by_node is None else wall_by_node

    @property
    def rank(self) -> int:
        return len(self.generators)

    def top_index(self, node: int) -> int:
        return self.index[("top", node)]

    def wall_index(self, node: int, element: int) -> int:
        return self.index[("wall", node, element)]


def _wall_form(node: HalfOpenSubspace, element: HalfOpenSubspace) -> tuple:
    """Primitive functional cutting the wall inside the element's carrier:
    the node's integer rows reduced modulo the element's, in echelon form,
    so a primitive integer row with a positive leading entry."""
    piv = [leading_column(r) for r in element.rows]
    rows, _ = echelon(reduce_row(r, element.rows, piv) for r in node.rows)
    if len(rows) != 1:
        raise UnsupportedArrangement(
            f"node is not of codimension one in element {element.label!r}")
    return rows[0]


def _ray(element: HalfOpenSubspace, form: tuple, value: int) -> tuple:
    """A deterministic point of the element's carrier with form(x) = value
    (zero in every free column), scaled to coprime integers by a positive
    factor: x of the integer kernel vector (x, s > 0) of [E 0; form -value]
    for its last column, which is a pivot when the form vanishes on E."""
    dim = len(form)
    rows, pivots = echelon([form + (-value,)],
                           [r + (0,) for r in element.rows])
    if pivots[-1] == dim:
        raise UnsupportedArrangement("wall form vanishes on the element")
    return primitive_row(integer_kernel(rows, dim + 1)[-1][:dim])


def _build_wall(poset: IntersectionPoset, node: int) -> WallNode:
    sub = poset.nodes[node].subspace
    spine = sub.carrier_basis()
    elements = sorted(poset.elements_above(node))
    functionals, rep_side, rays, rewrite = {}, {}, {}, {}
    for e in elements:
        elem = poset.nodes[e].subspace
        phi = _wall_form(sub, elem)
        functionals[e] = phi
        if elem.is_linear:
            rep_side[e] = 1
            rays[(e, 1)] = _ray(elem, phi, 1)
            rays[(e, -1)] = _ray(elem, phi, -1)
            # the sign of (spine, ray+) in the element's carrier basis,
            # whose minor on the free columns is positive diagonal
            rewrite[e] = free_minor_sign(elem.rows, spine + [rays[(e, 1)]])
        else:
            if len(elem.inequalities) != 1:
                raise UnsupportedArrangement(
                    "half-open maximal element with several walls")
            q = elem.inequalities[0]
            if q == phi:
                side = 1
            elif q == tuple(-x for x in phi):
                side = -1
            else:
                raise UnsupportedArrangement(
                    "element boundary is not the wall through this node")
            rep_side[e] = side
            rays[(e, side)] = _ray(elem, phi, side)
    return WallNode(node, spine, elements, functionals, rep_side, rays, rewrite)


def zz_basis(poset: IntersectionPoset) -> ZZBasis:
    """Free basis of the top homology of the compactified union.

    Raises UnsupportedArrangement when the poset has contributions outside
    the two supported kinds (verified by the homology below every other
    node, see node_homology), or when any such group carries torsion.
    """
    dims = [poset.nodes[m].dim for m in poset.maximal_node_ids]
    top_dim = max(dims)
    if min(dims) != top_dim:
        raise UnsupportedArrangement(
            f"maximal elements of mixed dimensions {sorted(set(dims))}")
    top_nodes = [m for m in sorted(poset.maximal_node_ids)
                 if poset.nodes[m].subspace.is_linear]
    # a move keeps linearity: read it off the orbit representative, whose
    # form the poset holds, and build no moved node's form for it
    linear = [poset.nodes[r].subspace.is_linear for r in poset.orbit]
    walls = []
    for nd in poset.nodes:
        if nd.dim == top_dim - 1 and linear[nd.index] \
                and nd.index not in poset.maximal_node_ids:
            walls.append(_build_wall(poset, nd.index))
    # every other node must contribute nothing in the top degree
    for nd in poset.nodes:
        if nd.index in poset.maximal_node_ids or not linear[nd.index]:
            continue
        if nd.dim == top_dim - 1:
            continue
        deg = top_dim - 1 - nd.dim
        h = node_homology(poset, nd.index, deg)
        if not h.is_zero():
            raise UnsupportedArrangement(
                f"node {nd.index} (dim {nd.dim}) has lower-complex homology "
                f"{h} in degree {deg}")
    generators: list[ZZGenerator] = []
    basis = ZZBasis(poset, top_dim, top_nodes, walls, generators)
    for m in top_nodes:
        basis.top_basis[m] = list(poset.nodes[m].subspace.carrier_basis())
        basis.index[("top", m)] = len(generators)
        generators.append(ZZGenerator("top", m))
    for w in walls:
        basis.wall_by_node[w.node] = w
        for e in w.elements[1:]:
            basis.index[("wall", w.node, e)] = len(generators)
            generators.append(ZZGenerator("wall", w.node, e))
    return basis


def verify_lemma16(poset: IntersectionPoset, n: int) -> bool:
    """All nodes of dimension <= n-6 have vanishing reduced homology of the
    lower order complex in degree n-5-dim."""
    for nd in poset.nodes:
        if nd.index in poset.maximal_node_ids:
            continue
        if nd.dim > n - 6:
            continue
        deg = n - 5 - nd.dim
        if not node_homology(poset, nd.index, deg).is_zero():
            return False
    return True


def chain_heights(poset: IntersectionPoset) -> list[int]:
    """The number of nodes in a longest chain strictly above each node: a
    longest chain steps up by covers, which have fewer support bits, so one
    pass in order of support size reads each cover's height first."""
    height = [0] * len(poset.support)
    for i in sorted(range(len(height)),
                    key=lambda i: poset.support[i].bit_count()):
        height[i] = max((1 + height[c] for c in poset.covers[i]), default=0)
    return height


def verify_no_homology_above_top(poset: IntersectionPoset) -> bool:
    """Degree top+1 of the union vanishes: chains above any node are too
    short to carry classes one degree higher."""
    top_dim = max(poset.nodes[m].dim for m in poset.maximal_node_ids)
    height = chain_heights(poset)
    for nd in poset.nodes:
        deg = top_dim - nd.dim          # needed H~ degree at this node + 1
        if height[nd.index] - 1 >= deg and deg >= 0:
            if not node_homology(poset, nd.index, deg).is_zero():
                return False
    return True

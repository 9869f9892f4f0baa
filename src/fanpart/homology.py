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
by computing the reduced homology of their lower order complexes (through an
inclusion-equivalent crosscut complex) in the relevant degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .exactlin import (Matrix, Vec, change_of_basis_det, kernel_basis,
                       primitive, primitive_signed, rref, rref_pivots,
                       row_space_reduce, sign, smith_normal_form,
                       solve_affine, sparse_rank_and_factors, vec)
from .arrangement import HalfOpenSubspace, IntersectionPoset


class UnsupportedArrangement(Exception):
    """The arrangement falls outside the regime this decomposition handles."""


# ---------------------------------------------------------------------------
# simplicial complexes


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: tuple  # tuples of vertex ids, strictly increasing

    def faces(self, k: int) -> list[tuple]:
        if k < 0:
            return [()] if k == -1 and self.vertices else ([()] if k == -1 else [])
        out = set()
        for f in self.facets:
            if len(f) >= k + 1:
                out.update(itertools.combinations(f, k + 1))
        return sorted(out)

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def is_empty(self) -> bool:
        return not self.facets and not self.vertices


def complex_from_facets(facets) -> SimplicialComplex:
    facets = {tuple(sorted(f)) for f in facets if f}
    maximal = [f for f in facets
               if not any(f != g and set(f) <= set(g) for g in facets)]
    vertices = tuple(sorted({v for f in maximal for v in f}))
    return SimplicialComplex(vertices, tuple(sorted(maximal)))


@dataclass
class HomologyGroup:
    rank: int
    torsion: list[int]
    generator_reps: list[tuple]

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def boundary_matrix(cx: SimplicialComplex, d: int) -> Matrix:
    """Boundary from d-chains to (d-1)-chains; d = 0 gives the augmentation."""
    rows_faces = cx.faces(d - 1)
    cols_faces = cx.faces(d)
    idx = {f: i for i, f in enumerate(rows_faces)}
    entries = [[0] * len(cols_faces) for _ in rows_faces]
    for j, f in enumerate(cols_faces):
        for omit in range(len(f)):
            sub = f[:omit] + f[omit + 1:]
            entries[idx[sub]][j] = (-1) ** omit
    if not rows_faces:
        return Matrix.zeros(0, len(cols_faces))
    if not cols_faces:
        return Matrix.zeros(len(rows_faces), 0)
    return Matrix(entries)


def _integer_cycles(bd: Matrix) -> list[tuple]:
    out = []
    for v in kernel_basis(bd):
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append(tuple(int(x * den) for x in v))
    return out


def _sparse_boundary(cx: SimplicialComplex, d: int) -> dict:
    """Columns of the boundary map from d-chains, as sparse integer dicts."""
    cols = {}
    for f in cx.faces(d):
        col = {}
        for omit in range(len(f)):
            col[f[:omit] + f[omit + 1:]] = (-1) ** omit
        cols[f] = col
    return cols


_DENSE_LIMIT = 120


def reduced_homology(cx: SimplicialComplex, d: int) -> HomologyGroup:
    """Reduced simplicial homology with integer coefficients in degree d.

    Large boundary matrices go through sparse unimodular elimination;
    generator representatives are only computed on the dense path.
    """
    if d < -1:
        return HomologyGroup(0, [], [])
    if d == -1:
        if cx.is_empty():
            return HomologyGroup(1, [], [()])
        return HomologyGroup(0, [], [])
    n_d = len(cx.faces(d))
    if n_d == 0:
        return HomologyGroup(0, [], [])
    big = n_d + len(cx.faces(d + 1)) + len(cx.faces(d - 1)) > _DENSE_LIMIT
    if big:
        rank_d, _ = sparse_rank_and_factors(_sparse_boundary(cx, d))
        rank_up, torsion = sparse_rank_and_factors(_sparse_boundary(cx, d + 1))
        return HomologyGroup(n_d - rank_d - rank_up, torsion, [])
    bd_d = boundary_matrix(cx, d)          # C_d -> C_{d-1} (augmented)
    bd_up = boundary_matrix(cx, d + 1)     # C_{d+1} -> C_d
    sf_up = smith_normal_form(bd_up) if bd_up.cols else None
    rank_up = sf_up.rank if sf_up else 0
    rank_d = rref(bd_d)[1]
    rank_h = n_d - rank_d - rank_up
    torsion = [f for f in (sf_up.invariant_factors if sf_up else ()) if f > 1]
    reps: list[tuple] = []
    if rank_h > 0:
        cycles = _integer_cycles(bd_d)
        if sf_up:
            # coordinates in which the image is spanned by d_i * e_i
            u = sf_up.U
            free_rows = list(range(rank_up, n_d))
            proj = []
            for z in cycles:
                uz = u.matvec(vec(z))
                proj.append(tuple(uz[i] for i in free_rows))
            chosen: list[int] = []
            acc: list[tuple] = []
            for i, p in enumerate(proj):
                trial = acc + [p]
                if rref(Matrix.from_rows(trial, cols=len(free_rows)))[1] == len(trial):
                    chosen.append(i)
                    acc = trial
                    if len(chosen) == rank_h:
                        break
            reps = [cycles[i] for i in chosen]
        else:
            reps = cycles[:rank_h]
    return HomologyGroup(rank_h, torsion, reps)


# ---------------------------------------------------------------------------
# order complexes of poset lower cones (elements strictly containing a node)


def order_complex(poset: IntersectionPoset, node: int) -> SimplicialComplex:
    """Nerve of the chains of nodes whose set strictly contains `node`.

    In the reverse-inclusion order of the intersection poset this is the
    complex of chains strictly below the node; it is empty for a maximal
    element.
    """
    ups = sorted(poset.above[node])
    if not ups:
        return SimplicialComplex((), ())
    upset = set(ups)
    children: dict[int, list[int]] = {
        u: [w for w in poset.above[u] if w in upset] for u in ups
    }
    # nodes with no strict superset inside the up-set are chain tops
    facets: list[tuple] = []

    def extend(chain: list[int]):
        nxt = children[chain[-1]]
        if not nxt:
            facets.append(tuple(sorted(chain)))
            return
        for w in nxt:
            extend(chain + [w])

    starts = [u for u in ups
              if not any(u in poset.above[w] for w in ups if w != u)]
    for s in starts:
        extend([s])
    return complex_from_facets(facets)


def crosscut_complex(poset: IntersectionPoset, node: int) -> SimplicialComplex:
    """Complex on the maximal elements above `node`: a set spans a face when
    its common intersection still strictly contains `node`.

    Homotopy equivalent to the order complex because the poset is closed
    under intersections, so every bounded subset of the crosscut has a meet.
    """
    ups = sorted(poset.above[node])
    if not ups:
        return SimplicialComplex((), ())
    tops = set(poset.maximal_node_ids)
    facets = []
    for w in ups:
        s = tuple(sorted({m for m in poset.above[w] if m in tops}
                         | ({w} if w in tops else set())))
        facets.append(s)
    return complex_from_facets(facets)


# ---------------------------------------------------------------------------
# wall/page tables and the basis of the top homology


@dataclass(frozen=True)
class Page:
    element: int   # poset node id of a maximal element
    side: int      # sign of the wall functional on this half


@dataclass
class WallNode:
    node: int
    spine_basis: list[Vec]
    elements: list[int]                      # maximal elements above, sorted
    functionals: dict[int, Vec]              # element -> primitive wall form
    rep_side: dict[int, int]
    rays: dict[tuple[int, int], Vec]         # (element, side) -> ray point
    rewrite_sign: dict[int, int]             # full element -> s in
                                             # C(anti) = C(rep) - s * [sphere]

    def pages(self) -> list[Page]:
        out = []
        for e in self.elements:
            out.append(Page(e, self.rep_side[e]))
            if (e, -self.rep_side[e]) in self.rays:
                out.append(Page(e, -self.rep_side[e]))
        return out


@dataclass(frozen=True)
class ZZGenerator:
    kind: str                    # "top" or "wall"
    node: int                    # carrier poset node
    local_class: tuple           # H~ generator of the lower order complex
    orientation_basis: tuple     # ordered basis of the carrier
    element: Optional[int] = None  # for wall generators: the varying sheet

    def __repr__(self):
        if self.kind == "top":
            return f"[node {self.node}]"
        return f"[wall {self.node}: {self.element}]"


@dataclass
class ZZBasis:
    poset: IntersectionPoset
    top_dim: int
    top_nodes: list[int]                  # full maximal elements, sorted
    walls: list[WallNode]
    generators: list[ZZGenerator]
    index: dict = field(default_factory=dict)
    top_basis: dict = field(default_factory=dict)     # node -> carrier basis
    wall_by_node: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def top_index(self, node: int) -> int:
        return self.index[("top", node)]

    def wall_index(self, node: int, element: int) -> int:
        return self.index[("wall", node, element)]


def _wall_form(carrier_eq: Matrix, element: HalfOpenSubspace) -> Vec:
    """Primitive functional cutting the wall inside the element's carrier."""
    E = element.equalities
    piv = rref_pivots(E)
    residues = [row_space_reduce(row, E, piv) for row in carrier_eq.entries]
    R, rk, _ = rref(Matrix.from_rows(residues, cols=E.cols))
    if rk != 1:
        raise UnsupportedArrangement(
            f"node is not of codimension one in element {element.label!r}")
    return primitive(R.entries[0])


def _ray(element: HalfOpenSubspace, form: Vec, value: int) -> Vec:
    """A deterministic point of the element's carrier with form(x) = value."""
    eqs = element.equalities.stack(Matrix([form]))
    rhs = vec([0] * element.equalities.rows + [value])
    x = solve_affine(eqs, rhs)
    if x is None:
        raise UnsupportedArrangement("wall form vanishes on the element")
    return x


def _build_wall(poset: IntersectionPoset, node: int) -> WallNode:
    sub = poset.nodes[node].subspace
    spine = sub.carrier_basis()
    elements = sorted(poset.elements_above(node))
    functionals, rep_side, rays, rewrite = {}, {}, {}, {}
    for e in elements:
        elem = poset.nodes[e].subspace
        phi = _wall_form(sub.equalities, elem)
        functionals[e] = phi
        if elem.is_linear:
            rep_side[e] = 1
            rays[(e, 1)] = _ray(elem, phi, 1)
            rays[(e, -1)] = _ray(elem, phi, -1)
            basis_x = elem.carrier_basis()
            rewrite[e] = sign(change_of_basis_det(
                spine + [rays[(e, 1)]], basis_x))
        else:
            if len(elem.inequalities) != 1:
                raise UnsupportedArrangement(
                    "half-open maximal element with several walls")
            q = elem.inequalities[0]
            if primitive(q) != phi:
                raise UnsupportedArrangement(
                    "element boundary is not the wall through this node")
            side = 1 if primitive_signed(q) == phi else -1
            rep_side[e] = side
            rays[(e, side)] = _ray(elem, phi, side)
    return WallNode(node, spine, elements, functionals, rep_side, rays, rewrite)


def zz_basis(poset: IntersectionPoset, ambient_dim: Optional[int] = None) -> ZZBasis:
    """Free basis of the top homology of the compactified union.

    Raises UnsupportedArrangement when the poset has contributions outside
    the two supported kinds (verified by direct order-complex homology), or
    when any such group carries torsion.
    """
    dims = [poset.nodes[m].dim for m in poset.maximal_node_ids]
    top_dim = max(dims)
    if min(dims) != top_dim:
        raise UnsupportedArrangement(
            f"maximal elements of mixed dimensions {sorted(set(dims))}")
    top_nodes = [m for m in sorted(poset.maximal_node_ids)
                 if poset.nodes[m].subspace.is_linear]
    walls = []
    for nd in poset.nodes:
        if nd.dim == top_dim - 1 and nd.subspace.is_linear \
                and nd.index not in poset.maximal_node_ids:
            walls.append(_build_wall(poset, nd.index))
    walls.sort(key=lambda w: w.node)
    # every other node must contribute nothing in the top degree
    for nd in poset.nodes:
        if nd.index in poset.maximal_node_ids or not nd.subspace.is_linear:
            continue
        if nd.dim == top_dim - 1:
            continue
        deg = top_dim - 1 - nd.dim
        h = reduced_homology(crosscut_complex(poset, nd.index), deg)
        if not h.is_zero():
            raise UnsupportedArrangement(
                f"node {nd.index} (dim {nd.dim}) has lower-complex homology "
                f"{h} in degree {deg}")
    generators: list[ZZGenerator] = []
    basis = ZZBasis(poset, top_dim, top_nodes, walls, generators)
    for m in top_nodes:
        cb = tuple(poset.nodes[m].subspace.carrier_basis())
        basis.top_basis[m] = list(cb)
        basis.index[("top", m)] = len(generators)
        generators.append(ZZGenerator("top", m, ((),), cb))
    for w in walls:
        basis.wall_by_node[w.node] = w
        base = w.elements[0]
        for e in w.elements[1:]:
            local = tuple(1 if x == e else (-1 if x == base else 0)
                          for x in w.elements)
            basis.index[("wall", w.node, e)] = len(generators)
            generators.append(ZZGenerator("wall", w.node, local,
                                          tuple(w.spine_basis), e))
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
        if not reduced_homology(crosscut_complex(poset, nd.index), deg).is_zero():
            return False
    return True


def max_chain_length_above(poset: IntersectionPoset, node: int) -> int:
    ups = sorted(poset.above[node])
    upset = set(ups)
    memo: dict[int, int] = {}

    def depth(u: int) -> int:
        if u not in memo:
            nxt = [w for w in poset.above[u] if w in upset]
            memo[u] = 1 + max((depth(w) for w in nxt), default=0)
        return memo[u]

    return max((depth(u) for u in ups), default=0)


def verify_no_homology_above_top(poset: IntersectionPoset) -> bool:
    """Degree top+1 of the union vanishes: chains above any node are too
    short to carry classes one degree higher."""
    top_dim = max(poset.nodes[m].dim for m in poset.maximal_node_ids)
    for nd in poset.nodes:
        deg = top_dim - nd.dim          # needed H~ degree at this node + 1
        if max_chain_length_above(poset, nd.index) - 1 >= deg and deg >= 0:
            if not reduced_homology(
                    crosscut_complex(poset, nd.index), deg).is_zero():
                return False
    return True

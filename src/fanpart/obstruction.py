"""The equivariant sphere complex, the test map in general position, the
intersection censuses, broken point classes, the duality pairing and the
final obstruction certificate.

Every identity used by the construction (equivariance of the vertex map,
single-interior-point intersections, the two-point census, the sixteen
preimage cells, the membership equivalences of the wall decomposition, the
torsion property of the final class) is computed exactly and recorded; a
failed identity downgrades the verdict to inconclusive and names the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (Matrix, Vec, determinant, dot, from_columns,
                       kernel_basis, sign, solve_affine, vec, zero_vec)
from .groups import ActionGroup, GroupElement, act, quaternion_on_Wn
from .arrangement import (HalfOpenSubspace, IntersectionPoset,
                          intersection_poset, k_form, make_J_pieces,
                          make_L_alpha, orbit_closure, transform)
from .homology import (UnsupportedArrangement, ZZBasis, verify_lemma16,
                       verify_no_homology_above_top, zz_basis)
from .coinvariants import (dual_coinvariants, induced_action,
                           modified_coinvariants)


class GeneralPositionError(Exception):
    """A simplex image meets the arrangement in more than isolated interior
    points; the test map is not usable as configured."""


# ---------------------------------------------------------------------------
# the join sphere and the vertex map


@dataclass
class SphereComplex:
    """Join of two cycles of length 2n; the free-action model of the sphere."""

    n: int

    @property
    def chain_ranks(self) -> tuple[int, int, int, int]:
        n = self.n
        return (4 * n, 4 * n * n + 4 * n, 8 * n * n, 4 * n * n)

    def vertices(self) -> list[tuple[str, int]]:
        return [("a", i) for i in range(1, 2 * self.n + 1)] + \
               [("b", i) for i in range(1, 2 * self.n + 1)]

    def _idx(self, i: int) -> int:
        return (i - 1) % (2 * self.n) + 1

    def act_vertex(self, g: GroupElement, v: tuple[str, int]) -> tuple[str, int]:
        k, jflag = g.word
        fam, i = v
        if jflag:
            if fam == "a":
                fam, i = "b", self._idx(2 - i)
            else:
                fam, i = "a", self._idx(self.n + 2 - i)
        return (fam, self._idx(i + k))

    def top_cells(self) -> list[tuple[int, int]]:
        r = range(1, 2 * self.n + 1)
        return [(i, j) for i in r for j in r]

    def cell_vertices(self, cell: tuple[int, int]) -> list[tuple[str, int]]:
        i, j = cell
        return [("a", i), ("a", self._idx(i + 1)),
                ("b", j), ("b", self._idx(j + 1))]

    def act_cell(self, g: GroupElement, cell: tuple[int, int]
                 ) -> Optional[tuple[int, int]]:
        """Image cell, or None when the image is not an (a-arc, b-arc) cell
        in the standard listing (j swaps the families)."""
        imgs = [self.act_vertex(g, v) for v in self.cell_vertices(cell)]
        a_part = sorted(i for fam, i in imgs if fam == "a")
        b_part = sorted(i for fam, i in imgs if fam == "b")
        if len(a_part) != 2 or len(b_part) != 2:
            return None
        def arc_start(pair):
            lo, hi = pair
            if hi == lo + 1:
                return lo
            if lo == 1 and hi == 2 * self.n:
                return 2 * self.n
            return None
        i2 = arc_start(tuple(a_part))
        j2 = arc_start(tuple(b_part))
        if i2 is None or j2 is None:
            return None
        return (i2, j2)

    def fundamental_cells(self) -> list[tuple[int, int]]:
        return [(i, 1) for i in range(1, self.n + 1)]


def u_vector(i: int, n: int) -> Vec:
    i = (i - 1) % n + 1
    return tuple(Fraction(1 if k == i - 1 else 0) - Fraction(1, n)
                 for k in range(n))


@dataclass
class GeneralPositionMap:
    """Equivariant vertex map of the join sphere into the zero-sum
    hyperplane; simplices map affinely."""

    n: int
    sphere: SphereComplex

    def vertex_image(self, v: tuple[str, int]) -> Vec:
        fam, i = v
        if fam == "a":
            return u_vector(i, self.n)        # a_i -> u_{(i-1 mod n)+1}
        return u_vector(i - 1, self.n)        # b_i -> u_{(i-1) mod n}

    def cell_images(self, cell: tuple[int, int]) -> list[Vec]:
        return [self.vertex_image(v) for v in self.sphere.cell_vertices(cell)]


def build_sphere(n: int) -> SphereComplex:
    if n < 2:
        raise ValueError("n must be at least 2")
    return SphereComplex(n)


def define_h(n: int) -> GeneralPositionMap:
    return GeneralPositionMap(n, build_sphere(n))


def check_equivariance(h: GeneralPositionMap, group: ActionGroup) -> bool:
    for g in group.elements:
        for v in h.sphere.vertices():
            if act(g, h.vertex_image(v)) != h.vertex_image(
                    h.sphere.act_vertex(g, v)):
                return False
    return True


# ---------------------------------------------------------------------------
# exact simplex/subspace intersections


def _equality_rows(points: Sequence[Vec], element: HalfOpenSubspace,
                   images: Optional[Sequence[Vec]]) -> list[tuple]:
    """Rows of E P, where E holds the element's equalities and P the points
    as columns; `images`, when given, are the columns E p already computed."""
    if images is None:
        images = [element.equalities.matvec(p) for p in points]
    return list(zip(*images)) if images[0] else []


def simplex_meet(points: Sequence[Vec], element: HalfOpenSubspace,
                 images: Optional[Sequence[Vec]] = None
                 ) -> Optional[tuple[tuple, Vec]]:
    """The unique point of conv(points) on the element, as (barycentric
    coordinates, ambient point); None if disjoint.  `images` are the
    products E p of the element's equalities with the points, if known.

    Raises GeneralPositionError when the meeting locus is not one point.
    """
    m = len(points)
    rows = _equality_rows(points, element, images)
    rows.append((Fraction(1),) * m)
    rhs = vec([0] * (len(rows) - 1) + [1])
    A = Matrix(rows)
    base = solve_affine(A, rhs)
    if base is None:
        return None
    kern = kernel_basis(A)
    sols = []
    if not kern:
        cands = [base]
    else:
        cands = []
        for zeros in itertools.combinations(range(m), len(kern)):
            rows2 = list(rows)
            rhs2 = list(rhs)
            for z in zeros:
                rows2.append(tuple(Fraction(1 if t == z else 0)
                                   for t in range(m)))
                rhs2.append(Fraction(0))
            s = solve_affine(Matrix(rows2), vec(rhs2))
            if s is not None and not kernel_basis(Matrix(rows2)):
                cands.append(s)
        if not cands:
            cands = [base]
    seen = set()
    for lam in cands:
        if all(x >= 0 for x in lam):
            pt = from_columns(list(points)).matvec(lam)
            if element.contains_point(pt):
                key = tuple(lam)
                if key not in seen:
                    seen.add(key)
                    sols.append((lam, pt))
    if not sols:
        if kern:
            # the affine solution set may still cross the simplex away from
            # vertices of the feasible region only if that region is a point;
            # with all candidate vertices infeasible it is empty
            return None
        return None
    if len(sols) > 1:
        raise GeneralPositionError(
            "simplex meets the element in more than one point")
    if kern:
        # rule out a positive-dimensional meeting locus through the point
        lam0 = vec(sols[0][0])
        for d in kern:
            for sgn in (1, -1):
                moved = [lam0[t] + Fraction(sgn, 1024) * d[t] for t in range(m)]
                if all(x >= 0 for x in moved):
                    pt = from_columns(list(points)).matvec(vec(moved))
                    if element.contains_point(pt):
                        raise GeneralPositionError(
                            "simplex meets the element in a segment")
    return sols[0]


# ---------------------------------------------------------------------------
# the censuses


@dataclass
class CensusRow:
    arcs: tuple[int, int]      # unordered (i, j), i <= j: the two u-arcs
    barycentric: tuple         # one point of the meeting locus
    point: Vec
    locus_dim: int             # 0 = single point, 1 = segment


def _simplex_meets(points: Sequence[Vec], element: HalfOpenSubspace,
                   images: Optional[Sequence[Vec]] = None
                   ) -> Optional[tuple[tuple, Vec, int]]:
    """One point of conv(points) on the element plus the local dimension of
    the meeting locus; None when disjoint."""
    m = len(points)
    rows = _equality_rows(points, element, images)
    rows.append((Fraction(1),) * m)
    A = Matrix(rows)
    rhs = vec([0] * (len(rows) - 1) + [1])
    base = solve_affine(A, rhs)
    if base is None:
        return None
    kern = kernel_basis(A)
    found = []
    for size in range(len(kern) + 1):
        for zeros in itertools.combinations(range(m), size):
            rows2 = list(rows) + [
                tuple(Fraction(1 if t == z else 0) for t in range(m))
                for z in zeros]
            rhs2 = vec(list(rhs) + [0] * size)
            s = solve_affine(Matrix(rows2), rhs2)
            if s is None or kernel_basis(Matrix(rows2)):
                continue
            if all(x >= 0 for x in s):
                pt = from_columns(list(points)).matvec(s)
                if element.contains_point(pt):
                    found.append(tuple(s))
        if found:
            break
    if not found:
        return None
    found = sorted(set(found))
    lam = found[0]
    pt = from_columns(list(points)).matvec(vec(lam))
    return lam, pt, (0 if len(found) == 1 else 1)


def enumerate_L_intersections(h: GeneralPositionMap, n: int, a: int, b: int
                              ) -> list[CensusRow]:
    """All unordered pairs of u-arcs whose join simplex meets the block
    subspace.  The meeting loci here are generically segments; isolated
    points only arise after adding the extra hyperplane pieces."""
    L = make_L_alpha(n, a, b)
    rows = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            pts = [u_vector(i, n), u_vector(i + 1, n),
                   u_vector(j, n), u_vector(j + 1, n)]
            if i == j:
                if _simplex_meets(pts[:2], L) is not None:
                    raise GeneralPositionError(
                        f"degenerate cell ({i},{j}) meets the subspace")
                continue
            hit = _simplex_meets(pts, L)
            if hit is None:
                continue
            lam, pt, locus = hit
            rows.append(CensusRow((i, j), lam, pt, locus))
    return rows


def expected_families(n: int, a: int, b: int) -> set[tuple[int, int]]:
    fams = {(a, 2 * a + b)}
    fams.update((a, r) for r in range(2 * a + b + 1, n))
    fams.update((r, 2 * a + b) for r in range(1, a))
    fams.add((a, n))
    fams.add((2 * a + b, n))
    fams.update((r, n) for r in range(a + 1, 2 * a + b))
    return {(min(i, j), max(i, j)) for i, j in fams}


def v_point(n: int, a: int, b: int) -> Vec:
    out = zero_vec(n)
    for idx, c in ((a, Fraction(a, n)), (a + 1, Fraction(b, n)),
                   (2 * a + b, Fraction(a, n)), (2 * a + b + 1, Fraction(b, n))):
        out = tuple(x + c * y for x, y in zip(out, u_vector(idx, n)))
    return out


def w_point(n: int, a: int, b: int) -> Vec:
    out = zero_vec(n)
    for idx, c in ((a + b, Fraction(b, n)), (a + b + 1, Fraction(a, n)),
                   (n, Fraction(b, n)), (1, Fraction(a, n))):
        out = tuple(x + c * y for x, y in zip(out, u_vector(idx, n)))
    return out


def rho_cells(n: int, a: int, b: int) -> dict:
    return {
        "rho1": (a, 2 * a + b),
        "rho2": (a + b, n),          # arcs [u_{a+b}, u_{a+b+1}; u_n, u_1]
        "rho3": (a + b + 1, n),
    }


def intersect_with_Jpieces(h: GeneralPositionMap, l1: HalfOpenSubspace,
                           l2: HalfOpenSubspace, n: int, a: int, b: int
                           ) -> dict:
    """Hits of the image simplices on both seed pieces, with the excluded
    candidate recorded."""
    out = {"l1_hits": [], "l2_hits": [], "rho3_candidate": None}
    carrier1 = HalfOpenSubspace(l1.equalities, (), n, "carrier(L1*)")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pts = [u_vector(i, n), u_vector(i + 1, n),
                   u_vector(j, n), u_vector(j + 1, n)]
            c_hit = simplex_meet(pts, carrier1)
            if c_hit is not None and not l1.contains_point(c_hit[1]):
                out["rho3_candidate"] = ((i, j), c_hit[1])
            for key, piece in (("l1_hits", l1), ("l2_hits", l2)):
                hit = simplex_meet(pts, piece)
                if hit is not None:
                    rec = ((min(i, j), max(i, j)), hit[1])
                    if rec not in out[key]:
                        out[key].append(rec)
    return out


@dataclass
class PreimageCell:
    cell: tuple[int, int]
    hits: list             # (element node id, barycentric, ambient point)
    orbit_words: list      # words g with g . sigma = cell
    special: bool          # image simplex is one of the two distinguished ones


def preimage_simplices(h: GeneralPositionMap, poset: IntersectionPoset,
                       n: int, a: int, b: int) -> list[PreimageCell]:
    """Sphere cells whose image meets the arrangement, with orbit data
    relative to the distinguished cell sigma = (a+b, 1).

    Cells are marked special when their image simplex coincides with one of
    the two distinguished image simplices carrying the points v and w.
    """
    sphere = h.sphere
    group = poset.arrangement.group
    tops = poset.maximal_node_ids
    rho = rho_cells(n, a, b)
    special_sets = []
    for key in ("rho1", "rho2"):
        i, j = rho[key]
        special_sets.append(frozenset(
            (tuple(u_vector(i, n)), tuple(u_vector(i + 1, n)),
             tuple(u_vector(j, n)), tuple(u_vector(j + 1, n)))))
    # the distinct vertex images u, and E u for every element, computed once
    point_id: dict[Vec, int] = {}
    vertex_id = {v: point_id.setdefault(h.vertex_image(v), len(point_id))
                 for v in sphere.vertices()}
    points = list(point_id)
    images = {m: [poset.nodes[m].subspace.equalities.matvec(u) for u in points]
              for m in tops}
    cells: dict[tuple[int, int], PreimageCell] = {}
    for cell in sphere.top_cells():
        ids = [vertex_id[v] for v in sphere.cell_vertices(cell)]
        pts = [points[i] for i in ids]
        degenerate = len(set(ids)) < 4
        img_set = frozenset(pts)
        for m in tops:
            elem = poset.nodes[m].subspace
            if degenerate:
                uniq = sorted(set(ids))
                if _simplex_meets([points[i] for i in uniq], elem,
                                  [images[m][i] for i in uniq]) is not None:
                    raise GeneralPositionError(
                        f"degenerate cell {cell} meets element {m}")
                continue
            hit = simplex_meet(pts, elem, [images[m][i] for i in ids])
            if hit is None:
                continue
            lam, pt = hit
            if any(x == 0 for x in lam):
                raise GeneralPositionError(
                    f"boundary intersection in cell {cell}")
            rec = cells.setdefault(
                cell, PreimageCell(cell, [], [], img_set in special_sets))
            rec.hits.append((m, tuple(lam), pt))
    sigma = (a + b, 1)
    for rec in cells.values():
        rec.orbit_words = [g.word for g in group.elements
                           if sphere.act_cell(g, sigma) == rec.cell]
    return sorted(cells.values(), key=lambda r: r.cell)


def vstar_barycentric(n: int, a: int, b: int) -> dict:
    """Barycentric coordinates of the two special preimage points on the
    distinguished cell (a+b, 1) = [a_{a+b}, a_{a+b+1}; b_1, b_2]."""
    return {
        "v*": (Fraction(a, n), Fraction(b, n), Fraction(a, n), Fraction(b, n)),
        "w*": (Fraction(b, n), Fraction(a, n), Fraction(b, n), Fraction(a, n)),
    }


# ---------------------------------------------------------------------------
# broken point classes: decomposition by translation, and the pairing


@dataclass
class PointTerm:
    """An ordinary point class: a point strictly inside one element, with
    the transversal disc orientation frame."""
    element: int              # poset node id of the maximal element
    point: Vec
    disc: tuple[Vec, Vec, Vec]
    sign: int                 # intersection sign of the disc with the sheet
                              # (the tau/mu coefficient of the decomposition)


def generic_shift(n: int, k: int) -> Vec:
    """k-th deterministic generic direction in the zero-sum hyperplane."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107]
    t = Fraction(1, primes[k])
    raw = [t ** (i + 1) for i in range(n)]
    mean = sum(raw) / n
    return tuple(x - mean for x in raw)


def ambient_orientation_det(columns: Sequence[Vec], n: int) -> Fraction:
    """Determinant of the given columns together with the all-ones vector."""
    cols = list(columns) + [vec([1] * n)]
    return determinant(from_columns(cols))


def decompose_broken_class(poset: IntersectionPoset, zz: ZZBasis,
                           wall_node: int, point: Vec,
                           disc: tuple[Vec, Vec, Vec], shift: Vec
                           ) -> list[PointTerm]:
    """Split a broken point class on a wall into ordinary point classes by
    moving its disc by a generic shift and re-intersecting every sheet.

    Raises ValueError on a degenerate shift (caller retries with the next
    deterministic one).
    """
    n = poset.arrangement.ambient_dim
    wall = zz.wall_by_node[wall_node]
    dmat = from_columns(list(disc))
    terms = []
    for e in wall.elements:
        elem = poset.nodes[e].subspace
        A = elem.equalities.mul(dmat)
        rhs = tuple(-x for x in elem.equalities.matvec(
            tuple(p + s for p, s in zip(point, shift))))
        tvec = solve_affine(A, rhs)
        if tvec is None or kernel_basis(A):
            raise ValueError("shift is degenerate for a sheet")
        q = tuple(p + s + sum(disc[r][i] * tvec[r] for r in range(3))
                  for i, (p, s) in enumerate(zip(point, shift)))
        phi_val = dot(wall.functionals[e], q)
        if phi_val == 0:
            raise ValueError("shifted disc hit the wall")
        vals = [dot(qf, q) for qf in elem.inequalities]
        if any(x == 0 for x in vals):
            raise ValueError("shifted disc hit a boundary wall")
        if all(x > 0 for x in vals):
            s = sign(ambient_orientation_det(
                list(disc) + poset.nodes[e].subspace.carrier_basis(), n))
            if s == 0:
                raise ValueError("degenerate orientation determinant")
            terms.append(PointTerm(e, q, disc, s))
    return terms


def decompose_with_retries(poset: IntersectionPoset, zz: ZZBasis,
                           wall_node: int, point: Vec,
                           disc: tuple[Vec, Vec, Vec],
                           start: int = 0) -> tuple[list[PointTerm], int]:
    n = poset.arrangement.ambient_dim
    for k in range(start, 24):
        try:
            return decompose_broken_class(poset, zz, wall_node, point, disc,
                                          generic_shift(n, k)), k
        except ValueError:
            continue
    raise GeneralPositionError("no usable generic shift found")


def pair_point_class(poset: IntersectionPoset, zz: ZZBasis,
                     term: PointTerm) -> list[int]:
    """Pairing vector of the point class against the basis: the linking
    number with each basis cycle, i.e. the signed count of that cycle's
    sheets through the point."""
    n = poset.arrangement.ambient_dim
    out = [0] * zz.rank
    x = term.element
    # fundamental spheres cover the whole sheet
    if ("top", x) in zz.index:
        out[zz.top_index(x)] = sign(ambient_orientation_det(
            list(term.disc) + zz.top_basis[x], n))
    # wall cones cover one side of each wall inside the element
    for w in zz.walls:
        if x not in w.elements:
            continue
        side = sign(dot(w.functionals[x], term.point))
        if side == 0:
            raise GeneralPositionError("point lies on a wall")
        if side != w.rep_side[x]:
            continue   # the representative cones miss the point's side
        cone_or = sign(ambient_orientation_det(
            list(term.disc) + list(w.spine_basis) + [w.rays[(x, side)]], n))
        base = w.elements[0]
        for e in w.elements[1:]:
            idx = zz.wall_index(w.node, e)
            if e == x:
                out[idx] += cone_or
            if base == x:
                out[idx] -= cone_or
    return out


# ---------------------------------------------------------------------------
# the certificate and the full pipeline


@dataclass
class ObstructionCertificate:
    n: int
    a: int
    b: int
    poset_nodes: int = 0
    poset_max_elements: int = 0
    poset_levels: dict = field(default_factory=dict)
    homology_rank: int = 0
    homology_rank_expected: int = 0
    homology_torsion: list = field(default_factory=list)
    coinvariant_factors: list = field(default_factory=list)
    coinvariant_rank: int = 0
    class_basis_coords: list = field(default_factory=list)
    class_factor_coords: list = field(default_factory=list)
    class_order: Optional[int] = None
    class_nonzero: bool = False
    tau_signs: list = field(default_factory=list)
    mu_signs: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    verdict: str = "inconclusive"
    steps: list = field(default_factory=list)

    def all_checks_ok(self) -> bool:
        return all(self.checks.values())

    def failing_checks(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]

    def to_json_dict(self) -> dict:
        from . import __version__
        return {
            "version": __version__,
            "params": {"n": self.n, "a": self.a, "b": self.b},
            "poset": {
                "nodes": self.poset_nodes,
                "max_elements": self.poset_max_elements,
                "levels": {str(k): v for k, v in sorted(self.poset_levels.items())},
            },
            "homology": {
                "degree": 2,
                "rank": self.homology_rank,
                "torsion": list(self.homology_torsion),
            },
            "coinvariants": {
                # invariant-factor convention: 0 denotes a free summand
                "factors": list(self.coinvariant_factors)
                + [0] * self.coinvariant_rank,
            },
            "obstruction": {
                "basis_coords": [int(x) for x in self.class_basis_coords],
                "factor_coords": [int(x) for x in self.class_factor_coords],
                "order": self.class_order,
                "nonzero": self.class_nonzero,
            },
            "signs": {"tau": list(self.tau_signs), "mu": list(self.mu_signs)},
            "verdict": self.verdict,
        }


def wall_node_of_point(poset: IntersectionPoset, zz: ZZBasis,
                       point: Vec) -> Optional[int]:
    for w in zz.walls:
        sub = poset.nodes[w.node].subspace
        if all(x == 0 for x in sub.equalities.matvec(point)):
            return w.node
    return None


def simplex_direction_frame(points: Sequence[Vec]) -> tuple[Vec, Vec, Vec]:
    p0 = points[0]
    return (tuple(x - y for x, y in zip(points[1], p0)),
            tuple(x - y for x, y in zip(points[2], p0)),
            tuple(x - y for x, y in zip(points[3], p0)))


@dataclass
class CocycleTerm:
    word: tuple[int, int]      # group decoration of the broken class
    point: Vec                 # the broken point on its wall
    wall_node: int
    disc: tuple[Vec, Vec, Vec]


def assemble_cocycle(poset: IntersectionPoset, zz: ZZBasis,
                     h: GeneralPositionMap, n: int, a: int, b: int,
                     checks: dict) -> list[CocycleTerm]:
    """The cocycle value on the fundamental cell: one broken point class per
    special preimage point, decorated by the group elements that carry the
    canonical broken class of v to them."""
    group = poset.arrangement.group
    sphere = h.sphere
    sigma = (a + b, 1)
    pts = h.cell_images(sigma)
    disc = simplex_direction_frame(pts)
    v = v_point(n, a, b)
    w = w_point(n, a, b)
    eb = group.by_word(b)
    eaj = group.mul(group.by_word(a), group.by_word(0, 1))
    checks["h(v*) = eps^b . v"] = act(eb, v) == from_columns(
        list(pts)).matvec(vec(vstar_barycentric(n, a, b)["v*"]))
    checks["h(w*) = w"] = w == from_columns(list(pts)).matvec(
        vec(vstar_barycentric(n, a, b)["w*"]))
    checks["eps^a j . v = w"] = act(eaj, v) == w
    # the vertex permutation relating the two image simplices is even, so
    # the transported disc frame of v matches the one of w positively
    rho1 = [u_vector(a, n), u_vector(a + 1, n),
            u_vector(2 * a + b, n), u_vector(2 * a + b + 1, n)]
    moved = [act(eaj, p) for p in simplex_direction_frame(rho1)]
    span_mat = from_columns(list(simplex_direction_frame(pts)))
    coords = []
    ok = True
    for m in moved:
        c = solve_affine(span_mat, m)
        if c is None:
            ok = False
            break
        coords.append(c)
    if ok:
        checks["disc frames compatible (even permutation)"] = \
            sign(determinant(from_columns(coords))) == 1
    else:
        checks["disc frames compatible (even permutation)"] = False
    wall_v = wall_node_of_point(poset, zz, act(eb, v))
    wall_w = wall_node_of_point(poset, zz, w)
    checks["broken points lie on wall nodes"] = \
        wall_v is not None and wall_w is not None
    if wall_v is None or wall_w is None:
        return []
    return [CocycleTerm(eb.word, act(eb, v), wall_v, disc),
            CocycleTerm((0, 0), w, wall_w, disc)]


def check_membership_equivalences(poset: IntersectionPoset, zz: ZZBasis,
                                  wall_node: int, point: Vec,
                                  disc, shift: Vec, n, a, b,
                                  group: ActionGroup) -> Optional[bool]:
    """The half-subspace membership pattern of the four moved candidate
    points: exactly one of each opposite pair must be realized."""
    wall = zz.wall_by_node[wall_node]
    halves = [e for e in wall.elements
              if poset.nodes[e].subspace.inequalities]
    if len(halves) != 4:
        return None
    eab = group.by_word(a + b)
    pairs = []
    used = set()
    for e in halves:
        if e in used:
            continue
        partner = poset.act_node(eab, e)
        if partner in halves and partner != e:
            pairs.append((e, partner))
            used.update((e, partner))
    if len(pairs) != 2:
        return None
    dmat = from_columns(list(disc))
    realized = {}
    for e in halves:
        elem = poset.nodes[e].subspace
        A = elem.equalities.mul(dmat)
        rhs = tuple(-x for x in elem.equalities.matvec(
            tuple(p + s for p, s in zip(point, shift))))
        tvec = solve_affine(A, rhs)
        if tvec is None:
            return None
        q = tuple(p + s + sum(disc[r][i] * tvec[r] for r in range(3))
                  for i, (p, s) in enumerate(zip(point, shift)))
        vals = [dot(qf, q) for qf in elem.inequalities]
        if any(x == 0 for x in vals):
            return None
        realized[e] = all(x > 0 for x in vals)
    return all(realized[e] != realized[p] for e, p in pairs)


def proportionality_chain(poset: IntersectionPoset, zz: ZZBasis,
                          wall_node: int, point: Vec, disc, shift: Vec,
                          n: int, a: int, b: int,
                          group: ActionGroup) -> Optional[dict]:
    """Evaluations of the four half-space forms at the moved candidate
    points: the opposite pairs negate each other exactly, and the two pairs
    are proportional with weights (n+1) and (n-1)."""
    wall = zz.wall_by_node[wall_node]
    eab = group.by_word(a + b)
    eaj = group.mul(group.by_word(a), group.by_word(0, 1))
    e2abj = group.mul(group.by_word(2 * a + b), group.by_word(0, 1))
    targets = []
    kf = vec(k_form(n, a, b))
    for g in (group.identity(), eab, eaj, e2abj):
        targets.append(act(g, kf))   # pullback along g^-1: (g^-1)^T = g
    # order the four half elements as L1*, eps^{a+b}L1*, eps^a j L1*,
    # eps^{2a+b} j L1* by transporting the seed
    l1, _ = make_J_pieces(n, a, b)
    ordered = []
    for g in (group.identity(), eab, eaj, e2abj):
        img = transform(group, g, l1)
        for e in wall.elements:
            if poset.nodes[e].subspace.same_set(img):
                ordered.append(e)
                break
    if len(ordered) != 4:
        return None
    dmat = from_columns(list(disc))
    evals = []
    for e, form in zip(ordered, targets):
        elem = poset.nodes[e].subspace
        A = elem.equalities.mul(dmat)
        rhs = tuple(-x for x in elem.equalities.matvec(
            tuple(p + s for p, s in zip(point, shift))))
        tvec = solve_affine(A, rhs)
        if tvec is None:
            return None
        q = tuple(p + s + sum(disc[r][i] * tvec[r] for r in range(3))
                  for i, (p, s) in enumerate(zip(point, shift)))
        evals.append(dot(vec(form), q))
    c = a + b
    chain = [(n + 1) * evals[0], -(n + 1) * evals[1],
             (n - 1) * evals[2], -(n - 1) * evals[3]]
    stated = [(c + 1) * evals[0], -(c + 1) * evals[1],
              (c - 1) * evals[2], -(c - 1) * evals[3]]
    return {
        "pairs_negate": evals[0] == -evals[1] and evals[2] == -evals[3],
        "chain": all(x == chain[0] for x in chain[1:]),
        "stated_chain": all(x == stated[0] for x in stated[1:]),
        "evals": evals,
    }


def obstruction_class(n: int, a: int, b: int,
                      term_flips: Optional[Sequence[int]] = None,
                      global_flip: bool = False) -> ObstructionCertificate:
    """Run the full pipeline and certify the class of the obstruction
    cocycle in the coinvariants of the dual module."""
    if a < 1 or b < 1 or n != 2 * a + 2 * b:
        raise ValueError("need a >= 1, b >= 1 and n = 2a + 2b")
    cert = ObstructionCertificate(n=n, a=a, b=b)
    checks = cert.checks
    if n < 6:
        cert.verdict = ("special case n = 4: the seed pieces degenerate to "
                        "points; not certified by this pipeline")
        checks["n >= 6"] = False
        return cert
    checks["n >= 6"] = True
    group = quaternion_on_Wn(n)
    l1, l2 = make_J_pieces(n, a, b)
    cert.steps.append("Step 1: equivariant vertex map on the join sphere")
    h = define_h(n)
    checks["vertex map equivariant"] = check_equivariance(h, group)

    cert.steps.append("Step 2: census of image simplices meeting the "
                      "block subspace")
    try:
        rows = enumerate_L_intersections(h, n, a, b)
        fams = {r.arcs for r in rows}
        checks["census matches the six families"] = \
            fams == expected_families(n, a, b)
    except GeneralPositionError as e:
        checks["census matches the six families"] = False

    arr = orbit_closure(group, [l1, l2])
    poset = intersection_poset(arr)
    cert.poset_nodes = len(poset.nodes)
    cert.poset_max_elements = len(arr.maximal_elements)
    cert.poset_levels = poset.level_counts()
    checks["element count is 5(a+b)"] = \
        len(arr.maximal_elements) == 5 * (a + b)

    cert.steps.append("Step 3: preimage cells and the two special points")
    try:
        jhits = intersect_with_Jpieces(h, l1, l2, n, a, b)
        vw = {tuple(v_point(n, a, b)), tuple(w_point(n, a, b))}
        checks["both pieces meet the image in exactly {v, w}"] = (
            {tuple(p) for _, p in jhits["l1_hits"]} == vw
            and {tuple(p) for _, p in jhits["l2_hits"]} == vw)
        rho3 = rho_cells(n, a, b)["rho3"]
        checks["third candidate simplex contributes no hit"] = all(
            arcs != (min(rho3), max(rho3)) for arcs, _ in jhits["l1_hits"])
        pre = preimage_simplices(h, poset, n, a, b)
        special = [rec for rec in pre if rec.special]
        checks["sixteen preimage cells"] = len(special) == 16
        checks["preimage cells in one orbit"] = all(
            rec.orbit_words for rec in special)
        vw = {tuple(v_point(n, a, b)), tuple(w_point(n, a, b))}
        special_pts = {tuple(hit[2]) for rec in special for hit in rec.hits}
        checks["v and w appear on the special cells"] = vw <= special_pts
        orbit_pts = {tuple(act(g, vec(p))) for g in group.elements
                     for p in vw}
        checks["all hits in the orbit of {v, w}"] = all(
            tuple(hit[2]) in orbit_pts for rec in pre for hit in rec.hits)
        fe = set(h.sphere.fundamental_cells())
        fe_hits = [(rec.cell, hit) for rec in pre if rec.cell in fe
                   for hit in rec.hits]
        pts = {tuple(hit[2]) for _, hit in fe_hits}
        checks["fundamental cell carries two intersection points"] = \
            len(pts) == 2
    except GeneralPositionError as e:
        checks["general position"] = False
        cert.verdict = f"inconclusive: general position failed ({e})"
        return cert
    checks["general position"] = True

    cert.steps.append("Step 4: cocycle value as broken point classes")
    cert.steps.append("Step 5: top homology of the compactified union")
    try:
        zz = zz_basis(poset)
    except UnsupportedArrangement as e:
        checks["decomposition supported"] = False
        cert.verdict = f"inconclusive: {e}"
        return cert
    checks["decomposition supported"] = True
    cert.homology_rank = zz.rank
    cert.homology_rank_expected = 5 * (a + b)
    cert.homology_torsion = []
    checks["homology rank is 5(a+b)"] = zz.rank == 5 * (a + b)
    checks["no homology above the top degree"] = \
        verify_no_homology_above_top(poset)
    checks["deep nodes contribute nothing"] = verify_lemma16(poset, n)

    cert.steps.append("Step 6: twisted coinvariants")
    action = induced_action(group, zz)
    eps, j = group.generators
    checks["action is a representation"] = all(
        action.matrix(x).mul(action.matrix(y)) == action.matrix(group.mul(x, y))
        for x in (eps, j) for y in (eps, j, group.mul(eps, j)))
    cg = modified_coinvariants(action, group)
    cgen = modified_coinvariants(action, group, generators_only=True)
    dg = dual_coinvariants(action, group)
    checks["generator relations suffice"] = (
        cgen.invariant_factors == cg.invariant_factors
        and cgen.rank == cg.rank)
    checks["dual and primal quotients agree"] = (
        dg.invariant_factors == cg.invariant_factors and dg.rank == cg.rank)
    cert.coinvariant_factors = list(dg.invariant_factors)
    cert.coinvariant_rank = dg.rank

    cert.steps.append("Step 7: pairing of the cocycle against the basis")
    terms = assemble_cocycle(poset, zz, h, n, a, b, checks)
    if not terms:
        cert.verdict = "inconclusive: broken classes not located on walls"
        return cert
    F_total = [0] * zz.rank
    per_term_vectors = []
    shift_used = 0
    for t_i, term in enumerate(terms):
        pieces, shift_used = decompose_with_retries(
            poset, zz, term.wall_node, term.point, term.disc,
            start=shift_used)
        vecs = [pair_point_class(poset, zz, p) for p in pieces]
        per_term_vectors.append(vecs)
        flip = 1
        if term_flips is not None and t_i < len(term_flips):
            flip = term_flips[t_i]
        for pv in vecs:
            for i, x in enumerate(pv):
                F_total[i] += flip * x
    if global_flip:
        F_total = [-x for x in F_total]
    cert.class_basis_coords = F_total

    cert.steps.append("Step 8: class of the cocycle in the coinvariants")
    tors, free = dg.project(F_total)
    cert.class_factor_coords = list(tors) + list(free)
    order = dg.order_of(F_total)
    cert.class_order = order
    cert.class_nonzero = not dg.is_zero(F_total)
    checks["class is torsion"] = order is not None

    # the reduced representative: twice the broken class of v on its wall
    v = v_point(n, a, b)
    rho1 = [u_vector(a, n), u_vector(a + 1, n),
            u_vector(2 * a + b, n), u_vector(2 * a + b + 1, n)]
    disc_v = simplex_direction_frame(rho1)
    wall_v = wall_node_of_point(poset, zz, v)
    if wall_v is not None:
        pieces, k_used = decompose_with_retries(poset, zz, wall_v, v, disc_v)
        F_red = [0] * zz.rank
        for p in pieces:
            pv = pair_point_class(poset, zz, p)
            for i, x in enumerate(pv):
                F_red[i] += 2 * x
        checks["reduced and direct classes agree"] = \
            dg.project(F_red) == dg.project(F_total) or dg.is_zero(
                [x - y for x, y in zip(F_red, F_total)])
        cert.tau_signs = [p.sign for p in pieces]
        shifted = generic_shift(n, k_used)
        eq12 = check_membership_equivalences(
            poset, zz, wall_v, v, disc_v, shifted, n, a, b, group)
        checks["opposite-pair memberships split"] = bool(eq12) \
            if eq12 is not None else False
        chain = proportionality_chain(
            poset, zz, wall_v, v, disc_v, shifted, n, a, b, group)
        checks["opposite form evaluations negate"] = \
            chain is not None and chain["pairs_negate"]
        checks["form evaluations proportional (weights n-1, n+1)"] = \
            chain is not None and chain["chain"]
        neg = tuple(-x for x in shifted)
        try:
            pieces_m = decompose_broken_class(poset, zz, wall_v, v, disc_v, neg)
            cert.mu_signs = [p.sign for p in pieces_m]
            F_mu = [0] * zz.rank
            for p in pieces_m:
                pv = pair_point_class(poset, zz, p)
                for i, x in enumerate(pv):
                    F_mu[i] += 2 * x
            checks["both decompositions give the same class"] = \
                dg.project(F_mu) == dg.project(F_red)
        except ValueError:
            checks["both decompositions give the same class"] = False
    else:
        checks["reduced and direct classes agree"] = False

    if cert.class_nonzero and order is not None and cert.all_checks_ok():
        cert.verdict = (f"partition exists for ({a}/{n}, {a + b}/{n}, "
                        f"{b}/{n}): obstruction class nonzero of order "
                        f"{order}")
    elif not cert.class_nonzero:
        cert.verdict = ("inconclusive: obstruction class vanishes in the "
                        "coinvariants; existence not decided by this method")
    else:
        cert.verdict = ("inconclusive: failed checks: "
                        + "; ".join(cert.failing_checks()))
    return cert

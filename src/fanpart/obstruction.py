"""The equivariant sphere complex, the test map in general position, the
intersection censuses, broken point classes, the duality pairing and the
final obstruction certificate.

Every identity used by the construction (equivariance of the vertex map,
single-interior-point intersections, the two-point census, the sixteen
preimage cells, the membership equivalences of the wall decomposition, the
torsion property of the final class) is computed exactly and recorded; a
failed identity downgrades the verdict to inconclusive and names the check.
Where an image simplex meets an element, the dimension of the meeting locus
is decided exactly (`meeting_locus`): a miss that one form of the element
separates by its sign on the vertices with no elimination, anything else
by elimination and Fourier-Motzkin.
Steps 2-3 read one census core (`_census`): each distinct image simplex
is decided once against each seed piece (`arc_census`), and once against
the representative of each orbit of maximal elements (`orbit_census`).

The certificate is built in two stages.  `_prepare` runs Steps 1-6 (group,
pieces, vertex map, censuses, arrangement, poset, preimage cells, homology
basis with the deep-node checks, action and coinvariants) and the part of
Step 7 that reads no sign flip (`_flip_free_pairing`: the cocycle, the
pairing vector of each of its terms, the reduced representative and its
checks); all of it reads only (n, a, b) and is memoised for one (n, a, b),
the last one asked for.  `_class_of_cocycle`, the only stage that reads
the sign flips, weighs the pairing vectors by them and runs Step 8 on the
sum, so a flip of one case costs one weighted sum and one projection.
Steps 7-8 run on integer points: one routine moves a disc and crosses the
sheets (`_crossings`), and every sign is read off integer determinants.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .exactlin import (Vec, echelon, frame_det, from_columns, integer_dot,
                       integer_kernel, point_key, scaled_det, scaled_points,
                       sign, vec)
from .groups import (ActionGroup, GroupElement, act, distinct_actions,
                     quaternion_on_Wn)
from .arrangement import (HalfOpenSubspace, IntersectionPoset, _check_params,
                          _fm_feasible, _restrict, implicit_equalities,
                          intersection_poset, k_form, make_J_pieces,
                          make_L_alpha, orbit_closure)
from .homology import (UnsupportedArrangement, ZZBasis, verify_lemma16,
                       verify_no_homology_above_top, zz_basis)
from .coinvariants import CoinvariantGroup, twisted_coinvariants


class GeneralPositionError(Exception):
    """A simplex image meets the arrangement in more than isolated interior
    points; the test map is not usable as configured."""


# ---------------------------------------------------------------------------
# the join sphere and the vertex map


@dataclass
class SphereComplex:
    """Join of two cycles of length 2n; the free-action model of the sphere."""

    n: int

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
        starts = []
        for fam in ("a", "b"):
            arc = {i for f, i in imgs if f == fam}
            start = [i for i in arc if self._idx(i + 1) in arc]
            if len(arc) != 2 or len(start) != 1:
                return None
            starts.append(start[0])
        return tuple(starts)

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

    def scaled_vertex_image(self, v: tuple[str, int]) -> tuple[int, ...]:
        """n h(v) = n e_k - 1 for h(v) = u_k: a_i -> u_{(i-1 mod n)+1},
        b_i -> u_{(i-1) mod n}."""
        fam, i = v
        k = (i - 1 if fam == "a" else i - 2) % self.n
        return tuple(self.n * (c == k) - 1 for c in range(self.n))

    def vertex_image(self, v: tuple[str, int]) -> Vec:
        return tuple(Fraction(x, self.n) for x in self.scaled_vertex_image(v))

    def cell_arcs(self, cell: tuple[int, int]) -> tuple[int, int]:
        """Starts (p, q) of the two u-arcs the cell maps onto, in its vertex
        order: cell_images(cell) == arc_points(p, q, n)."""
        i, j = cell
        return (i - 1) % self.n + 1, (j - 2) % self.n + 1

    def cell_images(self, cell: tuple[int, int]) -> list[Vec]:
        return [self.vertex_image(v) for v in self.sphere.cell_vertices(cell)]


def build_sphere(n: int) -> SphereComplex:
    if n < 2:
        raise ValueError("n must be at least 2")
    return SphereComplex(n)


def define_h(n: int) -> GeneralPositionMap:
    return GeneralPositionMap(n, build_sphere(n))


def check_equivariance(h: GeneralPositionMap, group: ActionGroup) -> bool:
    """g h(v) = h(g v) for every vertex v and every element g, on the
    vertex images scaled to integers by n (`scaled_vertex_image`)."""
    image = {v: h.scaled_vertex_image(v) for v in h.sphere.vertices()}
    return all(act(g, p) == image[h.sphere.act_vertex(g, v)]
               for g in group.elements for v, p in image.items())


# ---------------------------------------------------------------------------
# exact simplex/element meetings


def arc_points(i: int, j: int, n: int) -> list[Vec]:
    """Vertices u_i, u_{i+1}, u_j, u_{j+1} of the image simplex of the two
    u-arcs starting at i and j."""
    return [u_vector(i, n), u_vector(i + 1, n),
            u_vector(j, n), u_vector(j + 1, n)]


def meeting_locus(points: Sequence[Vec], element: HalfOpenSubspace
                  ) -> Optional[tuple[int, Optional[Vec], Optional[Vec]]]:
    """Where conv(points) meets the element: None if nowhere, else
    (dim, lam, pt) with dim the exact dimension of the meeting locus and,
    when dim == 0, the barycentric coordinates lam and the ambient point pt
    of its one point.

    Every element is a cone through 0, so the points may be scaled by their
    common denominator D without changing lam or any sign.  The solutions
    (lam, s) of E P lam = 0, sum(lam) = s form the integer kernel K of one
    fraction-free elimination (`echelon`); lam / s is a point of the
    locus when s > 0, lam >= 0 and q.P lam >= 0 for the element's
    inequalities q.  On the kernel coordinates t these constraints cut out
    a cone, and Fourier-Motzkin decides whether it is empty and which
    constraints hold with equality on all of it; those implicit equalities
    fix its dimension, which is one more than the locus's.
    """
    for p in points:
        if len(p) != element.ambient_dim:
            raise ValueError(f"a point of length {len(p)} against an element "
                             f"of ambient dimension {element.ambient_dim}")
    den, P = scaled_points(points)
    return _scaled_locus(den, P, element, [[integer_dot(r, p) for r in
                                            element.rows] for p in P])


def _scaled_locus(den: int, P: Sequence[Sequence[int]],
                  element: HalfOpenSubspace,
                  images: Sequence[Sequence[int]]
                  ) -> Optional[tuple[int, Optional[Vec], Optional[Vec]]]:
    """meeting_locus of the points P / den, given as the integer points P,
    their positive denominator den and the products E p of the element's
    integer `rows` E with them.  A row r of E with r.p of one strict sign
    on every point, or an inequality q with q.p < 0 on every point,
    separates conv(P) from the element: a miss, with no elimination
    (`_eliminate`).  The signs are strict: r.p = 0 may be a hit."""
    walls = [[integer_dot(q, p) for p in P] for q in element.inequalities]
    if any(min(r) > 0 or max(r) < 0 for r in zip(*images)) or \
            any(max(w) < 0 for w in walls):
        return None
    return _eliminate(den, P, images, walls)


def _eliminate(den: int, P: Sequence[Sequence[int]],
               images: Sequence[Sequence[int]], walls: list
               ) -> Optional[tuple[int, Optional[Vec], Optional[Vec]]]:
    """`_scaled_locus` by elimination and Fourier-Motzkin alone, `walls`
    holding the products q.p of the element's inequalities q."""
    m = len(P)
    rows, pivots = echelon([list(r) + [0] for r in zip(*images)]
                           + [[1] * m + [-1]])
    if m in pivots:
        return None                       # s = 0 on every solution
    kern = integer_kernel(rows, m + 1)
    # lam_j >= 0 and q.P lam >= 0 on (lam, s) = K t; s > 0
    *forms, s_pos = zip(*kern)
    forms += _restrict(walls, [v[:m] for v in kern])
    k = len(kern)
    if k == 1:
        # one solution up to scale: K_m > 0, so it is a point or nothing
        if any(f[0] < 0 for f in forms):
            return None
        t = (1,)
    else:
        if not _fm_feasible(forms, [s_pos], k):
            return None
        eq_rows, _ = echelon(forms[j] for j in
                             implicit_equalities(forms, [s_pos], k))
        if len(eq_rows) < k - 1:
            return k - 1 - len(eq_rows), None, None
        (t,) = integer_kernel(eq_rows, k)
    x = [sum(c * v[j] for c, v in zip(t, kern)) for j in range(m + 1)]
    s = x[m]
    lam = tuple(Fraction(x[j], s) for j in range(m))
    pt = tuple(Fraction(sum(x[j] * P[j][c] for j in range(m)), s * den)
               for c in range(len(P[0])))
    return 0, lam, pt


# ---------------------------------------------------------------------------
# the censuses


@dataclass
class CensusRow:
    arcs: tuple[int, int]      # unordered (i, j), i <= j: the two u-arcs
    locus_dim: int             # dimension of the meeting locus


def arc_census(n: int, elements: Sequence[HalfOpenSubspace]
               ) -> dict[tuple[int, int], list]:
    """meeting_locus of each distinct image simplex with each element:
    (i, j) -> one result per element, for the u-arcs 1 <= i <= j <= n, with
    the points in the order of arc_points(i, j, n), duplicates included."""
    one = GroupElement((0, 0), tuple(range(n)))
    return _census(n, elements, [(k, one) for k in range(len(elements))])


def orbit_census(n: int, poset: IntersectionPoset
                 ) -> dict[tuple[int, int], list]:
    """arc_census of the poset's maximal elements, decided on their orbit
    representatives r (`poset.orbit`): element m is the column (r, g) of
    the first distinct action g with g . r = m, so each orbit of elements
    decides each of the n(n+1)/2 simplices once (see `_census`)."""
    actions, reps, columns = distinct_actions(poset.arrangement.group), [], {}
    for m in poset.maximal_node_ids:
        if poset.orbit[m] == m:
            reps.append(poset.nodes[m].subspace)
            for g in actions:
                columns.setdefault(poset.act_node(g, m), (len(reps) - 1, g))
    return _census(n, reps, [columns[m] for m in poset.maximal_node_ids])


def _census(n: int, reps: Sequence[HalfOpenSubspace], columns: list
            ) -> dict[tuple[int, int], list]:
    """The census of the columns (r, g), the elements g . reps[r]: conv(P)
    meets g . r in g of where conv(g^-1 P) meets r, and g^-1 moves the
    point ids by `g.source`.  A simplex is decided once per (r, sorted ids),
    lam read back in the column's order: a hit and its dimension do not
    depend on the order, and in a point hit a repeated point has weight 0
    in both copies (else weight could move between them, dimension >= 1).
    Points go in as n u_k = n e_k - 1 over n; E (n u_k) = n E e_k - E 1."""
    for e in reps:
        if e.ambient_dim != n:
            raise ValueError(f"an element of ambient dimension "
                             f"{e.ambient_dim} in a census of dimension {n}")
    nus = [[n * (c == k) - 1 for c in range(n)] for k in range(n)]
    products = {e.rows: [[n * r[k] - sum(r) for r in e.rows]
                         for k in range(n)] for e in reps}
    memo: dict = {}
    census = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            ids = _arc_ids(i, j, n)
            census[i, j] = row = []
            for r, g in columns:
                pulled = [g.source[k] for k in ids]
                key = tuple(sorted(pulled))
                if (r, key) not in memo:
                    memo[r, key] = _scaled_locus(
                        n, [nus[k] for k in key], reps[r],
                        [products[reps[r].rows][k] for k in key])
                hit = memo[r, key]
                if hit is not None and hit[0] == 0:
                    lam = tuple(hit[1][key.index(k)] for k in pulled)
                    hit = (0, lam, act(g, hit[2]))
                row.append(hit)
    return census


def _arc_ids(i: int, j: int, n: int) -> list[int]:
    """0-based indices k of the points u_{k+1} of arc_points(i, j, n)."""
    return [(i - 1) % n, i % n, (j - 1) % n, j % n]


def enumerate_L_intersections(h: GeneralPositionMap, n: int, a: int, b: int
                              ) -> list[CensusRow]:
    """All unordered pairs of u-arcs whose join simplex meets the block
    subspace.  The meeting loci here are generically segments; isolated
    points only arise after adding the extra hyperplane pieces."""
    rows = []
    for (i, j), (hit,) in arc_census(n, [make_L_alpha(n, a, b)]).items():
        if hit is None:
            continue
        if i == j:
            raise GeneralPositionError(
                f"degenerate cell ({i},{j}) meets the subspace")
        rows.append(CensusRow((i, j), hit[0]))
    return rows


def expected_families(n: int, a: int, b: int) -> set[tuple[int, int]]:
    fams = {(a, 2 * a + b), (a, n), (2 * a + b, n)}
    fams.update((a, r) for r in range(2 * a + b + 1, n))
    fams.update((r, 2 * a + b) for r in range(1, a))
    fams.update((r, n) for r in range(a + 1, 2 * a + b))
    return {(min(i, j), max(i, j)) for i, j in fams}


def _u_combination(n: int, terms) -> Vec:
    """The sum of (w/n) u_idx over the pairs (idx, w)."""
    us = [(Fraction(w, n), u_vector(idx, n)) for idx, w in terms]
    return tuple(sum(c * u[k] for c, u in us) for k in range(n))


def v_point(n: int, a: int, b: int) -> Vec:
    return _u_combination(n, ((a, a), (a + 1, b), (2 * a + b, a),
                              (2 * a + b + 1, b)))


def w_point(n: int, a: int, b: int) -> Vec:
    return _u_combination(n, ((a + b, b), (a + b + 1, a), (n, b), (1, a)))


def rho_cells(n: int, a: int, b: int) -> dict:
    return {
        "rho1": (a, 2 * a + b),
        "rho2": (a + b, n),          # arcs [u_{a+b}, u_{a+b+1}; u_n, u_1]
        "rho3": (a + b + 1, n),
    }


def intersect_with_Jpieces(h: GeneralPositionMap, l1: HalfOpenSubspace,
                           l2: HalfOpenSubspace, n: int, a: int, b: int
                           ) -> dict:
    """Hits of the image simplices on both seed pieces, and the excluded
    candidate: rho3's hit on the carrier of L1* if outside L1*, or None."""
    out = {"l1_hits": [], "l2_hits": [], "rho3_candidate": None}
    rho3 = rho_cells(n, a, b)["rho3"]
    elements = (HalfOpenSubspace(l1.rows, (), n, "carrier(L1*)"),
                l1, l2)
    for arcs, hits in arc_census(n, elements).items():
        if arcs[0] == arcs[1]:
            continue
        for elem, hit in zip(elements, hits):
            if hit is not None and hit[0] > 0:
                raise GeneralPositionError(
                    f"simplex meets {elem.label or 'an element'} in a "
                    f"{hit[0]}-dimensional locus")
        c_hit, hit1, hit2 = hits
        if arcs == rho3 and c_hit is not None \
                and not l1.contains_point(c_hit[2]):
            out["rho3_candidate"] = (arcs, c_hit[2])
        for key, hit in (("l1_hits", hit1), ("l2_hits", hit2)):
            if hit is not None:
                out[key].append((arcs, hit[2]))
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
    # distinct k give distinct u_k, so sets of points are sets of indices
    special_sets = [frozenset(_arc_ids(*rho[key], n))
                    for key in ("rho1", "rho2")]
    census = orbit_census(n, poset)
    cells: dict[tuple[int, int], PreimageCell] = {}
    for cell in sphere.top_cells():
        p, q = h.cell_arcs(cell)
        ids = frozenset(_arc_ids(p, q, n))
        for m, hit in zip(tops, census[min(p, q), max(p, q)]):
            if hit is None:
                continue
            if len(ids) < 4:
                raise GeneralPositionError(
                    f"degenerate cell {cell} meets element {m}")
            dim, lam, pt = hit
            if dim > 0:
                label = poset.nodes[m].subspace.label
                raise GeneralPositionError(
                    f"simplex meets {label or 'an element'} in a "
                    f"{dim}-dimensional locus")
            if p > q:
                # the census lists the arcs ascending; back to cell order
                lam = lam[2:] + lam[:2]
            if any(x == 0 for x in lam):
                raise GeneralPositionError(
                    f"boundary intersection in cell {cell}")
            rec = cells.setdefault(cell, PreimageCell(
                cell, [], [], ids in special_sets))
            rec.hits.append((m, lam, pt))
    sigma = (a + b, 1)
    sigma_images = [(g.word, sphere.act_cell(g, sigma)) for g in group.elements]
    for rec in cells.values():
        rec.orbit_words = [w for w, c in sigma_images if c == rec.cell]
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
    the transversal disc orientation frame.  Every element is a cone
    through 0, so the point and the frame vectors may be given up to
    positive factors; the pipeline gives them as integers."""
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


def ambient_orientation_det(columns: Sequence[Vec], n: int) -> int:
    """An int of the sign of the determinant of the given columns together
    with the all-ones vector (`scaled_det`: each column scaled to integers
    by a positive factor)."""
    return scaled_det(list(columns) + [(1,) * n])


def _moved_disc(point: Vec, disc: Sequence[Vec], shift: Vec
                ) -> tuple[list[int], list[tuple[int, ...]]]:
    """The disc moved from `point` by `shift`: its start point + shift and
    its frame, scaled to integers by a positive factor for the start and
    one common to all frame vectors.  A crossing point (`_moved_point`)
    scales with the start, and no sign read off the disc changes."""
    _, (start,) = scaled_points([[p + s for p, s in zip(point, shift)]])
    _, frame = scaled_points(disc)
    return start, list(map(tuple, frame))


def _moved_point(elem: HalfOpenSubspace, start: Sequence[int],
                 disc: Sequence[Sequence[int]]
                 ) -> Optional[tuple[tuple[int, ...], int]]:
    """Where the integer disc at the integer point `start` crosses the
    element's carrier, start + D t with E (start + D t) = 0, as the integer
    point m (start + D t) and its factor m > 0.  None unless t exists and
    is unique."""
    rows, pivots = echelon([integer_dot(r, d) for d in disc]
                           + [-integer_dot(r, start)] for r in elem.rows)
    if pivots != [0, 1, 2]:
        return None
    # row i of the echelon form is p_i t_i = r_i: m t_i is an integer
    m = lcm(*(r[c] for r, c in zip(rows, pivots)))
    mt = [r[3] * (m // r[c]) for r, c in zip(rows, pivots)]
    return tuple(m * x + sum(d[i] * y for d, y in zip(disc, mt))
                 for i, x in enumerate(start)), m


def _crossings(poset: IntersectionPoset, sheets: Sequence[int], point: Vec,
               disc: Sequence[Vec], shift: Vec
               ) -> tuple[list[tuple[int, ...]], list]:
    """The integer frame of the disc at `point` moved by `shift`, and
    where it crosses each sheet's carrier (`_moved_point`), in order."""
    start, frame = _moved_disc(point, disc, shift)
    return frame, [_moved_point(poset.nodes[e].subspace, start, frame)
                   for e in sheets]


def decompose_broken_class(poset: IntersectionPoset, zz: ZZBasis,
                           wall_node: int, point: Vec,
                           disc: tuple[Vec, Vec, Vec], shift: Vec
                           ) -> list[PointTerm]:
    """Split a broken point class on a wall into ordinary point classes by
    moving its disc by a generic shift and re-intersecting every sheet:
    one for each sheet whose half-space holds the crossing, carrying the
    integer moved point and disc frame.

    Raises ValueError on a degenerate shift (caller retries with the next
    deterministic one).
    """
    n = poset.arrangement.ambient_dim
    wall = zz.wall_by_node[wall_node]
    frame, crossings = _crossings(poset, wall.elements, point, disc, shift)
    terms = []
    for e, moved in zip(wall.elements, crossings):
        elem = poset.nodes[e].subspace
        if moved is None:
            raise ValueError("shift is degenerate for a sheet")
        q, _ = moved
        if integer_dot(wall.functionals[e], q) == 0:
            raise ValueError("shifted disc hit the wall")
        vals = [integer_dot(qf, q) for qf in elem.inequalities]
        if any(x == 0 for x in vals):
            raise ValueError("shifted disc hit a boundary wall")
        if all(x > 0 for x in vals):
            s = sign(ambient_orientation_det(frame + elem.carrier_basis(), n))
            if s == 0:
                raise ValueError("degenerate orientation determinant")
            terms.append(PointTerm(e, q, tuple(frame), s))
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
        side = sign(integer_dot(w.functionals[x], term.point))
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


def _paired_sum(poset: IntersectionPoset, zz: ZZBasis,
                pieces: Sequence[PointTerm], scale: int) -> list[int]:
    """scale times the sum of the pairing vectors of the point classes."""
    vecs = [pair_point_class(poset, zz, p) for p in pieces]
    return [scale * sum(c) for c in zip([0] * zz.rank, *vecs)]


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
    poset_lines: list = field(default_factory=list)   # listing, not in JSON
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
    return next((w.node for w in zz.walls
                 if poset.nodes[w.node].subspace.contains_point(point)), None)


def simplex_direction_frame(points: Sequence[Vec]) -> tuple[Vec, Vec, Vec]:
    p0 = points[0]
    return tuple(tuple(x - y for x, y in zip(p, p0)) for p in points[1:4])


def v_disc(n: int, a: int, b: int) -> tuple[Vec, Vec, Vec]:
    """Disc frame at v: the direction frame of its image simplex rho1."""
    return simplex_direction_frame(arc_points(*rho_cells(n, a, b)["rho1"], n))


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
    eaj = group.by_word(a, 1)
    checks["h(v*) = eps^b . v"] = act(eb, v) == from_columns(
        list(pts)).matvec(vec(vstar_barycentric(n, a, b)["v*"]))
    checks["h(w*) = w"] = w == from_columns(list(pts)).matvec(
        vec(vstar_barycentric(n, a, b)["w*"]))
    checks["eps^a j . v = w"] = act(eaj, v) == w
    # the vertex permutation relating the two image simplices is even, so
    # the transported disc frame of v matches the one of w positively
    try:
        compatible = frame_det([act(eaj, d) for d in v_disc(n, a, b)],
                               disc)[0] > 0
    except ValueError:
        compatible = False
    checks["disc frames compatible (even permutation)"] = compatible
    wall_v = wall_node_of_point(poset, zz, act(eb, v))
    wall_w = wall_node_of_point(poset, zz, w)
    checks["broken points lie on wall nodes"] = \
        wall_v is not None and wall_w is not None
    if wall_v is None or wall_w is None:
        return []
    return [CocycleTerm(eb.word, act(eb, v), wall_v, disc),
            CocycleTerm((0, 0), w, wall_w, disc)]


def check_membership_equivalences(poset: IntersectionPoset, zz: ZZBasis,
                                  wall_node: int,
                                  pieces: Sequence[PointTerm], a: int, b: int,
                                  group: ActionGroup) -> Optional[bool]:
    """Exactly one of each opposite pair (under eps^{a+b}) of the wall's
    four half sheets holds the moved disc's crossing, that is, a point
    class of its decomposition `pieces`; None unless there are two pairs."""
    wall = zz.wall_by_node[wall_node]
    halves = [e for e in wall.elements
              if poset.nodes[e].subspace.inequalities]
    if len(halves) != 4:
        return None
    eab = group.by_word(a + b)
    pairs, used = [], set()
    for e in halves:
        if e in used:
            continue
        partner = poset.act_node(eab, e)
        if partner in halves and partner != e:
            pairs.append((e, partner))
            used.update((e, partner))
    if len(pairs) != 2:
        return None
    realized = {p.element for p in pieces}
    return all((e in realized) != (p in realized) for e, p in pairs)


def proportionality_chain(poset: IntersectionPoset, zz: ZZBasis,
                          wall_node: int, point: Vec, disc, shift: Vec,
                          n: int, a: int, b: int,
                          group: ActionGroup) -> Optional[dict]:
    """Evaluations of the four half-space forms at the moved candidate
    points: the opposite pairs negate each other exactly, and the two pairs
    are proportional with weights (n+1) and (n-1).  The half sheets are
    g . L1* (`act_node`) for g in 1, eps^{a+b}, eps^a j, eps^{2a+b} j; None
    unless all four are on the wall and crossed in one point.  The exact
    evaluations are all four times one positive factor (`_moved_disc`)."""
    wall = zz.wall_by_node[wall_node]
    eab = group.by_word(a + b)
    eaj = group.by_word(a, 1)
    e2abj = group.by_word(2 * a + b, 1)
    movers = (group.identity(), eab, eaj, e2abj)
    kf = k_form(n, a, b)
    targets = [act(g, kf) for g in movers]  # pullback along g^-1: (g^-1)^T = g
    # the images of the one maximal node (if any) that is L1*
    seed = make_J_pieces(n, a, b)[0].key()
    ordered = [poset.act_node(g, s) for s in poset.maximal_node_ids
               if poset.nodes[s].subspace.key() == seed for g in movers]
    if not ordered or not set(ordered) <= set(wall.elements):
        return None
    _, crossings = _crossings(poset, ordered, point, disc, shift)
    if None in crossings:
        return None
    evals = [Fraction(integer_dot(form, q), m)
             for form, (q, m) in zip(targets, crossings)]

    def chain(c: int) -> bool:      # weights c + 1, c - 1
        x = [c + 1, -c - 1, c - 1, 1 - c]
        return len({w * e for w, e in zip(x, evals)}) == 1
    return {
        "pairs_negate": evals[0] == -evals[1] and evals[2] == -evals[3],
        "chain": chain(n), "stated_chain": chain(a + b), "evals": evals,
    }


class _Context(NamedTuple):
    """What the sign flips re-weigh: the coinvariants of Step 6, the
    pairing vector of each cocycle term at weight 1 (none when the cocycle
    is not formed), and the reduced representative (None when v is on no
    wall) with the checks it records, in order."""
    dg: CoinvariantGroup
    term_vectors: list[list[int]]
    reduced: Optional[list[int]]
    reduced_checks: dict


@lru_cache(maxsize=1)
def _prepare(n: int, a: int, b: int
             ) -> tuple[ObstructionCertificate, Optional[_Context]]:
    """Steps 1-6 and the part of Step 7 that reads no sign flip
    (`_flip_free_pairing`), all of which read only (n, a, b): the
    certificate fields and checks recorded so far, and the context of the
    weighted sum and Step 8, None when Steps 1-6 reach the verdict.
    Memoised for the last (n, a, b) only, so the sign flips of one case
    rebuild none of it (an exception caches nothing); callers copy the
    certificate and leave the context unchanged."""
    cert = ObstructionCertificate(n=n, a=a, b=b)
    checks = cert.checks
    if n < 6:
        cert.verdict = ("special case n = 4: the seed pieces degenerate to "
                        "points; not certified by this pipeline")
        checks["n >= 6"] = False
        return cert, None
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
    except GeneralPositionError:
        checks["census matches the six families"] = False

    arr = orbit_closure(group, [l1, l2])
    poset = intersection_poset(arr)
    cert.poset_nodes = len(poset.nodes)
    cert.poset_max_elements = len(arr.maximal_elements)
    cert.poset_levels = poset.level_counts()
    cert.poset_lines = poset.debug_lines()
    checks["element count is 5(a+b)"] = \
        len(arr.maximal_elements) == 5 * (a + b)

    cert.steps.append("Step 3: preimage cells and the two special points")
    try:
        jhits = intersect_with_Jpieces(h, l1, l2, n, a, b)
        vw = {point_key(v_point(n, a, b)), point_key(w_point(n, a, b))}
        checks["both pieces meet the image in exactly {v, w}"] = (
            {point_key(p) for _, p in jhits["l1_hits"]} == vw
            and {point_key(p) for _, p in jhits["l2_hits"]} == vw)
        rho3 = rho_cells(n, a, b)["rho3"]
        checks["third candidate simplex contributes no hit"] = all(
            arcs != (min(rho3), max(rho3)) for arcs, _ in jhits["l1_hits"])
        pre = preimage_simplices(h, poset, n, a, b)
        special = [rec for rec in pre if rec.special]
        checks["sixteen preimage cells"] = len(special) == 16
        checks["preimage cells in one orbit"] = all(
            rec.orbit_words for rec in special)
        hits = [(rec, point_key(hit[2])) for rec in pre for hit in rec.hits]
        checks["v and w appear on the special cells"] = vw <= {
            key for rec, key in hits if rec.special}
        orbit = {(den, act(g, p)) for g in group.elements for den, p in vw}
        checks["all hits in the orbit of {v, w}"] = all(
            key in orbit for _, key in hits)
        fe = set(h.sphere.fundamental_cells())
        checks["fundamental cell carries two intersection points"] = len(
            {key for rec, key in hits if rec.cell in fe}) == 2
    except GeneralPositionError as e:
        checks["general position"] = False
        cert.verdict = f"inconclusive: general position failed ({e})"
        return cert, None
    checks["general position"] = True

    cert.steps.append("Step 4: cocycle value as broken point classes")
    cert.steps.append("Step 5: top homology of the compactified union")
    try:
        zz = zz_basis(poset)
    except UnsupportedArrangement as e:
        checks["decomposition supported"] = False
        cert.verdict = f"inconclusive: {e}"
        return cert, None
    checks["decomposition supported"] = True
    cert.homology_rank = zz.rank
    cert.homology_rank_expected = 5 * (a + b)
    cert.homology_torsion = []
    checks["homology rank is 5(a+b)"] = zz.rank == 5 * (a + b)
    checks["no homology above the top degree"] = \
        verify_no_homology_above_top(poset)
    checks["deep nodes contribute nothing"] = verify_lemma16(poset, n)

    cert.steps.append("Step 6: twisted coinvariants")
    _, dg, laws = twisted_coinvariants(group, zz)
    checks.update(laws)
    cert.coinvariant_factors = list(dg.invariant_factors)
    cert.coinvariant_rank = dg.rank

    return cert, _flip_free_pairing(cert, group, h, poset, zz, dg)


def _flip_free_pairing(cert: ObstructionCertificate, group: ActionGroup,
                       h: GeneralPositionMap, poset: IntersectionPoset,
                       zz: ZZBasis, dg: CoinvariantGroup) -> _Context:
    """Step 7 up to the sign flips, recorded on `cert`: the cocycle, the
    decomposition and pairing vector of each of its terms, and the reduced
    representative with its checks.  A flip only re-weighs the pairing
    vectors, since the pairing is linear.  No terms when the broken
    classes are not located on walls."""
    n, a, b = cert.n, cert.a, cert.b
    cert.steps.append("Step 7: pairing of the cocycle against the basis")
    terms = assemble_cocycle(poset, zz, h, n, a, b, cert.checks)
    if not terms:
        return _Context(dg, [], None, {})
    vectors = []
    shift_used = 0
    for term in terms:
        pieces, shift_used = decompose_with_retries(
            poset, zz, term.wall_node, term.point, term.disc,
            start=shift_used)
        vectors.append(_paired_sum(poset, zz, pieces, 1))

    # the reduced representative: twice the broken class of v on its wall
    v = v_point(n, a, b)
    disc_v = v_disc(n, a, b)
    wall_v = wall_node_of_point(poset, zz, v)
    if wall_v is None:
        return _Context(dg, vectors, None, {})
    checks = {}
    pieces, k_used = decompose_with_retries(poset, zz, wall_v, v, disc_v)
    F_red = _paired_sum(poset, zz, pieces, 2)
    cert.tau_signs = [p.sign for p in pieces]
    shifted = generic_shift(n, k_used)
    checks["opposite-pair memberships split"] = bool(
        check_membership_equivalences(poset, zz, wall_v, pieces, a, b, group))
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
        F_mu = _paired_sum(poset, zz, pieces_m, 2)
        checks["both decompositions give the same class"] = \
            dg.project(F_mu) == dg.project(F_red)
    except ValueError:
        checks["both decompositions give the same class"] = False
    return _Context(dg, vectors, F_red, checks)


def _class_of_cocycle(cert: ObstructionCertificate, ctx: _Context,
                      term_flips: Optional[Sequence[int]],
                      global_flip: bool) -> None:
    """The flip-weighted sum of the pairing vectors and Step 8 on the
    context of `_prepare`, recorded on `cert`: the only stage that reads
    the sign flips."""
    if not ctx.term_vectors:
        cert.verdict = "inconclusive: broken classes not located on walls"
        return
    n, a, b = cert.n, cert.a, cert.b
    dg = ctx.dg
    checks = cert.checks
    # a missing term flip is +1; zip stops at the last term
    flips = [-f if global_flip else f for f in [*(term_flips or ()), 1, 1]]
    F_total = [sum(f * x for f, x in zip(flips, col))
               for col in zip(*ctx.term_vectors)]
    cert.class_basis_coords = F_total

    cert.steps.append("Step 8: class of the cocycle in the coinvariants")
    tors, free = dg.project(F_total)
    cert.class_factor_coords = list(tors) + list(free)
    order = dg.order_of(F_total)
    cert.class_order = order
    cert.class_nonzero = not dg.is_zero(F_total)
    checks["class is torsion"] = order is not None
    F_red = ctx.reduced
    checks["reduced and direct classes agree"] = F_red is not None and \
        dg.project(F_red) == (tors, free)
    checks.update(ctx.reduced_checks)

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


def obstruction_class(n: int, a: int, b: int,
                      term_flips: Optional[Sequence[int]] = None,
                      global_flip: bool = False) -> ObstructionCertificate:
    """Run the full pipeline and certify the class of the obstruction
    cocycle in the coinvariants of the dual module.

    Steps 1-6 and the flip-free part of Step 7 (`_prepare`) depend on
    (n, a, b) alone and are kept for the last case; a call only weighs the
    pairing vectors of the cocycle terms by `term_flips` and `global_flip`
    and runs Step 8 on their sum (`_class_of_cocycle`).  Each call returns
    a certificate of its own.  `term_flips` is a list or tuple of one sign,
    +1 or -1, for each of the two cocycle terms in order (a missing one is
    +1), as an int, and `global_flip` is a bool; anything else, or an n, a
    or b that is not an int, is refused with a ValueError before any step
    runs."""
    _check_params(n, a, b)
    # a set or a dict gives the two terms no order, an iterator no length
    if term_flips is not None and (
            not isinstance(term_flips, (list, tuple)) or len(term_flips) > 2
            or any(type(f) is not int or f not in (1, -1)
                   for f in term_flips)):
        raise ValueError("term_flips takes an int sign +1 or -1 for each of "
                         f"the two cocycle terms, got {term_flips!r}")
    if type(global_flip) is not bool:
        raise ValueError(f"global_flip is a bool, got {global_flip!r}")
    prepared, ctx = _prepare(n, a, b)
    cert = deepcopy(prepared)
    if ctx is not None:
        _class_of_cocycle(cert, ctx, term_flips, global_flip)
    return cert

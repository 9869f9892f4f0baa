from fractions import Fraction

import pytest

from fanpart.arrangement import (Arrangement, HalfOpenSubspace,
                                 intersection_poset, make_J_pieces,
                                 make_subspace, transform)
from fanpart.coinvariants import dual_coinvariants
from fanpart.exactlin import (Matrix, dot, from_columns, integer_dot,
                              kernel_basis, scaled_points, sign, vec)
from fanpart.groups import act, cyclic_shift_group, quaternion_on_Wn
from fanpart.obstruction import (CocycleTerm, GeneralPositionError,
                                 GeneralPositionMap,
                                 ObstructionCertificate, ambient_orientation_det,
                                 arc_points, assemble_cocycle, build_sphere,
                                 check_equivariance, decompose_broken_class,
                                 decompose_with_retries, define_h,
                                 disc_frames_compatible,
                                 enumerate_L_intersections, expected_families,
                                 generic_shift, intersect_with_Jpieces,
                                 obstruction_class, pair_point_class,
                                 preimage_simplices, proportionality_chain,
                                 meeting_locus, rho_cells, _prepare,
                                 simplex_direction_frame, u_vector, v_disc,
                                 v_point, vstar_barycentric, w_point,
                                 wall_node_of_point, PointTerm)
from orientation_signs import frame_det


# --- the sphere complex and the vertex map ----------------------------------


def test_sphere_chain_ranks():
    s = build_sphere(4)
    assert len(s.top_cells()) == 64
    assert len(s.vertices()) == 16


def test_sphere_action_formulas():
    n = 4
    s = build_sphere(n)
    g = quaternion_on_Wn(n)
    j = g.by_word(0, 1)
    eps = g.by_word(1)
    assert s.act_vertex(j, ("a", 1)) == ("b", 1)
    for i in range(1, 2 * n + 1):
        expect = ("b", (2 * n - i + 1) % (2 * n) + 1)
        assert s.act_vertex(j, ("a", i)) == expect
    assert s.act_vertex(eps, ("a", 2 * n)) == ("a", 1)
    # j . [a1, a2; b1, b2] = [b1, b_2n; a_{n+1}, a_n]
    imgs = [s.act_vertex(j, v) for v in s.cell_vertices((1, 1))]
    assert imgs == [("b", 1), ("b", 2 * n), ("a", n + 1), ("a", n)]


def test_vertex_map_values():
    n = 6
    h = define_h(n)
    assert h.vertex_image(("a", 1)) == u_vector(1, n)     # h(t) = u_1
    assert h.vertex_image(("b", 1)) == u_vector(n, n)     # h(jt) = u_n
    for i in range(0, 2 * n):
        assert h.vertex_image(("b", i + 1)) == u_vector(i % n, n)
        assert h.vertex_image(("a", i + 1)) == u_vector(i % n + 1, n)


@pytest.mark.parametrize("n", [4, 6])
def test_vertex_map_equivariance(n):
    assert check_equivariance(define_h(n), quaternion_on_Wn(n))


def test_vertex_map_equivariance_fails_on_one_moved_vertex():
    # b_1 sent to u_1 instead of u_n: eps^k b_1 = b_{1+k} goes to u_k, not
    # to eps^k u_1 = u_{1+k}
    class Moved(GeneralPositionMap):
        def scaled_vertex_image(self, v):
            return super().scaled_vertex_image(("a", 1) if v == ("b", 1)
                                               else v)
    n = 6
    assert not check_equivariance(Moved(n, build_sphere(n)),
                                  quaternion_on_Wn(n))


# --- censuses ----------------------------------------------------------------


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 1, 3), (8, 3, 1)])
def test_block_subspace_census(n, a, b):
    rows = enumerate_L_intersections(define_h(n), n, a, b)
    assert {r.arcs for r in rows} == expected_families(n, a, b)


def test_census_empty_range_for_a1():
    # the family (r, 2a+b) for r in [1, a-1] is empty when a = 1
    n, a, b = 6, 1, 2
    fams = expected_families(n, a, b)
    assert not any(f[1] == 2 * a + b and f[0] < a for f in fams)


def test_jpieces_hits_are_v_and_w(main_data):
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    h = define_h(n)
    out = intersect_with_Jpieces(h, data["l1"], data["l2"], n, a, b)
    vw = {tuple(v_point(n, a, b)), tuple(w_point(n, a, b))}
    assert {tuple(p) for _, p in out["l1_hits"]} == vw
    assert {tuple(p) for _, p in out["l2_hits"]} == vw


@pytest.mark.parametrize("a,b,arcs", [(3, 1, (5, 8)), (1, 2, None)])
def test_rho3_candidate_is_the_hit_of_rho3(a, b, arcs):
    # at (3, 1) three simplices meet the carrier of L1* outside L1*, rho3
    # on the arcs (5, 8) among them; at (1, 2) rho3 misses the carrier
    n = 2 * (a + b)
    l1, l2 = make_J_pieces(n, a, b)
    out = intersect_with_Jpieces(define_h(n), l1, l2, n, a, b)
    if arcs is None:
        assert out["rho3_candidate"] is None
        return
    got, point = out["rho3_candidate"]
    assert got == arcs == rho_cells(n, a, b)["rho3"]
    assert HalfOpenSubspace(l1.rows, (), n).contains_point(point)
    assert not l1.contains_point(point)


def test_v_point_formula():
    n, a, b = 6, 1, 2
    v = v_point(n, a, b)
    expect = [Fraction(0)] * n
    for idx, c in ((a, Fraction(a, n)), (a + 1, Fraction(b, n)),
                   (2 * a + b, Fraction(a, n)), (2 * a + b + 1, Fraction(b, n))):
        for k in range(n):
            expect[k] += c * u_vector(idx, n)[k]
    assert list(v) == expect
    # v lies on both seed pieces
    l1, l2 = make_J_pieces(n, a, b)
    assert l1.contains_point(v)
    assert l2.contains_point(v)


def test_w_is_image_of_v():
    n, a, b = 8, 1, 3
    g = quaternion_on_Wn(n)
    eaj = g.mul(g.by_word(a), g.by_word(0, 1))
    assert act(eaj, v_point(n, a, b)) == w_point(n, a, b)


def test_third_candidate_misses_carrier():
    # the candidate simplex from the stated exclusion argument misses the
    # carrier entirely here; either way it contributes no intersection
    n, a, b = 6, 1, 2
    l1, _ = make_J_pieces(n, a, b)
    from fanpart.arrangement import HalfOpenSubspace
    carrier = HalfOpenSubspace(l1.rows, (), n, "carrier")
    i, j = rho_cells(n, a, b)["rho3"]
    pts = [u_vector(i, n), u_vector(i + 1, n), u_vector(j, n),
           u_vector(j + 1, n)]
    assert meeting_locus(pts, carrier) is None


def test_sixteen_special_cells(main_data):
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    pre = preimage_simplices(define_h(n), data["poset"], n, a, b)
    special = [rec for rec in pre if rec.special]
    assert len(special) == 16
    assert all(rec.orbit_words for rec in special)
    # sigma itself is among them: theta_1 = sigma directly
    sigma = (a + b, 1)
    assert any(rec.cell == sigma and (0, 0) in rec.orbit_words
               for rec in special)


def test_vstar_and_wstar(main_data):
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    h = define_h(n)
    g = data["group"]
    sigma = (a + b, 1)
    pts = h.cell_images(sigma)
    bary = vstar_barycentric(n, a, b)
    hv = from_columns(list(pts)).matvec(vec(bary["v*"]))
    hw = from_columns(list(pts)).matvec(vec(bary["w*"]))
    assert hv == act(g.by_word(b), v_point(n, a, b))
    assert hw == w_point(n, a, b)
    # the fundamental cell hits exactly these two image points
    pre = preimage_simplices(h, data["poset"], n, a, b)
    fe = set(h.sphere.fundamental_cells())
    pts_on_e = {tuple(hit[2]) for rec in pre if rec.cell in fe
                for hit in rec.hits}
    assert pts_on_e == {tuple(hv), tuple(hw)}


def test_census_decides_each_image_simplex_once(main_data, monkeypatch):
    # the preimage census decides each of the n(n+1)/2 distinct image
    # simplices once per orbit of maximal elements, on its representative;
    # the seed pieces are not invariant under the group and are decided
    # once per simplex on L2* and on the carrier of L1*, whose hits give
    # those of L1* with no census of their own.  The census hands its
    # points over already scaled, so its decisions are counted on the
    # routine under meeting_locus
    import fanpart.obstruction as ob
    calls = []
    locus = ob._scaled_locus

    def counting(*args, **kwargs):
        calls.append(args)
        return locus(*args, **kwargs)
    monkeypatch.setattr(ob, "_scaled_locus", counting)
    for n, a, b, decided in ((6, 1, 2, 42), (8, 2, 2, 72), (8, 1, 3, 72)):
        data = main_data(n, a, b)
        poset = data["poset"]
        tops = poset.maximal_node_ids
        h = define_h(n)
        calls.clear()
        preimage_simplices(h, poset, n, a, b)
        orbits = len({poset.orbit[m] for m in tops})
        assert len(calls) == orbits * n * (n + 1) // 2 == decided
        assert decided < n * (n + 1) // 2 * len(tops)
        calls.clear()
        intersect_with_Jpieces(h, data["l1"], data["l2"], n, a, b)
        assert len(calls) == 2 * n * (n + 1) // 2


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3),
                                   pytest.param(10, 2, 3,
                                                marks=pytest.mark.slow)])
def test_orbit_census_equals_arc_census(main_data, n, a, b):
    # one element per orbit, the simplex pulled back and the point moved,
    # gives the direct census of every element: lam, pt and misses alike
    from fanpart.obstruction import arc_census, orbit_census
    poset = main_data(n, a, b)["poset"]
    direct = arc_census(n, [poset.nodes[m].subspace
                            for m in poset.maximal_node_ids])
    assert orbit_census(n, poset) == direct
    assert any(hit is not None for hits in direct.values() for hit in hits)


def test_census_column_reads_lam_in_its_own_point_order():
    # the ray through u_1 moved by eps j, which fixes u_1 and reverses the
    # other points: the column (0, eps j) decides each simplex on its
    # pulled-back ids in sorted order and must give back meeting_locus on
    # the simplex's own points.  (1, 2) has the points u_1, u_2, u_2, u_3
    # and meets in lam = (1, 0, 0, 0); (1, 1) meets in a segment of lam;
    # (i, n) has u_1 last, but first among the sorted pulled-back ids
    from fanpart.obstruction import _census
    n = 6
    group = quaternion_on_Wn(n)
    g = group.by_word(1, 1)
    # sum x = 0, x_2 = x_3 = ... = x_n and x_1 >= x_2
    ray = make_subspace([(1,) * n] + [tuple((c == 1) - (c == k)
                                            for c in range(n))
                                      for k in range(2, n)],
                        [(1, -1) + (0,) * (n - 2)], n)
    moved = transform(group, g, ray)
    census = _census(n, [ray], [(0, g)])
    assert len(census) == n * (n + 1) // 2
    for (i, j), (hit,) in census.items():
        assert hit == meeting_locus(arc_points(i, j, n), moved)
    assert census[1, 2][0][:2] == (0, (1, 0, 0, 0))
    assert census[1, 1][0] == (1, None, None)
    assert census[2, n][0][:2] == (0, (0, 0, 0, 1))


@pytest.mark.parametrize("n,a,b,decided,eliminated", [
    (6, 1, 2, 105, 16), (8, 1, 3, 180, 19),
    pytest.param(10, 2, 3, 275, 25, marks=pytest.mark.slow)])
def test_separated_pairs_miss_on_the_elimination_route(n, a, b, decided,
                                                       eliminated,
                                                       monkeypatch):
    # every (simplex, element) that the censuses of Steps 2-3 decide: a
    # pair settled by a separating row, with no elimination, is a miss on
    # the elimination route too; only the other pairs are eliminated
    import fanpart.obstruction as ob
    calls, reached = [], []
    locus, eliminate = ob._scaled_locus, ob._eliminate

    def recording(*args):
        calls.append(args)
        return locus(*args)

    def counting(*args):
        reached.append(args)
        return eliminate(*args)
    monkeypatch.setattr(ob, "_scaled_locus", recording)
    monkeypatch.setattr(ob, "_eliminate", counting)
    obstruction_class(n, a, b)
    monkeypatch.undo()
    assert (len(calls), len(reached)) == (decided, eliminated)
    for den, P, element, images in calls:
        walls = [[integer_dot(q, p) for p in P] for q in element.inequalities]
        assert locus(den, P, element, images) == \
            eliminate(den, P, images, walls)


@pytest.mark.parametrize("rows,ineqs,points", [
    ([(1, 0, 0)], [], [(0, 1, 0), (1, 0, 0), (1, 1, 1)]),
    ([(1, 0, 0)], [], [(0, 1, 0), (-1, 0, 0), (-1, 1, 1)]),
    ([], [(-1, 0, 0)], [(0, 1, 0), (1, 0, 0), (1, 1, 1)])],
    ids=["above", "below", "wall"])
def test_vertex_on_the_hyperplane_is_a_hit(rows, ineqs, points):
    # the other vertices lie strictly on one side of the element's
    # hyperplane or strictly outside its wall, so the one vertex on it is
    # the whole meeting locus: a row or wall of one sign that is zero on a
    # vertex separates nothing
    element = make_subspace(rows, ineqs, 3)
    pts = [tuple(map(Fraction, p)) for p in points]
    assert meeting_locus(pts, element) == (0, (1, 0, 0), pts[0])


def test_census_refuses_an_element_of_another_dimension():
    l1, _ = make_J_pieces(8, 1, 3)
    from fanpart.obstruction import arc_census
    with pytest.raises(ValueError, match="dimension 8 in a census of "
                                         "dimension 6"):
        arc_census(6, [l1])


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3)])
def test_preimage_hits_are_barycentric_in_cell_order(main_data, n, a, b):
    # every hit: interior barycentric coordinates of the cell's own vertex
    # order that map to the recorded point (a wrong swap of the two arcs on
    # descending cells breaks the last law)
    h = define_h(n)
    pre = preimage_simplices(h, main_data(n, a, b)["poset"], n, a, b)
    assert pre
    for rec in pre:
        cols = from_columns(h.cell_images(rec.cell))
        for _, lam, pt in rec.hits:
            assert all(x > 0 for x in lam)
            assert sum(lam) == 1
            assert cols.matvec(vec(lam)) == pt


def test_preimage_hits_on_descending_arcs_in_cell_order():
    # the hits of the real cases have lam = (a, b, a, b)/n or (b, a, b, a)/n,
    # which the swap of the two arcs leaves fixed; one plane through the
    # point (1, 2, 3, 4)/10 of the arcs (1, 3) tells the two orders apart
    n = 6
    h = define_h(n)
    lam = tuple(Fraction(k, 10) for k in (1, 2, 3, 4))
    x = from_columns(arc_points(1, 3, n)).matvec(lam)
    y = vec([1, -3, 5, 2, -7, 2])
    plane = make_subspace(kernel_basis(Matrix([list(x), list(y)])), [], n)
    # the plane is not invariant under the quaternion group: its poset
    # under the trivial group
    trivial = cyclic_shift_group(1, n, tuple(range(1, n + 1)))
    poset = intersection_poset(Arrangement([plane], trivial, n,
                                           {trivial.identity().perm: (0,)}))
    pre = {rec.cell: rec for rec in preimage_simplices(h, poset, n, 1, 2)}
    assert h.cell_arcs((1, 4)) == (1, 3) and h.cell_arcs((3, 2)) == (3, 1)
    assert [hit[1] for hit in pre[1, 4].hits] == [lam]
    assert [hit[1] for hit in pre[3, 2].hits] == [lam[2:] + lam[:2]]
    for rec in pre.values():
        cols = from_columns(h.cell_images(rec.cell))
        assert all(cols.matvec(vec(hit[1])) == hit[2] for hit in rec.hits)


@pytest.mark.parametrize("n", [6, 8])
def test_cell_arcs_match_vertex_map(n):
    h = define_h(n)
    for cell in h.sphere.top_cells():
        p, q = h.cell_arcs(cell)
        assert 1 <= p <= n and 1 <= q <= n
        assert arc_points(p, q, n) == h.cell_images(cell)


# --- decomposition of broken classes ----------------------------------------


def _decomposition_setup(main_data, n, a, b):
    data = main_data(n, a, b)
    v = v_point(n, a, b)
    rho1 = [u_vector(a, n), u_vector(a + 1, n), u_vector(2 * a + b, n),
            u_vector(2 * a + b + 1, n)]
    disc = simplex_direction_frame(rho1)
    wall = wall_node_of_point(data["poset"], data["zz"], v)
    assert wall is not None
    return data, v, disc, wall


def test_decomposition_selects_three_sheets(main_data):
    n, a, b = 6, 1, 2
    data, v, disc, wall = _decomposition_setup(main_data, n, a, b)
    pieces, k = decompose_with_retries(data["poset"], data["zz"], wall, v,
                                       disc)
    # one of each opposite half pair plus the full linear sheet
    assert len(pieces) == 3
    full = [p for p in pieces
            if not data["poset"].nodes[p.element].subspace.inequalities]
    assert len(full) == 1


def test_zero_shift_rejected(main_data):
    n, a, b = 6, 1, 2
    data, v, disc, wall = _decomposition_setup(main_data, n, a, b)
    with pytest.raises(ValueError):
        decompose_broken_class(data["poset"], data["zz"], wall, v, disc,
                               vec([0] * n))


def test_membership_split_and_chain_twenty_shifts(main_data):
    n, a, b = 6, 1, 2
    data, v, disc, wall = _decomposition_setup(main_data, n, a, b)
    from fanpart.obstruction import check_membership_equivalences
    group = data["group"]
    done = 0
    k = 0
    while done < 20 and k < 28:
        shift = generic_shift(n, k)
        k += 1
        try:
            pieces = decompose_broken_class(data["poset"], data["zz"], wall,
                                            v, disc, shift)
        except ValueError:
            continue
        eq = check_membership_equivalences(
            data["poset"], data["zz"], wall, pieces, a, b, group)
        if eq is None:
            continue
        assert eq
        chain = proportionality_chain(
            data["poset"], data["zz"], wall, v, disc, shift, n, a, b, group)
        assert chain is not None
        assert chain["pairs_negate"]
        assert chain["chain"]          # weights n-1 and n+1
        assert not chain["stated_chain"]   # the a+b±1 weights do not hold
        done += 1
    assert done >= 20


def test_chain_at_a_equals_b_lies_on_the_second_wall(main_data):
    # at a = b, v lies on two walls and the certificate reads the first;
    # L1* and its images eps^{a+b}, eps^a j, eps^{2a+b} j are the half
    # sheets of the second, where the pairs negate and e0/e2 is
    # (a+b-1)/(a+b+1), so the stated a+b±1 chain holds there
    n, a, b = 8, 2, 2
    data = main_data(n, a, b)
    poset, zz, group = data["poset"], data["zz"], data["group"]
    v, disc = v_point(n, a, b), v_disc(n, a, b)
    walls = [w.node for w in zz.walls
             if poset.nodes[w.node].subspace.contains_point(v)]
    assert walls == [19, 24]
    assert wall_node_of_point(poset, zz, v) == 19
    (seed,) = [m for m in poset.maximal_node_ids
               if poset.nodes[m].subspace.key() == data["l1"].key()]
    eaj = group.mul(group.by_word(a), group.by_word(0, 1))
    e2abj = group.mul(group.by_word(2 * a + b), group.by_word(0, 1))
    quadruple = {poset.act_node(g, seed) for g in
                 (group.identity(), group.by_word(a + b), eaj, e2abj)}
    halves = {e for e in zz.wall_by_node[24].elements
              if poset.nodes[e].subspace.inequalities}
    assert quadruple == halves
    assert not quadruple & set(zz.wall_by_node[19].elements)
    _, k = decompose_with_retries(poset, zz, 19, v, disc)
    shift = generic_shift(n, k)
    assert proportionality_chain(poset, zz, 19, v, disc, shift, n, a, b,
                                 group) is None
    chain = proportionality_chain(poset, zz, 24, v, disc, shift, n, a, b,
                                  group)
    assert chain["evals"] == [48, -48, 80, -80]
    assert chain["pairs_negate"]
    assert chain["evals"][0] / chain["evals"][2] == \
        Fraction(a + b - 1, a + b + 1)
    assert chain["stated_chain"] and not chain["chain"]


def test_both_directions_same_class_twenty_shifts(main_data):
    n, a, b = 6, 1, 2
    data, v, disc, wall = _decomposition_setup(main_data, n, a, b)
    group, poset, zz = data["group"], data["poset"], data["zz"]
    dg = dual_coinvariants(data["action"], group)
    classes = set()
    done = 0
    k = 0
    while done < 20 and k < 28:
        shift = generic_shift(n, k)
        k += 1
        try:
            plus = decompose_broken_class(poset, zz, wall, v, disc, shift)
            minus = decompose_broken_class(poset, zz, wall, v, disc,
                                           tuple(-x for x in shift))
        except ValueError:
            continue
        for pieces in (plus, minus):
            F = [0] * zz.rank
            for p in pieces:
                pv = pair_point_class(poset, zz, p)
                for i, x in enumerate(pv):
                    F[i] += 2 * x
            classes.add(dg.project(F))
        done += 1
    assert done >= 20
    assert len(classes) == 1


def test_pairing_values_on_constructed_point(main_data):
    # a generic point on the linear sheet's representative page pairs +-1
    # against the fundamental sphere and against the wall generator whose
    # moving sheet is a half-subspace, and 0 against the sphere through the
    # two swapped half-subspaces
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    poset, zz, group = data["poset"], data["zz"], data["group"]
    eab = group.by_word(a + b)
    wall = next(w for w in zz.walls
                if poset.act_node(eab, w.node) == w.node)
    full = next(e for e in wall.elements
                if not poset.nodes[e].subspace.inequalities)
    halves = [e for e in wall.elements if e != full]
    y1 = wall.rays[(full, wall.rep_side[full])]
    # ensure the point is on no other sheet
    for m in poset.maximal_node_ids:
        if m != full:
            assert not poset.nodes[m].subspace.contains_point(y1)
    # pick a coordinate frame transversal to the linear sheet
    import itertools
    disc = None
    for triple in itertools.combinations(range(n), 3):
        cand = tuple(vec([1 if k == t else 0 for k in range(n)])
                     for t in triple)
        if ambient_orientation_det(list(cand) + zz.top_basis[full], n) != 0:
            disc = cand
            break
    assert disc is not None
    F = pair_point_class(poset, zz, PointTerm(full, y1, disc, 1))
    idx_l = zz.top_index(full)
    assert F[idx_l] in (1, -1)
    # the class of the sphere through (half, full-page): k-style
    h0 = halves[0]
    k_vec = [0] * zz.rank
    base = wall.elements[0]
    if h0 != base:
        k_vec[zz.wall_index(wall.node, h0)] += 1
    if full != base:
        k_vec[zz.wall_index(wall.node, full)] -= 1
    k_pairing = sum(F[i] * k_vec[i] for i in range(zz.rank))
    assert k_pairing in (1, -1)
    # h-style sphere through two half-subspaces: pairs to zero
    h1 = poset.act_node(eab, h0)
    h_vec = [0] * zz.rank
    if h0 != base:
        h_vec[zz.wall_index(wall.node, h0)] += 1
    if h1 != base:
        h_vec[zz.wall_index(wall.node, h1)] -= 1
    assert sum(F[i] * h_vec[i] for i in range(zz.rank)) == 0
    # every other base element pairs to zero
    support = {i for i, x in enumerate(F) if x != 0}
    allowed = {idx_l} | {zz.wall_index(wall.node, e)
                         for e in wall.elements[1:]}
    assert support <= allowed


# --- the full pipeline --------------------------------------------------------


def test_cocycle_assembly_checks(main_data):
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    checks = {}
    terms = assemble_cocycle(data["poset"], data["zz"], define_h(n),
                             n, a, b, checks)
    assert len(terms) == 2
    assert all(checks.values()), checks
    words = {t.word for t in terms}
    assert (b % (2 * n), 0) in words
    assert (0, 0) in words


def _disc_check_by_frame_det(n, a, b, target):
    """The disc check as one fraction-free solve: the moved direction
    frame of v's image simplex in the direction frame of `target`, a
    vector outside its span failing it."""
    eaj = quaternion_on_Wn(n).by_word(a, 1)
    try:
        return frame_det([act(eaj, d) for d in v_disc(n, a, b)],
                         simplex_direction_frame(target))[0] > 0
    except ValueError:
        return False


def test_disc_parity_rule_matches_frame_det():
    # for every n = 2(a + b) from 6 to 30, the parity of the vertex
    # permutation eps^a j induces from v's image simplex onto w's against
    # the orientation of the transported frame
    cases = 0
    for n in range(6, 31, 2):
        for a in range(1, n // 2):
            b = n // 2 - a
            source = arc_points(*rho_cells(n, a, b)["rho1"], n)
            target = define_h(n).cell_images((a + b, 1))
            eaj = quaternion_on_Wn(n).by_word(a, 1)
            got = disc_frames_compatible(eaj, source, target)
            assert got == _disc_check_by_frame_det(n, a, b, target), (a, b)
            assert got
            cases += 1
    assert cases == 104
    # two of w's vertices swapped: an odd permutation; another simplex:
    # the vertex sets differ.  Both routes read False
    n, a, b = 10, 2, 3
    eaj = quaternion_on_Wn(n).by_word(a, 1)
    target = define_h(n).cell_images((a + b, 1))
    source = arc_points(*rho_cells(n, a, b)["rho1"], n)
    for other in ([target[1], target[0], *target[2:]],
                  arc_points(*rho_cells(n, a, b)["rho3"], n)):
        assert not disc_frames_compatible(eaj, source, other)
        assert not _disc_check_by_frame_det(n, a, b, other)


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 1, 3)])
def test_certificate_generic_cases(n, a, b):
    cert = obstruction_class(n, a, b)
    assert cert.homology_rank == 5 * (a + b)
    assert cert.coinvariant_factors == [2]
    assert cert.coinvariant_rank == 1
    assert cert.class_order == 1          # the class vanishes
    assert not cert.class_nonzero
    assert cert.all_checks_ok(), cert.failing_checks()
    assert cert.verdict.startswith("inconclusive: obstruction class vanishes")


def test_certificate_class_is_torsion(main_data):
    # consistency with the transfer bound: the class must be torsion
    cert = obstruction_class(6, 1, 2)
    assert cert.class_order is not None


def test_certificate_sign_flip_invariance():
    base = obstruction_class(6, 1, 2)
    for flips in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for gf in (False, True):
            cert = obstruction_class(6, 1, 2, term_flips=flips,
                                     global_flip=gf)
            assert cert.class_nonzero == base.class_nonzero


def test_certificate_degenerate_31():
    cert = obstruction_class(8, 3, 1)
    assert not cert.checks["decomposition supported"]
    assert cert.verdict.startswith("inconclusive")


def test_certificate_degenerate_21():
    cert = obstruction_class(6, 2, 1)
    assert not cert.checks["element count is 5(a+b)"]
    assert cert.verdict.startswith("inconclusive")


def test_certificate_rejects_bad_params():
    with pytest.raises(ValueError):
        obstruction_class(6, 0, 3)
    with pytest.raises(ValueError):
        obstruction_class(7, 1, 2)


def test_certificate_n4_special_case():
    cert = obstruction_class(4, 1, 1)
    assert cert.verdict.startswith("special case n = 4")


def test_certificate_json_deterministic():
    import json
    c1 = obstruction_class(6, 1, 2)
    c2 = obstruction_class(6, 1, 2)
    assert json.dumps(c1.to_json_dict(), sort_keys=True) == \
        json.dumps(c2.to_json_dict(), sort_keys=True)


@pytest.mark.slow
@pytest.mark.parametrize("n,a,b", [(10, 2, 3), (12, 2, 4)])
def test_certificate_laws(n, a, b):
    # laws of the decomposition only; the coinvariants and the verdict are
    # pinned by the acceptance tests, not here
    cert = obstruction_class(n, a, b)
    for name in ("decomposition supported", "homology rank is 5(a+b)",
                 "deep nodes contribute nothing",
                 "no homology above the top degree"):
        assert cert.checks[name], name
    assert cert.homology_rank == 5 * (a + b)


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3)])
def test_arc_census_matches_meeting_locus_per_pair(main_data, n, a, b):
    # the census (integer images of n u_k) against one plain call per
    # simplex and element on the Fraction points, for every poset node and
    # the block subspace, which the simplices meet in segments
    from fanpart.arrangement import make_L_alpha
    from fanpart.obstruction import arc_census
    elements = [nd.subspace for nd in main_data(n, a, b)["poset"].nodes]
    elements.append(make_L_alpha(n, a, b))
    census = arc_census(n, elements)
    assert len(census) == n * (n + 1) // 2
    dims = set()
    for (i, j), hits in census.items():
        pts = arc_points(i, j, n)
        assert hits == [meeting_locus(pts, e) for e in elements]
        dims.update(hit and hit[0] for hit in hits)
    assert {None, 0, 1} <= dims


def test_transport_and_census_make_no_rational_rref(main_data, monkeypatch):
    # the Fraction elimination routines are refused in every module: the
    # certificate and the fixtures run on the integer core alone, with the
    # same results
    import sys

    from fanpart.coinvariants import induced_action
    from fanpart.fixtures import run_fixture
    from fanpart.obstruction import arc_census
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    cert, z4 = obstruction_class(n, a, b), run_fixture("z4")

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction elimination called")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fanpart":
            continue
        for fn in ("rref", "solve_affine", "kernel_basis",
                   "change_of_basis_det"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)
    action = induced_action(data["group"], data["zz"])
    assert action.matrices == data["action"].matrices
    poset = data["poset"]
    census = arc_census(n, [poset.nodes[m].subspace
                            for m in poset.maximal_node_ids])
    assert any(hit is not None for hits in census.values() for hit in hits)
    # Steps 1-6 of (6, 1, 2) are kept from the unpatched call: run them
    # again under the patch
    _prepare.cache_clear()
    assert obstruction_class(n, a, b) == cert
    assert run_fixture("z4") == z4


def test_census_hands_over_integer_points(main_data, monkeypatch):
    # the census knows its points n u_k = n e_k - 1 over n: no call scales
    # them again, while a plain meeting_locus call still does
    import fanpart.obstruction as ob
    from fanpart.obstruction import arc_census
    calls = []

    def counting(points):
        calls.append(points)
        return scaled_points(points)
    monkeypatch.setattr(ob, "scaled_points", counting)
    n, a, b = 6, 1, 2
    poset = main_data(n, a, b)["poset"]
    h = define_h(n)
    census = arc_census(n, [poset.nodes[m].subspace
                            for m in poset.maximal_node_ids])
    assert any(hit is not None for hits in census.values() for hit in hits)
    assert enumerate_L_intersections(h, n, a, b)
    assert intersect_with_Jpieces(h, *make_J_pieces(n, a, b), n, a, b)
    assert preimage_simplices(h, poset, n, a, b)
    assert calls == []
    meeting_locus(arc_points(1, 3, n), poset.nodes[0].subspace)
    assert len(calls) == 1


# --- Steps 1-6 kept for the last case ----------------------------------------

FLIP_CASES = [(None, False)] + [(f, g) for f in ((1, 1), (1, -1), (-1, 1),
                                                 (-1, -1))
                                for g in (False, True)]


def _certificate_view(cert):
    return (cert.to_json_dict(), list(cert.checks.items()), cert.steps,
            cert.poset_lines, cert.tau_signs, cert.mu_signs)


@pytest.mark.parametrize("flips,gf", FLIP_CASES)
def test_warm_certificate_equals_cold(flips, gf):
    _prepare.cache_clear()
    cold = obstruction_class(6, 1, 2, term_flips=flips, global_flip=gf)
    _prepare.cache_clear()
    obstruction_class(6, 1, 2, term_flips=(-1, 1), global_flip=True)
    warm = obstruction_class(6, 1, 2, term_flips=flips, global_flip=gf)
    assert _certificate_view(warm) == _certificate_view(cold)
    assert warm == cold


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(module, name), **kw):
            counts[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    return counts


def test_flip_sweep_builds_steps_1_to_6_once(monkeypatch):
    import fanpart.coinvariants as co
    import fanpart.obstruction as ob
    counts = _count_calls(monkeypatch, ob, ("intersection_poset", "zz_basis"))
    step6 = _count_calls(monkeypatch, co, ("induced_action",))
    for flips, gf in FLIP_CASES:
        obstruction_class(6, 1, 2, term_flips=flips, global_flip=gf)
    assert {**counts, **step6} == {"intersection_poset": 1, "zz_basis": 1,
                                   "induced_action": 1}


def test_flip_sweep_pairs_the_cocycle_once(monkeypatch):
    # a flip only re-weighs the pairing vectors: the cocycle, its
    # decompositions and their pairings run once for the 8 flips (the
    # counts of one call)
    import fanpart.obstruction as ob
    counts = _count_calls(monkeypatch, ob, ("assemble_cocycle",
                                            "decompose_with_retries",
                                            "pair_point_class"))
    for flips, gf in FLIP_CASES:
        obstruction_class(6, 1, 2, term_flips=flips, global_flip=gf)
    assert counts == {"assemble_cocycle": 1, "decompose_with_retries": 3,
                      "pair_point_class": 12}


def test_flip_free_failure_leaves_the_slot_empty(monkeypatch):
    # a GeneralPositionError in the flip-free part of Step 7 keeps nothing
    # of the case: the next call builds Steps 1-6 again and raises again
    import fanpart.obstruction as ob
    real = ob.decompose_with_retries

    def no_shift(*args, **kwargs):
        raise GeneralPositionError("no usable generic shift found")
    monkeypatch.setattr(ob, "decompose_with_retries", no_shift)
    counts = _count_calls(monkeypatch, ob, ("intersection_poset",))
    for builds in (1, 2):
        with pytest.raises(GeneralPositionError):
            obstruction_class(6, 1, 2, term_flips=(1, -1))
        assert counts["intersection_poset"] == builds
    monkeypatch.setattr(ob, "decompose_with_retries", real)
    cert = obstruction_class(6, 1, 2)
    assert counts["intersection_poset"] == 3
    assert cert.all_checks_ok(), cert.failing_checks()


def test_next_case_evicts_the_last(monkeypatch):
    import fanpart.obstruction as ob
    counts = _count_calls(monkeypatch, ob, ("intersection_poset",))
    # the second (6, 1, 2) is kept, the third is built again
    for case, builds in (((6, 1, 2), 1), ((6, 1, 2), 1), ((8, 1, 3), 2),
                         ((6, 1, 2), 3)):
        obstruction_class(*case)
        assert counts["intersection_poset"] == builds


@pytest.mark.parametrize("flips", [(2, 1), (0, 1), (1, -1, 1),
                                   (Fraction(1, 2),)])
def test_bad_term_flips_are_refused_before_any_step(monkeypatch, flips):
    # a flip other than +-1, or one for a third term, would weigh the
    # pairing vectors into a meaningless class
    import fanpart.obstruction as ob
    _prepare.cache_clear()
    counts = _count_calls(monkeypatch, ob, ("intersection_poset",))
    with pytest.raises(ValueError, match="term_flips"):
        obstruction_class(6, 1, 2, term_flips=flips)
    assert counts["intersection_poset"] == 0


def test_returned_certificate_is_a_copy():
    cold = _certificate_view(obstruction_class(6, 1, 2))
    cert = obstruction_class(6, 1, 2)
    cert.checks["general position"] = False
    cert.checks["added"] = True
    cert.poset_lines.append("node 99")
    cert.poset_lines[0] = ""
    cert.steps.clear()
    cert.poset_levels[99] = 1
    assert _certificate_view(obstruction_class(6, 1, 2)) == cold


@pytest.mark.parametrize("n,a,b,early", [(8, 3, 1, True), (6, 2, 1, False),
                                         (4, 1, 1, True)])
def test_degenerate_cases_warm_equal_cold(n, a, b, early):
    # (8, 3, 1) and n = 4 stop in Steps 1-6 with no context for Steps 7-8;
    # (6, 2, 1) fails its element count and runs on
    cold = obstruction_class(n, a, b)
    warm = obstruction_class(n, a, b)
    assert (_prepare(n, a, b)[1] is None) == early
    assert cold.verdict.startswith(("inconclusive", "special case"))
    assert warm.verdict == cold.verdict
    assert list(warm.checks.items()) == list(cold.checks.items())
    assert _certificate_view(warm) == _certificate_view(cold)


@pytest.mark.parametrize("args,kwargs", [
    ((6, 1, 2), {"term_flips": (1.0, -1.0)}),
    ((6, 1, 2), {"term_flips": (True,)}),
    ((6, True, 2), {}),
    ((6, 1, 2.0), {}),
    ((6.0, 1, 2), {}),
    ((6, 1, 2), {"global_flip": "no"}),
    ((6, 1, 2), {"global_flip": 1}),
    ((6, 1, 2), {"term_flips": 1}),
    ((6, 1, 2), {"term_flips": iter([1])}),
    ((6, 1, 2), {"term_flips": {1, -1}}),
    ((6, 1, 2), {"term_flips": {1: 1}}),
])
def test_params_that_are_not_ints_are_refused_before_any_step(args, kwargs):
    # 1.0 == 1 and True == 1, so a test of values alone lets them through:
    # a float flip died in Step 8, and a = True reached the JSON.  The flips
    # are a list or a tuple: an int or an iterator has no length, and a set
    # or a dict gives the two cocycle terms no order
    info = _prepare.cache_info()
    with pytest.raises(ValueError):
        obstruction_class(*args, **kwargs)
    assert _prepare.cache_info() == info


def test_wall_node_of_point_refuses_a_point_of_another_length(main_data):
    data = main_data(6, 1, 2)
    with pytest.raises(ValueError, match="length 5"):
        wall_node_of_point(data["poset"], data["zz"], (0,) * 5)


def test_bad_params_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError):
            obstruction_class(6, 0, 3)
        obstruction_class(6, 1, 2)


# --- Steps 7-8 on integer points against the Fraction route -----------------


def _walls_used(poset, zz, n, a, b):
    """(wall node, point, disc) of the two cocycle terms and of v."""
    terms = assemble_cocycle(poset, zz, define_h(n), n, a, b, {})
    v = v_point(n, a, b)
    used = [(t.wall_node, t.point, t.disc) for t in terms]
    used.append((wall_node_of_point(poset, zz, v), v, v_disc(n, a, b)))
    assert len(terms) == 2 and used[-1][0] is not None
    return used


def _positive_factor(q, ref):
    """c > 0 with q = c ref, or None."""
    i = next(i for i, x in enumerate(ref) if x)
    c = Fraction(q[i]) / ref[i]
    return c if c > 0 and all(x == c * y for x, y in zip(q, ref)) else None


@pytest.mark.parametrize("n,a,b", [
    (6, 1, 2), (8, 2, 2), (8, 1, 3),
    pytest.param(10, 2, 3, marks=pytest.mark.slow)])
def test_integer_moved_points_match_fraction_oracle(main_data, n, a, b):
    # every sheet of the walls the cocycle and v lie on, shifts k = 0..3:
    # the integer crossing point is the Fraction one times one positive
    # factor per (point, shift), so the four proportionality evaluations
    # compare as before, and the wall, inequality and orientation signs
    # agree
    from fanpart.obstruction import _moved_disc, _moved_point
    from orientation_signs import (moved_point_by_fractions,
                                   orientation_det_by_fractions)
    data = main_data(n, a, b)
    poset, zz = data["poset"], data["zz"]
    compared = 0
    for wall_node, point, disc in _walls_used(poset, zz, n, a, b):
        wall = zz.wall_by_node[wall_node]
        for k in range(4):
            shift = generic_shift(n, k)
            start, frame = _moved_disc(point, disc, shift)
            factors = set()
            for e in wall.elements:
                elem = poset.nodes[e].subspace
                moved = _moved_point(elem, start, frame)
                ref = moved_point_by_fractions(elem, point, disc, shift)
                assert (moved is None) == (ref is None)
                if ref is None:
                    continue
                q, m = moved
                c = _positive_factor(q, ref)
                assert c is not None, (e, k)
                factors.add(c / m)
                assert sign(integer_dot(wall.functionals[e], q)) == \
                    sign(dot(wall.functionals[e], ref))
                assert [sign(integer_dot(f, q)) for f in elem.inequalities] \
                    == [sign(dot(f, ref)) for f in elem.inequalities]
                frames = [elem.carrier_basis()]
                if ("top", e) in zz.index:
                    frames.append(zz.top_basis[e])
                frames += [wall.spine_basis + [ray] for (x, _), ray in
                           wall.rays.items() if x == e]
                for cols in frames:
                    assert sign(ambient_orientation_det(frame + cols, n)) \
                        == sign(orientation_det_by_fractions(
                            list(disc) + cols, n))
                compared += 1
            assert len(factors) <= 1
    assert compared > 0


# --- the Step 3 point checks on integer keys ----------------------------------

STEP3_POINT_CHECKS = ("both pieces meet the image in exactly {v, w}",
                      "v and w appear on the special cells",
                      "all hits in the orbit of {v, w}",
                      "fundamental cell carries two intersection points")


def _step3_on_fraction_tuples(n, a, b, poset):
    """The Step 3 point checks on sets of Fraction tuples, the route they
    took before points were compared as integer keys."""
    h = define_h(n)
    jhits = intersect_with_Jpieces(h, *make_J_pieces(n, a, b), n, a, b)
    pre = preimage_simplices(h, poset, n, a, b)
    vw = {tuple(v_point(n, a, b)), tuple(w_point(n, a, b))}
    orbit = {tuple(act(g, vec(p))) for g in quaternion_on_Wn(n).elements
             for p in vw}
    fe = set(h.sphere.fundamental_cells())
    return dict(zip(STEP3_POINT_CHECKS, (
        {tuple(p) for _, p in jhits["l1_hits"]} == vw
        and {tuple(p) for _, p in jhits["l2_hits"]} == vw,
        vw <= {tuple(hit[2]) for rec in pre if rec.special
               for hit in rec.hits},
        all(tuple(hit[2]) in orbit for rec in pre for hit in rec.hits),
        len({tuple(hit[2]) for rec in pre if rec.cell in fe
             for hit in rec.hits}) == 2)))


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (6, 2, 1), (8, 2, 2),
                                   (8, 1, 3), (8, 3, 1)])
def test_step3_integer_keys_match_fraction_tuples(main_data, n, a, b):
    checks = _prepare(n, a, b)[0].checks
    assert {k: checks[k] for k in STEP3_POINT_CHECKS} == \
        _step3_on_fraction_tuples(n, a, b, main_data(n, a, b)["poset"])


def test_step3_hit_off_the_orbit_fails_only_the_orbit_check(monkeypatch):
    # one hit on a cell that is neither special nor fundamental is moved
    # off the orbit of {v, w} in an edited copy of the preimage cells
    import copy

    import fanpart.obstruction as ob
    n, a, b = 6, 1, 2
    real = ob.preimage_simplices
    fe = set(define_h(n).sphere.fundamental_cells())

    def moved(*args):
        pre = copy.deepcopy(real(*args))
        rec = next(r for r in pre if not r.special and r.cell not in fe)
        m, lam, pt = rec.hits[0]
        rec.hits[0] = (m, lam, (pt[0] + Fraction(1, 7),) + tuple(pt[1:]))
        return pre
    before = dict(_prepare(n, a, b)[0].checks)
    _prepare.cache_clear()
    monkeypatch.setattr(ob, "preimage_simplices", moved)
    after = _prepare(n, a, b)[0].checks
    key = "all hits in the orbit of {v, w}"
    assert before[key] is True and after[key] is False
    assert {k: v for k, v in after.items() if k != key} == \
        {k: v for k, v in before.items() if k != key}

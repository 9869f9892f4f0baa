from fractions import Fraction

import pytest

from fanpart.arrangement import (Arrangement, HalfOpenSubspace, canonical_equal,
                                 cone_feasible, cone_implies, contains_set,
                                 h1_form, h2_form, intersect,
                                 intersection_poset, k_form, make_J_pieces,
                                 make_L_alpha, make_subspace, ones_form,
                                 orbit_closure, transform)
from fanpart.exactlin import Matrix, rank, vec
from fanpart.groups import cyclic_shift_group, quaternion_on_Wn


def z8_fixture():
    group = cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    L = make_subspace([
        vec([1, 1, 0, 0, 0, 0, 0, 0]),
        vec([0, 0, 1, 1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 1, 0, 0]),
        vec([0, 0, 0, 0, 0, 0, 1, 1]),
    ], [], 8, "L")
    return group, L


def z4_fixture():
    group = cyclic_shift_group(4, 8, (2, 3, 4, 1, 6, 7, 8, 5))
    L = make_subspace([
        vec([1, 0, 0, 0, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 0, 0, 0]),
        vec([1, 1, 1, 1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 1, 1, 1]),
        vec([0, 0, 1, 0, 0, 0, 1, 0]),
    ], [], 8, "L")
    return group, L


# --- feasibility machinery ------------------------------------------------


def test_cone_feasible_basic():
    E = Matrix.zeros(0, 2)
    assert cone_feasible(E, [vec([1, 0])], [vec([0, 1])])
    # x >= 0 and -x > 0 cannot both hold
    assert not cone_feasible(E, [vec([1, 0])], [vec([-1, 0])])


def test_cone_implies():
    E = Matrix.zeros(0, 2)
    # x >= 0 and y >= 0 imply x + y >= 0
    assert cone_implies(E, [vec([1, 0]), vec([0, 1])], vec([1, 1]))
    assert not cone_implies(E, [vec([1, 0])], vec([0, 1]))


# --- canonical form -------------------------------------------------------


def test_forced_equality_promotion():
    # q >= 0 and -q >= 0 force q = 0
    s = make_subspace([], [vec([1, 0]), vec([-1, 0])], 2)
    assert s.is_linear
    assert s.dim == 1


def test_redundant_inequality_dropped():
    s = make_subspace([], [vec([1, 0]), vec([0, 1]), vec([1, 1])], 2)
    assert len(s.inequalities) == 2


def test_canonical_equal_self_and_opposite():
    n = 6
    kp = make_subspace([ones_form(n)], [k_form(n, 1, 2)], n, "K+")
    km = make_subspace([ones_form(n)], [vec([-x for x in k_form(n, 1, 2)])], n, "K-")
    assert canonical_equal(kp, kp)
    assert not canonical_equal(kp, km)


# --- the problem-specific subspaces ----------------------------------------


def test_L_alpha_411():
    L = make_L_alpha(4, 1, 1)
    # forms x1 = 0, x2 + x3 = 0, x4 = 0 within the zero-sum hyperplane
    assert L.dim == 1
    for p in ([0, 1, -1, 0],):
        assert L.contains_point(vec(p))
    assert not L.contains_point(vec([1, -1, 0, 0]))


def test_L_alpha_612():
    L = make_L_alpha(6, 1, 2)
    # blocks x1 | x2+x3+x4 | x5+x6
    expected = make_subspace([
        ones_form(6),
        vec([1, 0, 0, 0, 0, 0]),
        vec([0, 1, 1, 1, 0, 0]),
        vec([0, 0, 0, 0, 1, 1]),
    ], [], 6)
    assert canonical_equal(L, expected)
    assert L.dim == 3


def test_L_alpha_rejects_bad_params():
    with pytest.raises(ValueError):
        make_L_alpha(4, 0, 2)
    with pytest.raises(ValueError):
        make_L_alpha(5, 1, 1)


def test_J_pieces_dims():
    for (n, a, b) in ((8, 2, 2), (6, 1, 2), (8, 1, 3), (8, 3, 1)):
        l1, l2 = make_J_pieces(n, a, b)
        assert l1.dim == n - 4
        assert l2.dim == n - 4
        assert len(l1.inequalities) == 1
        assert l2.is_linear


def test_J_pieces_degenerate_21():
    # for (a,b) = (2,1) the half-space form vanishes identically on the
    # carrier and both pieces collapse to the same linear subspace
    l1, l2 = make_J_pieces(6, 2, 1)
    assert l1.is_linear
    assert canonical_equal(l1, l2)


def test_eps_ab_fixes_H1_and_swaps_K():
    n, a, b = 6, 1, 2
    g = quaternion_on_Wn(n)
    eab = g.by_word(a + b)
    H1 = make_subspace([h1_form(n, a, b)], [], n)
    assert canonical_equal(transform(g, eab, H1), H1)
    KpW = make_subspace([ones_form(n)], [k_form(n, a, b)], n)
    KmW = make_subspace([ones_form(n)],
                        [vec([-x for x in k_form(n, a, b)])], n)
    assert canonical_equal(transform(g, eab, KpW), KmW)


def test_L2star_invariances():
    n, a, b = 6, 1, 2
    g = quaternion_on_Wn(n)
    _, l2 = make_J_pieces(n, a, b)
    eab = g.by_word(a + b)
    ebj = g.mul(g.inv(g.by_word(b)), g.by_word(0, 1))  # eps^{-b} j
    assert canonical_equal(transform(g, eab, l2), l2)
    assert canonical_equal(transform(g, ebj, l2), l2)


def test_transform_matches_matrix_pullback():
    # transform reindexes forms by g; the reference pulls them back with
    # the dense matrix (g^-1)^T on both seed pieces, for every element
    n, a, b = 6, 1, 2
    group = quaternion_on_Wn(n)
    for piece in make_J_pieces(n, a, b):
        for g in group.elements:
            pull = group.inv(g).matrix.transpose().matvec
            expected = make_subspace(
                [pull(row) for row in piece.equalities.entries],
                [pull(q) for q in piece.inequalities], n, piece.label)
            assert transform(group, g, piece).key() == expected.key()


# --- orbit closure ---------------------------------------------------------


def test_orbit_closure_z8():
    group, L = z8_fixture()
    arr = orbit_closure(group, [L])
    assert len(arr.maximal_elements) == 2


def test_orbit_closure_z4():
    group, L = z4_fixture()
    arr = orbit_closure(group, [L])
    assert len(arr.maximal_elements) == 4


def test_orbit_closure_idempotent():
    group, L = z4_fixture()
    arr1 = orbit_closure(group, [L])
    arr2 = orbit_closure(group, arr1.maximal_elements)
    assert [s.key() for s in arr1.maximal_elements] == \
        [s.key() for s in arr2.maximal_elements]


def test_main_orbit_sizes():
    for (n, a, b) in ((6, 1, 2), (8, 1, 3), (8, 3, 1)):
        group = quaternion_on_Wn(n)
        l1, l2 = make_J_pieces(n, a, b)
        arr2 = orbit_closure(group, [l2])
        assert len(arr2.maximal_elements) == a + b
        arr1 = orbit_closure(group, [l1])
        assert len(arr1.maximal_elements) == 4 * (a + b)
        arr = orbit_closure(group, [l1, l2])
        assert len(arr.maximal_elements) == 5 * (a + b)


def test_main_orbit_sizes_equal_blocks():
    # for a = b the linear piece has an extra shift symmetry: its orbit has
    # only (a+b)/2 * ... = 2 members instead of a+b
    group = quaternion_on_Wn(8)
    l1, l2 = make_J_pieces(8, 2, 2)
    assert len(orbit_closure(group, [l2]).maximal_elements) == 2
    assert len(orbit_closure(group, [l1]).maximal_elements) == 16
    assert len(orbit_closure(group, [l1, l2]).maximal_elements) == 18


# --- intersection poset ----------------------------------------------------


def test_poset_z8():
    group, L = z8_fixture()
    poset = intersection_poset(orbit_closure(group, [L]))
    assert len(poset.nodes) == 3
    dims = sorted(nd.dim for nd in poset.nodes)
    # the double intersection is the alternating line (+1,-1,...), dim 1;
    # its ZZ contribution to degree 4 vanishes either way
    assert dims == [1, 4, 4]
    bottom = next(nd for nd in poset.nodes if nd.dim == 1)
    assert sorted(poset.above[bottom.index]) == sorted(poset.maximal_node_ids)
    assert bottom.subspace.contains_point(vec([1, -1, 1, -1, 1, -1, 1, -1]))


def test_poset_z4():
    group, L = z4_fixture()
    poset = intersection_poset(orbit_closure(group, [L]))
    counts = poset.level_counts()
    assert counts[3] == 4
    assert counts[2] == 2
    # codim-1 intersections sit under exactly two maximal elements
    for nd in poset.nodes:
        if nd.dim == 2:
            assert len(poset.elements_above(nd.index)) == 2


def test_poset_group_invariant():
    group, L = z4_fixture()
    poset = intersection_poset(orbit_closure(group, [L]))
    for g in group.elements:
        for nd in poset.nodes:
            poset.act_node(g, nd.index)  # raises if not a node


def test_main_case_spine():
    n, a, b = 6, 1, 2
    group = quaternion_on_Wn(n)
    l1, l2 = make_J_pieces(n, a, b)
    arr = orbit_closure(group, [l1, l2])
    poset = intersection_poset(arr)
    counts = poset.level_counts()
    assert counts[n - 4] == 5 * (a + b)
    assert counts[n - 5] == a + b
    # each codim-1 node is linear, sits under exactly 5 maximal elements,
    # and is fixed as a set by eps^{a+b}
    eab = group.by_word(a + b)
    spine_nodes = [nd for nd in poset.nodes if nd.dim == n - 5]
    for nd in spine_nodes:
        assert nd.subspace.is_linear
        assert len(poset.elements_above(nd.index)) == 5
    assert any(poset.act_node(eab, nd.index) == nd.index for nd in spine_nodes)
    # property (ii): the special five-fold intersection is eps^{a+b}-stable
    i_node = intersect(
        intersect(l1, transform(group, eab, l1)),
        intersect(l2, intersect(transform(group, g_a_j(group, a), l1),
                                transform(group, g_2abj(group, a, b), l1))))
    assert i_node.is_linear
    assert i_node.dim == n - 5
    assert canonical_equal(transform(group, eab, i_node), i_node)


def g_a_j(group, a):
    return group.mul(group.by_word(a), group.by_word(0, 1))


def g_2abj(group, a, b):
    return group.mul(group.by_word(2 * a + b), group.by_word(0, 1))


def test_intersection_dims_monotone():
    group, L = z4_fixture()
    poset = intersection_poset(orbit_closure(group, [L]))
    for nd in poset.nodes:
        for up in poset.above[nd.index]:
            assert poset.nodes[up].dim >= nd.dim
    for lo, up in poset.hasse_edges:
        assert poset.nodes[lo].dim < poset.nodes[up].dim


def test_contains_set_half_subspace():
    amb = 4
    big = make_subspace([vec([1, 0, 0, 0])], [], amb)
    small = make_subspace([vec([1, 0, 0, 0])], [vec([0, 1, 0, 0])], amb)
    assert contains_set(big, small)
    assert not contains_set(small, big)

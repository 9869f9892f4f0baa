import math
import random
from fractions import Fraction

import pytest

from fanpart import obstruction
from fanpart.arrangement import (Arrangement, HalfOpenSubspace, cached_kernel,
                                 cone_feasible, cone_implies,
                                 contains_set, h1_form, h2_form,
                                 intersection_poset, k_form, make_J_pieces,
                                 make_L_alpha, make_subspace, ones_form,
                                 orbit_closure, transform)
from fanpart.exactlin import Matrix, integer_kernel, kernel_basis, vec
from fanpart.groups import (cyclic_shift_group, distinct_actions,
                            quaternion_on_Wn)
from fanpart.homology import zz_basis

import canonical_oracle
import poset_oracle


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
    E = ()                                   # no equalities on Q^2
    assert cone_feasible(E, 2, [vec([1, 0])], [vec([0, 1])])
    # x >= 0 and -x > 0 cannot both hold
    assert not cone_feasible(E, 2, [vec([1, 0])], [vec([-1, 0])])


def test_cone_implies():
    E = ()
    # x >= 0 and y >= 0 imply x + y >= 0
    assert cone_implies(E, 2, [vec([1, 0]), vec([0, 1])], vec([1, 1]))
    assert not cone_implies(E, 2, [vec([1, 0])], vec([0, 1]))


# --- canonical form -------------------------------------------------------


def test_forced_equality_promotion():
    # q >= 0 and -q >= 0 force q = 0
    s = make_subspace([], [vec([1, 0]), vec([-1, 0])], 2)
    assert s.is_linear
    assert s.dim == 1


def test_redundant_inequality_dropped():
    s = make_subspace([], [vec([1, 0]), vec([0, 1]), vec([1, 1])], 2)
    assert len(s.inequalities) == 2


def test_key_self_and_opposite():
    n = 6
    kp = make_subspace([ones_form(n)], [k_form(n, 1, 2)], n, "K+")
    km = make_subspace([ones_form(n)], [vec([-x for x in k_form(n, 1, 2)])], n, "K-")
    assert kp.key() == make_subspace([ones_form(n)], [k_form(n, 1, 2)], n).key()
    assert kp.key() != km.key()


# --- the problem-specific subspaces ----------------------------------------


def test_L_alpha_411():
    L = make_L_alpha(4, 1, 1)
    # forms x1 = 0, x2 + x3 = 0, x4 = 0 within the zero-sum hyperplane
    assert L.dim == 1
    for p in ([0, 1, -1, 0],):
        assert L.contains_point(vec(p))
    assert not L.contains_point(vec([1, -1, 0, 0]))


def test_contains_point_refuses_a_point_of_another_length():
    # zip would drop the missing or extra coordinates and answer True
    l1, l2 = make_J_pieces(6, 1, 2)
    assert not l1.is_linear and l2.is_linear
    for s, p in ((l1, (0,) * 4), (l2, ()), (l2, (0,) * 7)):
        with pytest.raises(ValueError,
                           match=f"length {len(p)} .* dimension 6"):
            s.contains_point(p)


def test_L_alpha_612():
    L = make_L_alpha(6, 1, 2)
    # blocks x1 | x2+x3+x4 | x5+x6
    expected = make_subspace([
        ones_form(6),
        vec([1, 0, 0, 0, 0, 0]),
        vec([0, 1, 1, 1, 0, 0]),
        vec([0, 0, 0, 0, 1, 1]),
    ], [], 6)
    assert L.key() == expected.key()
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
    assert l1.key() == l2.key()


def test_eps_ab_fixes_H1_and_swaps_K():
    n, a, b = 6, 1, 2
    g = quaternion_on_Wn(n)
    eab = g.by_word(a + b)
    H1 = make_subspace([h1_form(n, a, b)], [], n)
    assert transform(g, eab, H1).key() == H1.key()
    KpW = make_subspace([ones_form(n)], [k_form(n, a, b)], n)
    KmW = make_subspace([ones_form(n)],
                        [vec([-x for x in k_form(n, a, b)])], n)
    assert transform(g, eab, KpW).key() == KmW.key()


def test_L2star_invariances():
    n, a, b = 6, 1, 2
    g = quaternion_on_Wn(n)
    _, l2 = make_J_pieces(n, a, b)
    eab = g.by_word(a + b)
    ebj = g.mul(g.inv(g.by_word(b)), g.by_word(0, 1))  # eps^{-b} j
    assert transform(g, eab, l2).key() == l2.key()
    assert transform(g, ebj, l2).key() == l2.key()


def test_transform_matches_matrix_pullback():
    # transform reindexes forms by g; the reference pulls them back with
    # the dense matrix (g^-1)^T on both seed pieces, for every element
    n, a, b = 6, 1, 2
    group = quaternion_on_Wn(n)
    for piece in make_J_pieces(n, a, b):
        for g in group.elements:
            pull = group.inv(g).matrix.transpose().matvec
            expected = make_subspace(
                [pull(row) for row in piece.rows],
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


def test_maximal_elements_in_rational_rref_order():
    # orbit_closure sorts by the RREF over Fraction; at (1, 2) the integer
    # keys sort differently, and the node numbers and basis coordinates of
    # a certificate follow the sort
    group = quaternion_on_Wn(6)
    arr = orbit_closure(group, make_J_pieces(6, 1, 2))
    rational = [canonical_oracle.rational_key(s) for s in arr.maximal_elements]
    assert rational == sorted(rational)
    integer = [s.key() for s in arr.maximal_elements]
    assert integer != sorted(integer)


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
    assert poset_oracle.up_sets(poset)[bottom.index] == poset.maximal_node_ids
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
    i_node = intersect(l1, transform(group, eab, l1), l2,
                       transform(group, g_a_j(group, a), l1),
                       transform(group, g_2abj(group, a, b), l1))
    assert i_node.is_linear
    assert i_node.dim == n - 5
    assert transform(group, eab, i_node).key() == i_node.key()


def intersect(*sets):
    """The intersection of subspaces of one ambient space, canonical."""
    return make_subspace([r for s in sets for r in s.rows],
                         [q for s in sets for q in s.inequalities],
                         sets[0].ambient_dim)


def g_a_j(group, a):
    return group.mul(group.by_word(a), group.by_word(0, 1))


def g_2abj(group, a, b):
    return group.mul(group.by_word(2 * a + b), group.by_word(0, 1))


def test_intersection_dims_monotone():
    group, L = z4_fixture()
    poset = intersection_poset(orbit_closure(group, [L]))
    for lo, ups in enumerate(poset_oracle.up_sets(poset)):
        for up in ups:
            assert poset.nodes[up].dim >= poset.nodes[lo].dim
    for lo, ups in enumerate(poset.covers):
        assert all(poset.nodes[lo].dim < poset.nodes[up].dim for up in ups)


def _assert_order_matches_oracle(poset):
    above = poset_oracle.containment_above(poset)
    same_dim = poset_oracle.equal_dimension_pairs(poset, above)
    # legal for half-open sets, but none occur in these cases; name any
    # that appears
    assert not same_dim, f"containment at equal dimension: {same_dim}"
    assert poset_oracle.up_sets(poset) == above
    assert poset.covers == poset_oracle.covers(above)
    assert poset.support == poset_oracle.supports(poset)


@pytest.mark.parametrize("name", ["z8", "z4"])
def test_poset_order_matches_containment_fixtures(fixture_data, name):
    _assert_order_matches_oracle(fixture_data(name)["poset"])


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3), (8, 3, 1)])
def test_poset_order_matches_containment_main_cases(main_data, n, a, b):
    _assert_order_matches_oracle(main_data(n, a, b)["poset"])


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (10, 2, 3)])
def test_orbit_closure_moves_each_seed_once_per_permutation(n, a, b,
                                                            monkeypatch):
    # the 4n elements act through 2n permutations; the first element of
    # each, in group order, still names the image
    import fanpart.arrangement as ar
    group = quaternion_on_Wn(n)
    seeds = list(make_J_pieces(n, a, b))
    calls = []
    moved = ar._moved_form

    def counting(g, s):
        calls.append(g)
        return moved(g, s)
    monkeypatch.setattr(ar, "_moved_form", counting)
    arr = orbit_closure(group, seeds)
    assert len(calls) == len(seeds) * 2 * n
    first: dict = {}
    for s in seeds:
        for g in group.elements:
            first.setdefault(moved(g, s), f"{s.label}.{g!r}")
    assert [e.label for e in arr.maximal_elements] == \
        [first[e.key()] for e in arr.maximal_elements]


def _group_and_seeds(case):
    if case == "z8":
        group, seed = z8_fixture()
        return group, [seed]
    if case == "z4":
        group, seed = z4_fixture()
        return group, [seed]
    n = 2 * sum(case)
    return quaternion_on_Wn(n), list(make_J_pieces(n, *case))


@pytest.mark.parametrize("case", ["z8", "z4", (1, 2), (2, 2), (1, 3), (2, 3)],
                         ids=str)
def test_orbit_closure_matches_pairwise_pruning(case, monkeypatch):
    # one containment test per seed orbit and image keeps the elements,
    # their labels and their order of the test of every pair of images
    import fanpart.arrangement as arrangement
    group, seeds = _group_and_seeds(case)
    calls = []

    def counted(big, small):
        calls.append(1)
        return contains_set(big, small)

    monkeypatch.setattr(arrangement, "contains_set", counted)
    arr = orbit_closure(group, seeds)
    monkeypatch.undo()
    assert [(s.key(), s.label) for s in arr.maximal_elements] == \
        [(s.key(), s.label) for s in poset_oracle.pruned_images(group, seeds)]
    images = {transform(group, g, s).key()
              for s in seeds for g in group.elements}
    assert len(calls) <= len(seeds) * len(images)


@pytest.mark.slow
def test_poset_order_matches_containment_n10_23():
    group = quaternion_on_Wn(10)
    poset = intersection_poset(orbit_closure(group, make_J_pieces(10, 2, 3)))
    assert len(poset.nodes) == 256
    _assert_order_matches_oracle(poset)


@pytest.mark.slow
@pytest.mark.parametrize("a,b", [(1, 5), (4, 2)])
def test_covers_from_meet_replay_n12(a, b):
    # the covers come from the meets of the numbering pass, not from the
    # up-sets: compare them with the minimal strict supersets by definition
    group = quaternion_on_Wn(12)
    poset = intersection_poset(orbit_closure(group, make_J_pieces(12, a, b)))
    assert poset.covers == poset_oracle.covers(poset_oracle.up_sets(poset))


def test_poset_makes_no_containment_tests(main_data, monkeypatch):
    import fanpart.arrangement as arrangement
    calls = []

    def counted(big, small):
        calls.append(1)
        return contains_set(big, small)

    monkeypatch.setattr(arrangement, "contains_set", counted)
    arr = main_data(8, 1, 3)["poset"].arrangement
    poset = intersection_poset(arr)
    assert len(poset.nodes) == 59
    assert calls == []


@pytest.mark.parametrize("case", [
    "z8", "z4", (1, 2), (2, 1), (2, 2), (1, 3), (3, 1),
    pytest.param((2, 3), marks=pytest.mark.slow)], ids=str)
def test_move_table_moves_each_element_onto_its_image(case):
    # the table read off the seed orbits by the group law names, for every
    # distinct action g and element k, the element that g moves k onto
    group, seeds = _group_and_seeds(case)
    arr = orbit_closure(group, seeds)
    elems = arr.maximal_elements
    actions = distinct_actions(group)
    assert set(arr.moves) == {g.perm for g in actions}
    for g in actions:
        pi = arr.moves[g.perm]
        assert [elems[pi[k]].key() for k in range(len(elems))] == \
            [transform(group, g, s).key() for s in elems], g


def test_poset_refuses_malformed_move_table(main_data):
    # the (1, 2) arrangement with one maximal element dropped and the table
    # of the whole arrangement: no row permutes the elements left, and the
    # poset names the first distinct action.  Then the whole arrangement
    # with one row missing, and with that row no permutation
    arr = main_data(6, 1, 2)["poset"].arrangement
    elems, group = arr.maximal_elements, arr.group
    first, g = distinct_actions(group)[0], distinct_actions(group)[3]
    missing = {p: pi for p, pi in arr.moves.items() if p != g.perm}
    cases = [(elems[:3] + elems[4:], arr.moves, first), (elems, missing, g),
             (elems, {**missing, g.perm: (0,) * len(elems)}, g)]
    for kept, moves, named in cases:
        with pytest.raises(ValueError, match="move table") as err:
            intersection_poset(Arrangement(kept, group, 6, moves))
        assert str(err.value).endswith(f"for {named!r}")


def test_poset_rejects_repeated_maximal_element():
    # the repeated element is found before the move table is read
    group, L = z4_fixture()
    arr = orbit_closure(group, [L])
    twice = Arrangement(arr.maximal_elements + [L.relabel("again")], group, 8,
                        arr.moves)
    with pytest.raises(ValueError, match="same set"):
        intersection_poset(twice)


def test_contains_set_half_subspace():
    amb = 4
    big = make_subspace([vec([1, 0, 0, 0])], [], amb)
    small = make_subspace([vec([1, 0, 0, 0])], [vec([0, 1, 0, 0])], amb)
    assert contains_set(big, small)
    assert not contains_set(small, big)


# --- the two stages of the canonical form ----------------------------------


def _random_description(rng):
    """Random forms in dimension 2-6; some inequalities are nonnegative
    combinations of others (redundant) or their negations (which force
    the combined forms to vanish)."""
    dim = rng.randint(2, 6)

    def form():
        return [rng.randint(-2, 2) for _ in range(dim)]

    eqs = [form() for _ in range(rng.randint(0, 2))]
    ineqs = [form() for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        picks = rng.sample(ineqs, rng.randint(1, len(ineqs)))
        coeffs = [rng.randint(1, 2) for _ in picks]
        comb = [sum(c * f[k] for c, f in zip(coeffs, picks))
                for k in range(dim)]
        ineqs.append(comb if rng.random() < 0.5 else [-x for x in comb])
    return eqs, ineqs, dim


def test_make_subspace_matches_iterative_oracle():
    rng = random.Random(0)
    stats = {}
    for _ in range(2000):
        eqs, ineqs, dim = _random_description(rng)
        expected = canonical_oracle.canonical_key(eqs, ineqs, dim, stats)
        got = canonical_oracle.rational_key(make_subspace(eqs, ineqs, dim))
        assert got == expected, (eqs, ineqs, dim)
    # the draws exercise both halves of the cone work
    assert stats["promoted"] > 100
    assert stats["dropped"] > 100


def _case_poset(fixture_data, main_data, case):
    if isinstance(case, str):
        data = fixture_data(case)
    else:
        a, b = case
        data = main_data(2 * (a + b), a, b)
    return data["group"], data["poset"]


POSET_CASES = ["z8", "z4", (1, 2), (2, 2), (1, 3)]


def _assert_transform_is_canonical(group, subspaces):
    # the image under every element, against the full canonical form of
    # the description pulled back by the dense matrix
    n = group.ambient_dim
    for g in group.elements:
        pull = group.inv(g).matrix.transpose().matvec
        for s in subspaces:
            expected = make_subspace(
                [pull(row) for row in s.rows],
                [pull(q) for q in s.inequalities], n)
            assert transform(group, g, s).key() == expected.key()


@pytest.mark.parametrize("case", POSET_CASES)
def test_transform_matches_make_subspace_on_poset(fixture_data, main_data,
                                                  case):
    group, poset = _case_poset(fixture_data, main_data, case)
    _assert_transform_is_canonical(group,
                                   [nd.subspace for nd in poset.nodes])


@pytest.mark.slow
def test_transform_matches_make_subspace_two_inequalities_n10_23(main_data):
    # no node up to n = 8 keeps more than one inequality; at (2, 3) twenty
    # meets keep two
    data = main_data(10, 2, 3)
    several = [nd.subspace for nd in data["poset"].nodes
               if len(nd.subspace.inequalities) > 1]
    assert len(several) == 20
    _assert_transform_is_canonical(data["group"], several)


@pytest.mark.parametrize("case", ["z4", (1, 3)])
def test_transform_makes_no_cone_test(fixture_data, main_data, case,
                                      monkeypatch):
    import fanpart.arrangement as arrangement
    group, poset = _case_poset(fixture_data, main_data, case)

    def refuse(*args):
        raise AssertionError("transform ran a Fourier-Motzkin test")

    monkeypatch.setattr(arrangement, "_fm_feasible", refuse)
    for g in group.elements:
        for nd in poset.nodes:
            transform(group, g, nd.subspace)


def _assert_act_node_matches_key_route(group, poset):
    for g in group.elements:
        assert [poset.act_node(g, nd.index) for nd in poset.nodes] \
            == poset_oracle.moved_nodes(poset, g)


@pytest.mark.parametrize("case", POSET_CASES)
def test_act_node_matches_key_route(fixture_data, main_data, case):
    _assert_act_node_matches_key_route(
        *_case_poset(fixture_data, main_data, case))


@pytest.mark.slow
def test_act_node_matches_key_route_n10_23(main_data):
    data = main_data(10, 2, 3)
    _assert_act_node_matches_key_route(data["group"], data["poset"])


def _assert_read_forms_match_key_route(group, poset):
    # every form read first, each moved node's form built on its first
    # read: g moves the representative's form onto the node's key
    keys = [nd.subspace.key() for nd in poset.nodes]
    assert len(set(keys)) == len(keys)
    for g in distinct_actions(group):
        route = poset_oracle.moved_nodes(poset, g)
        for i, r in enumerate(poset.orbit):
            if poset.act_node(g, r) == i:
                assert route[r] == i, (g, r, i)


@pytest.mark.parametrize("case", POSET_CASES)
def test_read_forms_match_key_route(fixture_data, main_data, case):
    _assert_read_forms_match_key_route(
        *_case_poset(fixture_data, main_data, case))


@pytest.mark.slow
def test_read_forms_match_key_route_n10_23():
    group = quaternion_on_Wn(10)
    poset = intersection_poset(orbit_closure(group, make_J_pieces(10, 2, 3)))
    _assert_read_forms_match_key_route(group, poset)


@pytest.mark.parametrize("case,nodes,orbits", [
    ("z8", 3, 2), ("z4", 11, 4), ((1, 2), 19, 4), ((2, 2), 25, 5),
    ((1, 3), 59, 9), ((3, 1), 83, 12), ((2, 3), 256, 24),
    pytest.param((1, 5), 876, 59, marks=pytest.mark.slow)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_poset_keeps_one_representative_per_orbit(fixture_data, main_data,
                                                  case, nodes, orbits):
    # orbit[i] is a node of i's orbit and its own representative, and there
    # is one per orbit counted by the least image under the group; on the
    # maximal elements it is the first of the orbit in element order
    group, poset = _case_poset(fixture_data, main_data, case)
    assert len(poset.nodes) == nodes
    movers = distinct_actions(group)
    least = [min(poset.act_node(g, nd.index) for g in movers)
             for nd in poset.nodes]
    for i, r in enumerate(poset.orbit):
        assert poset.orbit[r] == r
        assert any(poset.act_node(g, r) == i for g in movers), (i, r)
    assert len(set(poset.orbit)) == len(set(least)) == orbits
    assert [poset.orbit[m] for m in poset.maximal_node_ids] == \
        [least[m] for m in poset.maximal_node_ids]


def test_act_node_makes_no_elimination(main_data, monkeypatch):
    import fanpart.arrangement as arrangement
    data = main_data(8, 1, 3)

    def refuse(*args):
        raise AssertionError("act_node ran an elimination")

    for name in ("_moved_form", "_reduce", "echelon"):
        monkeypatch.setattr(arrangement, name, refuse)
    poset = data["poset"]
    images = {poset.act_node(g, nd.index)
              for g in data["group"].elements for nd in poset.nodes}
    assert images == set(range(len(poset.nodes)))


@pytest.mark.parametrize("case", POSET_CASES)
def test_kernel_read_off_pivots(fixture_data, main_data, case):
    # the carrier basis is the RREF kernel with each vector scaled to
    # coprime integers by a positive factor
    _, poset = _case_poset(fixture_data, main_data, case)
    for nd in poset.nodes:
        s = nd.subspace
        rational = kernel_basis(Matrix.from_rows(s.rows, cols=s.ambient_dim))
        assert cached_kernel(s.rows, s.ambient_dim) == s.carrier_basis() \
            == integer_kernel(s.rows, s.ambient_dim)
        assert len(s.carrier_basis()) == len(rational) == s.dim
        for u, v in zip(s.carrier_basis(), rational):
            assert canonical_oracle.positive_multiple(u, v)
            assert math.gcd(*u) == 1


def test_kernel_of_no_equalities():
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert cached_kernel((), 5) == units
    assert make_subspace([], [], 5).carrier_basis() == units
    assert kernel_basis(Matrix.zeros(0, 5)) == units


# --- the integer stage-one form --------------------------------------------


def _same_description(rng, eqs, ineqs):
    """Another description of the same set: equalities shuffled, scaled by
    nonzero integers and mixed; inequalities scaled by positive integers,
    shifted by equality rows, shuffled and one repeated."""
    eqs = [list(f) for f in eqs]
    for i in range(len(eqs)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        j = rng.randrange(len(eqs))
        t = rng.randint(-2, 2) if j != i else 0
        eqs[i] = [c * x + t * y for x, y in zip(eqs[i], eqs[j])]
    rng.shuffle(eqs)
    out = []
    for q in ineqs:
        c = rng.randint(1, 3)
        q = [c * x for x in q]
        for e in eqs:
            t = rng.randint(-2, 2)
            q = [x + t * y for x, y in zip(q, e)]
        out.append(q)
    out.append(out[rng.randrange(len(out))])
    rng.shuffle(out)
    return eqs, out


def test_integer_stage_one_key_matches_rational_form():
    # the descriptions of test_make_subspace_matches_iterative_oracle, each
    # also in a second, equivalent writing
    from fanpart.arrangement import _reduce
    from fanpart.exactlin import integer_rows, leading_column
    rng, alt = random.Random(0), random.Random(1)
    int_keys, rational_keys, both = set(), set(), set()
    for _ in range(2000):
        eqs, ineqs, dim = _random_description(rng)
        seen = set()
        for e, q in ((eqs, ineqs), _same_description(alt, eqs, ineqs)):
            rows, int_ineqs = _reduce(integer_rows(e), integer_rows(q))
            R, rational_ineqs = canonical_oracle.stage_one_key(e, q, dim)
            pivots = [leading_column(row) for row in rows]
            assert all(row[c] > 0 and math.gcd(*row) == 1
                       for row, c in zip(rows, pivots))
            assert tuple(tuple(Fraction(x, row[c]) for x in row)
                         for row, c in zip(rows, pivots)) == R
            assert int_ineqs == rational_ineqs
            assert all(math.gcd(*q) == 1 for q in int_ineqs)
            seen.add((rows, int_ineqs))
            int_keys.add((dim, rows, int_ineqs))
            rational_keys.add((dim, R, rational_ineqs))
            both.add((dim, rows, int_ineqs, R, rational_ineqs))
        assert len(seen) == 1
    # equal integer keys exactly when the rational forms are equal: the
    # map between them is one to one on every key drawn, and some
    # different draws do share a form
    assert len(int_keys) == len(rational_keys) == len(both) < 2000


def test_implicit_equalities_tests_an_opposite_pair_once(monkeypatch):
    import fanpart.arrangement as arrangement
    from fanpart.arrangement import implicit_equalities
    calls = []
    fm = arrangement._fm_feasible

    def counted(*args):
        calls.append(args)
        return fm(*args)

    monkeypatch.setattr(arrangement, "_fm_feasible", counted)
    # x >= 0 and -2x >= 0 force x = 0; y >= 0 and z >= 0 force nothing
    forms = [vec([1, 0, 0]), vec([0, 1, 0]), vec([-2, 0, 0]),
             vec([0, 0, 1])]
    assert implicit_equalities(forms, [], 3) == [0, 2]
    assert len(calls) == 3
    # K+ and K- meeting on the carrier of the (1, 2) pieces: one cone test
    # finds both forms implicit, and the promotion leaves no inequality
    n, a, b = 6, 1, 2
    L = make_L_alpha(n, a, b)
    k = k_form(n, a, b)
    calls.clear()
    s = make_subspace(L.rows, [k, [-x for x in k]], n)
    assert len(calls) == 1
    assert s.is_linear and s.dim == L.dim - 1
    assert s.key() == make_subspace(list(L.rows) + [k], [], n).key()


def _record_forms(monkeypatch):
    """Count the calls of `_moved_form` and record the poset nodes whose
    `subspace` is read, by identity."""
    import fanpart.arrangement as arrangement
    calls, read = [], set()
    moved, subspace = arrangement._moved_form, arrangement.PosetNode.subspace

    def counted(g, s):
        calls.append(g)
        return moved(g, s)

    def reading(nd):
        read.add(id(nd))
        return subspace.fget(nd)

    monkeypatch.setattr(arrangement, "_moved_form", counted)
    monkeypatch.setattr(arrangement.PosetNode, "subspace", property(reading))
    return calls, read


def _moved_nodes_read(poset, read) -> set:
    """The nodes among `read` that are neither a maximal element nor an
    orbit representative: those whose form is built when read."""
    return {nd.index for nd in poset.nodes if id(nd) in read
            and nd.index not in poset.maximal_node_ids
            and poset.orbit[nd.index] != nd.index}


def _count_poset_work(monkeypatch, arr):
    """Run intersection_poset with no Fraction RREF allowed, counting the
    meets of a node with an element, the stage-one reductions, the moves of
    a subspace by a group element among them, the settled forms and the
    promotions among those.  Also returns the mask each representative was
    made from (its first `_orbits_outside` call), and the moved nodes whose
    form was read."""
    import fanpart.arrangement as arrangement
    import fanpart.exactlin as exactlin
    count = dict.fromkeys(("reduce", "settle", "promoted"), 0)
    visits = []

    def counted(key, fn):
        def run(*args):
            count[key] += 1
            return fn(*args)
        return run

    settle = arrangement._settle_cone
    orbits_outside = arrangement._orbits_outside

    def counted_settle(s):
        count["settle"] += 1
        out = settle(s)
        count["promoted"] += len(out.rows) > len(s.rows)
        return out

    def recorded(perms, mask, done):
        out = orbits_outside(perms, mask, done)
        visits.append((mask, done, list(out)))
        return out

    def refuse(*args):
        raise AssertionError("the poset ran a Fraction elimination")

    monkeypatch.setattr(exactlin, "rref", refuse)
    monkeypatch.setattr(arrangement, "echelon_rationals", refuse)
    monkeypatch.setattr(arrangement, "_reduce",
                        counted("reduce", arrangement._reduce))
    monkeypatch.setattr(arrangement, "_settle_cone", counted_settle)
    monkeypatch.setattr(arrangement, "_orbits_outside", recorded)
    calls, read = _record_forms(monkeypatch)
    poset = intersection_poset(arr)
    monkeypatch.undo()
    count["moved"] = len(calls)
    count["meets"] = len(_meets_made(poset, visits))
    masks = [mask for mask, done, _ in visits if not done]
    return poset, count, masks, _moved_nodes_read(poset, read)


def _meets_made(poset, visits):
    """The meets (r, m) of a representative r with an element m, read off
    the `_orbits_outside` calls (mask, done, orbits) of a poset build: r is
    the meet of the mask, and r meets the elements of a call's orbits up
    to its next call, which it makes after a growth of its support, with
    the orbits met so far in `done`."""
    by_node: dict = {}
    for mask, done, out in visits:
        by_node.setdefault(_meet_of_mask(poset, mask), []).append((done, out))
    meets = []
    for r, calls in by_node.items():
        for (_, out), (done, _) in zip(calls, calls[1:] + [(-1, None)]):
            meets += [(r, m) for m, orb in out if not orb & ~done]
    return meets


def _assert_poset_matches_rational_closure(arr, poset):
    keys, labels, support, covers = poset_oracle.rational_closure(arr)
    assert [canonical_oracle.rational_key(nd.subspace)
            for nd in poset.nodes] == keys
    assert [nd.label for nd in poset.nodes] == labels
    assert poset.support == support
    assert poset.covers == covers


@pytest.mark.parametrize("case", POSET_CASES)
def test_poset_matches_rational_closure(fixture_data, main_data, case,
                                        monkeypatch):
    arr = _case_poset(fixture_data, main_data, case)[1].arrangement
    _assert_poset_matches_rational_closure(
        arr, _count_poset_work(monkeypatch, arr)[0])


@pytest.mark.slow
def test_poset_matches_rational_closure_n10_23(main_data, monkeypatch):
    data = main_data(10, 2, 3)
    arr = data["poset"].arrangement
    poset, count, masks, formed = _count_poset_work(monkeypatch, arr)
    _assert_poset_matches_rational_closure(arr, poset)
    # only one node of each of the 24 orbits meets the 25 elements, one
    # element per orbit of H outside its support, H the permutations of the
    # elements that fix it.  The mask the node was made from bounds the
    # meets by 364; H is taken again as the support grows, which leaves 338
    # (`_meets_made`).  The carrier of the node decides 257 of them with no
    # stage-one form, so at most 81 are keyed (the reductions that are
    # neither moves nor promotions), and at most 30 of their forms are new.
    # The move table comes with the arrangement, so the moves are one per
    # moved node whose form was read: 97 stage-one reductions in all
    group, nmax = data["group"], len(arr.maximal_elements)

    def orbits_outside(mask):
        inside = {k for k in range(nmax) if mask >> k & 1}
        stab = [g for g in distinct_actions(group)
                if {poset.act_node(g, k) for k in inside} == inside]
        return {frozenset(poset.act_node(g, m) for g in stab)
                for m in range(nmax) if m not in inside}

    assert len(set(poset.orbit)) == len(masks) == 24 and nmax == 25
    assert count["meets"] <= sum(len(orbits_outside(mask)) for mask in masks)
    assert count["meets"] <= 338
    assert count["reduce"] - count["moved"] - count["promoted"] <= \
        count["meets"] - 257
    assert count["settle"] <= 30
    assert count["moved"] == len(formed)
    assert count["reduce"] <= 97


def _meets_decided_in_carrier(monkeypatch, arr):
    """Build the poset of an arrangement, recording each meet of a
    representative with an element (`_meets_made`) and the meets keyed by
    `_reduce`.  Returns the poset and the meets given no key, as (node,
    element)."""
    import fanpart.arrangement as arrangement
    elems = arr.maximal_elements
    visits, keyed = [], set()
    orbits_outside, reduce = arrangement._orbits_outside, arrangement._reduce

    def recorded(perms, mask, done):
        out = orbits_outside(perms, mask, done)
        visits.append((mask, done, list(out)))
        return out

    def keying(eq_rows, ineq_rows, base=()):
        # a meet passes the element's rows and the representative's rows
        # as base, and the two lists of inequalities joined
        m = next((m for m, e in enumerate(elems) if eq_rows is e.rows), None)
        if m is not None:
            ineqs = ineq_rows[:len(ineq_rows) - len(elems[m].inequalities)]
            keyed.add(((base, ineqs), m))
        return reduce(eq_rows, ineq_rows, base)

    monkeypatch.setattr(arrangement, "_orbits_outside", recorded)
    monkeypatch.setattr(arrangement, "_reduce", keying)
    poset = intersection_poset(arr)
    monkeypatch.undo()
    return poset, [(r, m) for r, m in _meets_made(poset, visits)
                   if (poset.nodes[r].subspace.key(), m) not in keyed]


def _meet_of_mask(poset, mask):
    """The intersection of the elements of a mask: the node of fewest
    support bits whose support holds the mask."""
    return min((i for i, s in enumerate(poset.support) if not mask & ~s),
               key=lambda i: poset.support[i].bit_count())


@pytest.mark.parametrize("case", [
    (1, 2), (1, 3), pytest.param((2, 3), marks=pytest.mark.slow)],
    ids=lambda v: "-".join(map(str, v)))
def test_meets_decided_in_carrier_match_the_key_route(main_data, case,
                                                      monkeypatch):
    # each meet r ^ m decided with no stage-one form is the node that the
    # full canonical form of the meet's description names: r itself when
    # the containment rule grew r's support by m, and otherwise a node
    # other than r, the meet of the two masks
    from fanpart.arrangement import _reduce, _settle_cone
    a, b = case
    arr = main_data(2 * (a + b), a, b)["poset"].arrangement
    poset, decided = _meets_decided_in_carrier(monkeypatch, arr)
    by_key = {nd.subspace.key(): nd.index for nd in poset.nodes}
    held = 0
    for r, m in decided:
        s, e = poset.nodes[r].subspace, arr.maximal_elements[m]
        meet = _settle_cone(HalfOpenSubspace(*_reduce(
            e.rows, s.inequalities + e.inequalities, s.rows), arr.ambient_dim))
        j = by_key[meet.key()]
        if poset.support[r] >> m & 1:
            held += 1
            assert j == r, (r, m)
        else:
            assert j != r and \
                j == _meet_of_mask(poset, poset.support[r] | 1 << m), (r, m)
    # both rules decide some meets: at (1, 2) containment decides 3 of its
    # 33 meets and a known linear node 22
    assert 0 < held < len(decided)


def _arrangement_in_R3(*elements):
    """Maximal elements of R^3 in the given order, under the trivial group."""
    group = cyclic_shift_group(1, 3, (1, 2, 3))
    return Arrangement(list(elements), group, 3,
                       {group.identity().perm: tuple(range(len(elements)))})


def test_candidate_of_the_meets_dimension_that_is_no_subspace_decides_nothing():
    # h = {x >= 0} meets the planes z = 0 and y = 0 first, so when the plane
    # z = 0 meets y = 0 the only node below both is the ray {x >= 0} of the
    # x-axis: of the meet's dimension, and strictly inside it.  Only a
    # linear candidate of that dimension is the meet
    h = make_subspace([], [[1, 0, 0]], 3, "h")
    z = make_subspace([[0, 0, 1]], [], 3, "z")
    y = make_subspace([[0, 1, 0]], [], 3, "y")
    arr = _arrangement_in_R3(h, z, y)
    poset = intersection_poset(arr)
    _assert_poset_matches_rational_closure(arr, poset)
    axis = make_subspace([[0, 0, 1], [0, 1, 0]], [], 3).key()
    assert axis in {nd.subspace.key() for nd in poset.nodes}
    assert len(poset.nodes) == 7


def test_element_whose_rows_vanish_on_the_carrier_holds_it_only_if_linear():
    # the half-space {x >= 0} has no equality, so its rows vanish on the
    # plane z = 0, but its inequality cuts the plane in a half-plane
    z = make_subspace([[0, 0, 1]], [], 3, "z")
    h = make_subspace([], [[1, 0, 0]], 3, "h")
    arr = _arrangement_in_R3(z, h)
    poset = intersection_poset(arr)
    _assert_poset_matches_rational_closure(arr, poset)
    assert len(poset.nodes) == 3 and poset.support[0] == 1


def test_steps_1_to_3_form_only_the_moved_nodes_they_read(monkeypatch):
    # Steps 1-3 of the pipeline at (2, 3): the nodes compared while the
    # poset is built are the only moved nodes formed; the census reads the
    # representatives only
    n, a, b = 10, 2, 3
    group = quaternion_on_Wn(n)
    l1, l2 = make_J_pieces(n, a, b)
    h = obstruction.define_h(n)
    obstruction.check_equivariance(h, group)
    obstruction.enumerate_L_intersections(h, n, a, b)
    arr = orbit_closure(group, [l1, l2])
    calls, read = _record_forms(monkeypatch)
    poset = intersection_poset(arr)
    poset.level_counts()
    poset.debug_lines()
    obstruction.intersect_with_Jpieces(h, l1, l2, n, a, b)
    obstruction.preimage_simplices(h, poset, n, a, b)
    monkeypatch.undo()
    formed = _moved_nodes_read(poset, read)
    assert len(calls) == len(formed)


def test_zz_basis_forms_only_its_walls(main_data, monkeypatch):
    # the node scan reads linearity off the representatives, so the moved
    # nodes zz_basis forms are its walls not compared while the poset was
    # built
    arr = main_data(8, 1, 3)["poset"].arrangement
    calls, read = _record_forms(monkeypatch)
    poset = intersection_poset(arr)
    compared = _moved_nodes_read(poset, read)
    before = len(calls)
    read.clear()
    zz = zz_basis(poset)
    monkeypatch.undo()
    walls = {w.node for w in zz.walls}
    moved_walls = {w for w in walls if poset.orbit[w] != w}
    assert _moved_nodes_read(poset, read) == moved_walls
    assert len(calls) - before == len(moved_walls - compared) > 0

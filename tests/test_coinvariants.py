from fractions import Fraction

import pytest

from fanpart.arrangement import (HalfOpenSubspace, intersection_poset,
                                 make_J_pieces, make_subspace, orbit_closure,
                                 transform)
from fanpart.coinvariants import (_relations, _shape, _top_gen_image,
                                  _wall_pages,
                                  coinvariants_from_relations,
                                  describe_factors, dual_coinvariants,
                                  induced_action, modified_coinvariants,
                                  twisted_coinvariants)
from fanpart.exactlin import (Matrix, determinant, dot, free_minor_sign,
                              from_columns, integer_dot, kernel_basis, sign,
                              solve_affine, vec)
from fanpart.groups import (ActionGroup, act, cyclic_shift_group,
                            det_character, distinct_actions, quaternion_on_Wn)
from fanpart.fixtures import run_fixture
from fanpart.homology import UnsupportedArrangement, zz_basis
from fanpart.obstruction import obstruction_class
from orientation_signs import (action_matrix_by_cone_sums, frame_det,
                               join_sphere_sign, orientation_sign,
                               page_image_by_frame, transport_sign)


# --- orientation signs, anchored to the worked examples ---------------------


def test_orientation_sign_identity(fixture_data):
    data = fixture_data("z8")
    group, poset = data["group"], data["poset"]
    L = poset.nodes[poset.maximal_node_ids[0]].subspace
    assert orientation_sign(group, group.identity(), L) == 1


def test_orientation_sign_z8_square():
    # the square of the 8-cycle on the paired subspace reverses orientation:
    # the complement determinant is -1 while the ambient one is +1
    group = cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    L = make_subspace([
        vec([1, 1, 0, 0, 0, 0, 0, 0]), vec([0, 0, 1, 1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 1, 0, 0]), vec([0, 0, 0, 0, 0, 0, 1, 1])],
        [], 8, "L")
    eps2 = group.by_word(2)
    assert det_character(eps2) == 1
    assert orientation_sign(group, eps2, L) == -1


def test_orientation_sign_z4_square_positive(fixture_data):
    data = fixture_data("z4")
    group, poset = data["group"], data["poset"]
    eps2 = group.by_word(2)
    wall = next(nd for nd in poset.nodes if nd.dim == 2
                and poset.act_node(eps2, nd.index) == nd.index)
    assert orientation_sign(group, eps2, wall.subspace) == 1


def test_orientation_sign_matches_direct_restriction(fixture_data):
    # det(g restricted to the carrier) computed two ways: via the complement
    # and via the change of basis on the carrier itself
    data = fixture_data("z8")
    group, poset = data["group"], data["poset"]
    for nd in poset.nodes:
        basis = nd.subspace.carrier_basis()
        if not basis:
            continue
        for g in group.elements:
            if poset.act_node(g, nd.index) != nd.index:
                continue
            via_complement = orientation_sign(group, g, nd.subspace)
            via_carrier = transport_sign(g, basis, basis)
            assert via_complement == via_carrier


def test_orientation_sign_rejects_moving_carrier(fixture_data):
    data = fixture_data("z8")
    group, poset = data["group"], data["poset"]
    L = poset.nodes[poset.maximal_node_ids[0]].subspace
    eps = group.by_word(1)
    with pytest.raises(ValueError):
        orientation_sign(group, eps, L)


def test_complement_determinant_example_matrix():
    # the recorded complement basis and its recorded action matrix
    f1 = vec([1, 1, 0, 0, 0, 0, 0, 0])
    f2 = vec([0, 0, 1, 1, 0, 0, 0, 0])
    f3 = vec([0, 0, 0, 0, 1, 1, 0, 0])
    f4 = vec([1, 1, 1, 1, 1, 1, 1, 1])
    group = cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    eps2 = group.by_word(2)
    cols = []
    for f in (f1, f2, f3, f4):
        img = act(eps2, f)
        cols.append(solve_affine(from_columns([f1, f2, f3, f4]), img))
    m = from_columns(cols)
    assert determinant(m) == -1


def test_z4_wall_sphere_negated_by_eps2(fixture_data):
    # the square of the generator swaps the two sheets over each wall while
    # preserving the spine orientation: the wall sphere maps to minus
    # itself, possibly plus fundamental-sphere corrections when the chosen
    # sections land on the opposite pages
    data = fixture_data("z4")
    group, poset, zz, action = (data["group"], data["poset"], data["zz"],
                                data["action"])
    eps2 = group.by_word(2)
    m = action.matrix(eps2)
    for w in zz.walls:
        if poset.act_node(eps2, w.node) != w.node:
            continue
        for e in w.elements[1:]:
            i = zz.wall_index(w.node, e)
            col = [m.entries[r][i] for r in range(zz.rank)]
            assert col[i] == -1
            for r, c in enumerate(col):
                if r != i and c != 0:
                    assert zz.generators[r].kind == "top"
        # with moved sections the strict sphere map is undefined
        try:
            s = join_sphere_sign(group, zz, eps2, w.node, tuple(w.elements))
            assert s == -1
        except ValueError:
            pass


def test_induced_action_is_representation(fixture_data, main_data):
    for data in (fixture_data("z8"), fixture_data("z4"),
                 main_data(6, 1, 2)):
        group, action = data["group"], data["action"]
        for g in group.elements:
            for h in group.elements:
                assert action.matrix(g).mul(action.matrix(h)) == \
                    action.matrix(group.mul(g, h))


WALL_CASES = ["z4", (6, 1, 2), (8, 2, 2), (8, 1, 3),
              pytest.param((10, 2, 3), marks=pytest.mark.slow)]


@pytest.mark.parametrize("case", ["z8"] + WALL_CASES)
def test_wall_signs_equal_the_full_frame_per_sheet(fixture_data, main_data,
                                                   case):
    # one spine sign per (element, wall), shared by the sheets, against
    # the sign of each sheet's whole (spine, ray) frame (z8 has no walls)
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    zz = data["zz"]
    assert zz.walls or case == "z8"
    for g in data["group"].elements:
        for wall in zz.walls:
            assert _wall_pages(zz, g, wall) == {
                e: page_image_by_frame(zz, g, wall, e) for e in wall.elements}


@pytest.mark.parametrize("case", WALL_CASES)
def test_action_matrices_equal_the_cone_sums(fixture_data, main_data, case):
    # one formula per wall generator against the image summed over the cone
    # and sphere coefficients of both sheets
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    zz, action = data["zz"], data["action"]
    assert zz.walls
    for g in data["group"].elements:
        assert action.matrix(g) == action_matrix_by_cone_sums(zz, g)


def test_induced_action_takes_one_minor_per_wall_and_top_node(
        main_data, monkeypatch):
    # no elimination: one transport minor per distinct permutation and per
    # wall or top node, 12 x 6 = 72 at (6, 1, 2), each taken by
    # `free_minor_sign`, and none of a stored basis, whose minor is
    # positive by construction; one fraction-free solve per element and
    # sheet took 24 x 18 = 432
    import fanpart.arrangement as arrangement
    import fanpart.coinvariants as co
    import fanpart.exactlin as exactlin
    data = main_data(6, 1, 2)
    group, zz = data["group"], data["zz"]
    calls = []
    free_minor_sign = co.free_minor_sign

    def counting(rows, vectors):
        calls.append(vectors)
        return free_minor_sign(rows, vectors)

    def refuse(*args):
        raise AssertionError("induced_action ran an elimination")
    monkeypatch.setattr(co, "free_minor_sign", counting)
    for module in (exactlin, arrangement):
        monkeypatch.setattr(module, "echelon", refuse)
    assert induced_action(group, zz).matrices == data["action"].matrices
    nodes = len(zz.walls) + len(zz.top_nodes)
    assert len(calls) == len(distinct_actions(group)) * nodes == 72


def _bases(zz):
    """node -> its stored basis, for each top node and wall."""
    return {**zz.top_basis, **{w.node: w.spine_basis for w in zz.walls}}


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 1, 3)])
def test_transport_minor_matches_frame_det(fixture_data, main_data, case):
    # the free-column minor of the moved basis against one fraction-free
    # solve of it in the stored target basis, for every distinct action and
    # every top node and wall
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    group, poset, zz = data["group"], data["poset"], data["zz"]
    bases, signs = _bases(zz), set()
    for g in distinct_actions(group):
        for node, basis in bases.items():
            target = poset.act_node(g, node)
            got = free_minor_sign(poset.nodes[target].subspace.rows,
                                  [act(g, v) for v in basis])
            assert got == transport_sign(g, basis, bases[target]), (g, node)
            signs.add(got)
    assert signs == {1, -1}


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 1, 3)])
def test_stored_bases_have_positive_free_minor(fixture_data, main_data,
                                               case):
    # every stored basis is its carrier's `integer_kernel` basis, positive
    # diagonal on the free columns: the transport signs read no sign of
    # their own target basis, and the rewrite signs rely on it too
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    poset = data["poset"]
    for node, basis in _bases(data["zz"]).items():
        assert free_minor_sign(poset.nodes[node].subspace.rows, basis) == 1


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 1, 3)])
def test_rewrite_sign_matches_frame_det(fixture_data, main_data, case):
    # each linear sheet's rewrite sign, a free-column minor, against one
    # fraction-free solve of (spine, ray+) in the sheet's carrier basis
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    zz, poset = data["zz"], data["poset"]
    checked = 0
    for w in zz.walls:
        for e, s in w.rewrite_sign.items():
            num, _ = frame_det(list(w.spine_basis) + [w.rays[(e, 1)]],
                               poset.nodes[e].subspace.carrier_basis())
            assert s == sign(num), (w.node, e)
            checked += 1
    assert checked or case == "z8"


def test_transport_minor_refuses_a_vector_off_the_target_carrier(main_data):
    # a moved basis vector that a row of the target carrier does not
    # annihilate has no coordinates in the target basis: the image of a top
    # node, or of a wall's spine, under the identity is refused
    data = main_data(6, 1, 2)
    poset, e = data["poset"], data["group"].identity()
    zz = zz_basis(poset)              # tables of its own, edited here
    for node, basis in _bases(zz).items():
        rows = poset.nodes[node].subspace.rows
        basis[0] = next(tuple(int(c == k) for c in range(len(rows[0])))
                        for k in range(len(rows[0]))
                        if any(row[k] for row in rows))
        with pytest.raises(ValueError, match="not in span"):
            if node in zz.top_basis:
                _top_gen_image(zz, e, node)
            else:
                _wall_pages(zz, e, zz.wall_by_node[node])


@pytest.mark.parametrize("case", [(6, 1, 2), (8, 1, 3)])
def test_shared_matrix_equals_one_computed_alone(main_data, case):
    # one matrix per distinct permutation, shared by g and g eps^n: each
    # element that shares a matrix gets the one computed for it alone, from
    # a group listing that element only
    data = main_data(*case)
    group, zz, action = data["group"], data["zz"], data["action"]
    firsts = {g.word for g in distinct_actions(group)}
    shared = [g for g in group.elements if g.word not in firsts]
    assert len(shared) == len(firsts) == group.order // 2
    for g in shared:
        alone = ActionGroup([g], group.ambient_dim, [], group.modulus)
        assert induced_action(alone, zz).matrices == {g.word: action.matrix(g)}


@pytest.mark.parametrize("case", ["z4", (6, 1, 2), (8, 1, 3)])
def test_twisted_matrix_built_once_per_distinct_permutation(
        fixture_data, main_data, case):
    # det(g) times the plain matrix, one object shared by the elements that
    # act alike, and the same object on every read
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    group, action = data["group"], data["action"]
    first = {g.perm: g for g in distinct_actions(group)}
    for g in group.elements:
        twisted = action.modified_matrix(g)
        assert twisted.entries == tuple(
            tuple(det_character(g) * x for x in row)
            for row in action.matrix(g).entries)
        assert twisted is action.modified_matrix(first[g.perm])
    assert len({id(m) for m in action.twisted.values()}) == len(first)


@pytest.mark.parametrize("case", ["z4", (6, 1, 2), (8, 1, 3)])
def test_coinvariants_over_distinct_actions_equal_all_elements(
        fixture_data, main_data, case):
    # the relation lists are those of every element, and so are the
    # primal shape and the dual's Smith form and U
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    group, action = data["group"], data["action"]
    r = action.basis.rank
    firsts = distinct_actions(group)
    assert _relations(map(action.modified_matrix, firsts)) == \
        _relations(map(action.modified_matrix, group.elements))
    assert modified_coinvariants(action, group) == _shape(
        map(action.modified_matrix, group.elements), r)
    dual = [_relations(action.modified_matrix(group.inv(g)).transpose()
                       for g in elements)
            for elements in (firsts, group.elements)]
    assert dual[0] == dual[1]
    assert dual_coinvariants(action, group) == \
        coinvariants_from_relations(dual[1], r)


def test_wall_pages_check_each_ray(main_data):
    # the ray factor phi2(g ray) / phi2(ray2) and the carrier of g ray are
    # checked per sheet: a target ray on the wrong side of its wall, or a
    # ray moved out of its sheet's carrier, is refused
    data = main_data(6, 1, 2)
    group, poset = data["group"], data["poset"]
    zz = zz_basis(poset)              # tables of its own, edited below
    g, wall, v2, e2, side2 = next(
        (g, w, v2, e2, side2) for g in group.elements for w in zz.walls
        for v2, e2, side2, _ in _wall_pages(zz, g, w).values()
        if side2 != zz.wall_by_node[v2].rep_side[e2])
    rays2 = zz.wall_by_node[v2].rays
    ray2 = rays2[e2, side2]
    rays2[e2, side2] = tuple(-x for x in ray2)
    with pytest.raises(UnsupportedArrangement, match="ray factor"):
        _wall_pages(zz, g, wall)
    rays2[e2, side2] = ray2
    e = wall.elements[0]
    rows = poset.nodes[e].subspace.rows
    n = len(ray2)
    out = next(v for v in (tuple(int(c == k) - int(c == k + 1)
                                 for c in range(n)) for k in range(n - 1))
               if any(integer_dot(r, v) for r in rows))
    ray = wall.rays[e, wall.rep_side[e]]
    wall.rays[e, wall.rep_side[e]] = tuple(x + y for x, y in zip(ray, out))
    with pytest.raises(ValueError, match="carrier"):
        _wall_pages(zz, group.identity(), wall)


def test_z8_relation_l_equals_minus_eps2_l(fixture_data):
    data = fixture_data("z8")
    group, zz, action = data["group"], data["zz"], data["action"]
    m = action.matrix(group.by_word(2))
    for i in range(zz.rank):
        col = [m.entries[r][i] for r in range(zz.rank)]
        assert col[i] == -1
        assert all(c == 0 for r, c in enumerate(col) if r != i)


def test_z8_coinvariants(fixture_data):
    data = fixture_data("z8")
    factors, free_rank = modified_coinvariants(data["action"], data["group"])
    assert factors == [2]
    assert free_rank == 0
    assert describe_factors(factors, free_rank) == "Z2"


def test_z4_coinvariants_computed(fixture_data):
    # the recorded reference for this fixture states Z (+) Z with no
    # torsion; the exact chain-level computation gives Z (+) Z2, because
    # the generator's square swaps the two sheets over each wall while
    # fixing the spine, which negates the wall sphere (see the z4 join
    # sign test and the independent graph oracle below)
    data = fixture_data("z4")
    assert modified_coinvariants(data["action"], data["group"]) == ([2], 1)


def test_main_case_l_relations(main_data):
    # the linear-piece relations: eps^{a+b} gives a trivial relation and
    # eps^{-b} j gives l ~ -l in the twisted quotient
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    group, poset, zz, action = (data["group"], data["poset"], data["zz"],
                                data["action"])
    l2 = data["l2"]
    l2_node = next(i for i in poset.maximal_node_ids
                   if poset.nodes[i].subspace.key() == l2.key())
    idx = zz.top_index(l2_node)
    eab = group.by_word(a + b)
    ebj = group.mul(group.inv(group.by_word(b)), group.by_word(0, 1))
    m1 = action.modified_matrix(eab)
    assert [m1.entries[r][idx] for r in range(zz.rank)] == \
        [1 if r == idx else 0 for r in range(zz.rank)]
    m2 = action.modified_matrix(ebj)
    assert [m2.entries[r][idx] for r in range(zz.rank)] == \
        [-1 if r == idx else 0 for r in range(zz.rank)]


def test_main_case_boundary_wall_expansion(main_data):
    # the crux relation: eps^{a+b} carries the wall sphere through the
    # sheet pair (L1*, L2*-page) to the pair (eps^{a+b}L1*, other L2*-page);
    # rewriting the page produces a fundamental-sphere correction term
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    group, poset, zz, action = (data["group"], data["poset"], data["zz"],
                                data["action"])
    eab = group.by_word(a + b)
    wall = next(w for w in zz.walls
                if poset.act_node(eab, w.node) == w.node)
    full = next(e for e in wall.elements
                if not poset.nodes[e].subspace.inequalities)
    l2_top = zz.top_index(full)
    m = action.matrix(eab)
    corrections = 0
    for e in wall.elements[1:]:
        i = zz.wall_index(wall.node, e)
        col = [m.entries[r][i] for r in range(zz.rank)]
        if col[l2_top] != 0:
            corrections += 1
            # the image is a signed wall generator plus the correction
            support = {r for r, c in enumerate(col) if c != 0}
            assert l2_top in support
    assert corrections >= 1


def test_main_case_h_relation_sign(main_data):
    # the sheet-swapping element fixes the spine line pointwise, so the
    # sphere through the two swapped half-subspaces is negated
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    group, poset, zz = data["group"], data["poset"], data["zz"]
    eab = group.by_word(a + b)
    wall = next(w for w in zz.walls
                if poset.act_node(eab, w.node) == w.node)
    halves = [e for e in wall.elements
              if poset.nodes[e].subspace.inequalities]
    swapped = [(e, poset.act_node(eab, e)) for e in halves]
    pair = next((e, f) for e, f in swapped if f in halves and f != e)
    s = join_sphere_sign(group, zz, eab, wall.node, pair)
    assert s == -1
    # the spine of this wall is fixed pointwise
    (bvec,) = wall.spine_basis
    assert act(eab, bvec) == bvec


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 1, 3), (8, 2, 2)])
def test_main_case_coinvariants(main_data, n, a, b):
    # the exact twisted quotient; the recorded reference claims Z2 (+) Z4
    data = main_data(n, a, b)
    assert modified_coinvariants(data["action"], data["group"]) == ([2], 1)


def test_generator_relations_match_full(fixture_data, main_data):
    # the generators' relations give the primal shape, by sparse elimination
    # and by the dense Smith form
    for data in (fixture_data("z4"), main_data(6, 1, 2)):
        action, group = data["action"], data["group"]
        r, gens = action.basis.rank, group.generators
        shape = modified_coinvariants(action, group)
        assert _shape(map(action.modified_matrix, gens), r) == shape
        dense = coinvariants_from_relations(
            _relations(map(action.modified_matrix, gens)), r)
        assert (dense.invariant_factors, dense.rank) == shape


def test_dual_matches_primal(fixture_data, main_data):
    for data in (fixture_data("z8"), fixture_data("z4"), main_data(6, 1, 2)):
        dg = dual_coinvariants(data["action"], data["group"])
        assert modified_coinvariants(data["action"], data["group"]) == \
            (dg.invariant_factors, dg.rank)


STEP6_LAWS = ["action is a representation", "generator relations suffice",
              "dual and primal quotients agree"]


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 2, 2)])
def test_twisted_coinvariants_laws_and_factors(fixture_data, main_data, case):
    # Step 6 is one routine: its three laws hold, in the certificate's
    # order, and the fixture report and the certificate show its quotients
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    group, action = data["group"], data["action"]
    shape, dg, laws = twisted_coinvariants(group, data["zz"])
    assert list(laws.items()) == [(law, True) for law in STEP6_LAWS]
    assert shape == modified_coinvariants(action, group)
    assert dg == dual_coinvariants(action, group)
    assert (dg.invariant_factors, dg.rank) == shape
    if isinstance(case, str):
        rep = run_fixture(case)
        assert (rep.factors, rep.free_rank) == shape
        assert not [d for d in rep.diffs if d.startswith("law fails")]
    else:
        cert = obstruction_class(*case)
        assert (cert.coinvariant_factors, cert.coinvariant_rank) == shape
        names = list(cert.checks)
        first = names.index(STEP6_LAWS[0])
        assert names[first:first + 3] == STEP6_LAWS
        assert all(cert.checks[law] for law in STEP6_LAWS)


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 2, 2)])
def test_twisted_coinvariants_flag_a_faulty_action(
        fixture_data, main_data, monkeypatch, case):
    # one entry of the first generator's matrix negated, as in the selftest
    # fault injection: the action no longer multiplies like the group, and
    # the fixture report names the failed law
    import fanpart.coinvariants as co
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)

    def faulty_action(group, zz):
        action = induced_action(group, zz)
        word = group.generators[0].word
        rows = [list(row) for row in action.matrices[word].entries]
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x)
        rows[i][j] = -rows[i][j]
        action.matrices[word] = Matrix(rows)
        return action
    monkeypatch.setattr(co, "induced_action", faulty_action)
    laws = twisted_coinvariants(data["group"], data["zz"])[2]
    assert laws["action is a representation"] is False
    if isinstance(case, str):
        assert "law fails: action is a representation" in \
            run_fixture(case).diffs


def primal_group(data):
    """The primal quotient as a group with `project`: the dense Smith form
    over the relations whose shape `modified_coinvariants` gives."""
    action, group = data["action"], data["group"]
    cg = coinvariants_from_relations(
        _relations(map(action.modified_matrix, distinct_actions(group))),
        action.basis.rank)
    assert (cg.invariant_factors, cg.rank) == \
        modified_coinvariants(action, group) == ([2], 1)
    return cg


def test_projection_invariance(main_data):
    # the class of g * x equals the class of x for every generator and x
    data = main_data(6, 1, 2)
    group, zz, action = data["group"], data["zz"], data["action"]
    cg = primal_group(data)
    for g in group.generators:
        m = action.modified_matrix(g)
        for i in range(zz.rank):
            x = [0] * zz.rank
            x[i] = 1
            gx = [int(m.entries[r][i]) for r in range(zz.rank)]
            assert cg.project(gx) == cg.project(x)


def test_projection_order_and_zero(main_data):
    data = main_data(6, 1, 2)
    cg = primal_group(data)
    zero = [0] * data["zz"].rank
    assert cg.is_zero(zero)
    assert cg.order_of(zero) == 1


# --- independent oracle: the link of the union is a graph for n = 6 --------


def graph_model_matrices(data):
    """Action matrices from the one-dimensional link model: vertices are
    the unit rays of the spine lines, edges are the pages; an edge maps
    with a minus sign exactly when its wall's spine flips."""
    group, poset, zz = data["group"], data["poset"], data["zz"]
    walls = {w.node: w for w in zz.walls}
    edges = []
    for wn, w in sorted(walls.items()):
        for e in w.elements:
            edges.append((wn, e, w.rep_side[e]))
            if (e, -w.rep_side[e]) in w.rays:
                edges.append((wn, e, -w.rep_side[e]))
    eidx = {e: i for i, e in enumerate(edges)}

    def edge_image(g, e):
        wn, el, sd = e
        wn2 = poset.act_node(g, wn)
        el2 = poset.act_node(g, el)
        w2 = walls[wn2]
        gray = act(g, walls[wn].rays[(el, sd)])
        sd2 = sign(dot(w2.functionals[el2], gray))
        (bv,) = walls[wn].spine_basis
        (bv2,) = w2.spine_basis
        coords = solve_affine(from_columns([bv2]), act(g, bv))
        return (wn2, el2, sd2), sign(coords[0])

    def basis_cycles():
        out = []
        for gen in zz.generators:
            v = [0] * len(edges)
            if gen.kind == "top":
                for wn, w in walls.items():
                    if gen.node in w.elements:
                        s = w.rewrite_sign[gen.node]
                        v[eidx[(wn, gen.node, 1)]] += s
                        v[eidx[(wn, gen.node, -1)]] -= s
                        break
            else:
                w = walls[gen.node]
                v[eidx[(gen.node, gen.element, w.rep_side[gen.element])]] += 1
                base = w.elements[0]
                v[eidx[(gen.node, base, w.rep_side[base])]] -= 1
            out.append(v)
        return out

    BV = Matrix([[Fraction(c[i]) for c in basis_cycles()]
                 for i in range(len(edges))])
    matrices = {}
    for g in group.elements:
        cols = []
        for j in range(zz.rank):
            img = [0] * len(edges)
            for i, e in enumerate(edges):
                coeff = BV.entries[i][j]
                if coeff == 0:
                    continue
                e2, s = edge_image(g, e)
                img[eidx[e2]] += s * coeff
            coords = solve_affine(BV, vec(img))
            assert coords is not None
            cols.append(coords)
        matrices[g.word] = Matrix([[cols[j][i] for j in range(zz.rank)]
                                   for i in range(zz.rank)])
    return matrices


def test_graph_link_oracle_matches_action(main_data):
    # for n = 6 the link of the union is a graph; its combinatorial chain
    # action must reproduce the cone-frame machinery exactly
    data = main_data(6, 1, 2)
    oracle = graph_model_matrices(data)
    action = data["action"]
    for word, m in oracle.items():
        assert m == action.matrices[word]


def test_projection_of_doubled_wall_generator(main_data):
    # the reference computation places twice this generator at a nonzero
    # element of order two; the exact quotient has a free factor in this
    # direction instead, so its doubles have infinite order
    n, a, b = 6, 1, 2
    data = main_data(n, a, b)
    poset, zz, group = data["poset"], data["zz"], data["group"]
    cg = primal_group(data)
    eab = group.by_word(a + b)
    wall = next(w for w in zz.walls
                if poset.act_node(eab, w.node) == w.node)
    full = next(e for e in wall.elements
                if not poset.nodes[e].subspace.inequalities)
    half = next(e for e in wall.elements
                if poset.nodes[e].subspace.inequalities)
    k_vec = [0] * zz.rank
    base = wall.elements[0]
    if half != base:
        k_vec[zz.wall_index(wall.node, half)] += 1
    if full != base:
        k_vec[zz.wall_index(wall.node, full)] -= 1
    two_k = [2 * x for x in k_vec]
    four_k = [4 * x for x in k_vec]
    assert not cg.is_zero(two_k)
    assert cg.order_of(two_k) is None
    assert not cg.is_zero(four_k)


def test_duplicate_relations_leave_the_quotient_unchanged():
    import random

    from fanpart.coinvariants import coinvariants_from_relations
    rng = random.Random(20261018)
    seen_torsion = seen_free = False
    for _ in range(100):
        r = rng.randint(1, 5)
        distinct = list({tuple(rng.randint(-4, 4) for _ in range(r))
                         for _ in range(rng.randint(1, 6))})
        repeated = distinct + [rng.choice(distinct)
                               for _ in range(rng.randint(1, 8))]
        rng.shuffle(repeated)
        first = list(dict.fromkeys(repeated))
        full = coinvariants_from_relations(repeated, r)
        short = coinvariants_from_relations(first, r)
        assert (full.invariant_factors, full.rank) == \
            (short.invariant_factors, short.rank)
        seen_torsion |= bool(full.invariant_factors)
        seen_free |= full.rank > 0
    assert seen_torsion and seen_free


def test_non_integer_action_is_refused(fixture_data):
    # a Fraction(1, 2) entry gives a non-integer relation column.  The dense
    # Smith form refuses it; sparse elimination can eliminate it without a
    # complaint (z8 with entry (1, 0) or every entry at 1/2 gives a shape
    # when unguarded), so the relations are checked before either route
    from fanpart.coinvariants import OrientedGeneratorAction
    for fixture in ("z8", "z4"):
        data = fixture_data(fixture)
        group, action = data["group"], data["action"]
        g = group.generators[0]
        r = action.basis.rank
        for cells in ([(0, 0)], [(1, 0)],
                      [(i, j) for i in range(r) for j in range(r)]):
            rows = [list(row) for row in action.matrix(g).entries]
            for i, j in cells:
                rows[i][j] = Fraction(1, 2)
            d = det_character(g)
            bad = OrientedGeneratorAction(
                group, action.basis, {**action.matrices, g.word: Matrix(rows)},
                {**action.twisted,
                 g.word: Matrix([[d * x for x in row] for row in rows])})
            with pytest.raises(ValueError):
                modified_coinvariants(bad, group)
            with pytest.raises(ValueError):
                dual_coinvariants(bad, group)


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 1, 3)])
def test_coinvariants_match_every_relation_column(main_data, n, a, b):
    # the quotient by the distinct columns of g - 1 equals the quotient by
    # all of them, repeats included (312 columns, 95 distinct, at (1, 2)).
    # For the dual the Smith coordinate change U is the same too, so
    # `project`, and with it the class coordinates of a certificate, is
    # unchanged; on random relations U can differ, so this is checked on
    # the certificate cases.  The primal quotient is a shape with no U
    data = main_data(n, a, b)
    action, group = data["action"], data["group"]
    r = action.basis.rank
    modified = [action.modified_matrix(g) for g in group.elements]
    dual = [action.modified_matrix(group.inv(g)).transpose()
            for g in group.elements]
    dg = dual_coinvariants(action, group)
    for mats, shape in ((modified, modified_coinvariants(action, group)),
                        (dual, (dg.invariant_factors, dg.rank))):
        cols = [tuple(int(m.entries[i][j]) - (i == j) for i in range(r))
                for m in mats for j in range(r)]
        cols = [c for c in cols if any(c)]
        assert len(set(cols)) < len(cols)
        full = coinvariants_from_relations(cols, r)
        assert (full.invariant_factors, full.rank) == shape
    assert full.U == dg.U


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (8, 2, 2),
                                  (8, 1, 3)])
def test_relation_smith_forms_keep_the_full_scan_operations(
        fixture_data, main_data, monkeypatch, case):
    # Step 6 takes one dense Smith form, the dual's: its U fixes the class
    # coordinates of a certificate, so the cut scans must perform the
    # operations of the full scan: the same U, D, rank and column operations
    import fanpart.coinvariants as coinvariants
    from fanpart.exactlin import smith_normal_form
    from rescan_oracle import full_scan_smith_form
    data = fixture_data(case) if isinstance(case, str) else main_data(*case)
    seen = []

    def recording(m):
        seen.append(m)
        return smith_normal_form(m)
    monkeypatch.setattr(coinvariants, "smith_normal_form", recording)
    dg = twisted_coinvariants(data["group"], data["zz"])[1]
    assert len(seen) == 1
    a, b = smith_normal_form(seen[0]), full_scan_smith_form(seen[0])
    assert (a.U, a.D, a.rank, a.col_ops) == (b.U, b.D, b.rank, b.col_ops)
    assert dg.U == a.U


def test_dual_and_primal_take_two_routes(main_data, monkeypatch):
    # the primal shape comes from sparse elimination and the dual from the
    # dense Smith form, so a fault in the sparse route breaks their
    # agreement; the generator law reads the sparse route on both sides
    import fanpart.coinvariants as coinvariants
    from fanpart.exactlin import sparse_rank_and_factors
    data = main_data(6, 1, 2)

    def dropping(cols):
        rank, factors = sparse_rank_and_factors(cols)
        return rank, factors[:-1]
    monkeypatch.setattr(coinvariants, "sparse_rank_and_factors", dropping)
    shape, dg, laws = twisted_coinvariants(data["group"], data["zz"])
    assert shape == ([], 1)
    assert (dg.invariant_factors, dg.rank) == ([2], 1)
    assert laws["dual and primal quotients agree"] is False
    assert laws["generator relations suffice"] is True

import math
import random
from fractions import Fraction

import pytest

from fanpart.arrangement import (intersection_poset, make_J_pieces,
                                 make_subspace, orbit_closure)
from fanpart.exactlin import Matrix, kernel_basis, solve_affine, vec
from fanpart.groups import quaternion_on_Wn
from fanpart.homology import (SimplicialComplex, UnsupportedArrangement,
                              boundary_matrix, chain_heights,
                              complex_from_facets, crosscut_complex, nerve,
                              node_homology, order_complex,
                              reduced_homology, verify_lemma16,
                              verify_no_homology_above_top, zz_basis)

from canonical_oracle import positive_multiple, rational_key
from homology_oracle import dense_homology
from link_oracle import union_homology_rank
import poset_oracle


def two_points():
    return complex_from_facets([(1,), (2,)])


def triangle_boundary():
    return complex_from_facets([(1, 2), (2, 3), (1, 3)])


def test_reduced_homology_s0():
    h = reduced_homology(two_points(), 0)
    assert h.rank == 1
    assert h.torsion == []


def test_reduced_homology_empty():
    empty = SimplicialComplex((), ())
    assert reduced_homology(empty, 0).rank == 0
    assert reduced_homology(empty, 2).rank == 0
    assert reduced_homology(empty, -1).rank == 1


def test_reduced_homology_circle():
    # hand chain complex: 0 -> Z^3 -> Z^3 -> 0 with rank-2 boundary
    h = reduced_homology(triangle_boundary(), 1)
    assert h.rank == 1
    assert reduced_homology(triangle_boundary(), 0).rank == 0


def test_reduced_homology_rp2_torsion():
    # minimal 6-vertex triangulation of the projective plane
    facets = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    cx = complex_from_facets(facets)
    h1 = reduced_homology(cx, 1)
    assert h1.rank == 0
    assert h1.torsion == [2]
    assert reduced_homology(cx, 2).rank == 0


RP2_FACETS = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]


def test_reduced_homology_matches_dense_oracle():
    rng = random.Random(8)
    complexes = [SimplicialComplex((), ()), complex_from_facets(RP2_FACETS),
                 # suspension of RP2: the torsion moves up to degree 2
                 complex_from_facets([f + (pole,) for f in RP2_FACETS
                                      for pole in (7, 8)])]
    for _ in range(200):
        verts = range(rng.randint(4, 8))
        complexes.append(complex_from_facets(
            rng.sample(verts, rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))))
    torsion_degrees = set()
    for i, cx in enumerate(complexes):
        for d in range(-1, cx.dim + 2):
            h = reduced_homology(cx, d)
            assert (h.rank, sorted(h.torsion)) == dense_homology(cx, d), (i, d)
            if h.torsion:
                torsion_degrees.add((i, d))
    assert {(1, 1), (2, 2)} <= torsion_degrees


def test_nerve_keeps_rp2_torsion():
    facets = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    nv = nerve(complex_from_facets(facets))
    assert len(nv.vertices) == 10
    h1 = reduced_homology(nv, 1)
    assert (h1.rank, h1.torsion) == (0, [2])
    assert reduced_homology(nv, 2).rank == 0


def test_boundary_squares_to_zero():
    for cx in (triangle_boundary(),
               complex_from_facets([(1, 2, 3, 4), (2, 3, 4, 5)])):
        for d in range(0, cx.dim + 1):
            bd = boundary_matrix(cx, d)
            up = boundary_matrix(cx, d + 1)
            if bd.cols and up.cols:
                prod = bd.mul(up)
                assert all(x == 0 for row in prod.entries for x in row)


def test_euler_characteristic_consistency():
    cx = complex_from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 1)])
    chi_cells = sum((-1) ** d * len(cx.faces(d)) for d in range(cx.dim + 1))
    chi_homology = 1 + sum(
        (-1) ** d * reduced_homology(cx, d).rank for d in range(cx.dim + 1))
    assert chi_cells == chi_homology


def test_order_complex_of_maximal_is_empty(fixture_data):
    data = fixture_data("z8")
    poset = data["poset"]
    for m in poset.maximal_node_ids:
        assert not order_complex(poset, m).facets


def test_order_complex_z4_wall_is_s0(fixture_data):
    data = fixture_data("z4")
    poset = data["poset"]
    walls = [nd for nd in poset.nodes if nd.dim == 2]
    assert len(walls) == 2
    for nd in walls:
        cx = order_complex(poset, nd.index)
        assert len(cx.vertices) == 2
        assert reduced_homology(cx, 0).rank == 1


@pytest.mark.parametrize("case", ["z8", "z4", (6, 1, 2), (6, 2, 1),
                                  (8, 2, 2), (8, 1, 3), (8, 3, 1)],
                         ids=["z8", "z4", "1-2", "2-1", "2-2", "1-3", "3-1"])
def test_order_complex_matches_up_set_walk(fixture_data, main_data, case):
    # the cover paths against every chain of the up-set, node by node
    poset = (fixture_data(case) if isinstance(case, str)
             else main_data(*case))["poset"]
    above = poset_oracle.up_sets(poset)
    for nd in poset.nodes:
        assert order_complex(poset, nd.index) == \
            poset_oracle.order_complex(above, nd.index), nd.index


def test_crosscut_matches_order_complex(fixture_data, main_data):
    posets = [fixture_data("z8")["poset"], fixture_data("z4")["poset"],
              main_data(6, 1, 2)["poset"]]
    for poset in posets:
        top = max(poset.nodes[m].dim for m in poset.maximal_node_ids)
        for nd in poset.nodes:
            if nd.index in poset.maximal_node_ids:
                continue
            deg = top - 1 - nd.dim
            a = reduced_homology(order_complex(poset, nd.index), deg)
            c = reduced_homology(crosscut_complex(poset, nd.index), deg)
            assert (a.rank, a.torsion) == (c.rank, c.torsion)


def test_zz_rank_z8(fixture_data):
    zz = fixture_data("z8")["zz"]
    assert zz.rank == 2
    assert len(zz.top_nodes) == 2
    assert not zz.walls


def test_zz_rank_z4(fixture_data):
    zz = fixture_data("z4")["zz"]
    assert zz.rank == 6
    assert len(zz.top_nodes) == 4
    assert sum(len(w.elements) - 1 for w in zz.walls) == 2


def test_zz_degree_bookkeeping(fixture_data, main_data):
    for data in (fixture_data("z4"), main_data(6, 1, 2)):
        zz = data["zz"]
        for gen in zz.generators:
            node_dim = zz.poset.nodes[gen.node].dim
            if gen.kind == "top":
                assert node_dim == zz.top_dim
                assert len(zz.top_basis[gen.node]) == node_dim
            else:
                assert node_dim == zz.top_dim - 1
                assert len(zz.wall_by_node[gen.node].spine_basis) == node_dim


def test_zz_rank_matches_link_oracle_z8(fixture_data):
    # independent geometric model: order complex of the covector cells of
    # the link, homology by exact sparse elimination
    z8_rows = [
        [[1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0, 0],
         [0, 0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1]],
        [[0, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, 1, 1, 0], [1, 0, 0, 0, 0, 0, 0, 1]],
    ]
    assert union_homology_rank(z8_rows, 8, 4) == fixture_data("z8")["zz"].rank


def test_zz_rank_matches_link_oracle_z4(fixture_data):
    B1 = [1, 1, 1, 1, 0, 0, 0, 0]
    B2 = [0, 0, 0, 0, 1, 1, 1, 1]

    def e(i):
        v = [0] * 8
        v[i - 1] = 1
        return v

    def pair(i, j):
        v = [0] * 8
        v[i - 1] = 1
        v[j - 1] = 1
        return v

    z4_rows = [
        [e(1), e(5), B1, B2, pair(3, 7)],
        [e(2), e(6), B1, B2, pair(4, 8)],
        [e(3), e(7), B1, B2, pair(1, 5)],
        [e(4), e(8), B1, B2, pair(2, 6)],
    ]
    assert union_homology_rank(z4_rows, 8, 3) == fixture_data("z4")["zz"].rank


@pytest.mark.parametrize("n,a,b,expected", [
    (6, 1, 2, 15), (8, 1, 3, 20), (8, 2, 2, 18), (6, 2, 1, 3)])
def test_main_case_ranks(main_data, n, a, b, expected):
    data = main_data(n, a, b)
    assert "zz" in data, f"unsupported: {data.get('zz_error')}"
    assert data["zz"].rank == expected


def test_main_case_31_unsupported(main_data):
    data = main_data(8, 3, 1)
    assert "zz_error" in data
    assert isinstance(data["zz_error"], UnsupportedArrangement)


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3)])
def test_lemma16_vanishing(main_data, n, a, b):
    assert verify_lemma16(main_data(n, a, b)["poset"], n)


def test_lemma16_fails_for_31(main_data):
    # the b = 1, a = 3 seed hyperplane degenerates and creates deep nodes
    # with genuine lower homology
    assert not verify_lemma16(main_data(8, 3, 1)["poset"], 8)


def test_no_homology_above_top(fixture_data, main_data):
    for data in (fixture_data("z8"), fixture_data("z4"), main_data(6, 1, 2)):
        assert verify_no_homology_above_top(data["poset"])


def test_zz_wall_pages_structure(main_data):
    zz = main_data(6, 1, 2)["zz"]
    poset = zz.poset
    for w in zz.walls:
        assert len(w.elements) == 5
        halves = [e for e in w.elements
                  if poset.nodes[e].subspace.inequalities]
        assert len(halves) == 4
        full = [e for e in w.elements if e not in halves]
        assert len(full) == 1
        # the full element carries both pages, the halves one each
        assert (full[0], 1) in w.rays and (full[0], -1) in w.rays
        for e in halves:
            assert (e, w.rep_side[e]) in w.rays
            assert (e, -w.rep_side[e]) not in w.rays


@pytest.mark.parametrize("case", ["z8", "z4", (1, 2), (1, 3)])
def test_frames_are_positive_rescalings(fixture_data, main_data, case):
    # the orientation signs and wall sides of Steps 5-8 survive scaling a
    # vector by a positive factor, so the integer frames of the basis must
    # be positive multiples of the rational ones: the kernel basis read off
    # the RREF, and the affine solve of RREF rows plus wall form for a ray
    if isinstance(case, str):
        data = fixture_data(case)
    else:
        data = main_data(2 * sum(case), *case)
    poset, zz = data["poset"], data["zz"]

    def assert_rescaled(ints, rational):
        assert len(ints) == len(rational)
        for u, v in zip(ints, rational):
            assert all(type(x) is int for x in u) and math.gcd(*u) == 1
            assert positive_multiple(u, v)

    def rational_basis(node):
        s = poset.nodes[node].subspace
        return kernel_basis(Matrix.from_rows(s.rows, cols=s.ambient_dim))

    for m in zz.top_nodes:
        assert_rescaled(zz.top_basis[m], rational_basis(m))
    for w in zz.walls:
        assert_rescaled(w.spine_basis, rational_basis(w.node))
        for e, phi in w.functionals.items():
            assert all(type(x) is int for x in phi) and math.gcd(*phi) == 1
            assert next(x for x in phi if x) > 0
        for (e, side), ray in w.rays.items():
            R, _ = rational_key(poset.nodes[e].subspace)
            point = solve_affine(Matrix(R + (vec(w.functionals[e]),)),
                                 vec([0] * len(R) + [side]))
            assert_rescaled([ray], [point])
    assert zz.walls or zz.top_nodes


def test_action_permutes_generator_nodes(fixture_data):
    data = fixture_data("z4")
    zz, poset, group = data["zz"], data["poset"], data["group"]
    for g in group.elements:
        for gen in zz.generators:
            img = poset.act_node(g, gen.node)
            assert any(h.node == img and h.kind == gen.kind
                       for h in zz.generators)


def _checked_degrees(poset, n=None):
    """The (node, degree) pairs at which zz_basis, verify_lemma16 (when n is
    given) and verify_no_homology_above_top read the homology below a
    node, whether or not they stop early."""
    tops = set(poset.maximal_node_ids)
    top = max(poset.nodes[m].dim for m in tops)
    height = chain_heights(poset)
    out = set()
    for nd in poset.nodes:
        if nd.index in tops:
            continue
        if nd.subspace.is_linear and nd.dim != top - 1:
            out.add((nd.index, top - 1 - nd.dim))
        if n is not None and nd.dim <= n - 6:
            out.add((nd.index, n - 5 - nd.dim))
        deg = top - nd.dim
        if deg >= 0 and height[nd.index] - 1 >= deg:
            out.add((nd.index, deg))
    return sorted(out)


def _assert_nerve_matches_crosscut(poset, n=None):
    nonzero = []
    for node, deg in _checked_degrees(poset, n):
        cx = crosscut_complex(poset, node)
        ref = reduced_homology(cx, deg)
        h = reduced_homology(nerve(cx), deg)
        assert (h.rank, sorted(h.torsion)) == (ref.rank, sorted(ref.torsion)), \
            (node, deg)
        memo = node_homology(poset, node, deg)
        assert (memo.rank, memo.torsion) == (h.rank, h.torsion)
        if not ref.is_zero():
            nonzero.append((node, deg))
    return nonzero


def _crosscut_from_above(poset, above, node):
    """The crosscut complex rebuilt from the up-sets `above`: for each w
    strictly above the node, the maximal elements above w, and w itself
    when maximal."""
    tops = set(poset.maximal_node_ids)
    return complex_from_facets(
        [m for m in above[w] if m in tops] + ([w] if w in tops else [])
        for w in above[node])


def _assert_poset_tables_read_support(poset, above):
    """The crosscut complexes against the maximal facets among the supports
    above, and the chain heights against a walk of each up-set."""
    tops = set(poset.maximal_node_ids)
    for nd in poset.nodes:
        assert crosscut_complex(poset, nd.index) == \
            _crosscut_from_above(poset, above, nd.index)
        assert poset.elements_above(nd.index) == [
            m for m in above[nd.index] if m in tops]
    assert chain_heights(poset) == [
        poset_oracle.max_chain_length_above(above, i)
        for i in range(len(poset.nodes))]


def _assert_crosscut_reads_support(poset, n=None):
    above = poset_oracle.up_sets(poset)
    _assert_poset_tables_read_support(poset, above)
    for node, deg in _checked_degrees(poset, n):
        h = reduced_homology(nerve(_crosscut_from_above(poset, above, node)),
                             deg)
        memo = node_homology(poset, node, deg)
        assert (memo.rank, memo.torsion) == (h.rank, h.torsion), (node, deg)


@pytest.mark.parametrize("name", ["z8", "z4"])
def test_crosscut_reads_support_fixtures(fixture_data, name):
    _assert_crosscut_reads_support(fixture_data(name)["poset"])


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3), (8, 3, 1),
                                   (10, 2, 3),
                                   pytest.param(12, 1, 5,
                                                marks=pytest.mark.slow)])
def test_crosscut_reads_support_main_cases(main_data, n, a, b):
    # the memo, one entry per node orbit, against each node on its own
    _assert_crosscut_reads_support(main_data(n, a, b)["poset"], n)


@pytest.mark.parametrize("name", ["z8", "z4"])
def test_nerve_matches_crosscut_fixtures(fixture_data, name):
    _assert_nerve_matches_crosscut(fixture_data(name)["poset"])


@pytest.mark.parametrize("n,a,b", [(6, 1, 2), (8, 2, 2), (8, 1, 3), (8, 3, 1)])
def test_nerve_matches_crosscut_main_cases(main_data, n, a, b):
    nonzero = _assert_nerve_matches_crosscut(main_data(n, a, b)["poset"], n)
    # (3, 1) has deep nodes with homology: the comparison is not vacuous,
    # and the failure of Lemma 16 there is the crosscut complex's own
    assert bool(nonzero) == ((a, b) == (3, 1))


@pytest.mark.slow
@pytest.mark.parametrize("a,b", [(2, 3), (4, 1)])
def test_unit_sweep_equals_the_rescan_route(monkeypatch, a, b):
    # the boundary matrices of every node and degree that the basis and the
    # two deep-node checks read at n = 10, each node on its own (452 at
    # (2, 3), 512 at (4, 1); the pipeline computes one node per orbit, 42
    # and 48): the sweep takes the unit pivots in column order, the rescan
    # by least fill, and rank and invariant factors do not depend on that
    # order
    import fanpart.homology as homology
    from fanpart.exactlin import sparse_rank_and_factors
    from rescan_oracle import rescan_rank_and_factors
    seen = []

    def copy(cols):
        return {c: dict(col) for c, col in cols.items()}

    def recording(cols):
        # the elimination works on its columns in place
        seen.append(copy(cols))
        return sparse_rank_and_factors(cols)
    monkeypatch.setattr(homology, "sparse_rank_and_factors", recording)
    n = 2 * (a + b)
    poset = intersection_poset(orbit_closure(quaternion_on_Wn(n),
                                             make_J_pieces(n, a, b)))
    for node, deg in _checked_degrees(poset, n):
        reduced_homology(nerve(crosscut_complex(poset, node)), deg)
    assert len(seen) > 400
    for cols in seen:
        assert sparse_rank_and_factors(copy(cols)) == \
            rescan_rank_and_factors(cols)

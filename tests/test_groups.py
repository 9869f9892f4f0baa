import random
from fractions import Fraction

import pytest

from fanpart.exactlin import Matrix, determinant, vec
from fanpart.groups import (ActionGroup, act, cyclic_shift_group,
                            det_character, quaternion_on_Wn)


def basis_vec(i, n):
    return vec([1 if j == i - 1 else 0 for j in range(n)])


def u_vector(i, n):
    return vec([Fraction(1 if j == i - 1 else 0) - Fraction(1, n)
                for j in range(n)])


def test_quaternion_generator_actions_n4():
    g = quaternion_on_Wn(4)
    eps = g.by_word(1)
    j = g.by_word(0, 1)
    assert act(eps, basis_vec(1, 4)) == basis_vec(2, 4)
    assert act(j, basis_vec(1, 4)) == basis_vec(4, 4)


def test_quaternion_center_acts_trivially():
    g = quaternion_on_Wn(4)
    assert g.by_word(4).matrix == Matrix.identity(4)


def test_quaternion_order_and_distinct_matrices_n6():
    g = quaternion_on_Wn(6)
    assert g.order == 24
    assert len({m.matrix for m in g.elements}) == 12


def test_word_relations():
    # eps has order 2n, j^2 = eps^n, j eps j^-1 = eps^-1
    g = quaternion_on_Wn(5)
    eps, j = g.generators
    assert g.power(eps, 10).word == (0, 0)
    assert g.power(eps, 3).word != (0, 0)
    assert g.mul(j, j).word == (5, 0)
    lhs = g.mul(g.mul(j, eps), g.inv(j))
    assert lhs.word == g.inv(eps).word


def test_cayley_closure_and_matrix_homomorphism():
    for n in (3, 4):
        g = quaternion_on_Wn(n)
        words = {m.word for m in g.elements}
        for x in g.elements:
            for y in g.elements:
                z = g.mul(x, y)
                assert z.word in words
                assert x.matrix.mul(y.matrix) == z.matrix
            assert g.mul(x, g.inv(x)).word == (0, 0)


def test_induced_dihedral_relation():
    # on R^n the images satisfy eps^n = 1, j^2 = 1 and eps j = j eps^(n-1)
    n = 6
    g = quaternion_on_Wn(n)
    eps, j = g.generators
    assert g.by_word(n).matrix == Matrix.identity(n)
    assert g.mul(j, j).matrix == Matrix.identity(n)
    lhs = g.mul(eps, j).matrix
    rhs = g.mul(j, g.power(eps, n - 1)).matrix
    assert lhs == rhs
    # the kernel of the R^n action is exactly {eps^{kn} j^0}
    trivial = [m.word for m in g.elements if m.matrix == Matrix.identity(n)]
    assert sorted(trivial) == [(0, 0), (n, 0)]


def test_det_character_values():
    g = quaternion_on_Wn(4)
    assert det_character(g.identity()) == 1
    # a 4-cycle is odd
    assert det_character(g.by_word(1)) == -1
    # the reversal (x4,x3,x2,x1) has two inversions... count: sign +1
    assert det_character(g.by_word(0, 1)) == 1


def test_det_character_homomorphism():
    g = quaternion_on_Wn(4)
    for x in g.elements:
        for y in g.elements:
            assert det_character(g.mul(x, y)) == det_character(x) * det_character(y)


def test_cyclic_group_example_fixtures():
    # single 8-cycle on R^8: determinant -1
    z8 = cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    assert det_character(z8.generators[0]) == -1
    # two disjoint 4-cycles on R^8: determinant +1
    z4 = cyclic_shift_group(4, 8, (2, 3, 4, 1, 6, 7, 8, 5))
    assert det_character(z4.generators[0]) == 1
    assert z4.order == 4


def test_cyclic_trivial_group():
    g = cyclic_shift_group(1, 3, (1, 2, 3))
    assert g.order == 1
    assert g.elements[0].matrix == Matrix.identity(3)


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclic_shift_group(3, 4, (2, 3, 4, 1))  # 4-cycle order does not divide 3


def test_act_on_u_vectors():
    n = 4
    g = quaternion_on_Wn(n)
    eps, j = g.generators
    assert act(eps, u_vector(1, n)) == u_vector(2, n)
    assert act(j, u_vector(1, n)) == u_vector(4, n)


def test_act_dimension_mismatch():
    g = quaternion_on_Wn(4)
    with pytest.raises(ValueError):
        act(g.identity(), vec([1, 2, 3]))


def _all_test_groups():
    for n in range(2, 11):
        yield f"quaternion n={n}", quaternion_on_Wn(n)
    yield "z8", cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    yield "z4", cyclic_shift_group(4, 8, (2, 3, 4, 1, 6, 7, 8, 5))


def test_permutation_action_matches_matrix():
    # the permutation action against the dense product with the derived
    # permutation matrix, and the sign against its determinant
    rng = random.Random(4)
    for name, group in _all_test_groups():
        dim = group.ambient_dim
        vectors = [vec([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                        for _ in range(dim)]) for _ in range(3)]
        vectors += [basis_vec(i, dim) for i in range(1, dim + 1)]
        for g in group.elements:
            for v in vectors:
                assert act(g, v) == g.matrix.matvec(v), (name, g)
            assert det_character(g) == determinant(g.matrix), (name, g)

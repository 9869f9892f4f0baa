import random
from fractions import Fraction

import pytest
import sympy

from fanpart.exactlin import (Matrix, SmithForm, change_of_basis_det,
                              determinant, from_columns, invariant_factors,
                              kernel_basis, primitive, rref, smith_normal_form,
                              solve_affine, vec)


def frac_matrix(rows):
    return Matrix(rows)


def test_rref_identity():
    m = Matrix.identity(3)
    R, rk, piv = rref(m)
    assert R == m
    assert rk == 3
    assert piv == [0, 1, 2]


def test_rref_all_ones_row():
    m = Matrix([[1] * 5])
    R, rk, piv = rref(m)
    assert rk == 1
    assert R.entries[0] == vec([1, 1, 1, 1, 1])


def test_rref_block_forms_rank3():
    # the three block-sum forms for (n, a, b) = (4, 1, 1); expected rank 3
    # frozen from an independent sympy elimination
    m = Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    _, rk, _ = rref(m)
    assert rk == sympy.Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]).rank() == 3


def test_kernel_zero_matrix():
    m = Matrix.zeros(1, 4)
    kb = kernel_basis(m)
    assert len(kb) == 4


def test_kernel_all_ones():
    n = 6
    kb = kernel_basis(Matrix([[1] * n]))
    assert len(kb) == n - 1
    for v in kb:
        assert sum(v) == 0


def test_kernel_L2star_n4_is_zero_dim():
    # block sums of sizes (1,1,1,1) on R^4: x1 = x2 = x3 = x4 = 0
    m = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert kernel_basis(m) == []


def test_rref_kernel_annihilation_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        m = Matrix([[rng.randrange(-4, 5) for _ in range(cols)]
                    for _ in range(rows)])
        R, rk, piv = rref(m)
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.matvec(v))
            assert all(x == 0 for x in R.matvec(v))
        assert rk == sympy.Matrix(
            [[int(x) for x in row] for row in m.entries]).rank()


def test_determinant_identity():
    assert determinant(Matrix.identity(4)) == 1


def test_determinant_example11_complement_matrix():
    # action of the square of the cyclic shift on a complement basis, det -1
    m = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 1], [0, 0, 0, 1]])
    assert determinant(m) == -1


def test_determinant_multiplicative_random():
    rng = random.Random(11)
    for _ in range(20):
        A = Matrix([[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                     for _ in range(4)] for _ in range(4)])
        B = Matrix([[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                     for _ in range(4)] for _ in range(4)])
        assert determinant(A.mul(B)) == determinant(A) * determinant(B)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(Matrix.zeros(2, 3))


def test_snf_diagonal_with_divisibility():
    sf = smith_normal_form(Matrix([[2, 0], [0, 4]]))
    assert sf.invariant_factors == (2, 4)


def test_snf_contract_random():
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 7)
        m = Matrix([[rng.randrange(-9, 10) for _ in range(c)]
                    for _ in range(r)])
        sf = smith_normal_form(m)
        assert sf.U.mul(m).mul(sf.V) == sf.D
        assert determinant(sf.U) in (1, -1)
        assert determinant(sf.V) in (1, -1)
        diag = [sf.D.entries[i][i] for i in range(min(r, c))]
        for i in range(len(diag)):
            assert diag[i] >= 0
        for i in range(sf.rank - 1):
            assert diag[i + 1] % diag[i] == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert sf.D.entries[i][j] == 0
        # cross-check the factors against sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
        sm = sympy.Matrix([[int(x) for x in row] for row in m.entries])
        expect = sorted(abs(int(d)) for d in sympy_snf(sm).diagonal() if d != 0)
        assert sorted(sf.invariant_factors) == expect


def test_solve_affine_identity():
    m = Matrix.identity(3)
    assert solve_affine(m, vec([1, 2, 3])) == vec([1, 2, 3])


def test_solve_affine_inconsistent():
    m = Matrix([[1], [1]])
    assert solve_affine(m, vec([0, 1])) is None


def test_solve_affine_solution_satisfies_system():
    rng = random.Random(5)
    for _ in range(30):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        m = Matrix([[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)])
        x0 = vec([rng.randrange(-3, 4) for _ in range(c)])
        rhs = m.matvec(x0)
        x = solve_affine(m, rhs)
        assert x is not None
        assert m.matvec(x) == rhs


def test_primitive_scaling():
    assert primitive(vec([Fraction(2, 3), Fraction(-4, 3)])) == vec([1, -2])
    assert primitive(vec([-2, 4])) == vec([1, -2])
    assert primitive(vec([0, 0])) == vec([0, 0])


def test_change_of_basis_det_sign():
    b1 = [vec([1, 0, 0]), vec([0, 1, 0])]
    b2 = [vec([0, 1, 0]), vec([1, 0, 0])]
    assert change_of_basis_det(b1, b1) == 1
    assert change_of_basis_det(b1, b2) == -1


def test_solve_affine_barycentric_special_point():
    # the distinguished intersection point of the first special simplex
    # with the cut-down subspace, in barycentric coordinates
    from fanpart.arrangement import make_J_pieces
    from fanpart.obstruction import u_vector, v_point
    n, a, b = 4, 1, 1
    l1, _ = make_J_pieces(n, a, b)
    pts = [u_vector(a, n), u_vector(a + 1, n), u_vector(2 * a + b, n),
           u_vector(2 * a + b + 1, n)]
    rows = [tuple(sum(row[i] * p[i] for i in range(n)) for p in pts)
            for row in l1.equalities.entries]
    rows.append((Fraction(1),) * 4)
    rhs = vec([0] * l1.equalities.rows + [1])
    lam = vec([Fraction(a, n), Fraction(b, n), Fraction(a, n), Fraction(b, n)])
    assert Matrix(rows).matvec(lam) == rhs
    x = solve_affine(Matrix(rows), rhs)
    assert x is not None
    assert Matrix(rows).matvec(x) == rhs


def _sympy_rref(m):
    """RREF, rank and pivots from sympy: the reference for `rref`."""
    R, piv = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator,
                                                          x.denominator)
                                           for row in m.entries
                                           for x in row]).rref()
    rows = [[Fraction(int(R[i, j].p), int(R[i, j].q)) for j in range(m.cols)]
            for i in range(m.rows)]
    return rows, len(piv), list(piv)


def _random_rational_matrix(rng, r, c):
    rows = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
             if rng.random() < 0.7 else Fraction(0) for _ in range(c)]
            for _ in range(r)]
    if r > 1 and rng.random() < 0.5:
        # a rank-deficient matrix: one row a combination of two others
        i, j, k = (rng.randrange(r) for _ in range(3))
        s, t = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)), \
            Fraction(rng.randrange(-3, 4))
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    if rng.random() < 0.2:
        rows[rng.randrange(r)] = [Fraction(0)] * c
    return Matrix(rows)


def test_rref_matches_sympy_random_rational():
    rng = random.Random(20261018)
    for _ in range(300):
        r, c = rng.randrange(1, 7), rng.randrange(0, 8)
        m = _random_rational_matrix(rng, r, c)
        R, rk, piv = rref(m)
        rows, rk_ref, piv_ref = _sympy_rref(m)
        assert [list(row) for row in R.entries] == rows
        assert (R.rows, R.cols) == (m.rows, m.cols)
        assert (rk, piv) == (rk_ref, piv_ref)
        assert all(type(x) is Fraction for row in R.entries for x in row)


def test_rref_zero_rows_and_empty_shapes():
    for c in (0, 1, 4):
        R, rk, piv = rref(Matrix.zeros(0, c))
        assert (R.rows, R.cols, rk, piv) == (0, c, 0, [])
        assert _sympy_rref(Matrix.zeros(0, c)) == ([], 0, [])
    R, rk, piv = rref(Matrix.zeros(3, 4))
    assert R == Matrix.zeros(3, 4) and (rk, piv) == (0, [])
    m = Matrix([[0, 0, 0], [0, 2, 4], [0, 0, 0], [0, 1, 2]])
    R, rk, piv = rref(m)
    assert [list(row) for row in R.entries] == _sympy_rref(m)[0]
    assert (rk, piv) == (1, [1])

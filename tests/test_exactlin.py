import random
from fractions import Fraction

import pytest
import sympy

from fanpart.exactlin import (Matrix, SmithForm, change_of_basis_det,
                              determinant, from_columns, integer_form,
                              kernel_basis, primitive_row, rref,
                              smith_normal_form, solve_affine,
                              sparse_rank_and_factors, vec)


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
    # integer_form keeps the sign; primitive_row takes it from `lead`
    assert integer_form(vec([Fraction(2, 3), Fraction(-4, 3)])) == (1, -2)
    assert integer_form(vec([-2, 4])) == (-1, 2)
    assert primitive_row([-2, 4], -2) == (1, -2)
    assert integer_form(vec([0, 0])) == (0, 0)


def test_change_of_basis_det_sign():
    b1 = [vec([1, 0, 0]), vec([0, 1, 0])]
    b2 = [vec([0, 1, 0]), vec([1, 0, 0])]
    assert change_of_basis_det(b1, b1) == 1
    assert change_of_basis_det(b1, b2) == -1


def _det_per_column(frm, to):
    """change_of_basis_det by one solve per vector of frm."""
    cols = []
    for v in frm:
        coords = solve_affine(from_columns(to), v)
        if coords is None:
            raise ValueError("vector not in span of target basis")
        cols.append(coords)
    return determinant(from_columns(cols))


def test_change_of_basis_det_matches_per_column_solves():
    rng = random.Random(11)
    outside = 0
    for trial in range(120):
        dim = rng.randint(1, 6)
        k = rng.randint(1, dim)
        to = [vec([Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                   for _ in range(dim)]) for _ in range(k)]
        coeffs = [[rng.randint(-2, 2) for _ in to] for _ in range(k)]
        frm = [vec([sum(c * v[i] for c, v in zip(row, to))
                    for i in range(dim)]) for row in coeffs]
        if trial % 10 == 0 and k < dim:
            # leave the span: some standard vector is outside it
            frm[-1] = next(
                e for e in (vec([int(i == c) for i in range(dim)])
                            for c in range(dim))
                if solve_affine(from_columns(to), e) is None)
            outside += 1
            with pytest.raises(ValueError, match="not in span"):
                _det_per_column(frm, to)
            with pytest.raises(ValueError, match="not in span"):
                change_of_basis_det(frm, to)
            continue
        assert change_of_basis_det(frm, to) == _det_per_column(frm, to)
    assert outside >= 5


def test_change_of_basis_det_checks_lengths():
    with pytest.raises(ValueError, match="size mismatch"):
        change_of_basis_det([vec([1, 0])], [vec([1, 0]), vec([0, 1])])


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
            for row in l1.rows]
    rows.append((Fraction(1),) * 4)
    rhs = vec([0] * len(l1.rows) + [1])
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


def _sympy_det(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator,
                                                        x.denominator)
                                         for row in m.entries
                                         for x in row]).det()


def test_determinant_matches_sympy_random_rational():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 7)
        m = _random_rational_matrix(rng, n, n)
        d = determinant(m)
        assert type(d) is Fraction
        assert d == _sympy_det(m)


def test_determinant_singular_and_small_shapes():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randrange(2, 7)
        rows = [list(r) for r in _random_rational_matrix(rng, n, n).entries]
        i, j = rng.sample(range(n), 2)
        f = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        rows[i] = [f * x for x in rows[j]]
        m = Matrix(rows)
        assert determinant(m) == 0 == _sympy_det(m)
    for x in (Fraction(-7, 3), Fraction(0), Fraction(5)):
        m = Matrix([[x]])
        assert determinant(m) == x == _sympy_det(m)
    assert determinant(Matrix.zeros(0, 0)) == 1 == _sympy_det(Matrix.zeros(0, 0))


def test_snf_lazy_v_on_wide_matrices():
    # relation matrices of the coinvariants are r x |G|r: far wider than tall
    rng = random.Random(47)
    for _ in range(20):
        m = Matrix([[rng.randrange(-9, 10) for _ in range(60)]
                    for _ in range(4)])
        sf = smith_normal_form(m)
        v = sf.V
        assert (v.rows, v.cols) == (60, 60)
        assert sf.U.mul(m).mul(v) == sf.D
        assert determinant(sf.U) in (1, -1)
        assert determinant(v) in (1, -1)
        assert sf.V == v


def test_snf_v_read_twice_is_equal():
    m = Matrix([[2, 4, 4, 0, 6], [-6, 6, 12, 3, 0], [10, -4, -16, 1, 2]])
    sf = smith_normal_form(m)
    first, second = sf.V, sf.V
    assert first == second
    assert sf.U.mul(m).mul(first) == sf.D


def test_mul_matches_fraction_product():
    rng = random.Random(20261019)

    def draw(r, c):
        return Matrix.from_rows(
            [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
              if rng.random() < 0.7 else Fraction(0) for _ in range(c)]
             for _ in range(r)], cols=c)

    shapes = [(0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 4), (2, 0, 0),
              (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randrange(1, 7) for _ in range(3))
               for _ in range(200)]
    for r, k, c in shapes:
        a, b = draw(r, k), draw(k, c)
        expected = [[sum((a.entries[i][t] * b.entries[t][j]
                          for t in range(k)), Fraction(0))
                     for j in range(c)] for i in range(r)]
        p = a.mul(b)
        assert (p.rows, p.cols) == (r, c)
        assert [list(row) for row in p.entries] == expected
        assert all(type(x) is Fraction for row in p.entries for x in row)
    with pytest.raises(ValueError):
        draw(2, 3).mul(draw(2, 3))


def test_int_product_has_int_entries():
    # two factors of int entries multiply on the ints; one Fraction entry
    # anywhere gives the Fraction product of the same values
    rng = random.Random(17)
    for _ in range(50):
        r, k, c = (rng.randrange(1, 6) for _ in range(3))
        a = Matrix([[rng.randrange(-9, 10) for _ in range(k)]
                    for _ in range(r)])
        b = Matrix([[rng.randrange(-9, 10) for _ in range(c)]
                    for _ in range(k)])
        p = a.mul(b)
        assert all(type(x) is int for row in p.entries for x in row)
        assert p.entries == tuple(
            tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(k))
                  for j in range(c)) for i in range(r))
        mixed = Matrix([[Fraction(x) for x in row] for row in a.entries])
        q = mixed.mul(b)
        assert q == p
        assert all(type(x) is Fraction for row in q.entries for x in row)


def test_matrix_keeps_int_entries(fixture_data):
    # int entries stay int and Fraction entries stay Fraction; an integer
    # matrix equals, and hashes like, the Fraction matrix of the same values
    from fanpart.coinvariants import induced_action
    from fanpart.groups import quaternion_on_Wn

    def all_int(m):
        return all(type(x) is int for row in m.entries for x in row)

    assert tuple(map(type, Matrix([[1, Fraction(1, 2)]]).entries[0])) == \
        (int, Fraction)
    ints = Matrix([[1, -2, 0], [0, 3, 7]])
    fracs = Matrix([[Fraction(x) for x in row] for row in ints.entries])
    assert not any(type(x) is int for row in fracs.entries for x in row)
    assert ints == fracs and hash(ints) == hash(fracs)
    assert all_int(Matrix.identity(3)) and all_int(Matrix.zeros(2, 3))
    assert all(all_int(g.matrix) for g in quaternion_on_Wn(4).elements)
    data = fixture_data("z8")
    action = induced_action(data["group"], data["zz"])
    assert all(all_int(m) for m in action.matrices.values())
    sf = smith_normal_form(Matrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    assert sf.invariant_factors == (2, 6, 12)
    assert all_int(sf.U) and all_int(sf.D) and all_int(sf.V)


def _random_frames(rng, trials):
    """(frm, to, outside) over Fraction vectors: `to` spans a subspace,
    `frm` has as many vectors, all in that span unless `outside`."""
    for trial in range(trials):
        dim = rng.randint(1, 6)
        k = rng.randint(1, dim)
        to = [vec([Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                   for _ in range(dim)]) for _ in range(k)]
        coeffs = [[rng.randint(-2, 2) for _ in to] for _ in range(k)]
        frm = [vec([sum(c * v[i] for c, v in zip(row, to))
                    for i in range(dim)]) for row in coeffs]
        outside = trial % 10 == 0 and k < dim
        if outside:
            frm[-1] = next(
                e for e in (vec([int(i == c) for i in range(dim)])
                            for c in range(dim))
                if solve_affine(from_columns(to), e) is None)
        yield frm, to, outside


def test_change_of_basis_det_on_integer_frames():
    # the same value on int entries as on Fraction entries, and the same
    # sign after every vector is rescaled by a positive factor
    from math import prod

    from fanpart.exactlin import integer_form, sign
    from orientation_signs import frame_det
    rng = random.Random(20261018)
    outside = zero = 0
    for frm, to, leaves in _random_frames(rng, 120):
        ints_frm = [integer_form(v) for v in frm]
        ints_to = [integer_form(v) for v in to]
        as_fractions = ([vec(v) for v in ints_frm], [vec(v) for v in ints_to])
        cf = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in frm]
        ct = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in to]
        rescaled = ([tuple(c * x for x in v) for c, v in zip(cf, frm)],
                    [tuple(c * x for x in v) for c, v in zip(ct, to)])
        if leaves:
            outside += 1
            for args in ((ints_frm, ints_to), as_fractions, rescaled):
                with pytest.raises(ValueError, match="not in span"):
                    change_of_basis_det(*args)
            continue
        det = change_of_basis_det(frm, to)
        zero += det == 0
        assert change_of_basis_det(ints_frm, ints_to) \
            == change_of_basis_det(*as_fractions)
        assert Fraction(*frame_det(ints_frm, ints_to)) \
            == change_of_basis_det(ints_frm, ints_to)
        got = change_of_basis_det(*rescaled)
        assert got == det * prod(cf) / prod(ct)
        assert sign(got) == sign(det) == sign(frame_det(*rescaled)[0])
        assert frame_det(*rescaled)[1] > 0
    assert outside >= 5 and zero >= 1


def test_integer_kernel_is_a_positive_rescaling():
    # one vector per free column, each a positive multiple of the one
    # sympy reads off the rational RREF; kernel_basis is that one exactly
    from fanpart.exactlin import echelon, integer_kernel
    rng = random.Random(5)
    for _ in range(200):
        r, c = rng.randint(0, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        E, _ = echelon(rows)
        got = integer_kernel(E, c)
        expect = [tuple(Fraction(int(x.p), int(x.q)) for x in v)
                  for v in sympy.Matrix(r, c, sum(rows, [])).nullspace()]
        assert kernel_basis(Matrix.from_rows(rows, cols=c)) == expect
        assert len(got) == len(expect)
        for v, w in zip(got, expect):
            assert all(type(x) is int for x in v)
            ratios = {Fraction(x) / y for x, y in zip(v, w) if y}
            assert len(ratios) == 1 and ratios.pop() > 0
            assert all(x == 0 for x, y in zip(v, w) if not y)


def test_snf_of_integer_rows_matches_matrix():
    rng = random.Random(9)
    for _ in range(50):
        rows = [[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))]]
        rows += [[rng.randrange(-9, 10) for _ in rows[0]]
                 for _ in range(rng.randrange(0, 4))]
        a, b = smith_normal_form(rows), smith_normal_form(Matrix(rows))
        assert (a.U, a.D, a.rank, a.V) == (b.U, b.D, b.rank, b.V)
    for bad in ([[1, Fraction(1, 2)]], Matrix([[Fraction(3, 2)]])):
        with pytest.raises(ValueError, match="integer entries"):
            smith_normal_form(bad)


def _sympy_rank_and_factors(rows):
    """(rank, invariant factors above 1) from sympy's Smith form."""
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    diag = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ).diagonal()
    expect = sorted(abs(int(d)) for d in diag if d != 0)
    return len(expect), [d for d in expect if d > 1]


def _sparse_columns(rows):
    return {j: {i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))}


def test_sparse_rank_and_factors_matches_sympy_snf():
    # a column that is a multiple of another is emptied by the row
    # operations once the other is pivoted; a doubled matrix has no unit
    # entry, so the dense finish does all of it; the sweep passes column 0
    # of [[2, 1], [3, 1]], and pivoting column 1 writes a unit into it that
    # the dense finish completes
    assert sparse_rank_and_factors(_sparse_columns([[1, 2], [1, 2]])) == (1, [])
    assert sparse_rank_and_factors(_sparse_columns([[2, 1], [3, 1]])) == (2, [])
    assert sparse_rank_and_factors(_sparse_columns([[2, 4], [4, 2]])) == \
        (2, [2, 6])
    rng = random.Random(18)
    for trial in range(150):
        nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.35
                 else 0 for _ in range(nc)] for _ in range(nr)]
        if trial % 3 == 1:
            for row in rows:
                row.extend([row[0], -2 * row[-1]])
        elif trial % 3 == 2:
            rows = [[2 * x for x in row] for row in rows]
        rank, factors = sparse_rank_and_factors(_sparse_columns(rows))
        assert (rank, sorted(factors)) == _sympy_rank_and_factors(rows), rows


def test_snf_keeps_the_full_scan_operations():
    # the least entry is often 2 or more, so the scan runs to the end and
    # the clearing and divisibility retries run; [[2, 0], [0, 3]] reaches
    # its factors (1, 6) by the divisibility retry alone.  U, D, rank and
    # the recorded column operations are those of the full scan.
    from rescan_oracle import full_scan_smith_form
    rng = random.Random(20261019)
    pool = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6, 9, -10)
    cases = [[[2, 0], [0, 3]], [[0, 0]], Matrix.zeros(0, 3), Matrix([[5]])]
    for trial in range(200):
        r, c = rng.randrange(1, 5), rng.randrange(1, 7)
        units = (1, -1) if trial % 4 == 0 else ()
        cases.append([[rng.choice(pool + units) for _ in range(c)]
                      for _ in range(r)])
    no_unit = retried = 0
    for m in cases:
        a, b = smith_normal_form(m), full_scan_smith_form(m)
        assert (a.U, a.D, a.rank, a.col_ops) == (b.U, b.D, b.rank, b.col_ops)
        rows = m.entries if isinstance(m, Matrix) else m
        least = min((abs(x) for row in rows for x in row if x), default=0)
        no_unit += least >= 2
        retried += a.rank > 0 and a.invariant_factors[0] < least
    assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert no_unit >= 150 and retried >= 100, (no_unit, retried)

"""The exact meeting locus of a simplex and a half-open subspace."""

import random
from fractions import Fraction

import pytest

from fanpart.arrangement import make_subspace
from fanpart.obstruction import meeting_locus

from locus_oracle import locus_dim, locus_vertices

E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))


def test_wedge_meets_edge_in_a_segment():
    # {2x2 - x1 >= 0, 2x1 - x2 >= 0} holds on (1-t) e1 + t e2 for
    # t in [1/3, 2/3]; neither end of the edge is in the wedge
    wedge = make_subspace([], [(-1, 2, 0), (2, -1, 0)], 3)
    assert meeting_locus([E1, E2], wedge) == (1, None, None)


def test_tangent_edge_meets_in_one_point():
    # on the edge x3 = 0 the two forms say x1 >= x2 and x2 >= x1
    tangent = make_subspace([], [(1, -1, 1), (-1, 1, 1)], 3)
    half = Fraction(1, 2)
    assert meeting_locus([E1, E2], tangent) == (
        0, (half, half), (half, half, Fraction(0)))


def test_short_segment_is_a_segment():
    # x1 - 2047 x2 >= 0 holds for t in [0, 1/2048], shorter than any fixed
    # step along the edge
    thin = make_subspace([], [(1, -2047, 0)], 3)
    assert meeting_locus([E1, E2], thin) == (1, None, None)


def test_point_of_another_length_is_refused():
    wedge = make_subspace([], [(-1, 2, 0), (2, -1, 0)], 3)
    with pytest.raises(ValueError, match="length 2 against an element of "
                                         "ambient dimension 3"):
        meeting_locus([E1, (Fraction(1), Fraction(0))], wedge)


def _random_case(rng):
    d = rng.choice((3, 4))
    m = rng.randint(1, 4)
    pts = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
           for _ in range(m)]
    eqs = [tuple(rng.randint(-1, 1) for _ in range(d))
           for _ in range(rng.randint(0, 1))]
    ineqs = [tuple(rng.randint(-2, 2) for _ in range(d))
             for _ in range(rng.randint(0, 3))]
    return d, pts, eqs, ineqs


@pytest.mark.parametrize("seed", [1, 2])
def test_meeting_locus_matches_vertex_oracle(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(100):
        d, pts, eqs, ineqs = _random_case(rng)
        got = meeting_locus(pts, make_subspace(eqs, ineqs, d))
        expect = locus_dim(pts, eqs, ineqs)
        seen.add(expect)
        if expect is None:
            assert got is None, (pts, eqs, ineqs)
            continue
        assert got is not None and got[0] == expect, (pts, eqs, ineqs, got)
        if expect == 0:
            lam, pt = got[1], got[2]
            assert {lam} == locus_vertices(pts, eqs, ineqs)
            assert pt == tuple(sum(l * p[i] for l, p in zip(lam, pts))
                               for i in range(d))
        else:
            assert got[1] is None and got[2] is None
    # the draws reach empty loci, points, segments and larger loci
    assert {None, 0, 1, 2} <= seen

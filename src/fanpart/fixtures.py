"""Small worked fixtures: cyclic groups acting on R^8.

Each fixture builds its arrangement, computes the top homology of the
compactified union and the twisted coinvariants with their three laws
(`twisted_coinvariants`, Step 6 of a certificate), and compares against the
recorded reference values.  The report lists each law that fails and each
value that differs from the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import vec
from .groups import ActionGroup, cyclic_shift_group
from .arrangement import (HalfOpenSubspace, intersection_poset, make_subspace,
                          orbit_closure)
from .homology import zz_basis
from .coinvariants import twisted_coinvariants


def z8_fixture() -> tuple[ActionGroup, HalfOpenSubspace]:
    """A single coordinate 8-cycle; the seed pairs up adjacent coordinates."""
    group = cyclic_shift_group(8, 8, (2, 3, 4, 5, 6, 7, 8, 1))
    seed = make_subspace([
        vec([1, 1, 0, 0, 0, 0, 0, 0]),
        vec([0, 0, 1, 1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 1, 0, 0]),
        vec([0, 0, 0, 0, 0, 0, 1, 1]),
    ], [], 8, "L")
    return group, seed


def z4_fixture() -> tuple[ActionGroup, HalfOpenSubspace]:
    """Two disjoint 4-cycles; the seed mixes the two blocks."""
    group = cyclic_shift_group(4, 8, (2, 3, 4, 1, 6, 7, 8, 5))
    seed = make_subspace([
        vec([1, 0, 0, 0, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 0, 0, 0]),
        vec([1, 1, 1, 1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, 1, 1, 1, 1]),
        vec([0, 0, 1, 0, 0, 0, 1, 0]),
    ], [], 8, "L")
    return group, seed


REFERENCE = {
    "z8": {"degree": 4, "rank": 2, "torsion": [], "factors": [2], "free": 0},
    "z4": {"degree": 3, "rank": 6, "torsion": [], "factors": [], "free": 2},
}


@dataclass
class FixtureReport:
    name: str
    degree: int
    rank: int
    torsion: list
    factors: list
    free_rank: int
    expected: dict = field(default_factory=dict)
    diffs: list = field(default_factory=list)

    @property
    def matches(self) -> bool:
        return not self.diffs

    def to_json_dict(self) -> dict:
        from . import __version__
        return {
            "version": __version__,
            "fixture": self.name,
            "homology": {"degree": self.degree, "rank": self.rank,
                         "torsion": list(self.torsion)},
            "coinvariants": {"factors": list(self.factors)
                             + [0] * self.free_rank},
            "expected": self.expected,
            "diffs": list(self.diffs),
            "matches": self.matches,
        }


def run_fixture(name: str) -> FixtureReport:
    if name == "z8":
        group, seed = z8_fixture()
    elif name == "z4":
        group, seed = z4_fixture()
    else:
        raise ValueError(f"unknown fixture {name!r}")
    poset = intersection_poset(orbit_closure(group, [seed]))
    zz = zz_basis(poset)
    cg, _, laws = twisted_coinvariants(group, zz)
    ref = REFERENCE[name]
    rep = FixtureReport(
        name=name,
        degree=zz.top_dim,
        rank=zz.rank,
        torsion=[],
        factors=list(cg.invariant_factors),
        free_rank=cg.rank,
        expected=dict(ref),
    )
    rep.diffs += [f"law fails: {law}" for law, ok in laws.items() if not ok]
    if rep.degree != ref["degree"]:
        rep.diffs.append(f"degree {rep.degree} != {ref['degree']}")
    if rep.rank != ref["rank"]:
        rep.diffs.append(f"rank {rep.rank} != {ref['rank']}")
    if rep.torsion != ref["torsion"]:
        rep.diffs.append(f"torsion {rep.torsion} != {ref['torsion']}")
    if rep.factors != ref["factors"] or rep.free_rank != ref["free"]:
        rep.diffs.append(
            f"coinvariants Z^{rep.free_rank} (+) {rep.factors} != "
            f"reference Z^{ref['free']} (+) {ref['factors']}")
    return rep

"""One sha256 over everything an intersection poset hands its readers.

The digest covers, node by node in poset order, the node's key, the label
of its subspace, its own label, its dimension, `support`, `covers` and
`orbit`, and then `act_node(g, i)` for every group element g and node i.
A change to the poset that should leave its tables as they are (a
speed-up, a refactor) is checked by comparing digests before and after:

    PYTHONPATH=src python tests/poset_digest.py 10 2 3
    PYTHONPATH=src python tests/poset_digest.py z8

builds the poset of that case alone (no homology) and prints its node
count and digest.  Several cases in one call, such as

    PYTHONPATH=src python tests/poset_digest.py 14 2 5 14 1 6 z4

print one line each, led by the case.
"""

from __future__ import annotations

import hashlib
import sys

from fanpart.arrangement import (IntersectionPoset, intersection_poset,
                                 make_J_pieces, orbit_closure)
from fanpart.fixtures import z4_fixture, z8_fixture
from fanpart.groups import ActionGroup, quaternion_on_Wn

FIXTURES = {"z8": z8_fixture, "z4": z4_fixture}


def case_poset(case) -> tuple[ActionGroup, IntersectionPoset]:
    """The group and the poset of a fixture name or an (n, a, b) case."""
    if isinstance(case, str):
        group, seed = FIXTURES[case]()
        seeds = [seed]
    else:
        n, a, b = case
        group = quaternion_on_Wn(n)
        seeds = list(make_J_pieces(n, a, b))
    return group, intersection_poset(orbit_closure(group, seeds))


def poset_digest(group: ActionGroup, poset: IntersectionPoset) -> str:
    h = hashlib.sha256()
    for i, nd in enumerate(poset.nodes):
        s = nd.subspace
        h.update(repr((s.key(), s.label, nd.label, nd.dim, poset.support[i],
                       poset.covers[i], poset.orbit[i])).encode())
    nodes = range(len(poset.nodes))
    for g in group.elements:
        h.update(repr([poset.act_node(g, i) for i in nodes]).encode())
    return h.hexdigest()


def parse_cases(argv: list[str]) -> list:
    """The fixture names and N A B triples of argv, in order; empty when
    argv is empty or holds anything else."""
    cases, i = [], 0
    while i < len(argv):
        if argv[i] in FIXTURES:
            cases.append(argv[i])
            i += 1
        elif len(argv[i:i + 3]) == 3 and all(x.isdigit()
                                             for x in argv[i:i + 3]):
            cases.append(tuple(map(int, argv[i:i + 3])))
            i += 3
        else:
            return []
    return cases


def main(argv: list[str]) -> int:
    cases = parse_cases(argv)
    if not cases:
        print("usage: poset_digest.py (N A B | z8 | z4)...", file=sys.stderr)
        return 2
    for case in cases:
        group, poset = case_poset(case)
        name = case if isinstance(case, str) else " ".join(map(str, case))
        lead = "" if len(cases) == 1 else f"{name}: "
        print(f"{lead}{len(poset.nodes)} {poset_digest(group, poset)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

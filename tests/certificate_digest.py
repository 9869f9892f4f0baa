"""One sha256 per sign-flip setting over everything a certificate shows.

`certificate_record(a, b)` runs the certificate of n = 2(a + b) with no
sign flip and with the flips (1, -1) plus the global flip, and keeps per
setting the JSON certificate (it holds the tau/mu signs), the checks in
their order, the steps and a sha256 of the poset listing.
`test_certificate_snapshot.py` compares these records with a snapshot.  A
change that should leave every certificate as it is (a speed-up, a
refactor) is checked on larger cases by comparing digests before and
after:

    PYTHONPATH=src python tests/certificate_digest.py 14 3 4

prints, per flip setting, the sha256 of its record.  Several cases in one
call, such as `14 2 5 14 1 6`, print each line led by its case.

A certificate does not record the orientation signs of Step 6 (its rank,
coinvariants and class read the action only up to a change of basis), so
`action_record(a, b)` and `fixture_action_record(name)` pin them apart:
one sha256 over the plain action matrix of each distinct permutation, in
`distinct_actions` order, and every wall's `rep_side` and `rewrite_sign`
(`action_digest`), or None where `zz_basis` refuses the case.
"""

from __future__ import annotations

import hashlib
import json
import sys

from fanpart.arrangement import (intersection_poset, make_J_pieces,
                                 orbit_closure)
from fanpart.coinvariants import induced_action
from fanpart.fixtures import z4_fixture, z8_fixture
from fanpart.groups import distinct_actions, quaternion_on_Wn
from fanpart.homology import UnsupportedArrangement, zz_basis
from fanpart.obstruction import obstruction_class

FLIPS = {"no flip": {}, "flips (1, -1) and global":
         {"term_flips": (1, -1), "global_flip": True}}


def certificate_record(a, b):
    out = {}
    for label, flips in FLIPS.items():
        cert = obstruction_class(2 * (a + b), a, b, **flips)
        out[label] = {
            "certificate": cert.to_json_dict(),
            "checks": [[name, ok] for name, ok in cert.checks.items()],
            "steps": cert.steps,
            "poset_lines_sha256": hashlib.sha256(
                "\n".join(cert.poset_lines).encode()).hexdigest(),
        }
    return out


def action_digest(group, zz) -> str:
    """sha256 of the action matrices of the distinct permutations and of
    the walls' `rep_side` and `rewrite_sign`."""
    action = induced_action(group, zz)
    record = {
        "matrices": [action.matrix(g).entries
                     for g in distinct_actions(group)],
        "walls": [[w.node, sorted(w.rep_side.items()),
                   sorted(w.rewrite_sign.items())] for w in zz.walls],
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _action_of(group, seeds):
    poset = intersection_poset(orbit_closure(group, seeds))
    try:
        zz = zz_basis(poset)
    except UnsupportedArrangement:
        return None
    return action_digest(group, zz)


def action_record(a, b):
    n = 2 * (a + b)
    return _action_of(quaternion_on_Wn(n), list(make_J_pieces(n, a, b)))


def fixture_action_record(name):
    group, seed = {"z8": z8_fixture, "z4": z4_fixture}[name]()
    return _action_of(group, [seed])


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 3 or not all(x.isdigit() for x in argv):
        print("usage: certificate_digest.py (N A B)...", file=sys.stderr)
        return 2
    cases = [tuple(map(int, argv[i:i + 3])) for i in range(0, len(argv), 3)]
    for n, a, b in cases:
        if n != 2 * (a + b):
            print(f"N must be 2(A + B) = {2 * (a + b)}", file=sys.stderr)
            return 2
    for n, a, b in cases:
        lead = "" if len(cases) == 1 else f"{n} {a} {b} "
        for label, record in certificate_record(a, b).items():
            text = json.dumps(record, sort_keys=True)
            print(f"{lead}{label}: "
                  f"{hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

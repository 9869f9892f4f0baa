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

prints, per flip setting, the sha256 of its record.
"""

from __future__ import annotations

import hashlib
import json
import sys

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


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all(x.isdigit() for x in argv):
        print("usage: certificate_digest.py N A B", file=sys.stderr)
        return 2
    n, a, b = map(int, argv)
    if n != 2 * (a + b):
        print(f"N must be 2(A + B) = {2 * (a + b)}", file=sys.stderr)
        return 2
    for label, record in certificate_record(a, b).items():
        text = json.dumps(record, sort_keys=True)
        print(f"{label}: {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

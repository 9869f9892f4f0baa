"""The certificates of the n = 6, 8 and 10 cases, of two n = 12 cases and
the two fixture reports against a recorded snapshot.

A change that should leave every certificate as it is (a refactor, a
speed-up) is checked here: per case the JSON certificate (it holds the
tau/mu signs), the checks in their order, the steps and a sha256 of the
poset listing, with no sign flip and with the flips (1, -1) plus the global
flip.  The snapshot records what the program computes, not the paper's
values; `test_acceptance.py` pins those.  A change that means to alter a
certificate records the snapshot again and says why:

    PYTHONPATH=src python tests/test_certificate_snapshot.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from fanpart.fixtures import run_fixture
from fanpart.obstruction import obstruction_class

SNAPSHOT = Path(__file__).parent / "certificate_snapshot.json"
CASES = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4),
         (4, 1), (1, 5), (2, 4)]
SLOW = {(1, 5), (2, 4)}          # n = 12, about 0.3 s each with both flips
FIXTURES = ["z8", "z4"]
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


def _recorded():
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("a,b", [
    pytest.param(a, b, id=f"{a},{b}",
                 marks=[pytest.mark.slow] if (a, b) in SLOW else [])
    for a, b in CASES])
def test_certificate_matches_snapshot(a, b):
    assert certificate_record(a, b) == _recorded()["cases"][f"{a},{b}"]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_report_matches_snapshot(name):
    assert run_fixture(name).to_json_dict() == _recorded()["fixtures"][name]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({
        "cases": {f"{a},{b}": certificate_record(a, b) for a, b in CASES},
        "fixtures": {name: run_fixture(name).to_json_dict()
                     for name in FIXTURES},
    }, indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")

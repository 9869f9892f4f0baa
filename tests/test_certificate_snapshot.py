"""The certificates of every case with n <= 12 and the two fixture reports
against a recorded snapshot.

A change that should leave every certificate as it is (a refactor, a
speed-up) is checked here, on the records of `certificate_digest.py`: per
case the JSON certificate (it holds the tau/mu signs), the checks in their
order, the steps and a sha256 of the poset listing, with no sign flip and
with the flips (1, -1) plus the global flip, and per case and fixture a
sha256 of the action matrices and the walls' signs of Step 6, which no
certificate records (`action_record`).  The snapshot records what
the program computes, not the paper's values; `test_acceptance.py` pins
those.  A change that means to alter a certificate records the snapshot
again and says why:

    PYTHONPATH=src python tests/test_certificate_snapshot.py
"""

import json
from pathlib import Path

import pytest

from certificate_digest import (action_record, certificate_record,
                                fixture_action_record)
from fanpart.fixtures import run_fixture

SNAPSHOT = Path(__file__).parent / "certificate_snapshot.json"
CASES = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4),
         (4, 1), (1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]
# n = 12 with both flips: (1, 5) and (2, 4) about 0.3 s each, (3, 3) 2.5 s,
# (4, 2) 6-7 s (about 320 MB peak RSS), (5, 1) 4-6 s
SLOW = {(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)}
FIXTURES = ["z8", "z4"]


def _recorded():
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("a,b", [
    pytest.param(a, b, id=f"{a},{b}",
                 marks=[pytest.mark.slow] if (a, b) in SLOW else [])
    for a, b in CASES])
def test_certificate_matches_snapshot(a, b):
    assert certificate_record(a, b) == _recorded()["cases"][f"{a},{b}"]


@pytest.mark.parametrize("a,b", [
    pytest.param(a, b, id=f"{a},{b}",
                 marks=[pytest.mark.slow] if (a, b) in SLOW else [])
    for a, b in CASES])
def test_action_matches_snapshot(a, b):
    assert action_record(a, b) == _recorded()["actions"][f"{a},{b}"]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_action_matches_snapshot(name):
    assert fixture_action_record(name) == _recorded()["actions"][name]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_report_matches_snapshot(name):
    assert run_fixture(name).to_json_dict() == _recorded()["fixtures"][name]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({
        "cases": {f"{a},{b}": certificate_record(a, b) for a, b in CASES},
        "fixtures": {name: run_fixture(name).to_json_dict()
                     for name in FIXTURES},
        "actions": {**{f"{a},{b}": action_record(a, b) for a, b in CASES},
                    **{name: fixture_action_record(name)
                       for name in FIXTURES}},
    }, indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")

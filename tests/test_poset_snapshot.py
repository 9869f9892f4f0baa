"""The intersection posets of both fixtures and of every case up to n = 12,
and of two n = 14 cases, against recorded digests (`poset_digest.py`).

A change to the poset that should leave its tables as they are is checked
here; each poset is built alone, with no homology.  A change that means to
alter a poset records the snapshot again and says why:

    PYTHONPATH=src python tests/test_poset_snapshot.py
"""

import json
from pathlib import Path

import pytest

from poset_digest import case_poset, poset_digest

SNAPSHOT = Path(__file__).parent / "poset_snapshot.json"
FAST = ["z8", "z4", (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
# n = 10, 12 and two n = 14 cases: under 1 s each, poset alone
SLOW = [(2, 3), (3, 2), (1, 4), (4, 1), (1, 5), (2, 4), (3, 3), (4, 2),
        (5, 1), (2, 5), (1, 6)]


def _name(case) -> str:
    return case if isinstance(case, str) else f"{case[0]},{case[1]}"


def _record(case) -> list:
    if not isinstance(case, str):
        a, b = case
        case = (2 * (a + b), a, b)
    group, poset = case_poset(case)
    return [len(poset.nodes), poset_digest(group, poset)]


@pytest.mark.parametrize("case", [
    *(pytest.param(c, id=_name(c)) for c in FAST),
    *(pytest.param(c, id=_name(c), marks=pytest.mark.slow) for c in SLOW)])
def test_poset_matches_snapshot(case):
    recorded = json.loads(SNAPSHOT.read_text())
    assert _record(case) == recorded[_name(case)]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(
        {_name(c): _record(c) for c in FAST + SLOW}, indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")

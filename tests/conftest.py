import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fanpart.arrangement import (intersection_poset, make_J_pieces,
                                 orbit_closure)
from fanpart.coinvariants import induced_action
from fanpart.fixtures import z4_fixture, z8_fixture
from fanpart.groups import quaternion_on_Wn
from fanpart.homology import zz_basis
from fanpart.obstruction import _prepare

_cache = {}


@pytest.fixture(autouse=True)
def cold_pipeline():
    """Every test starts with Steps 1-6 of no case kept, whatever ran
    before it."""
    _prepare.cache_clear()


def _build_fixture(name):
    group, seed = z8_fixture() if name == "z8" else z4_fixture()
    poset = intersection_poset(orbit_closure(group, [seed]))
    zz = zz_basis(poset)
    action = induced_action(group, zz)
    return {"group": group, "seed": seed, "poset": poset, "zz": zz,
            "action": action}


def _build_main(n, a, b):
    group = quaternion_on_Wn(n)
    l1, l2 = make_J_pieces(n, a, b)
    poset = intersection_poset(orbit_closure(group, [l1, l2]))
    out = {"group": group, "l1": l1, "l2": l2, "poset": poset}
    try:
        out["zz"] = zz_basis(poset)
        out["action"] = induced_action(group, out["zz"])
    except Exception as e:
        out["zz_error"] = e
    return out


@pytest.fixture(scope="session")
def fixture_data():
    def get(name):
        if name not in _cache:
            _cache[name] = _build_fixture(name)
        return _cache[name]
    return get


@pytest.fixture(scope="session")
def main_data():
    def get(n, a, b):
        key = (n, a, b)
        if key not in _cache:
            _cache[key] = _build_main(n, a, b)
        return _cache[key]
    return get

"""The records of the package are plain classes: the value types are
immutable and equal and hashed by value, the mutable records take fresh
containers by default, and importing the command line loads none of the
modules that building classes by code generation would."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanpart.arrangement import HalfOpenSubspace
from fanpart.exactlin import Matrix, SmithForm, smith_normal_form
from fanpart.fixtures import FixtureReport
from fanpart.groups import ActionGroup, GroupElement
from fanpart.homology import SimplicialComplex, ZZBasis, ZZGenerator
from fanpart.obstruction import ObstructionCertificate, obstruction_class

SRC = Path(__file__).resolve().parent.parent / "src"


def _new_modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_no_code_generation_modules():
    added = _new_modules("import fanpart.cli") - _new_modules("pass")
    assert "fanpart.obstruction" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


VALUES = {
    "HalfOpenSubspace": (lambda: HalfOpenSubspace(
        ((1, 0, 0),), ((0, 1, 0),), 3, "L"), "rows"),
    "GroupElement": (lambda: GroupElement((1, 0), (1, 2, 0)), "perm"),
    "SimplicialComplex": (lambda: SimplicialComplex(
        (0, 1, 2), ((0, 1), (1, 2))), "facets"),
    "ZZGenerator": (lambda: ZZGenerator("wall", 4, 1), "element"),
    "SmithForm": (lambda: smith_normal_form(Matrix([[2, 4], [6, 8]])), "U"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_immutable_and_equal_by_value(name):
    make, field = VALUES[name]
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y


def test_value_types_differ_by_each_compared_field():
    assert HalfOpenSubspace((), (), 3, "L") != HalfOpenSubspace((), (), 3)
    assert HalfOpenSubspace((), (), 3) != HalfOpenSubspace((), (), 4)
    assert GroupElement((1, 0), (1, 2, 0)) != GroupElement((2, 0), (1, 2, 0))
    assert ZZGenerator("top", 4) != ZZGenerator("wall", 4, None)
    assert SimplicialComplex((0,), ()) != SimplicialComplex((), ())


def test_smith_form_ignores_its_column_operations():
    sf = smith_normal_form(Matrix([[2, 4], [6, 8]]))
    other = SmithForm(sf.U, sf.D, sf.rank, col_ops=sf.col_ops + ((0, 1, 0),))
    assert other == sf and hash(other) == hash(sf)
    assert other.V != sf.V
    assert SmithForm(sf.U, sf.D, sf.rank + 1, sf.col_ops) != sf


def test_derived_fields_stay_lazy():
    g = GroupElement((1, 0), (1, 2, 0))
    assert "source" not in vars(g)
    assert g.source == (2, 0, 1) and "source" in vars(g)
    sf = smith_normal_form(Matrix([[2, 4], [6, 8]]))
    assert "V" not in vars(sf)
    assert sf.U.mul(Matrix([[2, 4], [6, 8]])).mul(sf.V) == sf.D
    assert "V" in vars(sf)


def test_action_group_indexes_its_words_at_construction():
    g = GroupElement((1, 0), (1, 2, 0))
    group = ActionGroup([g], 3, [g], 3)
    assert group.by_word(4) is g


def _containers(x):
    """The ids of the lists and dicts that x holds, at any depth."""
    if isinstance(x, (list, dict)):
        items = x.values() if isinstance(x, dict) else x
        return {id(x)}.union(*map(_containers, items))
    if isinstance(x, tuple):
        return set().union(*map(_containers, x))
    return set()


def _fields(record):
    """The field values of a record, kept in `__slots__` or in `__dict__`."""
    names = getattr(type(record), "__slots__", None) or vars(record)
    return tuple(getattr(record, f) for f in names)


@pytest.mark.parametrize("make", [
    lambda: ObstructionCertificate(6, 1, 2),
    lambda: FixtureReport("z8", 4, 2, [], [], 0),
    lambda: ZZBasis(None, 2, [], [], []),
])
def test_mutable_defaults_are_fresh_per_instance(make):
    x, y = make(), make()
    assert _containers(_fields(x))
    assert not _containers(_fields(x)) & _containers(_fields(y))


def test_certificate_deepcopy_shares_no_container():
    cert = obstruction_class(6, 1, 2)
    twin = copy.deepcopy(cert)
    assert twin.to_json_dict() == cert.to_json_dict() and twin == cert
    assert not _containers(_fields(twin)) & _containers(_fields(cert))

import json

import pytest

from fanpart.cli import main
from fanpart.coinvariants import induced_action
from fanpart.exactlin import Matrix


def test_compute_usage_error(capsys):
    assert main(["compute", "--a", "0", "--b", "1"]) == 1


def test_compute_rejects_oversized_input(capsys):
    assert main(["compute", "--a", "3", "--b", "4"]) == 1
    err = capsys.readouterr().err
    assert "a + b <= 6" in err and "n <= 12" in err


def test_compute_refuses_missing_json_dir(monkeypatch, capsys, tmp_path):
    import fanpart.cli as cli

    def fail(*args):
        raise AssertionError("computed before checking the output path")
    monkeypatch.setattr(cli, "obstruction_class", fail)
    path = tmp_path / "nosuch" / "x.json"
    assert main(["compute", "--a", "1", "--b", "2", "--json", str(path)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not path.parent.exists()


def test_example_refuses_missing_json_dir(monkeypatch, capsys, tmp_path):
    import fanpart.cli as cli

    def fail(*args):
        raise AssertionError("computed before checking the output path")
    monkeypatch.setattr(cli, "run_fixture", fail)
    path = tmp_path / "nosuch" / "x.json"
    assert main(["example", "z8", "--json", str(path)]) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("argv,computes", [
    (["compute", "--a", "1", "--b", "2"], "obstruction_class"),
    (["example", "z8"], "run_fixture")], ids=["compute", "example"])
def test_empty_json_path_is_refused(monkeypatch, capsys, argv, computes):
    # an empty path names no file: refused like a missing directory, not
    # run with the write skipped
    import fanpart.cli as cli

    def fail(*args):
        raise AssertionError("computed before checking the output path")
    monkeypatch.setattr(cli, computes, fail)
    assert main([*argv, "--json", ""]) == 1
    assert "--json '': not a file in an existing directory" in \
        capsys.readouterr().err


def test_compute_missing_args():
    with pytest.raises(SystemExit):
        main(["compute", "--a", "1"])


def test_unknown_example():
    with pytest.raises(SystemExit):
        main(["example", "nosuch"])


def test_example_z8_matches(capsys, tmp_path):
    path = tmp_path / "z8.json"
    assert main(["example", "z8", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out
    assert "Z2" in out
    assert "MATCHES" in out
    data = json.loads(path.read_text())
    assert data["homology"]["rank"] == 2
    assert data["coinvariants"]["factors"] == [2]
    assert data["matches"] is True


def test_example_z4_reports_difference(capsys, tmp_path):
    path = tmp_path / "z4.json"
    assert main(["example", "z4", "--json", str(path)]) == 2
    out = capsys.readouterr().out
    assert "rank 6" in out
    assert "DIFFERS" in out
    data = json.loads(path.read_text())
    assert data["homology"]["rank"] == 6
    assert data["matches"] is False


def test_compute_12_report_and_json(capsys, tmp_path):
    path = tmp_path / "c.json"
    code = main(["compute", "--a", "1", "--b", "2", "--json", str(path), "-v"])
    out = capsys.readouterr().out
    assert code == 2               # the class vanishes: inconclusive
    for k in range(1, 9):
        assert f"Step {k}" in out
    assert "rank 15" in out
    assert "verdict:" in out
    data = json.loads(path.read_text())
    assert data["params"] == {"n": 6, "a": 1, "b": 2}
    assert data["homology"]["rank"] == 15
    assert data["obstruction"]["nonzero"] is False
    assert set(data) == {"coinvariants", "homology", "obstruction", "params",
                         "poset", "signs", "timing_seconds", "verdict",
                         "version"}


def test_compute_verbose_builds_the_poset_once(monkeypatch, capsys):
    # the -v listing is read off the certificate, not from a second poset,
    # and a second `compute` of the same case reuses Steps 1-6
    import fanpart.cli
    import fanpart.obstruction
    from fanpart.arrangement import intersection_poset
    calls = []

    def counting(arr):
        calls.append(arr)
        return intersection_poset(arr)
    for mod in (fanpart.obstruction, fanpart.cli):
        monkeypatch.setattr(mod, "intersection_poset", counting,
                            raising=False)
    fanpart.obstruction._prepare.cache_clear()
    for builds in (1, 0):          # cold, then warm
        calls.clear()
        assert main(["compute", "--a", "1", "--b", "2", "-v"]) == 2
        out = capsys.readouterr().out
        assert len(calls) == builds
        assert sum(ln.strip().startswith("node ")
                   for ln in out.splitlines()) == 19


def test_json_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["compute", "--a", "1", "--b", "2", "--json", str(p1)])
    main(["compute", "--a", "1", "--b", "2", "--json", str(p2)])
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("timing_seconds")
    d2.pop("timing_seconds")
    assert d1 == d2


def test_json_round_trip(tmp_path):
    path = tmp_path / "c.json"
    main(["compute", "--a", "1", "--b", "2", "--json", str(path)])
    data = json.loads(path.read_text())
    assert json.loads(json.dumps(data)) == data


def test_selftest_ok():
    assert main(["selftest"]) == 0


def test_selftest_fault_injection(monkeypatch, capsys):
    # one entry of the z8 action matrix of eps negated: eps . eps no longer
    # acts as eps^2, so the z8 fixture reports the representation law as
    # failed and the selftest must fail
    def faulty_action(group, zz):
        action = induced_action(group, zz)
        word = group.generators[0].word
        rows = [list(row) for row in action.matrices[word].entries]
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x)
        rows[i][j] = -rows[i][j]
        action.matrices[word] = Matrix(rows)
        return action
    monkeypatch.setattr("fanpart.coinvariants.induced_action", faulty_action)
    assert main(["selftest"]) == 1
    assert "FAIL: z8 fixture: law fails: action is a representation" in \
        capsys.readouterr().out


def test_poset_debug_listing(main_data):
    lines = main_data(6, 1, 2)["poset"].debug_lines()
    assert len(lines) == 19
    assert all("dim" in ln for ln in lines)

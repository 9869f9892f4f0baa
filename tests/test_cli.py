import json

import pytest

from fanpart.cli import main


def test_compute_usage_error(capsys):
    assert main(["compute", "--a", "0", "--b", "1"]) == 1


def test_compute_rejects_oversized_input(capsys):
    assert main(["compute", "--a", "3", "--b", "4"]) == 1
    err = capsys.readouterr().err
    assert "a + b <= 6" in err and "n <= 12" in err


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


def test_selftest_fault_injection(capsys):
    assert main(["selftest", "--inject-sign-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_poset_debug_listing(main_data):
    lines = main_data(6, 1, 2)["poset"].debug_lines()
    assert len(lines) == 19
    assert all("dim" in ln for ln in lines)

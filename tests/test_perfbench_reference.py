"""Every case of the benchmark's workloads, run once, against the outputs
recorded in perfbench/reference/<workload>.json.  The benchmark checks the
same outputs when it runs; here the suite checks them too, so a change to a
certificate or to a census shows in every test run.  Reads perfbench/ and
writes nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _workloads()


@pytest.mark.parametrize("workload", sorted(workloads.CASES))
def test_workload_outputs_match_reference(workload):
    reference = json.loads(
        (PERFBENCH / "reference" / f"{workload}.json").read_text())
    # the cases of a workload run in order: later ones read earlier results
    cases = workloads.CASES[workload](1)
    assert {c.id for c in cases} == set(reference)
    for case in cases:
        # a JSON round trip, as the benchmark compares them
        summary = json.loads(json.dumps(case.summary(case.run())))
        assert summary == reference[case.id], case.id

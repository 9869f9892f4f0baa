"""The benchmark under perfbench/ reaches into fanpart by name: the traced
functions, the signatures its workloads call and the fields it reads.  A
rename in the package would only show when the benchmark runs; these tests
show it in the suite.  They read perfbench/ and run none of its cases.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("layer", sorted(tracing.TRACED))
def test_traced_functions_resolve(layer):
    mod = importlib.import_module(f"fanpart.{layer}")
    for name in tracing.TRACED[layer]:
        assert callable(getattr(mod, name, None)), f"fanpart.{layer}.{name}"


def test_traced_sizes_name_traced_functions():
    traced = {f"{layer}.{name}" for layer, names in tracing.TRACED.items()
              for name in names}
    assert set(tracing.SIZES) <= traced


def test_signatures_the_benchmark_calls():
    from fanpart import obstruction
    retries = inspect.signature(obstruction.decompose_with_retries)
    # tracing._start_arg reads `start` by keyword or as the sixth argument
    assert list(retries.parameters).index("start") == 5
    params = inspect.signature(obstruction.obstruction_class).parameters
    assert {"term_flips", "global_flip"} <= set(params)
    # the front-n10 summary reads these two attributes of a census row
    row = obstruction.enumerate_L_intersections(
        obstruction.define_h(6), 6, 1, 2)[0]
    assert isinstance(row.arcs, tuple) and isinstance(row.locus_dim, int)


def test_declared_workloads_have_cases():
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.CASES)


@pytest.mark.parametrize("workload", sorted(workloads.CASES))
def test_workload_cases_build(workload):
    cases = workloads.CASES[workload](1)
    assert cases
    assert len({c.id for c in cases}) == len(cases)
    for case in cases:
        assert callable(case.run) and callable(case.summary)

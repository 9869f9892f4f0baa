"""One pass of one workload in a fresh interpreter.

Started by `run.py` with `src/` of the checkout on PYTHONPATH.  Prints one
JSON object: the time the imports finished (on the system-wide monotonic
clock, so the parent can measure set-up from the spawn), per-case times and
correctness, CPU time and peak memory, and with `--trace 1` the per-layer
metrics.  `--record` writes the case summaries as the reference instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import fanpart
import fanpart.cli  # noqa: F401  (imports every fanpart module)

from workloads import CASES

imported_at = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def normalise(summary):
    return json.loads(json.dumps(summary))


def run_pass(workload: str, seed: int, reference: dict | None,
             only: set[str] | None) -> dict:
    cases = [c for c in CASES[workload](seed) if not only or c.id in only]
    results, outputs = [], {}
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for case in cases:
        c0 = time.perf_counter()
        try:
            out = case.run()
            s = time.perf_counter() - c0
            outputs[case.id] = normalise(case.summary(out))
        except Exception as exc:  # a case that raises counts as failed
            results.append({"id": case.id, "s": time.perf_counter() - c0,
                            "ok": False, "error": repr(exc)})
            continue
        ok = reference is not None and reference.get(case.id) == outputs[case.id]
        results.append({"id": case.id, "s": s, "ok": ok})
    wall = time.perf_counter() - t0
    return {"imported_at": imported_at, "wall_s": wall,
            "cpu_s": cpu_seconds() - cpu0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cases": results, "outputs": outputs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(CASES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path,
                    help="reference outputs (default reference/<workload>.json)")
    ap.add_argument("--cases", help="comma-separated subset of case ids")
    ap.add_argument("--spans", type=Path, help="where to write the spans")
    ap.add_argument("--record", action="store_true",
                    help="write the outputs as the reference file")
    ap.add_argument("--setup-only", action="store_true",
                    help="report the import time and exit")
    args = ap.parse_args()
    if not Path(fanpart.__file__).resolve().is_relative_to(SRC):
        print(f"fanpart imported from {fanpart.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"imported_at": imported_at}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    ref_path = args.reference or HERE / "reference" / f"{args.workload}.json"
    reference = None if args.record else json.loads(ref_path.read_text())
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    only = set(args.cases.split(",")) if args.cases else None
    result = run_pass(args.workload, args.seed, reference, only)
    if args.record:
        ref_path.write_text(json.dumps(
            dict(sorted(result["outputs"].items())), indent=1) + "\n")
    del result["outputs"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fanpart benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload certify-n6-n8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
worker interpreter (`worker.py`), one at a time, with the checkout's `src/`
on PYTHONPATH.  Passes repeat while another one fits in `--seconds`; there
is always at least one.  With `--trace 0` the last line of standard output
is the result with every end-to-end metric named in BENCHMARK.json, with
`--trace 1` a single traced pass gives every per-layer metric instead.
Earlier lines print the same metrics, and the per-case times, for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 8       # extra interpreters started only to time set-up
DEADLINE_S = 170       # a run ends within this many seconds


def worker_env() -> dict:
    """The environment of a worker: the checkout's `src/` comes first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["imported_at"] - t0
    return out


def describe(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")


def tally(passes: list[dict]) -> tuple[int, int]:
    """Cases attempted, and cases that raised or differ from the reference."""
    return (sum(len(p["cases"]) for p in passes),
            sum(not c["ok"] for p in passes for c in p["cases"]))


def result_line(passes: list[dict], metrics: dict) -> str:
    attempted, failed = tally(passes)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def print_cases(passes: list[dict]) -> None:
    for i, p in enumerate(passes):
        for c in p["cases"]:
            flag = "ok" if c["ok"] else "FAILED " + c.get("error", "output "
                                                       "differs from reference")
            print(f"  pass {i} {c['id']:36s} {c['s']:9.3f} s  {flag}")


def untraced(args, env, deadline, spec) -> str:
    setup = [spawn(["--setup-only"], env, deadline)["setup_s"]
             for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(spawn(["--workload", args.workload,
                             "--seed", str(args.seed)], env, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setup += [p["setup_s"] for p in passes]
    attempted, failed = tally(passes)
    for p in passes:
        p["case_max_s"] = max(c["s"] for c in p["cases"])
    values = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "case_max_s", "peak_rss_mb"):
        values[key] = statistics.median(p[key] for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print(f"{args.workload}: {len(passes)} pass(es), medians; "
          f"set-up over {len(setup)} interpreters")
    print_cases(passes)
    describe(metrics)
    print(f"  {'failed_share':48s} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} cases)")
    with open(OUT / "untraced.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "wall_s": values["wall_s"]}) + "\n")
    return result_line(passes, metrics)


def traced(args, env, deadline, spec) -> str:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    p = spawn(["--workload", args.workload, "--seed", str(args.seed),
               "--trace", "1", "--spans", str(spans)], env, deadline)
    layers = p["layers"]
    layers["trace.wall_s"] = p["wall_s"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    print(f"{args.workload}: traced pass, spans in {spans.relative_to(ROOT)}")
    print_cases([p])
    describe(metrics)
    print("  all traced functions by self time:")
    fns = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")},
                 key=lambda f: -layers[f + ".self_s"])
    for f in fns:
        if layers[f + ".calls"]:
            print(f"    {f:44s} {layers[f + '.calls']:>8d} calls "
                  f"{layers[f + '.s']:9.3f} s {layers[f + '.self_s']:9.3f} s self")
    print(f"  tracing overhead estimated from {layers['trace.spans']} spans: "
          f"{layers['trace.overhead_est_s']:.3f} s")
    history = OUT / "untraced.jsonl"
    walls = [r["wall_s"] for r in map(json.loads, history.open())
             if r["workload"] == args.workload] if history.exists() else []
    if walls:
        base = statistics.median(walls)
        print(f"  tracing overhead: traced wall_s {p['wall_s']:.3f} s - "
              f"untraced {base:.3f} s (median of {len(walls)} runs) = "
              f"{p['wall_s'] - base:+.3f} s ({p['wall_s'] / base - 1:+.1%})")
    else:
        print("  tracing overhead: no untraced run of this workload in this "
              "checkout yet; run with --trace 0 first")
    return result_line([p], metrics)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "fanpart" / "__init__.py").is_file():
        print(f"no fanpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else untraced
    line = run(args, worker_env(), deadline, spec)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

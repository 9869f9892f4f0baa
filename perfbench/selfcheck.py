"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py                       # the output check
    python3 perfbench/selfcheck.py --counts flip-sweep   # counts repeat

The first run shows that the output check passes on the recorded reference
and that perturbing one recorded value makes `failed_share` nonzero (on the
z4 fixture, which takes a fraction of a second).  `--counts` runs two traced
passes of a workload and requires every count (calls, sizes, span count and
the kernel-cache hit ratio) to repeat exactly.  Exits with 1 on a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import DEADLINE_S, HERE, OUT, spawn, tally, worker_env
from tracing import TRACED


def failed_share(reference) -> float:
    p = spawn(["--workload", "certify-n6-n8", "--cases", "fixture-z4",
               "--reference", str(reference)], worker_env(),
              time.perf_counter() + DEADLINE_S)
    attempted, failed = tally([p])
    return failed / attempted


def check_output() -> bool:
    ref_path = HERE / "reference" / "certify-n6-n8.json"
    ref = json.loads(ref_path.read_text())
    ref["fixture-z4"]["homology"]["rank"] += 1
    perturbed = OUT / "perturbed-certify-n6-n8.json"
    perturbed.write_text(json.dumps(ref))
    clean, bad = failed_share(ref_path), failed_share(perturbed)
    print(f"failed_share with the recorded reference: {clean}")
    print(f"failed_share with z4 homology rank perturbed: {bad}")
    return clean == 0 and bad > 0


def is_count(key: str) -> bool:
    return not (key.endswith(".s") or key.endswith("_s"))


def check_counts(workload: str) -> bool:
    runs = [spawn(["--workload", workload, "--trace", "1"], worker_env(),
                  time.perf_counter() + DEADLINE_S)["layers"]
            for _ in range(2)]
    counts = [{k: v for k, v in r.items() if is_count(k)} for r in runs]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    print(f"{workload}: {len(counts[0])} counts compared over "
          f"{len(TRACED)} layers, {len(differ)} differ")
    for k in differ:
        print(f"  {k}: {counts[0][k]} vs {counts[1].get(k)}")
    return not differ and counts[0].keys() == counts[1].keys()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--counts", metavar="WORKLOAD",
                    help="check that counts repeat on this workload")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    ok = check_counts(args.counts) if args.counts else check_output()
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: certificates, fixture runs and the selftest.

Exit codes: 0 when the requested computation verifies its goal, 2 when the
machine's result is inconclusive or disagrees with the recorded reference
values (reported, never hidden), 1 on usage errors.

The selftest checks Smith forms, the group law, the z8 fixture (its whole
reference and the three laws of Step 6, as `example z8` reports them) and
the deep-node vanishing at n = 6 and 8; it exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .exactlin import Matrix, determinant, smith_normal_form
from .groups import quaternion_on_Wn
from .arrangement import intersection_poset, make_J_pieces, orbit_closure
from .homology import verify_lemma16
from .coinvariants import describe_factors
from .fixtures import run_fixture
from .obstruction import obstruction_class

# largest a + b that `compute` accepts (n = 2(a + b) <= 12): larger inputs
# are refused up front instead of running without a time bound
MAX_A_PLUS_B = 6


def _bad_json_path(path) -> bool:
    """True, with a usage message on stderr, when --json names no file in
    an existing directory, "" included; checked before any computation."""
    if path is None or (path and os.path.isdir(os.path.dirname(path) or ".")
                        and not os.path.isdir(path)):
        return False
    print(f"--json {path or repr(path)}: not a file in an existing "
          "directory", file=sys.stderr)
    return True


def _emit_json(payload: dict, path: str, started: float):
    payload = dict(payload)
    payload["timing_seconds"] = round(time.monotonic() - started, 3)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run_compute(args) -> int:
    started = time.monotonic()
    if args.a < 1 or args.b < 1:
        print("compute requires a >= 1 and b >= 1", file=sys.stderr)
        return 1
    if args.a + args.b > MAX_A_PLUS_B:
        print(f"compute supports a + b <= {MAX_A_PLUS_B} (n <= "
              f"{2 * MAX_A_PLUS_B}); got a + b = {args.a + args.b}",
              file=sys.stderr)
        return 1
    if _bad_json_path(args.json):
        return 1
    n = 2 * (args.a + args.b)
    cert = obstruction_class(n, args.a, args.b)
    print(f"parameters: a={args.a} b={args.b} n={n} "
          f"alpha=({args.a}/{n}, {args.a + args.b}/{n}, {args.b}/{n})")
    for step in cert.steps:
        print(step)
    if args.verbose:
        print(f"poset: {cert.poset_nodes} nodes, "
              f"{cert.poset_max_elements} maximal, levels {cert.poset_levels}")
        for line in cert.poset_lines:
            print(" ", line)
        for name, ok in cert.checks.items():
            print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print(f"homology: degree 2 rank {cert.homology_rank} "
          f"(reference 5(a+b) = {cert.homology_rank_expected})")
    print("coinvariants:",
          describe_factors(cert.coinvariant_factors, cert.coinvariant_rank))
    print(f"obstruction class: coords {cert.class_basis_coords} "
          f"order {cert.class_order} nonzero {cert.class_nonzero}")
    print("verdict:", cert.verdict)
    if args.json:
        _emit_json(cert.to_json_dict(), args.json, started)
    return 0 if cert.verdict.startswith("partition exists") else 2


def run_example(args) -> int:
    started = time.monotonic()
    if _bad_json_path(args.json):
        return 1
    try:
        rep = run_fixture(args.name)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    print(f"fixture {rep.name}: H_{rep.degree} rank {rep.rank}, "
          f"torsion {rep.torsion or 'none'}; coinvariants "
          f"{describe_factors(rep.factors, rep.free_rank)}")
    if rep.matches:
        print("MATCHES the recorded reference values")
    else:
        print("DIFFERS from the recorded reference values:")
        for d in rep.diffs:
            print("  -", d)
    if args.json:
        _emit_json(rep.to_json_dict(), args.json, started)
    return 0 if rep.matches else 2


def selftest_checks() -> list[str]:
    """Small invariant suites; returns a list of failure descriptions."""
    import random
    failures = []
    rng = random.Random(20240817)
    for _ in range(25):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        m = Matrix([[rng.randrange(-6, 7) for _ in range(c)]
                    for _ in range(r)])
        sf = smith_normal_form(m)
        if sf.U.mul(m).mul(sf.V) != sf.D:
            failures.append("smith normal form does not multiply back")
        if abs(determinant(sf.U)) != 1 or abs(determinant(sf.V)) != 1:
            failures.append("smith transforms are not unimodular")
    g = quaternion_on_Wn(3)
    for x in g.elements:
        for y in g.elements:
            if x.matrix.mul(y.matrix) != g.mul(x, y).matrix:
                failures.append("group matrices are not a homomorphism")
                break
    # the z8 fixture: its reference values and the laws of Step 6
    failures += [f"z8 fixture: {d}" for d in run_fixture("z8").diffs]
    for n in (6, 8):
        a, b = (1, 2) if n == 6 else (2, 2)
        l1, l2 = make_J_pieces(n, a, b)
        p = intersection_poset(orbit_closure(quaternion_on_Wn(n), [l1, l2]))
        if not verify_lemma16(p, n):
            failures.append(f"deep-node vanishing fails for n={n}")
    return failures


def run_selftest() -> int:
    failures = selftest_checks()
    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1
    print("selftest passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanpart",
        description="Exact equivariant-arrangement obstruction certificates "
                    "for 3-fan partitions of two sphere measures.")
    sub = parser.add_subparsers(dest="command")
    pc = sub.add_parser("compute", help="run the full pipeline for (a, b)")
    pc.add_argument("--a", type=int, required=True)
    pc.add_argument("--b", type=int, required=True)
    pc.add_argument("--json", type=str, default=None)
    pc.add_argument("-v", "--verbose", action="store_true")
    pe = sub.add_parser("example", help="run a recorded fixture")
    pe.add_argument("name", choices=["z8", "z4"])
    pe.add_argument("--json", type=str, default=None)
    sub.add_parser("selftest", help="run the invariant suites")
    args = parser.parse_args(argv)
    if args.command == "compute":
        return run_compute(args)
    if args.command == "example":
        return run_example(args)
    if args.command == "selftest":
        return run_selftest()
    parser.print_usage()
    return 1


if __name__ == "__main__":
    sys.exit(main())

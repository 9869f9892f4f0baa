"""The benchmark's workloads: named cases that call fanpart's public
functions, each with a summary of its output that is compared against the
outputs recorded from the seed in `reference/<workload>.json`.

Functions are looked up on their module when a case runs, not when this
file is imported, so the wrappers installed by `tracing.py` are seen.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from fanpart import arrangement, fixtures, groups, obstruction

class Case(NamedTuple):
    id: str
    run: Callable[[], Any]             # the timed call into fanpart
    summary: Callable[[Any], Any]      # JSON summary of its result, untimed


def canon(x):
    """JSON form of an output that does not depend on whether an exact
    number is held as an int or as a Fraction."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else str(x)
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"cannot summarise {type(x).__name__}")


def certificate_summary(cert) -> dict:
    """`to_json_dict()` without timing, plus the `checks` it leaves out."""
    d = cert.to_json_dict()
    d.pop("timing_seconds", None)
    d["checks"] = dict(cert.checks)
    return canon(d)


def _points(pts) -> list:
    return sorted({tuple(canon(p)) for p in pts}, key=repr)


def certify_cases(seed: int) -> list[Case]:
    """Fixtures z8 and z4, then full certificates for (1,2), (2,2), (1,3)."""
    cases = [Case(f"fixture-{name}",
                  lambda name=name: fixtures.run_fixture(name),
                  lambda rep: canon(rep.to_json_dict()))
             for name in ("z8", "z4")]
    for a, b in ((1, 2), (2, 2), (1, 3)):
        n = 2 * (a + b)
        cases.append(Case(f"certificate-{a}-{b}",
                          lambda n=n, a=a, b=b:
                          obstruction.obstruction_class(n, a, b),
                          certificate_summary))
    return cases


def front_cases(seed: int) -> list[Case]:
    """Steps 1-3 of the n = 10 case (2, 3), one case per call, in pipeline
    order; later calls read the results of earlier ones."""
    n, a, b = 10, 2, 3
    st: dict = {}

    def step(key, call):
        def run():
            st[key] = call()
            return st[key]
        return run

    return [
        Case("quaternion_on_Wn", step("group", lambda: groups.quaternion_on_Wn(n)),
             lambda g: {"order": len(g.elements)}),
        Case("make_J_pieces",
             step("pieces", lambda: arrangement.make_J_pieces(n, a, b)),
             lambda ls: [[s.dim, len(s.inequalities)] for s in ls]),
        Case("define_h", step("h", lambda: obstruction.define_h(n)),
             lambda h: {"top_cells": len(h.sphere.top_cells())}),
        Case("check_equivariance",
             lambda: obstruction.check_equivariance(st["h"], st["group"]),
             canon),
        Case("enumerate_L_intersections",
             lambda: obstruction.enumerate_L_intersections(st["h"], n, a, b),
             # the row's point is any point of the meeting locus, so only
             # the arcs and the locus dimension are outputs
             lambda rows: sorted(canon([r.arcs, r.locus_dim]) for r in rows)),
        Case("orbit_closure",
             step("arr", lambda: arrangement.orbit_closure(
                 st["group"], list(st["pieces"]))),
             lambda arr: {"maximal_elements": len(arr.maximal_elements)}),
        Case("intersection_poset",
             step("poset", lambda: arrangement.intersection_poset(st["arr"])),
             lambda p: {"nodes": len(p.nodes),
                        "maximal": len(p.maximal_node_ids),
                        "levels": canon(dict(sorted(p.level_counts().items())))}),
        Case("intersect_with_Jpieces",
             lambda: obstruction.intersect_with_Jpieces(
                 st["h"], *st["pieces"], n, a, b),
             lambda j: {"l1_hits": _points(p for _, p in j["l1_hits"]),
                        "l2_hits": _points(p for _, p in j["l2_hits"]),
                        "rho3_candidate": j["rho3_candidate"] is not None}),
        Case("preimage_simplices",
             lambda: obstruction.preimage_simplices(
                 st["h"], st["poset"], n, a, b),
             lambda pre: {"cells": len(pre),
                          "special_cells": sum(r.special for r in pre),
                          "hits": sum(len(r.hits) for r in pre),
                          "hit_points": _points(hit[2] for r in pre
                                                for hit in r.hits)}),
    ]


FLIPS = [(f, g) for f in ((1, 1), (1, -1), (-1, 1), (-1, -1))
         for g in (False, True)]


def flip_cases(seed: int) -> list[Case]:
    """`obstruction_class(6, 1, 2)` under the 8 sign-flip combinations of the
    sign-robustness tests, in an order drawn from the seed."""
    order = list(FLIPS)
    random.Random(seed).shuffle(order)
    return [Case(f"flips{f[0]:+d}{f[1]:+d}-global{int(g)}",
                 lambda f=f, g=g: obstruction.obstruction_class(
                     6, 1, 2, term_flips=f, global_flip=g),
                 certificate_summary)
            for f, g in order]


CASES = {"certify-n6-n8": certify_cases, "front-n10": front_cases,
         "flip-sweep": flip_cases}

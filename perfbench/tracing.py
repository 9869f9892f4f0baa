"""Spans around fanpart's functions, installed from outside the package.

Each traced function is wrapped once and the wrapper is rebound in every
`fanpart` module namespace that holds the function: the modules bind names
with `from .x import y`, and calls inside a module go through that module's
globals.  Spans (name, start, end, parent) are kept in memory and written
when the run ends; self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# layer (module) -> functions that get a span
TRACED = {
    "groups": ("quaternion_on_Wn", "act"),
    "arrangement": ("make_J_pieces", "orbit_closure", "intersection_poset",
                    "contains_set", "_fm_feasible", "cached_kernel"),
    "homology": ("zz_basis", "verify_lemma16", "verify_no_homology_above_top",
                 "reduced_homology", "crosscut_complex"),
    "coinvariants": ("induced_action", "modified_coinvariants",
                     "dual_coinvariants"),
    "obstruction": ("obstruction_class", "define_h", "check_equivariance",
                    "enumerate_L_intersections", "intersect_with_Jpieces",
                    "preimage_simplices", "assemble_cocycle",
                    "decompose_with_retries", "pair_point_class",
                    "check_membership_equivalences", "proportionality_chain"),
    "exactlin": ("rref", "determinant", "solve_affine", "kernel_basis",
                 "change_of_basis_det", "smith_normal_form",
                 "sparse_rank_and_factors"),
    "fixtures": ("run_fixture",),
}


def _start_arg(args, kwargs) -> int:
    # decompose_with_retries(poset, zz, wall_node, point, disc, start=0)
    return kwargs.get("start", args[5] if len(args) > 5 else 0)


SIZE_NAMES = ("arrangement.poset_nodes", "obstruction.preimage_cells",
              "obstruction.preimage_hits", "homology.crosscut_complex.facets",
              "obstruction.decompose_retries")

# span name -> sizes (from SIZE_NAMES) taken from the call's arguments and
# result, summed over the run
SIZES = {
    "arrangement.intersection_poset":
        lambda args, kwargs, r: {"arrangement.poset_nodes": len(r.nodes)},
    "obstruction.preimage_simplices":
        lambda args, kwargs, r: {"obstruction.preimage_cells": len(r),
                                 "obstruction.preimage_hits":
                                     sum(len(c.hits) for c in r)},
    "homology.crosscut_complex":
        lambda args, kwargs, r: {"homology.crosscut_complex.facets":
                                 len(r.facets)},
    "obstruction.decompose_with_retries":
        lambda args, kwargs, r: {"obstruction.decompose_retries":
                                 r[1] - _start_arg(args, kwargs)},
}


def span_cost(calls: int = 50_000) -> float:
    """Seconds one span adds to a call, measured on a function that does
    nothing.  Multiplied by the span count it estimates the tracing
    overhead of a run without a second, untraced run on a machine whose
    speed may have drifted in between."""
    def noop():
        pass
    wrapped = Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name id, start, end, parent index)
        self.sizes = dict.fromkeys(SIZE_NAMES, 0)
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "fanpart" or k.startswith("fanpart.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"fanpart.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, sizes = self.spans, self._stack, self.sizes
        measure = SIZES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
            if measure is not None:
                for key, v in measure(args, kwargs, result).items():
                    sizes[key] += v
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """`<name>.calls`, `.s` (inclusive, outermost spans only, so that
        recursion is not counted twice) and `.self_s` for every traced
        function, the sizes, and the kernel-cache hit ratio."""
        n = len(self.names)
        calls, incl, self_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        # spans run strictly nested, so a span's ancestors are exactly the
        # spans open when it started
        open_names: list[int] = []
        open_ends: list[float] = []
        for idx, (name_id, t0, t1, parent) in enumerate(self.spans):
            while open_ends and open_ends[-1] <= t0:
                open_ends.pop()
                open_names.pop()
            calls[name_id] += 1
            self_s[name_id] += t1 - t0 - child[idx]
            if name_id not in open_names:
                incl[name_id] += t1 - t0
            open_names.append(name_id)
            open_ends.append(t1)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.s"] = incl[i]
            out[f"{name}.self_s"] = self_s[i]
        out.update(self.sizes)
        ck = self.names.index("arrangement.cached_kernel")
        kb = self.names.index("exactlin.kernel_basis")
        missed = {parent for name_id, _, _, parent in self.spans
                  if name_id == kb and parent >= 0
                  and self.spans[parent][0] == ck}
        out["arrangement.cached_kernel.hit_ratio"] = (
            1 - len(missed) / calls[ck] if calls[ck] else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_est_s"] = len(self.spans) * span_cost()
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the names, then one
        `[name id, start, end, parent]` per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""The containment order of an intersection poset, decided pair by pair.

`contains_set` is asked about every ordered pair of distinct nodes, with no
shortcut by dimension: a half-subspace lies inside its carrier at the same
dimension, so equal dimension does not rule containment out.  The covers
are read off the relation by their definition.  Quadratic in the number of
nodes, each step a Fourier-Motzkin cone test.

Only used in tests, as an oracle for the support masks that
`intersection_poset` orders its nodes by.  `up_sets` lists the strict
supersets of every node, read off the supports, for one poset at a time;
the poset itself keeps only the covers.  `rational_closure` is the
closure loop the package ran when it keyed meets by rational forms; it
is the oracle for the node order, labels and supports of the poset.
`moved_nodes` is the route `act_node` took before it moved support masks:
the node's rows moved by the group element and looked up by key.
`pruned_images` is the pruning `orbit_closure` did before it tested one
image per seed orbit: every image against every other.
`max_chain_length_above` walks the up-set of one node, the route the
degree-above-top check took before it read `homology.chain_heights`, and
`order_complex` the route `homology.order_complex` took before it walked
the cover paths.
"""

from __future__ import annotations

from collections import deque

from fanpart.arrangement import HalfOpenSubspace, _moved_form, contains_set
from fanpart.exactlin import echelon_rationals
from fanpart.groups import distinct_actions
from fanpart.homology import SimplicialComplex, complex_from_facets

import canonical_oracle


def containment_above(poset) -> list[list[int]]:
    """above[i]: the nodes whose set strictly contains node i."""
    sets = [nd.subspace for nd in poset.nodes]
    return [[j for j, big in enumerate(sets)
             if j != i and contains_set(big, small)]
            for i, small in enumerate(sets)]


def up_sets(poset) -> list[list[int]]:
    """above[i]: the nodes whose set strictly contains node i, read off the
    supports: node j lies strictly above node i exactly when support[j] is
    a proper subset of support[i]."""
    return _up_sets(poset.support)


def _up_sets(support: list[int]) -> list[list[int]]:
    return [[j for j, sj in enumerate(support) if j != i and not sj & ~si]
            for i, si in enumerate(support)]


def covers(above: list[list[int]]) -> list[list[int]]:
    """covers[i]: the j above i with no node strictly between them, in
    increasing order."""
    up = [set(a) for a in above]
    return [sorted(j for j in a if not any(j in up[k] for k in a if k != j))
            for a in above]


def supports(poset) -> list[int]:
    """Bit k set when maximal element k contains the node."""
    tops = [poset.nodes[m].subspace for m in poset.maximal_node_ids]
    return [sum(1 << k for k, big in enumerate(tops)
                if contains_set(big, nd.subspace))
            for nd in poset.nodes]


def moved_nodes(poset, g) -> list[int]:
    """g . node i for every node i: the integer stage-one form of node i
    moved by g (`arrangement._moved_form`), looked up among the node keys."""
    index = {nd.subspace.key(): nd.index for nd in poset.nodes}
    return [index[_moved_form(g, nd.subspace)] for nd in poset.nodes]


def pruned_images(group, seeds) -> list:
    """The maximal elements of `arrangement.orbit_closure`, pruned pair by
    pair: each seed moved once per distinct permutation and named by the
    first element that acts by it, an image dropped when any other image
    contains it, the rest sorted by the RREF over Fraction."""
    images: dict = {}
    for s in seeds:
        for g in distinct_actions(group):
            form = _moved_form(g, s)
            if form not in images:
                images[form] = HalfOpenSubspace(*form, s.ambient_dim,
                                                f"{s.label}.{g!r}")
    elems = list(images.values())
    keep = [s for i, s in enumerate(elems)
            if not any(j != i and contains_set(t, s)
                       for j, t in enumerate(elems))]
    return sorted(keep, key=lambda s: (echelon_rationals(s.rows),
                                       s.inequalities))


def max_chain_length_above(above: list[list[int]], node: int) -> int:
    """The number of nodes in a longest chain strictly above `node`, by a
    memoised walk of its up-set that steps along the up-sets `above`."""
    ups = sorted(above[node])
    upset = set(ups)
    memo: dict[int, int] = {}

    def depth(u: int) -> int:
        if u not in memo:
            nxt = [w for w in above[u] if w in upset]
            memo[u] = 1 + max((depth(w) for w in nxt), default=0)
        return memo[u]

    return max((depth(u) for u in ups), default=0)


def order_complex(above: list[list[int]], node: int):
    """The complex of chains of nodes strictly above `node`, by a walk of
    its up-set: every chain that starts at a minimal node of the up-set and
    steps to any larger node, kept when it can go no further."""
    ups = sorted(above[node])
    if not ups:
        return SimplicialComplex((), ())
    upset = set(ups)
    children = {u: [w for w in above[u] if w in upset] for u in ups}
    facets: list[tuple] = []

    def extend(chain: list[int]):
        nxt = children[chain[-1]]
        if not nxt:
            facets.append(tuple(sorted(chain)))
            return
        for w in nxt:
            extend(chain + [w])

    starts = [u for u in ups if not any(u in above[w] for w in ups if w != u)]
    for s in starts:
        extend([s])
    return complex_from_facets(facets)


def equal_dimension_pairs(poset, above) -> list[tuple[int, int]]:
    """Pairs (i, j), j strictly above i, of the same dimension."""
    return [(i, j) for i, a in enumerate(above) for j in a
            if poset.nodes[i].dim == poset.nodes[j].dim]


def rational_closure(arr):
    """(keys, labels, supports, covers) of the intersection poset of an
    arrangement, built with rational keys only (`canonical_oracle.rational_key`
    of each maximal element, from its rows): a meet missed by the mask
    lookup is keyed by `canonical_oracle.stage_one_key` of the two
    descriptions, and a stage-one form not seen before gets the full
    canonical form of `canonical_oracle.canonical_key`, the node key."""
    dim = arr.ambient_dim
    keys = [canonical_oracle.rational_key(s) for s in arr.maximal_elements]
    labels = [s.label for s in arr.maximal_elements]
    support = [1 << k for k in range(len(keys))]
    by_key = {key: k for k, key in enumerate(keys)}
    maximal = list(range(len(keys)))
    by_mask: dict = {}
    by_raw: dict = {}
    queue = deque(maximal)
    while queue:
        i = queue.popleft()
        for m in maximal:
            if support[i] >> m & 1:
                continue
            mask = support[i] | 1 << m
            j = by_mask.get(mask)
            if j is None:
                (eq_i, ineq_i), (eq_m, ineq_m) = keys[i], keys[m]
                raw = canonical_oracle.stage_one_key(eq_i + eq_m,
                                                     ineq_i + ineq_m, dim)
                j = by_raw.get(raw)
                if j is None:
                    full = canonical_oracle.canonical_key(*raw, dim)
                    j = by_key.get(full)
                    if j is None:
                        j = by_key[full] = len(keys)
                        keys.append(full)
                        labels.append(f"meet{j}")
                        support.append(mask)
                        queue.append(j)
                    by_raw[raw] = j
                by_mask[mask] = j
            support[j] |= mask
    return keys, labels, support, covers(_up_sets(support))

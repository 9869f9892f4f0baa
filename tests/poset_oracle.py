"""The containment order of an intersection poset, decided pair by pair.

`contains_set` is asked about every ordered pair of distinct nodes, with no
shortcut by dimension: a half-subspace lies inside its carrier at the same
dimension, so equal dimension does not rule containment out.  The covers
are read off the relation by their definition.  Quadratic in the number of
nodes, each step a Fourier-Motzkin cone test.

Only used in tests, as an oracle for the support masks that
`intersection_poset` orders its nodes by.
"""

from __future__ import annotations

from fanpart.arrangement import contains_set


def containment_above(poset) -> list[list[int]]:
    """above[i]: the nodes whose set strictly contains node i."""
    sets = [nd.subspace for nd in poset.nodes]
    return [[j for j, big in enumerate(sets)
             if j != i and contains_set(big, small)]
            for i, small in enumerate(sets)]


def covers(above: list[list[int]]) -> list[tuple[int, int]]:
    """(i, j) with j above i and no node strictly between them."""
    up = [set(a) for a in above]
    return sorted((i, j) for i, a in enumerate(above) for j in a
                  if not any(j in up[k] for k in a if k != j))


def supports(poset) -> list[int]:
    """Bit k set when maximal element k contains the node."""
    tops = [poset.nodes[m].subspace for m in poset.maximal_node_ids]
    return [sum(1 << k for k, big in enumerate(tops)
                if contains_set(big, nd.subspace))
            for nd in poset.nodes]


def equal_dimension_pairs(poset, above) -> list[tuple[int, int]]:
    """Pairs (i, j), j strictly above i, of the same dimension."""
    return [(i, j) for i, a in enumerate(above) for j in a
            if poset.nodes[i].dim == poset.nodes[j].dim]

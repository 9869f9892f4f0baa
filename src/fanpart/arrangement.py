"""Half-open linear subspaces, group-orbit arrangements, intersection posets.

A HalfOpenSubspace is a linear subspace cut out by equalities, optionally
restricted by closed half-space inequalities.  All sets here are cones
through the origin, so emptiness never occurs; an intersection can at worst
collapse to {0}.  Canonical form does three things: equalities in RREF,
inequalities reduced modulo the row space and made primitive, and
inequalities that are forced to vanish on the cone promoted to equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactlin import (Matrix, Vec, ZERO, ONE, is_zero_vec, kernel_basis,
                       primitive_signed, rref, rref_pivots,
                       row_space_reduce, vec)
from .groups import ActionGroup, GroupElement


# ---------------------------------------------------------------------------
# exact feasibility of strict/non-strict homogeneous inequality systems


def _fm_feasible(loose: list[Vec], strict: list[Vec], dim: int) -> bool:
    """Is there y with f.y >= 0 for all loose and f.y > 0 for all strict?

    Fourier-Motzkin elimination over the rationals; rows are (form, strict).
    """
    rows = [(tuple(f), False) for f in loose] + [(tuple(f), True) for f in strict]
    rows = [r for r in rows if not (is_zero_vec(r[0]) and not r[1])]
    for (f, s) in rows:
        if is_zero_vec(f) and s:
            return False
    rows = [r for r in rows if not is_zero_vec(r[0])]
    for k in range(dim):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        zero = [r for r in rows if r[0][k] == 0]
        new = list(zero)
        for fp, sp in pos:
            for fn, sn in neg:
                comb = tuple(fp[i] * (-fn[k]) + fn[i] * fp[k] for i in range(dim))
                strictness = sp or sn
                if is_zero_vec(comb):
                    if strictness:
                        return False
                    continue
                new.append((primitive_signed(comb), strictness))
        # dedupe, keeping the stricter flag
        seen: dict[Vec, bool] = {}
        for f, s in new:
            seen[f] = seen.get(f, False) or s
        rows = [(f, s) for f, s in seen.items()]
    return True


_kernel_memo: dict = {}


def cached_kernel(equalities: Matrix) -> list[Vec]:
    kb = _kernel_memo.get(equalities)
    if kb is None:
        kb = kernel_basis(equalities)
        _kernel_memo[equalities] = kb
    return kb


def cone_feasible(equalities: Matrix, loose: Sequence[Vec],
                  strict: Sequence[Vec]) -> bool:
    """Feasibility of {x: E x = 0, loose.x >= 0, strict.x > 0}."""
    kb = cached_kernel(equalities)
    if not kb:
        return len(strict) == 0  # only x = 0 remains
    def restrict(f: Vec) -> Vec:
        return tuple(sum(f[i] * b[i] for i in range(len(f))) for b in kb)
    return _fm_feasible([restrict(f) for f in loose],
                        [restrict(f) for f in strict], len(kb))


def cone_implies(equalities: Matrix, loose: Sequence[Vec], q: Vec) -> bool:
    """Does E x = 0, loose.x >= 0 imply q.x >= 0?"""
    return not cone_feasible(equalities, list(loose), [tuple(-x for x in q)])


# ---------------------------------------------------------------------------
# half-open subspaces


@dataclass(frozen=True)
class HalfOpenSubspace:
    equalities: Matrix                 # canonical RREF, full row rank
    inequalities: tuple[Vec, ...]      # primitive, reduced, irredundant, sorted
    ambient_dim: int
    label: str = ""

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.equalities.rows

    @property
    def is_linear(self) -> bool:
        return not self.inequalities

    def key(self):
        return (self.equalities.entries, self.inequalities)

    def same_set(self, other: "HalfOpenSubspace") -> bool:
        return self.key() == other.key()

    def carrier_basis(self) -> list[Vec]:
        return kernel_basis(self.equalities)

    def contains_point(self, p: Vec, strict: bool = False) -> bool:
        if any(x != 0 for x in self.equalities.matvec(p)):
            return False
        for q in self.inequalities:
            val = sum(a * b for a, b in zip(q, p))
            if val < 0 or (strict and val == 0):
                return False
        return True

    def relabel(self, label: str) -> "HalfOpenSubspace":
        return HalfOpenSubspace(self.equalities, self.inequalities,
                                self.ambient_dim, label)

    def __repr__(self):
        return (f"HalfOpenSubspace({self.label or 'dim %d' % self.dim}, "
                f"codim {self.equalities.rows}, ineqs {len(self.inequalities)})")


def make_subspace(eq_forms: Iterable[Vec], ineq_forms: Iterable[Vec],
                  ambient_dim: int, label: str = "") -> HalfOpenSubspace:
    """Canonicalize a description into a HalfOpenSubspace."""
    eq_rows = [vec(f) for f in eq_forms]
    ineqs = [vec(f) for f in ineq_forms]
    R, rk, pivots = rref(Matrix.from_rows(eq_rows, cols=ambient_dim))
    R = Matrix.from_rows(list(R.entries)[:rk], cols=ambient_dim)
    while True:
        reduced = []
        for q in ineqs:
            qr = primitive_signed(row_space_reduce(q, R, pivots))
            if not is_zero_vec(qr):
                reduced.append(qr)
        reduced = sorted(set(reduced))
        if not reduced:
            ineqs = reduced
            break
        # work in carrier coordinates; find inequalities forced to vanish
        kb = cached_kernel(R)
        restricted = [tuple(sum(q[i] * b[i] for i in range(ambient_dim))
                            for b in kb) for q in reduced]
        forced = None
        for j, q in enumerate(reduced):
            if not _fm_feasible(restricted, [restricted[j]], len(kb)):
                forced = q          # q must vanish on the cone
                break
        if forced is None:
            ineqs = reduced
            break
        eq_rows = list(R.entries) + [forced]
        R, rk, pivots = rref(Matrix.from_rows(eq_rows, cols=ambient_dim))
        R = Matrix.from_rows(list(R.entries)[:rk], cols=ambient_dim)
        ineqs = [o for o in reduced if o != forced]
    # drop inequalities implied by the others
    irredundant = list(ineqs)
    if len(irredundant) > 1:
        kb = cached_kernel(R)
        changed = True
        while changed:
            changed = False
            for q in list(irredundant):
                others = [o for o in irredundant if o != q]
                rest = [tuple(sum(f[i] * b[i] for i in range(ambient_dim))
                              for b in kb) for f in others]
                neg_q = tuple(sum(-q[i] * b[i] for i in range(ambient_dim))
                              for b in kb)
                if not _fm_feasible(rest, [neg_q], len(kb)):
                    irredundant.remove(q)
                    changed = True
                    break
    return HalfOpenSubspace(R, tuple(sorted(irredundant)), ambient_dim, label)


def transform(group: ActionGroup, g: GroupElement,
              s: HalfOpenSubspace) -> HalfOpenSubspace:
    """The image g . s; forms are pulled back along g^-1.

    g acts by a permutation matrix P, and the pullback (P^-1)^T equals P, so
    a form is moved by the same reindexing as a vector.
    """
    pick = g.source
    new_eq = [tuple(map(row.__getitem__, pick)) for row in s.equalities.entries]
    new_ineq = [tuple(map(q.__getitem__, pick)) for q in s.inequalities]
    return make_subspace(new_eq, new_ineq, s.ambient_dim, s.label)


def intersect(a: HalfOpenSubspace, b: HalfOpenSubspace,
              label: str = "") -> HalfOpenSubspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return make_subspace(list(a.equalities.entries) + list(b.equalities.entries),
                         list(a.inequalities) + list(b.inequalities),
                         a.ambient_dim, label)


def contains_set(big: HalfOpenSubspace, small: HalfOpenSubspace) -> bool:
    """Set containment small <= big."""
    piv_small = rref_pivots(small.equalities)
    for row in big.equalities.entries:
        if not is_zero_vec(row_space_reduce(row, small.equalities, piv_small)):
            return False
    for q in big.inequalities:
        if not cone_implies(small.equalities, small.inequalities, q):
            return False
    return True


def canonical_equal(s1: HalfOpenSubspace, s2: HalfOpenSubspace) -> bool:
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return s1.key() == s2.key()


# ---------------------------------------------------------------------------
# the problem-specific pieces


def _block_form(n: int, lo: int, hi: int) -> Vec:
    """The form x_lo + ... + x_hi (1-based, inclusive) on R^n."""
    return tuple(ONE if lo <= i + 1 <= hi else ZERO for i in range(n))


def _check_params(n: int, a: int, b: int):
    if a < 1 or b < 1 or n != 2 * a + 2 * b:
        raise ValueError(f"need a >= 1, b >= 1 and n = 2a + 2b, got {(n, a, b)}")


def ones_form(n: int) -> Vec:
    return (ONE,) * n


def make_L_alpha(n: int, a: int, b: int) -> HalfOpenSubspace:
    """The subspace of W_n where the three consecutive block sums
    (sizes a, a+b, b) all vanish."""
    _check_params(n, a, b)
    xi1 = _block_form(n, 1, a)
    xi2 = _block_form(n, a + 1, 2 * a + b)
    xi3 = _block_form(n, 2 * a + b + 1, n)
    return make_subspace([ones_form(n), xi1, xi2, xi3], [], n, "L")


def h1_form(n: int, a: int, b: int) -> Vec:
    """(a+b)(x_a - x_{2a+b} + x_1 - x_{a+b+1}) + x_{a+1} - x_{2a+b+1} + x_n - x_{a+b}."""
    f = [ZERO] * n
    c = Fraction(a + b)
    for idx, coeff in ((a, c), (2 * a + b, -c), (1, c), (a + b + 1, -c),
                       (a + 1, ONE), (2 * a + b + 1, -ONE), (n, ONE),
                       (a + b, -ONE)):
        f[idx - 1] += coeff
    return tuple(f)


def k_form(n: int, a: int, b: int) -> Vec:
    return _block_form(n, 1, a + b)


def h2_form(n: int, a: int, b: int) -> Vec:
    return _block_form(n, a + 1, a + b)


def make_J_pieces(n: int, a: int, b: int) -> tuple[HalfOpenSubspace, HalfOpenSubspace]:
    """The two seed pieces: a half-subspace (wall inequality kept) and a
    linear subspace, both of dimension n-4."""
    _check_params(n, a, b)
    L = make_L_alpha(n, a, b)
    l1 = make_subspace(list(L.equalities.entries) + [h1_form(n, a, b)],
                       [k_form(n, a, b)], n, "L1*")
    l2 = make_subspace(list(L.equalities.entries) + [h2_form(n, a, b)],
                       [], n, "L2*")
    return l1, l2


# ---------------------------------------------------------------------------
# arrangements and intersection posets


@dataclass
class Arrangement:
    maximal_elements: list[HalfOpenSubspace]
    group: ActionGroup
    ambient_dim: int


def orbit_closure(group: ActionGroup,
                  seeds: Sequence[HalfOpenSubspace]) -> Arrangement:
    """Minimal group-invariant arrangement containing the seeds, with
    containment-redundant images pruned."""
    images: dict = {}
    for s in seeds:
        if s.ambient_dim != group.ambient_dim:
            raise ValueError("seed does not live in the group's ambient space")
        for g in group.elements:
            img = transform(group, g, s)
            if img.key() not in images:
                images[img.key()] = img.relabel(f"{s.label}.{g!r}")
    elems = list(images.values())
    keep = []
    for i, s in enumerate(elems):
        covered = any(j != i and not s.same_set(t) and contains_set(t, s)
                      for j, t in enumerate(elems))
        if not covered:
            keep.append(s)
    keep.sort(key=lambda s: s.key())
    return Arrangement(keep, group, group.ambient_dim)


@dataclass
class PosetNode:
    index: int
    subspace: HalfOpenSubspace
    dim: int
    label: str


@dataclass
class IntersectionPoset:
    """All intersections of arrangement elements, ordered by inclusion.

    `above[i]` lists nodes whose set strictly contains node i (these are the
    elements of the lower cone in the reverse-inclusion order used for order
    complexes).  Hasse edges are (lower, upper) pairs by inclusion: the
    upper node has the larger dimension.
    """

    nodes: list[PosetNode]
    maximal_node_ids: list[int]
    above: list[list[int]]             # strict supersets, by node index
    hasse_edges: list[tuple[int, int]]
    arrangement: Arrangement
    _by_key: dict = field(default_factory=dict, repr=False)
    _act_memo: dict = field(default_factory=dict, repr=False)

    def node_by_key(self, key) -> Optional[int]:
        return self._by_key.get(key)

    def elements_above(self, i: int) -> list[int]:
        """Maximal-element nodes whose set strictly contains node i."""
        tops = set(self.maximal_node_ids)
        return [j for j in self.above[i] if j in tops]

    def act_node(self, g: GroupElement, i: int) -> int:
        key = (g.word, i)
        if key not in self._act_memo:
            img = transform(self.arrangement.group, g, self.nodes[i].subspace)
            j = self._by_key.get(img.key())
            if j is None:
                raise ValueError("poset is not invariant under the group")
            self._act_memo[key] = j
        return self._act_memo[key]

    def level_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for nd in self.nodes:
            counts[nd.dim] = counts.get(nd.dim, 0) + 1
        return counts

    def debug_lines(self) -> list[str]:
        covers: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for lo, up in self.hasse_edges:
            covers[lo].append(up)
        lines = []
        for nd in sorted(self.nodes, key=lambda n: (-n.dim, n.index)):
            ups = ",".join(str(u) for u in sorted(covers[nd.index])) or "-"
            lines.append(f"node {nd.index:3d} dim {nd.dim} covers-> {ups}  {nd.label}")
        return lines


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """Close the maximal elements under pairwise intersection and order the
    distinct sets by inclusion."""
    nodes: list[HalfOpenSubspace] = []
    by_key: dict = {}

    def add(s: HalfOpenSubspace) -> int:
        k = s.key()
        if k in by_key:
            return by_key[k]
        by_key[k] = len(nodes)
        nodes.append(s)
        return by_key[k]

    maximal_ids = [add(s) for s in arr.maximal_elements]
    raw_seen: set = set()
    queue = list(range(len(nodes)))
    while queue:
        i = queue.pop(0)
        for m in maximal_ids:
            # cheap pre-canonical key avoids re-running the full cone
            # canonicalization on repeated intersections
            stacked = nodes[i].equalities.stack(nodes[m].equalities)
            R, rk, piv = rref(stacked)
            R = Matrix.from_rows(list(R.entries)[:rk], cols=stacked.cols)
            raw_ineq = sorted({
                q for q in (primitive_signed(row_space_reduce(f, R, piv))
                            for f in nodes[i].inequalities
                            + nodes[m].inequalities)
                if not is_zero_vec(q)})
            raw = (R.entries, tuple(raw_ineq))
            if raw in raw_seen:
                continue
            raw_seen.add(raw)
            s = intersect(nodes[i], nodes[m])
            if s.key() not in by_key:
                s = s.relabel(f"meet{len(nodes)}")
                add(s)
                queue.append(by_key[s.key()])
    # containment relation: above[i] = strict supersets of node i
    n = len(nodes)
    above: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or nodes[j].dim < nodes[i].dim:
                continue
            if nodes[j].dim == nodes[i].dim and not nodes[i].same_set(nodes[j]):
                continue
            if not nodes[i].same_set(nodes[j]) and contains_set(nodes[j], nodes[i]):
                above[i].append(j)
    # covers: j in above[i] with no k in above[i] such that j in above[k]
    hasse = []
    for i in range(n):
        for j in above[i]:
            if not any((k != j and j in above[k]) for k in above[i]):
                hasse.append((i, j))
    poset_nodes = [PosetNode(i, s, s.dim, s.label or f"node{i}")
                   for i, s in enumerate(nodes)]
    poset = IntersectionPoset(poset_nodes, maximal_ids, above, sorted(hasse),
                              arr)
    poset._by_key = by_key
    return poset

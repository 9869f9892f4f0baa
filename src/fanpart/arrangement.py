"""Half-open linear subspaces, group-orbit arrangements, intersection posets.

A HalfOpenSubspace is a linear subspace cut out by equalities, optionally
restricted by closed half-space inequalities.  All sets here are cones
through the origin, so emptiness never occurs; an intersection can at worst
collapse to {0}.

The canonical form has two stages: `_reduce` is integer elimination only,
and `_settle_cone` promotes the implicit equalities and drops the redundant
inequalities.  A group element permutes coordinates, which keeps every
facet and creates no implicit equality, so `transform` runs stage one
only.  The intersection poset meets one node per group orbit with one
maximal element per orbit of that node's stabiliser.  It decides a meet in
the node's carrier where the element's rows and inequalities hold it, or a
node already made spans the meet and has only facets of the two; otherwise
it keys the meet by its integer stage-one form and does the cone work only
for a form it has not seen.  Every other node of an orbit keeps the group
element that moves the representative onto it, builds its form when it is
first read and moves its covers.  A subspace holds its equalities as those
integer rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence

from .exactlin import (Vec, echelon, echelon_rationals, integer_form,
                       integer_kernel, integer_rows, is_zero_vec,
                       leading_column, primitive_row, reduce_row)
from .groups import ActionGroup, GroupElement, distinct_actions


# ---------------------------------------------------------------------------
# exact feasibility of strict/non-strict homogeneous inequality systems


def _fm_feasible(loose: list[Vec], strict: list[Vec], dim: int) -> bool:
    """Is there y with f.y >= 0 for all loose and f.y > 0 for all strict?

    Fourier-Motzkin elimination on integer rows (form, strict): each form
    is scaled to coprime integers by a positive factor, which keeps its
    half-space, and so is each combination.
    """
    rows = [(integer_form(f), False) for f in loose] + \
        [(integer_form(f), True) for f in strict]
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
                new.append((primitive_row(comb), strictness))
        # dedupe, keeping the stricter flag
        seen: dict[tuple, bool] = {}
        for f, s in new:
            seen[f] = seen.get(f, False) or s
        rows = [(f, s) for f, s in seen.items()]
    return True


def implicit_equalities(forms: Sequence[Vec], strict: Sequence[Vec],
                        dim: int) -> list[int]:
    """Indices of the forms f that vanish on all of {y: forms.y >= 0,
    strict.y > 0}, the system assumed feasible: those for which adding
    f.y > 0 makes it infeasible.  A multiple of a form found so far (the
    negative of a wall met from both sides) vanishes there too and gets no
    test of its own."""
    found: list[int] = []
    for j, f in enumerate(forms):
        if any(_multiple(f, forms[i]) for i in found) \
                or not _fm_feasible(forms, [*strict, f], dim):
            found.append(j)
    return found


def _multiple(f: Vec, g: Vec) -> bool:
    """Is f a multiple of the nonzero form g?"""
    k = leading_column(g)
    return k >= 0 and all(x * g[k] == y * f[k] for x, y in zip(f, g))


def cached_kernel(rows: Sequence[Sequence[int]],
                  cols: int) -> list[tuple[int, ...]]:
    """The integer kernel basis of canonical equality rows, read off the
    rows with no elimination (`exactlin.integer_kernel`).  Nothing is
    cached; the name is kept for the profiling wrappers that look it up."""
    return integer_kernel(rows, cols)


def _restrict(forms: Iterable[Vec], basis: Sequence[Vec]) -> list[Vec]:
    """The forms in the coordinates of a basis: f -> (f.b for b in basis)."""
    return [tuple([sum(map(mul, f, b)) for b in basis]) for f in forms]


def _rank_reaches(rows: Iterable[Sequence[int]], k: int) -> bool:
    """Is the rank of integer rows at least k?  Eliminates until it is."""
    rows = [r for r in rows if any(r)]
    while k > 0 and rows:
        p, k = rows.pop(), k - 1
        c = leading_column(p)
        rows = [q for q in ([p[c] * x - r[c] * y for x, y in zip(r, p)]
                            for r in rows) if any(q)]
    return k <= 0


# ---------------------------------------------------------------------------
# half-open subspaces


@dataclass(frozen=True)
class HalfOpenSubspace:
    # the equalities: the RREF with each row a primitive integer row with
    # positive pivot (`exactlin.echelon`), full row rank
    rows: tuple[tuple[int, ...], ...]
    # primitive integer forms, reduced, irredundant, sorted
    inequalities: tuple[tuple[int, ...], ...]
    ambient_dim: int
    label: str = ""

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def is_linear(self) -> bool:
        return not self.inequalities

    def key(self):
        """The canonical form: two subspaces of one ambient space are the
        same set exactly when their keys are equal.  The intersection poset
        looks nodes up by it."""
        return (self.rows, self.inequalities)

    def carrier_basis(self) -> list[tuple[int, ...]]:
        """A basis of the carrier in coprime integers, each vector a
        positive multiple of the one `kernel_basis` reads off the RREF."""
        return cached_kernel(self.rows, self.ambient_dim)

    def contains_point(self, p: Vec) -> bool:
        if len(p) != self.ambient_dim:
            raise ValueError(f"a point of length {len(p)} against a subspace "
                             f"of ambient dimension {self.ambient_dim}")
        if any(sum(a * b for a, b in zip(r, p)) for r in self.rows):
            return False
        return all(sum(a * b for a, b in zip(q, p)) >= 0
                   for q in self.inequalities)

    def relabel(self, label: str) -> "HalfOpenSubspace":
        return HalfOpenSubspace(self.rows, self.inequalities,
                                self.ambient_dim, label)

    def __repr__(self):
        return (f"HalfOpenSubspace({self.label or 'dim %d' % self.dim}, "
                f"codim {len(self.rows)}, ineqs {len(self.inequalities)})")


def _reduce(eq_rows: Iterable[Sequence[int]],
            ineq_rows: Iterable[Sequence[int]], base: tuple = ()) -> tuple:
    """Stage one of the canonical form, on integer rows: the equalities in
    echelon form (`exactlin.echelon`, with the rows of `base` already in
    echelon form) and the inequalities reduced modulo them, made primitive,
    deduplicated and sorted.  The cone is not examined.  Returns the
    key (rows, inequalities) of `HalfOpenSubspace.key`."""
    rows = echelon(eq_rows, base)[0]
    return rows, tuple(sorted(q for q in _residues(ineq_rows, rows) if any(q)))


def _residues(forms: Iterable[Sequence[int]],
              rows: Sequence[Sequence[int]]) -> set:
    """The forms reduced modulo echelon rows and made primitive, zeros
    kept: on the rows' kernel each cuts the half-space of its form, since
    `reduce_row` scales by a positive factor and adds rows."""
    pivots = [leading_column(row) for row in rows]
    return {primitive_row(reduce_row(q, rows, pivots)) for q in forms}


def _settle_cone(s: HalfOpenSubspace) -> HalfOpenSubspace:
    """Stage two of the canonical form, on the output of stage one: promote
    every implicit equality at once, then drop the redundant inequalities in
    one pass.  Promoting leaves the cone unchanged, and after it the cone is
    full-dimensional in its carrier with exactly one reduced primitive form
    per facet; so the forms implied by all the others are exactly the
    non-facets, and each form is tested against all the others."""
    if not s.inequalities:
        return s
    kb = integer_kernel(s.rows, s.ambient_dim)
    forms = _restrict(s.inequalities, kb)
    forced = set(implicit_equalities(forms, [], len(kb)))
    if forced:
        qs = s.inequalities
        s = HalfOpenSubspace(*_reduce(
            [qs[j] for j in forced],
            [q for j, q in enumerate(qs) if j not in forced], s.rows),
            s.ambient_dim, s.label)
        kb = integer_kernel(s.rows, s.ambient_dim)
        forms = _restrict(s.inequalities, kb)
    if len(forms) > 1:
        s = HalfOpenSubspace(s.rows, tuple(
            q for j, (q, f) in enumerate(zip(s.inequalities, forms))
            if _fm_feasible(forms[:j] + forms[j + 1:],
                            [tuple(-x for x in f)], len(kb))),
            s.ambient_dim, s.label)
    return s


def make_subspace(eq_forms: Iterable[Vec], ineq_forms: Iterable[Vec],
                  ambient_dim: int, label: str = "") -> HalfOpenSubspace:
    """Canonicalize a description into a HalfOpenSubspace."""
    return _settle_cone(HalfOpenSubspace(
        *_reduce(integer_rows(eq_forms), integer_rows(ineq_forms)),
        ambient_dim, label))


def _moved_form(g: GroupElement, s: HalfOpenSubspace) -> tuple:
    """The integer key of g . s; forms are pulled back along g^-1.

    g acts by a permutation matrix P, and the pullback (P^-1)^T equals P, so
    a form is moved by the same reindexing as a vector.  A permutation keeps
    the cone's facets and creates no implicit equality, so the image of a
    canonical s needs only stage one.
    """
    pick = g.source
    return _reduce([tuple(map(row.__getitem__, pick)) for row in s.rows],
                   [tuple(map(q.__getitem__, pick)) for q in s.inequalities])


def transform(group: ActionGroup, g: GroupElement,
              s: HalfOpenSubspace) -> HalfOpenSubspace:
    """The image g . s (see `_moved_form`)."""
    return HalfOpenSubspace(*_moved_form(g, s), s.ambient_dim, s.label)


def contains_set(big: HalfOpenSubspace, small: HalfOpenSubspace) -> bool:
    """Set containment small <= big: big's rows vanish on small's carrier,
    and small's inequalities, restricted once to its integer kernel basis,
    leave no point with q.x < 0 for an inequality q of big."""
    pivots = [leading_column(r) for r in small.rows]
    if any(any(reduce_row(row, small.rows, pivots)) for row in big.rows):
        return False
    kb = integer_kernel(small.rows, small.ambient_dim)
    loose = _restrict(small.inequalities, kb)
    return not any(_fm_feasible(loose, [tuple(-x for x in q)], len(kb))
                   for q in _restrict(big.inequalities, kb))


# ---------------------------------------------------------------------------
# the problem-specific pieces


def _block_form(n: int, lo: int, hi: int) -> tuple[int, ...]:
    """The form x_lo + ... + x_hi (1-based, inclusive) on R^n."""
    return tuple(int(lo <= i + 1 <= hi) for i in range(n))


def _check_params(n: int, a: int, b: int):
    # a bool is not an int here: True would pass as 1
    if any(type(x) is not int for x in (n, a, b)) or a < 1 or b < 1 \
            or n != 2 * a + 2 * b:
        raise ValueError("need ints a >= 1, b >= 1 and n = 2a + 2b, got "
                         f"{(n, a, b)!r}")


def ones_form(n: int) -> tuple[int, ...]:
    return (1,) * n


def make_L_alpha(n: int, a: int, b: int) -> HalfOpenSubspace:
    """The subspace of W_n where the three consecutive block sums
    (sizes a, a+b, b) all vanish."""
    _check_params(n, a, b)
    xi1 = _block_form(n, 1, a)
    xi2 = _block_form(n, a + 1, 2 * a + b)
    xi3 = _block_form(n, 2 * a + b + 1, n)
    return make_subspace([ones_form(n), xi1, xi2, xi3], [], n, "L")


def h1_form(n: int, a: int, b: int) -> tuple[int, ...]:
    """(a+b)(x_a - x_{2a+b} + x_1 - x_{a+b+1}) + x_{a+1} - x_{2a+b+1} + x_n - x_{a+b}."""
    f = [0] * n
    c = a + b
    for idx, coeff in ((a, c), (2 * a + b, -c), (1, c), (a + b + 1, -c),
                       (a + 1, 1), (2 * a + b + 1, -1), (n, 1),
                       (a + b, -1)):
        f[idx - 1] += coeff
    return tuple(f)


def k_form(n: int, a: int, b: int) -> tuple[int, ...]:
    return _block_form(n, 1, a + b)


def h2_form(n: int, a: int, b: int) -> tuple[int, ...]:
    return _block_form(n, a + 1, a + b)


def make_J_pieces(n: int, a: int, b: int) -> tuple[HalfOpenSubspace, HalfOpenSubspace]:
    """The two seed pieces: a half-subspace (wall inequality kept) and a
    linear subspace, both of dimension n-4."""
    _check_params(n, a, b)
    L = make_L_alpha(n, a, b)
    l1 = make_subspace(list(L.rows) + [h1_form(n, a, b)],
                       [k_form(n, a, b)], n, "L1*")
    l2 = make_subspace(list(L.rows) + [h2_form(n, a, b)],
                       [], n, "L2*")
    return l1, l2


# ---------------------------------------------------------------------------
# arrangements and intersection posets


@dataclass
class Arrangement:
    """The maximal elements, in certificate order, and the group: g moves
    element k onto element moves[g.perm][k], for each distinct action g."""

    maximal_elements: list[HalfOpenSubspace]
    group: ActionGroup
    ambient_dim: int
    moves: dict  # g.perm -> pi_g, a permutation of range(len(elements))


def orbit_closure(group: ActionGroup,
                  seeds: Sequence[HalfOpenSubspace]) -> Arrangement:
    """Minimal group-invariant arrangement containing the seeds, with
    containment-redundant images pruned.  Each seed is moved once per
    distinct permutation, by the first element that acts by it, which
    names the image.  g . s lies in an image t exactly when s lies in the
    image g^-1 . t, so an image is redundant exactly when the first image
    of its seed is: each seed orbit is kept or dropped whole, by one
    containment test against every other image."""
    movers = distinct_actions(group)
    images: dict = {}
    orbits = []
    for s in seeds:
        if s.ambient_dim != group.ambient_dim:
            raise ValueError("seed does not live in the group's ambient space")
        forms = [_moved_form(g, s) for g in movers]
        for g, form in zip(movers, forms):
            if form not in images:
                images[form] = HalfOpenSubspace(*form, s.ambient_dim,
                                                f"{s.label}.{g!r}")
        orbits.append(forms)
    kept: dict = {}
    for forms in orbits:
        s = images[forms[0]]
        if not any(t is not s and contains_set(t, s)
                   for t in images.values()):
            kept.update((f, images[f]) for f in forms)
    keep = list(kept.values())
    # the order of the RREF over Fraction, not of the integer rows: the two
    # differ at (1, 2), and the node numbers and basis coordinates of every
    # certificate follow this order
    keep.sort(key=lambda s: (echelon_rationals(s.rows), s.inequalities))
    # the move table by the group law: element k is g . s for the first
    # mover g that names it, and h moves it to (hg) . s, an image of the
    # same seed orbit
    at = {s.key(): k for k, s in enumerate(keep)}
    slot = {g.perm: i for i, g in enumerate(movers)}
    origin: list = [None] * len(keep)  # k -> (g, orbit as element numbers)
    for forms in orbits:
        if forms[0] in kept:
            where = [at[f] for f in forms]
            for g, k in zip(movers, where):
                origin[k] = origin[k] or (g, where)
    moves = {h.perm: tuple(where[slot[group.mul(h, g).perm]]
                           for g, where in origin) for h in movers}
    return Arrangement(keep, group, group.ambient_dim, moves)


class PosetNode:
    """A node of the intersection poset.  The node of an orbit that met the
    maximal elements (see `intersection_poset`) holds its subspace from the
    start.  Every other node holds only the group element g that moved it
    there and the representative's subspace s, and builds its integer form
    g . s by `_moved_form` the first time `subspace` is read.  A move keeps
    the dimension and linearity, so `dim` is set either way, and a reader
    of linearity alone can read the representative (`poset.orbit`)."""

    __slots__ = ("index", "dim", "label", "_subspace", "_move")

    def __init__(self, index: int, subspace: HalfOpenSubspace | None,
                 dim: int, label: str, move: tuple | None = None):
        self.index, self.dim, self.label = index, dim, label
        self._subspace, self._move = subspace, move

    @property
    def subspace(self) -> HalfOpenSubspace:
        if self._subspace is None:
            g, s = self._move
            self._subspace = HalfOpenSubspace(*_moved_form(g, s),
                                              s.ambient_dim, self.label)
        return self._subspace


@dataclass
class IntersectionPoset:
    """All intersections of arrangement elements, ordered by inclusion.

    `support[i]` is the set of maximal elements containing node i, as a
    bitmask: bit k stands for node `maximal_node_ids[k]`.  Every node is the
    intersection of its support, so node i lies in node j exactly when
    support[j] is a subset of support[i].

    `covers[i]` lists the minimal nodes whose set strictly contains node i,
    the nodes of inclusion-maximal support among those whose support lies
    strictly inside support[i], in increasing order.

    `orbit[i]` is the node of i's group orbit that met the maximal elements
    when the poset was built (see `intersection_poset`): the one orbit
    representative of every node.
    """

    nodes: list[PosetNode]
    maximal_node_ids: list[int]
    support: list[int]                 # bitmask over maximal_node_ids
    covers: list[list[int]]            # minimal strict supersets
    orbit: list[int]                   # the orbit representative
    arrangement: Arrangement
    # support mask -> node index
    _by_support: dict = field(default_factory=dict, repr=False)
    # (orbit representative, degree) -> reduced homology below the node;
    # filled by homology.node_homology
    _homology_memo: dict = field(default_factory=dict, repr=False)

    def support_ids(self, i: int) -> list[int]:
        """Maximal-element nodes whose set contains node i (i itself
        included when it is maximal), in increasing order."""
        return _bit_list(self.support[i])  # maximal element k is node k

    def elements_above(self, i: int) -> list[int]:
        """Maximal-element nodes whose set strictly contains node i."""
        return [m for m in self.support_ids(i) if m != i]

    def act_node(self, g: GroupElement, i: int) -> int:
        """The node g . node i: the node whose support is pi_g of the
        support of node i (see `intersection_poset`)."""
        return self._by_support[_move_mask(self.arrangement.moves[g.perm],
                                           self.support_ids(i))]

    def level_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for nd in self.nodes:
            counts[nd.dim] = counts.get(nd.dim, 0) + 1
        return counts

    def debug_lines(self) -> list[str]:
        lines = []
        for nd in sorted(self.nodes, key=lambda n: (-n.dim, n.index)):
            ups = ",".join(str(u) for u in self.covers[nd.index]) or "-"
            lines.append(f"node {nd.index:3d} dim {nd.dim} covers-> {ups}  {nd.label}")
        return lines


def _move_mask(pi: Sequence[int], bits: Iterable[int]) -> int:
    """A support mask, given by its set bits, moved by pi: bit k goes to
    bit pi[k]."""
    return sum(1 << pi[k] for k in bits)


def _bit_list(mask: int) -> list[int]:
    """The positions of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _stabiliser(perms: Sequence[Sequence[int]],
                mask: int) -> list[Sequence[int]]:
    """The permutations among perms that fix a support mask."""
    bits = _bit_list(mask)
    return [pi for pi in perms if all(mask >> pi[k] & 1 for k in bits)]


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """Close the maximal elements under intersection and order the distinct
    sets by inclusion.

    g permutes the maximal elements by pi_g (`Arrangement.moves`), and a
    node is the intersection of its support, so g . node is the node with
    support pi_g(support).  So one node per orbit meets the elements, and
    it meets one element per orbit of the permutations that fix its support
    so far, taken again when the support grows (`_stabiliser`).  The
    meet is the meeting node r itself or c, the node of fewest support bits
    whose support holds the meet's mask, or a new node.  Two witnesses
    decide it in the carrier of r with no key; an inequality reduced
    modulo a carrier's rows (`_residues`) cuts the carrier as it does.  r
    lies in m when m's rows vanish on span(r) and each inequality of m is
    zero or a facet of r there.  c lies in r meet m, which lies in V =
    span(r) & ker E_m: when dim V <= dim c, V is span(c), and the meet is c
    when each facet of c is an inequality of r or m on span(c).  Any other
    meet is keyed by its integer stage-one form; a form not seen yet gets
    the cone work of stage two and is compared with c and the known keys.
    (A stage-one form equal to c's key has rank(E_m K_r) = dim r - dim c
    and c's facets among the reduced inequalities: the candidate witness
    decided it.)  The meets that give r itself make its exact support.
    The rest of its orbit is one node per distinct pi_g(support), which
    keeps g and builds its form (stage one only) when it is first read
    (`PosetNode`); the node that met the elements is the orbit's entry in
    `orbit`.  Then the closure from the maximal elements is replayed on
    masks to number the nodes: the meet of node i and an element m outside
    support[i] is the node of fewest support bits among those whose support
    holds support[i] | m (the intersection of that mask), a new one
    labelled meet<number>.  The order follows from the supports (see
    IntersectionPoset), and the replay finds the covers of the
    representatives: when i covers j, i meets any element of support[j]
    outside support[i] in a node between j and i, so in j.  So the covers
    of j are the nodes i with i meet m = j for some m that have
    inclusion-maximal support.  g is an automorphism of the order, so the
    covers of g . j are g . covers[j], moved by the pi_g that made the node.

    A maximal element given twice is a ValueError, and so is a distinct
    action whose row of the move table is missing or no permutation.
    """
    elems = arr.maximal_elements
    nmax, dim = len(elems), arr.ambient_dim
    # stage-one key of every representative and of every meet made -> node
    known: dict = {}
    for k, s in enumerate(elems):
        if known.setdefault(s.key(), k) != k:
            raise ValueError(f"maximal elements {known[s.key()]} and {k} "
                             "are the same set")
    actions = distinct_actions(arr.group)
    perms = [arr.moves.get(g.perm) for g in actions]
    for g, pi in zip(actions, perms):
        if pi is None or sorted(pi) != list(range(nmax)):
            raise ValueError(f"the move table has no permutation of the "
                             f"{nmax} maximal elements for {g!r}")
    nodes = [PosetNode(k, s, s.dim, s.label) for k, s in enumerate(elems)]
    support = [1 << k for k in range(nmax)]
    members = list(support)  # bit j of members[m]: element m holds node j
    rep = list(range(nmax))  # node -> the node of its orbit settled
    made: list = [None] * nmax  # node -> the pi_g that moved rep onto it
    by_support: dict = {}  # exact support -> node

    def grow(j: int, bits: int) -> None:
        support[j] |= bits
        for k in _bit_list(bits):
            members[k] |= 1 << j

    def add(nd: PosetNode, mask: int) -> int:
        rep.append(len(nodes))
        made.append(None)
        nodes.append(nd)
        support.append(0)
        grow(len(nodes) - 1, mask)
        return len(nodes) - 1

    def settle(r: int) -> None:
        # a new meet is settled at once (depth first): the only orbits not
        # complete meanwhile are those of the nodes being settled, which lie
        # strictly above the meet, and no node lies strictly below a node
        # of its own orbit.  So every other node has its exact support, and
        # a meet made already is r itself or c, the node of fewest support
        # bits whose support holds support[r] | m.  A support bit is set
        # only by a true containment, so c lies in r meet m, which lies in
        # V = span(r) & ker E_m, of dimension dim r - rank(E_m K_r) for a
        # basis K_r of span(r).  The two witnesses of the docstring need no
        # key; when the meet is c, it is not r, and nothing is recorded
        a = nodes[r].subspace
        kb = integer_kernel(a.rows, dim)
        facets = {(0,) * dim, *a.inequalities}
        fixed = 0  # the support that stab fixes
        at = None  # (support[r], node count) when `above` was formed
        for m in range(nmax):
            if support[r] >> m & 1:
                continue
            # every h in the stabiliser H of the support fixes r, and r
            # meets pi_h(m) in h . (r meet m): in r when r lies in m, and
            # else in a node of the orbit of r meet m.  So r meets one
            # element per orbit, and when that meet is r the whole orbit
            # holds r.  H only grows with the support, so an orbit that
            # holds a smaller element was met or skipped already
            if fixed != support[r]:
                fixed = support[r]
                stab = _stabiliser(perms, fixed)
            orb = 0
            for pi in stab:
                orb |= 1 << pi[m]
            if orb & (1 << m) - 1:
                continue
            e = elems[m]
            em = _restrict(e.rows, kb)
            if not any(map(any, em)) and \
                    _residues(e.inequalities, a.rows) <= facets:
                grow(r, orb)
                continue
            if at != (support[r], len(nodes)):  # r grew or a node was added
                at, above = (support[r], len(nodes)), -1
                for k in _bit_list(support[r]):
                    above &= members[k]
            c = min(_bit_list(above & members[m]), default=None,
                    key=lambda i: support[i].bit_count())
            ineqs = a.inequalities + e.inequalities
            if c is not None and _rank_reaches(em, a.dim - nodes[c].dim) and (
                    nodes[rep[c]].subspace.is_linear or _residues(
                        ineqs, nodes[c].subspace.rows).issuperset(
                        nodes[c].subspace.inequalities)):
                continue
            raw = _reduce(e.rows, ineqs, a.rows)
            j = known.get(raw)
            if j is None:
                seen = nodes[c].subspace.key() if c is not None else None
                s = _settle_cone(HalfOpenSubspace(*raw, dim))
                # known has r's key: the meet is r when r lies in m
                j = c if seen == s.key() else known.get(s.key())
                if j is None:
                    j = known[s.key()] = add(PosetNode(-1, s, s.dim, ""),
                                             support[r] | 1 << m)
                    settle(j)
                known[raw] = j
            if j == r:
                grow(r, orb)
        by_support[support[r]] = r
        bits = _bit_list(support[r])
        for g, pi in zip(actions, perms):
            mask = _move_mask(pi, bits)
            if mask not in by_support:
                j = pi[r] if r < nmax else add(
                    PosetNode(-1, None, a.dim, "", (g, a)), mask)
                rep[j], made[j] = r, pi
                by_support[mask] = j

    for k in range(nmax):  # one element per orbit of elements
        if by_support.get(support[k]) != k:
            settle(k)
    # the recursive closure refers to itself: without this the cycle keeps
    # it and every table it reads alive until the cyclic collector runs
    del settle
    # in order of support size, the lowest bit of a set of nodes is the
    # node of fewest support bits; holds[m] has bit p when element m
    # contains node order[p]
    order = sorted(range(len(nodes)), key=lambda i: support[i].bit_count())
    inside = list(map(_bit_list, support))
    holds = [0] * nmax
    for p, i in enumerate(order):
        for m in inside[i]:
            holds[m] |= 1 << p
    bfs = list(range(nmax))
    numbered = [i < nmax for i in range(len(nodes))]
    # representative j -> the nodes i with i meet m = j
    candidates = [set() if rep[j] == j else None for j in range(len(nodes))]
    for i in bfs:
        below = -1
        for m in inside[i]:
            below &= holds[m]
        for m, h in enumerate(holds):
            if support[i] >> m & 1:  # i lies in m
                continue
            c = below & h  # lowest bit: the meet with m, a node j != i
            j = order[(c & -c).bit_length() - 1]
            if candidates[j] is not None:
                candidates[j].add(i)
            if not numbered[j]:
                numbered[j] = True
                bfs.append(j)
    position = {j: i for i, j in enumerate(bfs)}
    orbit = [position[rep[j]] for j in bfs]
    # in order of decreasing support size, a candidate whose support lies
    # in a larger one is dominated by a cover already found
    ups = [[] for _ in nodes]
    for found, cs in zip(candidates, ups):
        for i in sorted(found or (), key=lambda i: -support[i].bit_count()):
            if all(support[i] & ~support[c] for c in cs):
                cs.append(i)
    # the poset automorphism g moves the covers of j onto those of g . j
    covers = [sorted(position[i] if made[j] is None else
                     position[by_support[_move_mask(made[j], inside[i])]]
                     for i in ups[rep[j]]) for j in bfs]
    support = [support[j] for j in bfs]
    nodes = [nodes[j] for j in bfs]
    for i, nd in enumerate(nodes):
        nd.index = i
        if i < nmax:
            nd.label = nd.label or f"node{i}"
        else:
            nd.label = f"meet{i}"
            if nd._subspace is not None:
                nd._subspace = nd._subspace.relabel(nd.label)
    return IntersectionPoset(
        nodes, list(range(nmax)), support, covers, orbit, arr,
        _by_support={s: i for i, s in enumerate(support)})

"""Finite groups acting by coordinate permutations on R^N.

Two families are needed: the generalized quaternion group of order 4n acting
on R^n through its dihedral quotient (epsilon cycles the coordinates, j
reverses them), and cyclic groups acting by coordinate permutations for the
small worked fixtures.  Every element is stored as its permutation; the
permutation matrix is derived on demand.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .exactlin import Frozen, Matrix, Vec


class GroupElement(Frozen):
    def __init__(self, word: tuple[int, int], perm: tuple[int, ...]):
        # word (k, jflag) means eps^k * j^jflag; e_i -> e_{perm[i]} (0-based)
        self._set(word=word, perm=perm)

    def _key(self) -> tuple:
        return self.word, self.perm

    def __repr__(self):
        k, j = self.word
        if j == 0:
            return "1" if k == 0 else f"eps^{k}"
        return f"eps^{k} j" if k else "j"

    @cached_property
    def source(self) -> tuple[int, ...]:
        """The inverse permutation: (g v)[i] = v[source[i]]."""
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return tuple(inv)

    @property
    def matrix(self) -> Matrix:
        """The permutation matrix, with column i equal to e_{perm[i]}."""
        n = len(self.perm)
        rows = [[0] * n for _ in range(n)]
        for i, p in enumerate(self.perm):
            rows[p][i] = 1
        return Matrix(rows)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation p after q (the matrix product P Q)."""
    return tuple(p[i] for i in q)


class ActionGroup:
    """A fully enumerated group of signed-permutation actions; `modulus` is
    the word exponent modulus (2n for quaternion, m for cyclic)."""

    __slots__ = ("elements", "ambient_dim", "generators", "modulus",
                 "_by_word")

    def __init__(self, elements: list[GroupElement], ambient_dim: int,
                 generators: list[GroupElement], modulus: int):
        self.elements, self.ambient_dim = elements, ambient_dim
        self.generators, self.modulus = generators, modulus
        self._by_word = {g.word: g for g in elements}

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> GroupElement:
        return self._by_word[(0, 0)]

    def by_word(self, k: int, jflag: int = 0) -> GroupElement:
        return self._by_word[(k % self.modulus, jflag)]

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        k1, d1 = g.word
        k2, d2 = h.word
        # eps^k j eps^m = eps^(k-m) j, and j j = eps^n; a cyclic word is
        # (k, 0), so the cyclic groups follow the same law
        if d1 == 0:
            k, d = k1 + k2, d2
        else:
            k, d = k1 - k2, 1 + d2
        if d == 2:
            k, d = k + self.modulus // 2, 0
        return self.by_word(k, d)

    def inv(self, g: GroupElement) -> GroupElement:
        k, d = g.word
        if d == 0:
            return self.by_word(-k, 0)
        # (eps^k j)^-1 = eps^(k-n) j
        return self.by_word(k - self.modulus // 2, 1)


def quaternion_on_Wn(n: int) -> ActionGroup:
    """Order-4n generalized quaternion group acting on R^n.

    eps maps e_i to e_{i mod n + 1} and j maps e_i to e_{n-i+1}; the central
    element eps^n acts as the identity (the action factors through the
    dihedral quotient of order 2n).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    eps = tuple((i + 1) % n for i in range(n))
    j = tuple(n - 1 - i for i in range(n))
    powers = [tuple(range(n))]
    for k in range(1, 2 * n):
        powers.append(_compose(eps, powers[-1]))
    elements = [GroupElement((k, 0), powers[k]) for k in range(2 * n)]
    elements += [GroupElement((k, 1), _compose(powers[k], j))
                 for k in range(2 * n)]
    group = ActionGroup(elements, n, [], 2 * n)
    group.generators = [group.by_word(1, 0), group.by_word(0, 1)]
    return group


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def cyclic_shift_group(m: int, N: int, shift_spec: tuple[int, ...]) -> ActionGroup:
    """Cyclic group of order m whose generator sends e_i to e_{shift_spec[i-1]}."""
    if sorted(shift_spec) != list(range(1, N + 1)):
        raise ValueError("shift_spec must be a permutation of 1..N")
    gen = tuple(x - 1 for x in shift_spec)
    order = 1
    for length in _cycle_lengths(gen):
        order = order * length // gcd(order, length)
    if m % order != 0:
        raise ValueError(f"permutation order {order} does not divide {m}")
    elements = []
    acc = tuple(range(N))
    for k in range(m):
        elements.append(GroupElement((k, 0), acc))
        acc = _compose(gen, acc)
    group = ActionGroup(elements, N, [], m)
    group.generators = [group.by_word(1)]
    return group


def distinct_actions(group: ActionGroup) -> list[GroupElement]:
    """The first element of each distinct permutation, in group order: one
    element per distinct action on R^N."""
    firsts: dict = {}
    for g in group.elements:
        firsts.setdefault(g.perm, g)
    return list(firsts.values())


def permutation_sign(perm: tuple[int, ...]) -> int:
    """The sign of a permutation of range(len(perm)), from its cycles."""
    return -1 if (len(perm) - len(_cycle_lengths(perm))) % 2 else 1


def det_character(g: GroupElement) -> int:
    """Determinant of the action matrix: the sign of the permutation."""
    return permutation_sign(g.perm)


def act(g: GroupElement, v: Vec) -> Vec:
    """g v, by reindexing: (g v)[i] = v[source[i]]."""
    if len(g.perm) != len(v):
        raise ValueError("vector dimension does not match the action")
    return tuple(map(v.__getitem__, g.source))

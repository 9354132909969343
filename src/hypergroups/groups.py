"""Finite groups given by Cayley tables, and the schemes their quotients induce.

The point of entry is a multiplication table over opaque element labels.
From a group G and a subgroup H we build the double-coset scheme on G/H
and the double-coset convolution computed directly from coset products,
so the two routes to the same measure can be compared exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidCayleyTable, NotASubgroup, ParseError
from .schemes import Scheme, build_scheme


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    elements: tuple
    mul: np.ndarray      # (n, n) int, mul[i, j] = index of elements[i] * elements[j]
    identity: int
    inverse: np.ndarray  # (n,) int

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, g) -> int:
        """Index of an element given by label, or by index when no label matches."""
        try:
            return self.elements.index(g)
        except ValueError:
            # an int or numpy integer; a JSON true or false is no index
            if (type(g) is int or isinstance(g, np.integer)) and 0 <= int(g) < self.order:
                return int(g)
            raise ParseError(f"unknown group element {g!r}") from None


def group_from_table(elements: Sequence, table) -> FiniteGroup:
    """Validate a Cayley table and wrap it.

    ``table[i][j]`` may hold either the element label or its index; a label
    wins over an index.
    Checks: latin square, two-sided identity, inverses, associativity.
    Associativity uses Light's test: generators are picked greedily (the
    smallest element not yet a left-nested product of earlier ones, at
    most log2(n) of them in a group) and ``(x a) y == x (a y)`` is checked
    for every x, y and generator a only.  The elements passing that test
    are closed under products, so this proves the whole table
    associative.  When a generator fails, a full per-row scan names the
    first failing row.  Violations raise ``InvalidCayleyTable``.
    """
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n or n == 0:
        raise ParseError("element labels must be nonempty and distinct")
    pos = {g: i for i, g in enumerate(elements)}

    rows = list(table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidCayleyTable("table is not |G| x |G|")
    mul = np.fromiter(map(pos.get, itertools.chain.from_iterable(rows), itertools.repeat(-1)),
                      dtype=np.int64, count=n * n)
    # not a label (a label wins): an index (int or numpy integer, never a bool), or no element
    miss = np.flatnonzero(mul < 0).tolist()
    mul[miss] = [v if (type(v) is int or isinstance(v, np.integer)) and 0 <= v < n else -1
                 for v in (rows[k // n][k % n] for k in miss)]
    mul = mul.reshape(n, n)
    if (mul < 0).any():
        i, j = map(int, np.argwhere(mul < 0)[0])
        raise InvalidCayleyTable(f"entry {rows[i][j]!r} at ({i}, {j}) is no element")

    # a row (column) of n entries is a permutation when it hits all n elements
    idx = np.arange(n)
    hit = np.zeros((n, n), dtype=bool)
    hit[idx[:, None], mul] = True
    latin = hit.all(axis=1)
    hit[...] = False
    hit[mul, idx] = True
    latin &= hit.all(axis=0)
    if not latin.all():
        raise InvalidCayleyTable("table is not a latin square", witness=int(np.argmin(latin)))

    unit = (mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0)
    id_candidates = np.flatnonzero(unit)
    if len(id_candidates) != 1:
        raise InvalidCayleyTable("no unique two-sided identity")
    e = int(id_candidates[0])

    inverse = np.argmax(mul == e, axis=1)  # the one right inverse in each latin row
    one_sided = mul[inverse, idx] != e
    if one_sided.any():
        i = int(np.argmax(one_sided))
        raise InvalidCayleyTable(f"element {elements[i]!r} has no two-sided inverse")

    m32 = mul.astype(np.int32)  # halves the memory the gathers below move
    if not all(np.array_equal(m32[m32[:, a], :], m32[:, m32[a]]) for a in _generators(m32, e)):
        # mul[mul[i, j], k] == mul[i, mul[j, k]], vectorized over (j, k) per i
        for i in range(n):
            if not np.array_equal(m32[m32[i], :], m32[i, m32]):
                raise InvalidCayleyTable("multiplication is not associative", witness=i)

    mul.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(elements=elements, mul=mul, identity=e, inverse=inverse)


def _generators(mul: np.ndarray, e: int) -> list:
    """Greedy generators: each is the smallest element not yet reached by
    left-nested products of the earlier ones (the identity counts as reached)."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[e] = True
    gens: list = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.flatnonzero(reached)
        while len(frontier):
            prod = mul[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prod[~reached[prod]])
            reached[frontier] = True
    return gens


def check_subgroup(group: FiniteGroup, subgroup: Sequence) -> np.ndarray:
    """Indices of a verified subgroup, raising ``NotASubgroup`` otherwise."""
    idx = np.array(sorted({group.index(h) for h in subgroup}), dtype=np.int64)
    if len(idx) == 0:
        raise NotASubgroup("subgroup must be nonempty")
    inside = np.zeros(group.order, dtype=bool)
    inside[idx] = True
    if not inside[group.identity]:
        raise NotASubgroup("identity is missing")
    # the first bad a in idx order: a missing inverse, then the first escaping a * b
    has_inverse = inside[group.inverse[idx]]
    closed = inside[group.mul[np.ix_(idx, idx)]]
    bad = ~has_inverse | ~closed.all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        a = int(idx[r])
        if not has_inverse[r]:
            raise NotASubgroup(f"inverse of {group.elements[a]!r} is missing")
        b = int(idx[np.argmin(closed[r])])
        raise NotASubgroup(f"product of {group.elements[a]!r} and {group.elements[b]!r} escapes",
                           witness=(a, b))
    return idx


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ParseError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(tuple(range(n)), table)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples, composition (p * q)(i) = p[q[i]], lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    # code(p) = sum_i p[i] w[i] grows with lexicographic rank; code(p * q) = sum_j p[j] w[q^-1[j]]
    arr = np.array(perms, dtype=np.int64).reshape(len(perms), n)
    w = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.searchsorted(arr @ w, arr @ w[np.argsort(arr, axis=1)].T)
    return group_from_table(tuple(perms), table.tolist())


def _cosets(group: FiniteGroup, sub: np.ndarray, double: bool = False):
    """Left cosets gH, or double cosets HgH, as sorted index arrays ordered
    by minimal member, and the index of the coset of each element."""
    seen = np.full(group.order, -1, dtype=np.int64)
    cosets = []
    for g in range(group.order):
        if seen[g] < 0:
            members = group.mul[g, sub]
            members = np.unique(group.mul[np.ix_(sub, members)] if double else members)
            seen[members] = len(cosets)
            cosets.append(members)
    return cosets, seen


def _double_coset_label(group: FiniteGroup, members) -> str:
    return f"H{group.elements[int(members.min())]}H"


def scheme_from_group_quotient(group: FiniteGroup, subgroup: Sequence) -> Scheme:
    """Scheme on G/H whose classes are the double cosets of H.

    Points are left cosets xH, and (xH, yH) lies in the class of the
    double coset H x^{-1} y H.  Class valency equals the number of left
    cosets inside the double coset (asserted).
    """
    sub = check_subgroup(group, subgroup)
    cosets, coset_of = _cosets(group, sub)
    dcosets, dcoset_of = _cosets(group, sub, double=True)

    points = tuple(f"{group.elements[int(c.min())]}H" for c in cosets)
    classes = tuple(_double_coset_label(group, dc) for dc in dcosets)
    reps = np.array([int(c.min()) for c in cosets])
    # (xH, yH) -> the double coset of x^{-1} y, over the coset representatives
    in_dcoset = dcoset_of[group.mul[np.ix_(group.inverse[reps], reps)]]
    s = build_scheme(points, classes, np.array(classes, dtype=object)[in_dcoset].tolist())
    for k, dc in enumerate(dcosets):
        assert int(s.valencies[s.class_index(classes[k])]) == len(dc) // len(sub)
    return s


def hecke_convolution(group: FiniteGroup, subgroup: Sequence, a, b) -> dict:
    """Double-coset convolution computed from coset products.

    Decomposes HaH and HbH into left cosets a_i H, b_j H and counts, for
    each double coset HcH (via its minimal representative c), how many
    products a_i b_j land in cH.  Returns {double coset label: Fraction}
    normalized by the coset indices, a probability measure on the
    double-coset space.
    """
    sub = check_subgroup(group, subgroup)
    cosets, coset_of = _cosets(group, sub)
    dcosets, dcoset_of = _cosets(group, sub, double=True)
    reps = np.array([int(c.min()) for c in cosets])
    dcoset_of_rep = dcoset_of[reps]
    a_reps = reps[dcoset_of_rep == dcoset_of[group.index(a)]]
    b_reps = reps[dcoset_of_rep == dcoset_of[group.index(b)]]
    # how many products a_i b_j land in each left coset
    lands = np.bincount(coset_of[group.mul[np.ix_(a_reps, b_reps)]].ravel(),
                        minlength=len(cosets))

    out = {}
    for k, dc in enumerate(dcosets):
        # products landing in cH, times the index of HcH (its number of left cosets)
        weight = int(lands[coset_of[dc.min()]]) * int((dcoset_of_rep == k).sum())
        if weight:
            out[_double_coset_label(group, dc)] = Fraction(weight, a_reps.size * b_reps.size)
    return out

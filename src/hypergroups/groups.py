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
            if isinstance(g, (int, np.integer)) and 0 <= int(g) < self.order:
                return int(g)
            raise ParseError(f"unknown group element {g!r}") from None


def group_from_table(elements: Sequence, table) -> FiniteGroup:
    """Validate a Cayley table and wrap it.

    ``table[i][j]`` may hold either the element label or its index.
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
    mul = np.array([pos.get(v, -1) for r in rows for v in r], dtype=np.int64).reshape(n, n)
    for i, j in np.argwhere(mul < 0):  # not a label: an index, or no element
        v = rows[i][j]
        if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
            raise InvalidCayleyTable(f"entry {v!r} at ({i}, {j}) is no element")
        mul[i, j] = v

    idx = np.arange(n)
    latin = ((np.sort(mul, axis=1) == idx).all(axis=1)
             & (np.sort(mul, axis=0) == idx[:, None]).all(axis=0))
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

    if not all(np.array_equal(mul[mul[:, a], :], mul[:, mul[a]]) for a in _generators(mul, e)):
        # mul[mul[i, j], k] == mul[i, mul[j, k]], vectorized over (j, k) per i
        for i in range(n):
            if not np.array_equal(mul[mul[i], :], mul[i, mul]):
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
    for a in idx:
        if not inside[group.inverse[a]]:
            raise NotASubgroup(f"inverse of {group.elements[a]!r} is missing")
        for b in idx:
            if not inside[group.mul[a, b]]:
                raise NotASubgroup(
                    f"product of {group.elements[a]!r} and {group.elements[b]!r} escapes",
                    witness=(int(a), int(b)),
                )
    return idx


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ParseError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(tuple(range(n)), table)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples, composition (p * q)(i) = p[q[i]], lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return group_from_table(tuple(perms), table)


def _left_cosets(group: FiniteGroup, sub: np.ndarray):
    """Left cosets gH as sorted index tuples, ordered by minimal member."""
    seen = np.full(group.order, -1, dtype=np.int64)
    cosets = []
    for g in range(group.order):
        if seen[g] < 0:
            members = np.unique(group.mul[g, sub])
            for m in members:
                seen[m] = len(cosets)
            cosets.append(members)
    return cosets, seen


def _double_cosets(group: FiniteGroup, sub: np.ndarray):
    """Double cosets HgH as sorted index arrays, ordered by minimal member."""
    seen = np.full(group.order, -1, dtype=np.int64)
    dcosets = []
    for g in range(group.order):
        if seen[g] < 0:
            members = np.unique(group.mul[np.ix_(sub, group.mul[g, sub])])
            for m in members.flat:
                seen[m] = len(dcosets)
            dcosets.append(members)
    return dcosets, seen


def _coset_label(group: FiniteGroup, members) -> str:
    return f"{group.elements[int(members.min())]}H"


def _double_coset_label(group: FiniteGroup, members) -> str:
    return f"H{group.elements[int(members.min())]}H"


def scheme_from_group_quotient(group: FiniteGroup, subgroup: Sequence) -> Scheme:
    """Scheme on G/H whose classes are the double cosets of H.

    Points are left cosets xH, and (xH, yH) lies in the class of the
    double coset H x^{-1} y H.  Class valency equals the number of left
    cosets inside the double coset (asserted).
    """
    sub = check_subgroup(group, subgroup)
    cosets, coset_of = _left_cosets(group, sub)
    dcosets, dcoset_of = _double_cosets(group, sub)

    points = tuple(_coset_label(group, c) for c in cosets)
    classes = tuple(_double_coset_label(group, dc) for dc in dcosets)
    reps = [int(c.min()) for c in cosets]

    def rel(xlab, ylab):
        x = reps[points.index(xlab)]
        y = reps[points.index(ylab)]
        return classes[dcoset_of[group.mul[group.inverse[x], y]]]

    s = build_scheme(points, classes, rel)
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
    cosets, coset_of = _left_cosets(group, sub)
    dcosets, dcoset_of = _double_cosets(group, sub)
    ai = group.index(a)
    bi = group.index(b)

    def coset_reps_inside(dc) -> list:
        return sorted({int(cosets[coset_of[m]].min()) for m in dc.flat})

    a_reps = coset_reps_inside(dcosets[dcoset_of[ai]])
    b_reps = coset_reps_inside(dcosets[dcoset_of[bi]])
    ind_a = len(a_reps)
    ind_b = len(b_reps)

    out = {}
    for dc in dcosets:
        c_rep = int(dc.min())
        target = coset_of[c_rep]
        count = sum(
            1
            for x in a_reps
            for y in b_reps
            if coset_of[group.mul[x, y]] == target
        )
        if count:
            ind_c = len(coset_reps_inside(dc))
            out[_double_coset_label(group, dc)] = Fraction(count * ind_c, ind_a * ind_b)
    return out

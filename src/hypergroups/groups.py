"""Finite groups given by Cayley tables, and the schemes their quotients induce.

A multiplication table over opaque element labels is proved a group from its axioms, and
scanned for latin rows and columns only to name a fault.  From a group G and a subgroup H
we build the double-coset scheme on G/H.  The orbitals of a transitive action form a
scheme (Bannai-Ito 1984, II.2), so once the table and H are checked, the quotient's counts
are not rechecked.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidCayleyTable, NotASubgroup, ParseError
from .schemes import Scheme, _int_dtype, _key, _label_index, _verified_scheme


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    elements: tuple
    mul: np.ndarray      # (n, n) int, mul[i, j] = index of elements[i] * elements[j]
    identity: int
    inverse: np.ndarray  # (n,) int

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _positions(self) -> dict:
        return _label_index(self.elements, "element")

    def index(self, g) -> int:
        """Index of an element given by label, or by index when no label matches."""
        i = _element(self._positions, self.order, g)
        if i < 0:
            raise ParseError(f"unknown group element {g!r}")
        return i


def _element(positions: dict, n: int, g) -> int:
    """Position of g among n elements: its label under _key, else an index (an int or
    numpy integer below n, never a bool), else -1; an unhashable g is no label."""
    try:
        return positions[_key(g)]
    except (KeyError, TypeError):  # TypeError: an unhashable g, which is no label
        return int(g) if (type(g) is int or isinstance(g, np.integer)) and 0 <= g < n else -1


def group_from_table(elements: Sequence, table) -> FiniteGroup:
    """Validate a Cayley table and wrap it.

    ``table[i][j]`` may hold either the element label or its index; a label wins over an
    index, and true and false name boolean labels only.  A row is looked up at once, and
    entry by entry when it holds no label or a boolean meets a label holding a 0 or 1.

    Three checks prove a group: the element taking 0 to 0 in column 0 is a two-sided
    identity, each element has a right inverse, and ``(x a) y == x (a y)`` for all x, y
    and each greedy generator a (Light's test).  Each generator passing it at least
    doubles the subgroup reached, so the search stops at floor(log2 n) + 1.  A failed
    proof runs the checks that name the fault: latin square, identity, inverses,
    associativity (the first failing row of a full scan), raising ``InvalidCayleyTable``.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ParseError("empty element list")
    pos = _label_index(elements, "element")

    rows = list(table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidCayleyTable("table is not |G| x |G|")
    # as True == 1, a boolean may match a label holding a 0 or 1: then read entry by entry
    bools = any(map(_holds_01, elements)) and _holds_bool(rows)
    dtype = _int_dtype(n).newbyteorder("<")
    code = {} if bools else {k: i.to_bytes(dtype.itemsize, "little") for k, i in pos.items()}

    def read(row) -> bytes:  # entry by entry after a KeyError, a TypeError or when n = 1
        with contextlib.suppress(KeyError, TypeError):
            return b"".join(operator.itemgetter(*row)(code))
        return np.array([_element(pos, n, g) for g in row], dtype).tobytes()

    mul = np.frombuffer(b"".join(map(read, rows)), dtype).reshape(n, n)
    if (mul < 0).any():
        i, j = map(int, np.argwhere(mul < 0)[0])
        entry = rows[i][j]  # a numpy scalar of an array table prints as its Python value
        entry = entry.item() if isinstance(entry, np.generic) else entry
        raise InvalidCayleyTable(f"entry {entry!r} at ({i}, {j}) is no element")
    return _group_from_indices(elements, mul)


def _group_from_indices(elements: tuple, mul: np.ndarray) -> FiniteGroup:
    """The checks of :func:`group_from_table` on distinct elements and a table of indices."""
    n = len(elements)
    m = np.asarray(mul, dtype=_int_dtype(n))  # narrow, so the gathers below move less memory
    idx = np.arange(n)
    e = int(np.argmax(m[:, 0] == 0))  # e * 0 == 0 for the identity e, alone in a latin square
    unit = (m[e] == idx).all() and (m[:, e] == idx).all()
    inverse = np.argmax(m == e, axis=1)  # the first right inverse in each row
    if not (unit and (m[idx, inverse] == e).all() and all(
            np.array_equal(m.take(m[:, a], axis=0), m.take(m[a], axis=1))
            for a in _generators(m, e))):
        latin = _latin(m)  # no group: name the first fault
        if not latin.all():
            raise InvalidCayleyTable("table is not a latin square", witness=int(np.argmin(latin)))
        if not unit:
            raise InvalidCayleyTable("no unique two-sided identity")
        one_sided = m[inverse, idx] != e
        if one_sided.any():
            i = int(np.argmax(one_sided))
            raise InvalidCayleyTable(f"element {elements[i]!r} has no two-sided inverse")
        for i in range(n):  # m[m[i, j], k] == m[i, m[j, k]], vectorized over (j, k) per i
            if not np.array_equal(m[m[i], :], m[i, m]):
                raise InvalidCayleyTable("multiplication is not associative", witness=i)
    mul = np.asarray(mul, dtype=np.int64)
    mul.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(elements=elements, mul=mul, identity=e, inverse=inverse)


def _latin(mul: np.ndarray) -> np.ndarray:
    """Whether row i and column i both hold every element once, for each i."""
    idx = np.arange(len(mul))
    return (np.sort(mul, axis=1) == idx).all(axis=1) & (np.sort(mul.T, axis=1) == idx).all(axis=1)


def _holds_bool(rows) -> bool:
    """Whether a boolean is among the entries of the rows or inside their tuples, as _key
    reads them, by one pass over the types of each level."""
    values = list(itertools.chain.from_iterable(rows))
    types = set(map(type, values))
    if bool in types or tuple not in types:
        return bool in types
    return _holds_bool(values if types == {tuple} else [v for v in values if type(v) is tuple])


def _holds_01(label) -> bool:
    """Whether a boolean equals the label, or its place in a tuple label (True == 1)."""
    if type(label) is tuple:
        return any(map(_holds_01, label))
    return type(label) is not bool and label in (0, 1)


def _generators(mul: np.ndarray, e: int) -> list:
    """Greedy generators: each is the smallest element not yet reached by left-nested
    products of the earlier ones (the identity counts as reached); floor(log2 n) + 1 at most."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[e] = True
    gens: list = []
    while len(gens) < len(mul).bit_length() and not reached.all():
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
    return _group_from_indices(tuple(range(n)), np.add.outer(np.arange(n), np.arange(n)) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples, composition (p * q)(i) = p[q[i]], lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    # code(p) = sum_i p[i] w[i] grows with lexicographic rank; code(p * q) = sum_j p[j] w[q^-1[j]]
    arr = np.array(perms, dtype=np.int64).reshape(len(perms), n)
    w = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.searchsorted(arr @ w, arr @ w[np.argsort(arr, axis=1)].T)
    return _group_from_indices(tuple(perms), table)


def scheme_from_group_quotient(group: FiniteGroup, subgroup: Sequence) -> Scheme:
    """Scheme on G/H whose classes are the double cosets of H.

    Points are left cosets xH, and (xH, yH) lies in the class of the
    double coset H x^{-1} y H; no count is rechecked (see the module
    docstring), and class valency equals the number of left cosets inside
    the double coset (asserted).  Cosets and double cosets are numbered in
    the order of their minimal members, which name them.  Elements that
    print alike (0 and "0") give duplicate labels, a ``ParseError``.
    """
    sub = check_subgroup(group, subgroup)  # H is checked here and only here
    coset_of = np.full(group.order, -1, dtype=np.int64)
    dcoset_of = coset_of.copy()
    reps, dreps = [], []
    for g in range(group.order):  # g is the minimal member of each coset it opens
        if coset_of[g] < 0:
            coset_of[group.mul[g, sub]] = len(reps)
            reps.append(g)
        if dcoset_of[g] < 0:
            dcoset_of[group.mul[np.ix_(sub, group.mul[g, sub])]] = len(dreps)
            dreps.append(g)
    points = tuple(f"{group.elements[r]}H" for r in reps)
    classes = tuple(f"H{group.elements[g]}H" for g in dreps)
    _label_index(classes, "class")
    _label_index(points, "point")
    # (xH, yH) -> the double coset of x^{-1} y: class indices in class order
    rel = dcoset_of[group.mul[np.ix_(group.inverse[reps], reps)]]
    s = _verified_scheme(points, classes, rel, [])
    assert np.array_equal(s.valencies * len(sub), np.bincount(dcoset_of))
    return s

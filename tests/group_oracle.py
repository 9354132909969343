"""Reference Cayley-table checks: the ones ``groups.group_from_table`` is held to.

Every check runs on a table of indices, in the order latin square (rows and
columns counted by two scatters), unique two-sided identity, two-sided
inverses, associativity (Light's test on greedy generators, searched until
every element is reached, then a full per-row scan naming the first failing
row), and the first failure raises ``InvalidCayleyTable``.
"""

import numpy as np

from hypergroups.errors import InvalidCayleyTable


def group_from_indices(elements: tuple, mul: np.ndarray) -> tuple:
    """(mul, identity, inverse) of a group table of indices, or the first failure raised."""
    n = len(elements)
    mul = np.asarray(mul, dtype=np.int64)
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

    if not all(np.array_equal(mul[mul[:, a], :], mul[:, mul[a]]) for a in generators(mul, e)):
        # mul[mul[i, j], k] == mul[i, mul[j, k]], vectorized over (j, k) per i
        for i in range(n):
            if not np.array_equal(mul[mul[i], :], mul[i, mul]):
                raise InvalidCayleyTable("multiplication is not associative", witness=i)
    return mul, e, inverse


def generators(mul: np.ndarray, e: int) -> list:
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

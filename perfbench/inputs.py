"""Seeded inputs for the workloads: groups, graphs, switched graphs, documents.

Everything here is plain numpy and Python; none of it calls the package
under test, so a fault in the package cannot leak into its own inputs.
The seed only permutes labels and row order and draws the switched
graphs, test functions and family parameters; sizes never depend on it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# groups as canonical multiplication tables


@dataclass(frozen=True)
class Group:
    name: str
    labels: tuple          # canonical element labels (strings)
    mul: np.ndarray        # canonical index table, mul[i, j] = i * j
    subgroup: tuple        # canonical indices of H
    commutative: bool      # whether the quotient scheme is commutative


def abelian(m: int, n: int = 1) -> Group:
    els = [(a, b) for a in range(m) for b in range(n)]
    idx = np.arange(m * n)
    a, b = idx // n, idx % n
    mul = ((a[:, None] + a[None, :]) % m) * n + (b[:, None] + b[None, :]) % n
    name = f"Z{m}" if n == 1 else f"Z{m}xZ{n}"
    return Group(name, tuple(f"{x}.{y}" for x, y in els), mul, (0,), True)


def dihedral(n: int) -> Group:
    idx = np.arange(2 * n)
    r, s = idx % n, idx // n
    sign = np.where(s == 0, 1, -1)
    rr = (r[:, None] + sign[:, None] * r[None, :]) % n
    ss = (s[:, None] + s[None, :]) % 2
    labels = tuple(f"r{x}s{y}" for x, y in zip(r, s))
    return Group(f"D{n}", labels, ss * n + rr, (0,), False)


def symmetric_mod_stabilizer(n: int) -> Group:
    """S_n with H the stabilizer of n-1; the quotient is the scheme of K_n."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    weights = n ** np.arange(n)
    keys = perms @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # (p * q)(i) = p[q[i]], one row at a time: the whole n! x n! x n product
    # would be the largest array of the run
    mul = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        mul[i] = order[np.searchsorted(sorted_keys, p[perms] @ weights)]
    sub = tuple(int(i) for i in np.flatnonzero(perms[:, n - 1] == n - 1))
    labels = tuple("".join(map(str, p)) for p in perms)
    return Group(f"S{n}/S{n - 1}", labels, mul, sub, True)


EXACT_GROUPS = (
    lambda: abelian(8), lambda: abelian(10), lambda: abelian(12), lambda: abelian(14),
    lambda: abelian(2, 4), lambda: abelian(2, 6), lambda: abelian(3, 4),
    lambda: dihedral(5), lambda: dihedral(6),
    lambda: symmetric_mod_stabilizer(5), lambda: symmetric_mod_stabilizer(6),
)


@dataclass
class CayleyInput:
    order: np.ndarray      # doc position -> canonical index
    elements: list         # labels in doc order
    table: list            # nested list of labels in doc order
    subgroup: list         # labels of H


def cayley_input(g: Group, rng: np.random.Generator) -> CayleyInput:
    n = len(g.labels)
    order = rng.permutation(n)
    labels = np.array(g.labels, dtype=object)
    return CayleyInput(
        order=order,
        elements=labels[order].tolist(),
        table=[labels[row].tolist() for row in g.mul[np.ix_(order, order)]],
        subgroup=[g.labels[i] for i in g.subgroup],
    )


# ---------------------------------------------------------------------------
# graphs


def hamming(D: int, q: int) -> np.ndarray:
    digits = (np.arange(q ** D)[:, None] // q ** np.arange(D)) % q
    return ((digits[:, None, :] != digits[None, :, :]).sum(-1) == 1).astype(np.int64)


def johnson(v: int, k: int) -> np.ndarray:
    sets = np.zeros((math.comb(v, k), v), dtype=np.int64)
    for i, c in enumerate(itertools.combinations(range(v), k)):
        sets[i, list(c)] = 1
    return (sets @ sets.T == k - 1).astype(np.int64)


def petersen() -> np.ndarray:
    """Kneser graph K(5, 2): 2-subsets of 5, adjacent when disjoint."""
    sets = np.zeros((10, 5), dtype=np.int64)
    for i, c in enumerate(itertools.combinations(range(5), 2)):
        sets[i, list(c)] = 1
    return (sets @ sets.T == 0).astype(np.int64)


# (name, constructor, family, parameters) of the distance-regular graphs
DRG_GRAPHS = (
    ("H(6,2)", lambda: hamming(6, 2), "hamming", (6, 2)),
    ("H(7,2)", lambda: hamming(7, 2), "hamming", (7, 2)),
    ("H(8,2)", lambda: hamming(8, 2), "hamming", (8, 2)),
    ("H(4,4)", lambda: hamming(4, 4), "hamming", (4, 4)),
    ("J(10,3)", lambda: johnson(10, 3), "johnson", (10, 3)),
    ("J(9,4)", lambda: johnson(9, 4), "johnson", (9, 4)),
)


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs graph distances (-1 where unreachable), by breadth-first
    search from every vertex at once.

    Plain numpy rather than scipy: the benchmark process must not load
    scipy itself, or the package's own scipy import could not show in
    ``peak_rss_mb``."""
    step = adj.astype(np.float64)
    dist = np.where(np.eye(len(adj), dtype=bool), 0, -1)
    frontier = np.eye(len(adj))
    k = 0
    while frontier.any():
        k += 1
        frontier = ((frontier @ step > 0) & (dist < 0)).astype(np.float64)
        dist[frontier > 0] = k
    return dist


def is_distance_regular(adj: np.ndarray) -> bool:
    """Whether the distance partition of a connected graph is a scheme."""
    dist = distances(adj)
    if (dist < 0).any():
        return False
    d = int(dist.max()) + 1
    onehot = [(dist == i).astype(np.float64) for i in range(d)]
    for i in range(d):
        for j in range(d):
            prod = onehot[i] @ onehot[j]
            for k in range(d):
                vals = prod[dist == k]
                if vals.min() != vals.max():
                    return False
    return True


def relabel(adj: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(adj.shape[0])
    return adj[np.ix_(perm, perm)]


def switch_edges(adj: np.ndarray, rng: np.random.Generator, max_tries: int = 200) -> np.ndarray:
    """A degree-preserving edge switch that leaves a connected graph
    whose distance partition is not a scheme.

    Each try replaces edges {a, b}, {c, d} by {a, d}, {c, b}; only the
    rare switch that keeps the graph distance-regular or disconnects it
    is followed by another switch.
    """
    out = adj.copy()
    for _ in range(max_tries):
        edges = np.argwhere(np.triu(out) > 0)
        (a, b), (c, d) = edges[rng.choice(len(edges), size=2, replace=False)]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or out[a, d] or out[c, b]:
            continue
        out[a, b] = out[b, a] = out[c, d] = out[d, c] = 0
        out[a, d] = out[d, a] = out[c, b] = out[b, c] = 1
        if (distances(out) >= 0).all() and not is_distance_regular(out):
            return out
    raise RuntimeError("no non-distance-regular switch found")


# ---------------------------------------------------------------------------
# JSON documents for the CLI


def _shuffled(rows: list, rng: np.random.Generator) -> list:
    return [rows[i] for i in rng.permutation(len(rows))]


def scheme_doc(relation: np.ndarray, rng: np.random.Generator, prefix: str = "p",
               keep_order: bool = False) -> dict:
    """Scheme document for a relation matrix with integer classes 0..d-1.

    Point labels are a seeded permutation, and so are the order of the
    point list (unless ``keep_order``) and of the relation rows.  Classes
    keep their order, so a report's tensor indexes them directly.
    """
    n = relation.shape[0]
    names = [f"{prefix}{i}" for i in rng.permutation(n)]
    d = int(relation.max()) + 1
    rows = [[names[x], names[y], int(relation[x, y])] for x in range(n) for y in range(n)]
    points = names if keep_order else _shuffled(names, rng)
    return {"points": points, "classes": list(range(d)), "relations": _shuffled(rows, rng)}


def cayley_doc(ci: CayleyInput) -> dict:
    return {"elements": ci.elements, "table": ci.table}


def hypergroup_doc(g: Group, rng: np.random.Generator) -> dict:
    """Exact hypergroup document of the regular scheme of an abelian group."""
    n = len(g.labels)
    order = rng.permutation(n)
    pos = np.argsort(order)
    rows = [[int(pos[i]), int(pos[j]), int(pos[g.mul[i, j]]), "1/1"]
            for i in range(n) for j in range(n)]
    return {"classes": [f"g{g.labels[i]}" for i in order], "conv": _shuffled(rows, rng)}


def generalized_doc(adj: np.ndarray, rng: np.random.Generator) -> dict:
    """Classical embedding of a distance-regular graph: S_i = A_i / valency_i."""
    dist = distances(adj)
    d = int(dist.max()) + 1
    doc = scheme_doc(dist, rng, prefix="v", keep_order=True)
    stoch = np.stack([(dist == i) / float((dist[0] == i).sum()) for i in range(d)])
    doc["stoch"] = stoch.tolist()
    doc["vertex_weight"] = [1.0] * adj.shape[0]
    return doc


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

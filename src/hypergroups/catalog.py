"""Small ready-made schemes, graphs, and group quotients used as fixtures."""

from __future__ import annotations

import numpy as np

from .groups import scheme_from_group_quotient, symmetric_group
from .schemes import Scheme, build_scheme, scheme_from_distance_regular_graph


def cycle_graph(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        adj[i, (i + 1) % n] = 1
        adj[(i + 1) % n, i] = 1
    return adj


def complete_graph(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)


def path_graph(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        adj[i, i + 1] = 1
        adj[i + 1, i] = 1
    return adj


def petersen_graph() -> np.ndarray:
    """Outer 5-cycle 0-4, inner pentagram 5-9, spokes i <-> i+5."""
    adj = np.zeros((10, 10), dtype=np.int64)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    for a, b in edges:
        adj[a, b] = 1
        adj[b, a] = 1
    return adj


def cyclic_scheme(n: int) -> Scheme:
    """Group scheme of Z_n: class of (x, y) is (y - x) mod n."""
    points = list(range(n))
    rel = [[(y - x) % n for y in points] for x in points]
    return build_scheme(points, list(range(n)), rel)


def pentagon_scheme() -> Scheme:
    return scheme_from_distance_regular_graph(cycle_graph(5))


def k4_scheme() -> Scheme:
    return scheme_from_distance_regular_graph(complete_graph(4))


def petersen_scheme() -> Scheme:
    return scheme_from_distance_regular_graph(petersen_graph())


def s3_mod_transposition() -> Scheme:
    """Double-coset scheme of S3 over the order-2 subgroup fixing 2."""
    g = symmetric_group(3)
    h = [(0, 1, 2), (1, 0, 2)]
    return scheme_from_group_quotient(g, h)


def s4_mod_s3() -> Scheme:
    """Double-coset scheme of S4 over the copy of S3 fixing the last point."""
    g = symmetric_group(4)
    h = [p for p in g.elements if p[3] == 3]
    return scheme_from_group_quotient(g, h)


def s3_regular() -> Scheme:
    """Group scheme of S3 itself (trivial subgroup): not commutative."""
    g = symmetric_group(3)
    return scheme_from_group_quotient(g, [g.identity])

"""Independent answers the benchmark checks the package's outputs against.

Intersection numbers come from counting on the group law or the graph,
characters and Plancherel weights from closed forms (the DFT for abelian
groups, Krawtchouk polynomials for H(D, q), Eberlein polynomials for
J(v, k), the two-class table of K_n).  None of it calls the package.
"""

from __future__ import annotations

from math import comb

import numpy as np

from inputs import distances

CHAR_TOL = 1e-8        # absolute, on normalized character values
PLANCHEREL_RTOL = 1e-9  # relative, on Plancherel weights
DUAL_TOL = 1e-8        # absolute, on dual convolution coefficients


def group_law_tensor(mul: np.ndarray, classes: list) -> np.ndarray:
    """p[i, j, k] of the regular scheme: 1 when g_i g_j = g_k.

    ``classes`` gives the canonical group element of each class index.
    """
    idx = np.asarray(classes)
    prod = mul[np.ix_(idx, idx)]
    return (prod[:, :, None] == idx[None, None, :]).astype(np.int64)


def complete_graph_tensor(n: int, identity: int) -> np.ndarray:
    """p[i, j, k] of the two-class scheme of K_n, identity class given."""
    e, o = identity, 1 - identity
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[e, e, e] = p[e, o, o] = p[o, e, o] = 1
    p[o, o, e] = n - 1
    p[o, o, o] = n - 2
    return p


def graph_tensor(adj: np.ndarray) -> np.ndarray:
    """Distance-class counts p[i, j, k] at the first pair of each distance."""
    dist = distances(adj)
    d = int(dist.max()) + 1
    p = np.zeros((d, d, d), dtype=np.int64)
    for k in range(d):
        x, y = np.argwhere(dist == k)[0]
        np.add.at(p[:, :, k], (dist[x], dist[:, y]), 1)
    return p


# ---------------------------------------------------------------------------
# character tables: rows are characters, columns classes, value 1 at identity


def dft_table(group, classes: list) -> tuple[np.ndarray, np.ndarray]:
    """Characters of an abelian group Z_m x Z_n on its regular scheme."""
    labels = group.labels
    m = 1 + max(int(s.split(".")[0]) for s in labels)
    n = 1 + max(int(s.split(".")[1]) for s in labels)
    ab = np.array([[int(v) for v in labels[c].split(".")] for c in classes])
    rows = []
    for s in range(m):
        for t in range(n):
            rows.append(np.exp(2j * np.pi * (ab[:, 0] * s / m + ab[:, 1] * t / n)))
    chars = np.array(rows)
    return chars, np.full(len(rows), 1.0 / (m * n))


def complete_graph_table(n: int, identity: int) -> tuple[np.ndarray, np.ndarray]:
    chars = np.ones((2, 2), dtype=complex)
    chars[1, 1 - identity] = -1.0 / (n - 1)
    return chars, np.array([1.0 / n, (n - 1) / n])


def krawtchouk_table(D: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamming H(D, q): chi_r(i) = K_i(r) / K_i(0), weight C(D,r)(q-1)^r / q^D."""
    K = np.array([[sum((-1) ** j * (q - 1) ** (i - j) * comb(r, j) * comb(D - r, i - j)
                       for j in range(i + 1))
                   for i in range(D + 1)] for r in range(D + 1)], dtype=float)
    chars = K / K[0]
    mult = np.array([comb(D, r) * (q - 1) ** r for r in range(D + 1)], dtype=float)
    return chars.astype(complex), mult / q ** D


def eberlein_table(v: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Johnson J(v, k): chi_r(i) = E_i(r) / E_i(0), weight (C(v,r) - C(v,r-1)) / C(v,k)."""
    E = np.array([[sum((-1) ** l * comb(r, l) * comb(k - r, i - l) * comb(v - k - r, i - l)
                       for l in range(i + 1))
                   for i in range(k + 1)] for r in range(k + 1)], dtype=float)
    chars = E / E[0]
    mult = np.array([comb(v, r) - (comb(v, r - 1) if r else 0) for r in range(k + 1)],
                    dtype=float)
    return chars.astype(complex), mult / comb(v, k)


def petersen_table() -> tuple[np.ndarray, np.ndarray]:
    """Petersen = J(5, 2) with distances 1 and 2 exchanged."""
    chars, weights = eberlein_table(5, 2)
    return chars[:, [0, 2, 1]], weights


def match_characters(found: np.ndarray, expected: np.ndarray, tol: float = CHAR_TOL):
    """Row permutation taking ``found`` onto ``expected``, or None.

    Returns ``perm`` with found[r] ~ expected[perm[r]] within ``tol``
    and ``perm`` a bijection.
    """
    found = np.asarray(found, dtype=complex)
    if found.shape != expected.shape:
        return None
    dev = np.abs(found[:, None, :] - expected[None, :, :]).max(axis=2)
    perm = dev.argmin(axis=1)
    if len(set(perm.tolist())) != len(perm) or dev[np.arange(len(perm)), perm].max() > tol:
        return None
    return perm


def plancherel_ok(found, expected) -> bool:
    found = np.asarray(found, dtype=float)
    return bool(np.allclose(found, expected, rtol=PLANCHEREL_RTOL, atol=0.0))


def dual_coefficients(chars: np.ndarray, plancherel: np.ndarray, haar: np.ndarray,
                      a: int, b: int) -> np.ndarray:
    """c_g in chi_a chi_b = sum_g c_g chi_g, from the orthogonality relations."""
    prod = chars[a] * chars[b]
    return (plancherel * (np.conjugate(chars) @ (haar * prod))).real


def parse_complex(text: str) -> complex:
    """Inverse of the report format 're+imi' / 're-imi'."""
    body = text[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos:]))
    raise ValueError(f"not a complex number: {text!r}")

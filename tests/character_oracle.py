"""Reference check of a character table on the scheme's points: the one
``harmonic.character_table`` is held to.

A character a of a scheme's hypergroup, read at the base point as the point
function y -> a(rel(x0, y)), is an eigenvector of every class adjacency matrix
A_i with eigenvalue valency_i * a(i); the residual is measured on the n x n
adjacency matrices themselves, not on the intersection tensor the table came from.
"""

import numpy as np


def scheme_eigenvector_residual(s, tbl) -> float:
    """Worst absolute residual of A_i v = valency_i a(i) v over the classes i
    and the characters a of the table, with v the point function of a."""
    base_row = s.relation[0]
    V = tbl.chars[:, base_row]                     # (m, n) rows are point functions
    worst = 0.0
    for i in range(s.n_classes):
        A = (s.relation == i).astype(np.float64)
        lhs = V @ A.T                              # (m, n): (A_i v)(x) over points
        rhs = (s.valencies[i] * tbl.chars[:, i])[:, None] * V
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst

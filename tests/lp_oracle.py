"""Grid LP for dual product formulas: the oracle the moment test is checked against.

min t s.t. |sum_g w_g P_n(z_g) - P_n(x) P_n(y)| <= t, w >= 0, n <= order,
over a grid of nodes z_g in [-s1, s1], solved by scipy's HiGHS.  It sees
only measures on its grid: a measure of finite support off the grid (as
at a = b = 2, where P_n = T_n) reads as infeasible.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from hypergroups.errors import ParameterOutOfRange
from hypergroups.families.gab import GabFamily, gab_eval_all


class SolverFailed(RuntimeError):
    """HiGHS stopped without a usable answer."""


def chebyshev_grid(fam: GabFamily, n_nodes: int) -> np.ndarray:
    """Chebyshev (second kind) nodes on [-s1, s1], endpoints included."""
    if n_nodes < 2:
        raise ParameterOutOfRange("grid needs at least two nodes")
    k = np.arange(n_nodes - 1, -1, -1, dtype=np.float64)
    return fam.s1 * np.cos(math.pi * k / (n_nodes - 1))


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    max_violation: float
    nodes: np.ndarray
    weights: np.ndarray | None
    certificate: dict | None
    moments: np.ndarray


def lp_dual_measure(fam: GabFamily, x: float, y: float, order: int = 8,
                    grid=None, n_nodes: int = 400, slack: float = 1e-8) -> LPResult:
    """LP feasibility of a positive grid measure matching P_n(x) P_n(y), n <= order.

    Feasible means t* <= slack.  On infeasibility the HiGHS dual is turned
    into a signed moment combination y and re-verified: (Phi^T y)_g <= 0 on
    the grid and y . m > slack |y|_1 rule out any grid-supported measure.
    The default grid is the Chebyshev grid plus x, y and s0 when they lie in
    [-s1, s1]; an explicit grid is used as given.
    """
    moments = gab_eval_all(fam, order, np.float64(x)) * gab_eval_all(fam, order, np.float64(y))
    if grid is None:
        nodes = chebyshev_grid(fam, n_nodes)
        extras = [v for v in (x, y, fam.s0)
                  if -fam.s1 <= v <= fam.s1 and np.abs(nodes - v).min() > 1e-13]
        if extras:
            nodes = np.sort(np.concatenate([nodes, sorted(set(extras))]))
    else:
        nodes = np.asarray(grid, float)
    G = len(nodes)
    phi = gab_eval_all(fam, order, nodes)          # (order+1, G)

    ones = np.ones((order + 1, 1))
    A_ub = np.vstack([np.hstack([phi, -ones]), np.hstack([-phi, -ones])])
    b_ub = np.concatenate([moments, -moments])
    c = np.zeros(G + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (G + 1), method="highs")
    if res.status != 0:
        raise SolverFailed(f"LP solver failed: {res.message}")
    t_star = float(res.x[-1])
    feasible = t_star <= slack

    certificate = None
    if not feasible:
        marg = np.asarray(res.ineqlin.marginals)
        certificate = {"y": None, "valid": False}
        for sign in (1.0, -1.0):
            yvec = sign * (marg[: order + 1] - marg[order + 1:])
            norm = float(np.abs(yvec).sum())
            if norm < 1e-15:
                continue
            yvec = yvec / norm
            grid_max = float((phi.T @ yvec).max())
            margin = float(yvec @ moments)
            if grid_max <= 1e-10 and margin > slack + 1e-10:
                certificate = {"y": yvec, "grid_max": grid_max, "moment_margin": margin,
                               "valid": True}
                break

    return LPResult(feasible, t_star, nodes, res.x[:G] if feasible else None, certificate,
                    moments)

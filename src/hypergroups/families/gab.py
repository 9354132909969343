"""Two-parameter polynomial family attached to clique trees.

For real a, b >= 2 this is the orthogonal polynomial sequence whose
three-term recurrence has constant coefficients from (a, b); for integer
parameters the polynomials evaluate distance kernels on the graph whose
vertices sit in a cliques of size b each (a tree of b-cliques).  The
module carries the linearization coefficients, the Haar weights, two
independent evaluation routes, the orthogonality measure, finite-ball
kernel tests, and an LP feasibility probe for product-formula measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BallTooLarge, ClosedFormSingular, ParameterOutOfRange, SolverFailed


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use (scipy's import outlasts most commands)."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class GabFamily:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 2 and self.b >= 2):
            raise ParameterOutOfRange(
                f"family needs a, b >= 2, got a={self.a!r}, b={self.b!r}"
            )

    @property
    def s0(self) -> float:
        return (2 - self.a - self.b) / (2 * math.sqrt((self.a - 1) * (self.b - 1)))

    @property
    def s1(self) -> float:
        return (self.a * self.b - self.a - self.b + 2) / (
            2 * math.sqrt((self.a - 1) * (self.b - 1))
        )

    @property
    def integer_graph(self) -> bool:
        return self.a == int(self.a) and self.b == int(self.b)


def gab_haar(fam: GabFamily, n: int) -> float:
    """Haar weight of degree n: 1, then a(a-1)^(n-1)(b-1)^n."""
    if n < 0:
        raise ParameterOutOfRange("degree must be nonnegative")
    if n == 0:
        return 1.0
    return fam.a * (fam.a - 1) ** (n - 1) * (fam.b - 1) ** n


def gab_linearization(fam: GabFamily, m: int, n: int) -> dict:
    """Coefficients of P_m P_n = sum_k g[k] P_k, nonzero entries only.

    Support runs over [|m-n|, m+n]; the coefficient of the even offsets
    carries (a-2), the odd offsets (b-2), both with a leading 1/a (the
    coefficients of each product sum to one).
    """
    if m < 0 or n < 0:
        raise ParameterOutOfRange("degrees must be nonnegative")
    if m == 0:
        return {n: 1.0}
    if n == 0:
        return {m: 1.0}
    a, b = fam.a, fam.b
    w = min(m, n)
    lo = abs(m - n)
    g: dict = {}

    def put(k, v):
        if v != 0.0:
            g[k] = g.get(k, 0.0) + v

    put(m + n, (a - 1) / a)
    put(lo, 1.0 / (a * (a - 1) ** (w - 1) * (b - 1) ** w))
    for k in range(w):
        put(lo + 2 * k + 1, (b - 2) / (a * (a - 1) ** (w - k - 1) * (b - 1) ** (w - k)))
    for k in range(w - 1):
        put(lo + 2 * k + 2, (a - 2) / (a * (a - 1) ** (w - k - 1) * (b - 1) ** (w - k - 1)))
    return g


def gab_eval_all(fam: GabFamily, nmax: int, x) -> np.ndarray:
    """P_0..P_nmax at x via the three-term recurrence; shape (nmax+1,) + x.shape."""
    a, b = fam.a, fam.b
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((nmax + 1,) + x.shape, dtype=np.float64)
    out[0] = 1.0
    if nmax == 0:
        return out
    p1 = (2.0 / a) * math.sqrt((a - 1) / (b - 1)) * x + (b - 2) / (a * (b - 1))
    out[1] = p1
    c_prev = 1.0 / (a * (b - 1))
    c_same = (b - 2) / (a * (b - 1))
    lift = a / (a - 1)
    for n in range(1, nmax):
        out[n + 1] = lift * (p1 * out[n] - c_prev * out[n - 1] - c_same * out[n])
    return out


def gab_eval(fam: GabFamily, n: int, x):
    """P_n(x) by recurrence (the reference route)."""
    if n < 0:
        raise ParameterOutOfRange("degree must be nonnegative")
    vals = gab_eval_all(fam, n, x)
    return vals[n]


def gab_left_endpoint_values(fam: GabFamily, nmax: int) -> np.ndarray:
    """P_0..P_nmax at s0, by whichever recursion direction is stable there.

    At s0 the two solutions of the recurrence decay geometrically with
    ratio r = (b-1)/(a-1) between them, and the polynomial sequence is
    the one shrinking like (1-b)^{-n}.  While r^nmax stays small the
    forward pass keeps full precision; once it grows, the sequence is
    the minimal solution and forward recursion loses a factor of r per
    degree.  A backward pass seeded past the window with zero and
    normalized at degree zero then recovers it to machine precision
    (the truncation error shrinks like r^-buffer).
    """
    if nmax < 0:
        raise ParameterOutOfRange("degree must be nonnegative")
    a, b = fam.a, fam.b
    ratio = (b - 1.0) / (a - 1.0)
    if ratio <= 1.0 or nmax * math.log(ratio) <= math.log(1e3):
        return gab_eval_all(fam, nmax, np.float64(fam.s0))
    p1 = 1.0 / (1.0 - b)
    c_prev = 1.0 / (a * (b - 1))
    c_same = (b - 2) / (a * (b - 1))
    lift = a / (a - 1)
    buffer = max(40, math.ceil(math.log(1e15) / math.log(ratio)))
    top = nmax + buffer
    q = np.zeros(top + 2, dtype=np.float64)
    q[top] = 1.0
    for n in range(top, 0, -1):
        q[n - 1] = ((p1 - c_same) * q[n] - q[n + 1] / lift) / c_prev
        if abs(q[n - 1]) > 1e250:
            q[n - 1:] /= 1e250
    return q[: nmax + 1] / q[0]


def gab_eval_closed_form(fam: GabFamily, n: int, x: complex) -> complex:
    """P_n(x) via the substitution x = (z + 1/z)/2.

    Valid away from x = +-1 where z degenerates; there
    ``ClosedFormSingular`` is raised and the recurrence route applies.
    """
    a, b = fam.a, fam.b
    xc = complex(x)
    z = xc + np.sqrt(complex(xc * xc - 1.0))
    if abs(z) < 1.0:
        z = 1.0 / z
    if abs(z) < 1e-12 or abs(z - 1.0) < 1e-9 or abs(z + 1.0) < 1e-9:
        raise ClosedFormSingular(f"substitution degenerates at x={x!r}")

    shift = (b - 2) * math.sqrt(a - 1) / math.sqrt(b - 1)

    def c(zz):
        return ((a - 1) * zz - 1.0 / zz + shift) / (a * (zz - 1.0 / zz))

    val = (c(z) * z ** n + c(1.0 / z) * z ** (-n)) / ((a - 1) * (b - 1)) ** (n / 2.0)
    return complex(val)


@dataclass(frozen=True)
class GabMeasure:
    """Orthogonality measure: a density on [-1, 1] plus an optional atom."""

    fam: GabFamily
    atom_location: float | None
    atom_mass: float

    def density(self, x):
        f = self.fam
        x = np.asarray(x, dtype=np.float64)
        return (f.a / (2 * math.pi)) * np.sqrt(np.clip(1.0 - x * x, 0.0, None)) / (
            (f.s1 - x) * (x - f.s0)
        )

    def integrate(self, func, rtol: float = 1e-11) -> float:
        """integral of func against the measure, atom included.

        Continuous part via the angle substitution x = cos(theta), which
        removes the endpoint singularities even when s0 = -1 or s1 = 1.
        """
        f = self.fam
        s0, s1, a = f.s0, f.s1, f.a

        def integrand(theta):
            x = math.cos(theta)
            one_minus = 1.0 if s1 == 1.0 else (1.0 - x) / (s1 - x)
            one_plus = 1.0 if s0 == -1.0 else (1.0 + x) / (x - s0)
            return (a / (2 * math.pi)) * func(x) * one_minus * one_plus

        val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=rtol, limit=200)
        if self.atom_location is not None:
            val += self.atom_mass * func(self.atom_location)
        return val

    def total_mass(self) -> float:
        return self.integrate(lambda x: 1.0)


def gab_orthogonality_measure(fam: GabFamily) -> GabMeasure:
    """Spectral measure of the family; carries an atom at s0 iff b > a."""
    if fam.b > fam.a:
        return GabMeasure(fam, atom_location=fam.s0, atom_mass=(fam.b - fam.a) / fam.b)
    return GabMeasure(fam, atom_location=None, atom_mass=0.0)


def _ball_size(a: int, b: int, radius: int) -> int:
    total = 1
    w = 0
    for k in range(1, radius + 1):
        w = a * (b - 1) if k == 1 else w * (a - 1) * (b - 1)
        total += w
    return total


def gab_ball(fam: GabFamily, radius: int, vertex_budget: int = 5000):
    """Distance matrix and root depths of the radius-ball of the clique tree.

    Only defined for integer parameters.  The ball is grown clique by
    clique: the root joins a cliques of size b; every later vertex joins
    a-1 fresh ones.  Raises ``BallTooLarge`` past the vertex budget.

    Distances are half those of the vertex-clique tree, in which the root
    paths (root, clique, vertex, ..., clique, v) share a prefix of length
    P: dist(u, v) = depth u + depth v + 1 - P.
    """
    if not fam.integer_graph:
        raise ParameterOutOfRange(
            f"graph construction needs integer parameters, got a={fam.a}, b={fam.b}"
        )
    a, b = int(fam.a), int(fam.b)
    size = _ball_size(a, b, radius)
    if size > vertex_budget:
        raise BallTooLarge(f"ball has {size} vertices, budget is {vertex_budget}")

    # path[v, 2t] is the ancestor of v at depth t, path[v, 2t-1] the clique joining
    # it to its parent, and -1-v pads the row past the depth of v
    path = np.repeat(-1 - np.arange(size)[:, None], 2 * radius + 1, axis=1)
    path[0, 0] = 0
    depth = np.zeros(size, dtype=np.int64)
    lo, hi, cliques = 0, 1, 0
    for t in range(1, radius + 1):
        parents = np.repeat(np.arange(lo, hi), (a if t == 1 else a - 1) * (b - 1))
        fresh = np.arange(hi, hi + len(parents))
        path[fresh, : 2 * t - 1] = path[parents, : 2 * t - 1]
        path[fresh, 2 * t - 1] = cliques + np.arange(len(parents)) // (b - 1)
        path[fresh, 2 * t] = fresh
        depth[fresh] = t
        cliques += len(parents) // (b - 1)
        lo, hi = hi, hi + len(parents)
    assert hi == size

    # paths part for good once they differ, so counting equal columns gives P
    dist = np.zeros((size, size), dtype=np.int64)
    for col in path.T:
        dist += col[:, None] == col[None, :]
    dist -= 1 + depth[:, None]
    dist -= depth[None, :]
    np.negative(dist, out=dist)
    np.fill_diagonal(dist, 0)
    return dist, depth


def _psd_rows(fam: GabFamily, xs, radius: int, vertex_budget: int, tol: float) -> list:
    """gab_kernel_psd rows for each x of xs, on one ball built once."""
    dist, _ = gab_ball(fam, radius, vertex_budget=vertex_budget)
    top = int(dist.max())
    rows = []
    for x in xs:
        K = gab_eval_all(fam, top, np.float64(x))[dist]
        min_eig = float(np.linalg.eigvalsh(K).min())
        rows.append({
            "x": float(x),
            "radius": int(radius),
            "n_vertices": int(dist.shape[0]),
            "min_eigenvalue": min_eig,
            "psd": bool(min_eig >= -tol),
        })
    return rows


def gab_kernel_psd(fam: GabFamily, x: float, radius: int,
                   vertex_budget: int = 5000, tol: float = 1e-8) -> dict:
    """Eigenvalue floor of the kernel P_{distance}(x) on a finite ball.

    A strictly negative floor certifies the kernel is not positive
    semidefinite on the whole graph; nonnegative floors on all tested
    radii are evidence (not proof) of positivity.
    """
    return _psd_rows(fam, [x], radius, vertex_budget, tol)[0]


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


def gab_dual_measure(fam: GabFamily, x: float, y: float, order: int = 8,
                     grid: np.ndarray | None = None, n_nodes: int = 400,
                     slack: float = 1e-8) -> LPResult:
    """LP feasibility of a positive measure matching P_n(x) P_n(y), n <= order.

    Solves min t s.t. |sum_g w_g P_n(z_g) - P_n(x) P_n(y)| <= t, w >= 0
    over the grid (Chebyshev nodes on [-s1, s1] by default).  Feasible
    means t* <= slack.  On infeasibility the HiGHS dual is turned into a
    signed moment combination and re-verified: certificate y satisfies
    (Phi^T y)_g <= 0 on the grid and y . b > slack * |y|_1, which rules
    out any grid-supported measure at this slack.

    The default grid augments the Chebyshev nodes with x, y, and s0
    (when they lie in [-s1, s1]).  The representing measure can sit
    exactly on those points -- for instance it is a point mass at y when
    x = s1 -- and a measure concentrated off-grid is not approximable
    within 1e-8 by on-grid mixtures, so discretizing without these nodes
    would misreport existence.  Passing an explicit grid skips the
    augmentation.
    """
    if order < 1:
        raise ParameterOutOfRange(f"moment order must be at least 1, got {order}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParameterOutOfRange(f"x and y must be finite, got x={x!r}, y={y!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        moments = (gab_eval_all(fam, order, np.float64(x))
                   * gab_eval_all(fam, order, np.float64(y)))
    if not np.isfinite(moments).all():
        raise ParameterOutOfRange(
            f"moments P_n(x) P_n(y) up to order {order} overflow float64 at x={x!r}, y={y!r}"
        )
    if grid is None:
        nodes = chebyshev_grid(fam, n_nodes)
        extras = [v for v in (x, y, fam.s0)
                  if -fam.s1 <= v <= fam.s1
                  and np.abs(nodes - v).min() > 1e-13]
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
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (G + 1),
                  method="highs")
    if res.status != 0:
        raise SolverFailed(f"LP solver failed: {res.message}")
    t_star = float(res.x[-1])
    feasible = t_star <= slack

    certificate = None
    if not feasible:
        marg = np.asarray(res.ineqlin.marginals)
        for sign in (1.0, -1.0):
            yvec = sign * (marg[: order + 1] - marg[order + 1:])
            norm = float(np.abs(yvec).sum())
            if norm < 1e-15:
                continue
            yvec = yvec / norm
            grid_max = float((phi.T @ yvec).max())
            margin = float(yvec @ moments)
            if grid_max <= 1e-10 and margin > slack + 1e-10:
                certificate = {
                    "y": yvec,
                    "grid_max": grid_max,
                    "moment_margin": margin,
                    "valid": True,
                }
                break
        if certificate is None:
            certificate = {"y": None, "valid": False}

    return LPResult(
        feasible=feasible,
        max_violation=t_star,
        nodes=nodes,
        weights=res.x[:G] if feasible else None,
        certificate=certificate,
        moments=moments,
    )

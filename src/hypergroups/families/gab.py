"""Two-parameter polynomial family attached to clique trees.

For real a, b >= 2 this is the orthogonal polynomial sequence whose
three-term recurrence has constant coefficients from (a, b); for integer
parameters the polynomials evaluate distance kernels on the graph whose
vertices sit in a cliques of size b each (a tree of b-cliques).  The
module carries the linearization coefficients, the Haar weights, two
independent evaluation routes, the orthogonality measure, finite-ball
kernel tests, and the truncated moment test for dual product formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BallTooLarge,
    ClosedFormSingular,
    ParameterOutOfRange,
    QuadratureNotConverged,
)

# largest moment order of gab_dual_measure: its Gram matrices take about order^2 / 4
# linearizations of O(order) Python work each (about 28 ms a pair at 64)
MOMENT_MAX_ORDER = 64


@dataclass(frozen=True)
class GabFamily:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 2 and self.b >= 2):
            raise ParameterOutOfRange(
                f"family needs a, b >= 2, got a={self.a!r}, b={self.b!r}"
            )
        try:
            finite = all(map(math.isfinite, (self.a, self.b, self.s0, self.s1)))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ParameterOutOfRange(
                f"family needs finite a, b with s0, s1 in the float64 range, "
                f"got a={self.a!r}, b={self.b!r}"
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
    """Haar weight of degree n: 1, then a(a-1)^(n-1)(b-1)^n, as a float."""
    if n < 0:
        raise ParameterOutOfRange("degree must be nonnegative")
    if n == 0:
        return 1.0
    a, b = float(fam.a), float(fam.b)
    try:
        weight = a * (a - 1) ** (n - 1) * (b - 1) ** n
    except OverflowError:  # a float power past the float64 range
        weight = math.inf
    if weight == math.inf:  # or a product past it
        raise ParameterOutOfRange(
            f"Haar weight of degree {n} overflows float64 at a={fam.a!r}, b={fam.b!r}")
    return weight


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

    try:
        put(m + n, (a - 1) / a)
        put(lo, 1.0 / (a * (a - 1) ** (w - 1) * (b - 1) ** w))
        for k in range(w):
            put(lo + 2 * k + 1, (b - 2) / (a * (a - 1) ** (w - k - 1) * (b - 1) ** (w - k)))
        for k in range(w - 1):
            put(lo + 2 * k + 2, (a - 2) / (a * (a - 1) ** (w - k - 1) * (b - 1) ** (w - k - 1)))
    except OverflowError as exc:  # a float power past the float64 range
        raise ParameterOutOfRange(
            f"coefficients of P_{m} P_{n} overflow float64 at a={a!r}, b={b!r}") from exc
    return g


def gab_eval_all(fam: GabFamily, nmax: int, x) -> np.ndarray:
    """P_0..P_nmax at x via the three-term recurrence; shape (nmax+1,) + x.shape."""
    if nmax < 0:
        raise ParameterOutOfRange("degree must be nonnegative")
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
        removes the endpoint singularities even when s0 = -1 or s1 = 1, by
        Gauss-Legendre rules in theta of 100 and 200 nodes (func gets an
        array of x); ``QuadratureNotConverged`` if they differ beyond rtol.
        """
        f = self.fam

        def rule(count: int) -> float:
            t, w = np.polynomial.legendre.leggauss(count)
            x = np.cos(math.pi * (t + 1.0) / 2.0)  # d theta = (pi / 2) dt
            # no node reaches +-1, so at s1 = 1 or s0 = -1 its ratio is exactly 1.0
            one_minus, one_plus = (1.0 - x) / (f.s1 - x), (1.0 + x) / (x - f.s0)
            return (f.a / 4.0) * float(np.sum(w * func(x) * one_minus * one_plus))

        rough, val = rule(100), rule(200)
        if abs(rough - val) > max(rtol * abs(val), 1e-14):
            raise QuadratureNotConverged(f"doubling the rule moved the value by {rough - val:.3e}")
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


def _ball_size(a: int, b: int, radius: int, budget: int) -> int:
    """1 + a(b-1)(1 + q + ... + q^(radius-1)) vertices, q = (a-1)(b-1), counted
    level by level until the count passes ``budget``."""
    q, size, level = (a - 1) * (b - 1), 1, a * (b - 1)
    if q == 1:
        return 1 + level * radius
    for _ in range(radius):
        size, level = size + level, level * q
        if size > budget:
            break
    return size


def gab_ball(fam: GabFamily, radius: int, vertex_budget: int = 5000):
    """Distance matrix and root depths of the radius-ball of the clique tree.

    Only defined for integer parameters.  The ball is grown clique by
    clique: the root joins a cliques of size b; every later vertex joins
    a-1 fresh ones.  Raises ``BallTooLarge`` past the vertex budget.

    Distances are filled in level by level: a fresh vertex v with parent u
    is one step further than u from every earlier vertex, and two fresh
    vertices are two steps further apart than their parents unless they
    share a clique (distance 1).
    """
    if not fam.integer_graph:
        raise ParameterOutOfRange(
            f"graph construction needs integer parameters, got a={fam.a}, b={fam.b}"
        )
    if radius < 0:
        raise ParameterOutOfRange(f"radius must be nonnegative, got {radius}")
    a, b = int(fam.a), int(fam.b)
    if (2 * radius >= vertex_budget  # every level adds at least two vertices
            or (size := _ball_size(a, b, radius, vertex_budget)) > vertex_budget):
        raise BallTooLarge(f"a ball of radius {radius} has more than {vertex_budget} vertices")

    dist = np.zeros((size, size), dtype=np.int64)
    depth = np.zeros(size, dtype=np.int64)
    lo, hi = 0, 1
    for t in range(1, radius + 1):
        parents = np.repeat(np.arange(lo, hi), (a if t == 1 else a - 1) * (b - 1))
        lo, hi = hi, hi + len(parents)
        fresh = slice(lo, hi)
        # rows in chunks, so that the gathered parent rows stay near 2**18 entries
        step = max(1, 2**18 // hi)
        for r in range(0, len(parents), step):
            up = parents[r:r + step]
            rows = dist[lo + r:lo + r + len(up)]
            np.add(dist[up, :lo], 1, out=rows[:, :lo])
            np.add(dist[np.ix_(up, parents)], 2, out=rows[:, fresh])
        dist[:lo, fresh] = dist[fresh, :lo].T
        level = dist[fresh, fresh]
        # each fresh vertex against the b - 1 members of its clique, itself included
        v = np.repeat(np.arange(len(parents)), b - 1)
        level[v, v - v % (b - 1) + np.tile(np.arange(b - 1), len(parents))] = 1
        np.fill_diagonal(level, 0)
        depth[fresh] = t
    assert hi == size
    return dist, depth


def _psd_rows(fam: GabFamily, xs, radius: int, vertex_budget: int, tol: float) -> list:
    """gab_kernel_psd rows for each x of xs, on one ball built once."""
    dist, _ = gab_ball(fam, radius, vertex_budget=vertex_budget)
    top = int(dist.max())
    rows = []
    for x in xs:
        with np.errstate(over="ignore", invalid="ignore"):
            values = gab_eval_all(fam, top, np.float64(x))
        if not np.isfinite(values).all():
            raise ParameterOutOfRange(
                f"kernel values P_n(x) up to degree {top} overflow float64 at x={float(x)!r}"
            )
        K = values[dist]
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


@dataclass(frozen=True)
class MomentResult:
    feasible: bool
    max_violation: float
    nodes: np.ndarray
    weights: np.ndarray | None
    certificate: dict | None
    moments: np.ndarray


def _gram(fam: GabFamily, m: np.ndarray, size: int) -> np.ndarray:
    """[L(P_i P_j)] for i, j < size: sum_n g_ij^n m_n where i + j <= order, zero past it."""
    order = len(m) - 1
    G = np.zeros((size, size))
    for i in range(size):
        for j in range(i, min(size, order + 1 - i)):
            G[i, j] = G[j, i] = sum(c * m[n] for n, c in gab_linearization(fam, i, j).items())
    return G


def _times_x(fam: GabFamily, rows: int) -> np.ndarray:
    """J with x P_i = sum_l J[i, l] P_l for i < rows, as x = (P_1 - P_1(0)) / (P_1(1) - P_1(0))."""
    at_0, at_1 = gab_eval_all(fam, 1, np.array([0.0, 1.0]))[1]
    J = -at_0 * np.eye(rows, rows + 1)
    for i in range(rows):
        for l, c in gab_linearization(fam, 1, i).items():
            J[i, l] += c
    return J / (at_1 - at_0)


def _gauss_rule(A: np.ndarray, B: np.ndarray, tol: float):
    """Gauss rule of a positive functional L from B = [L(P_i P_j)], A = [L(x P_i P_j)].

    Golub-Welsch: the atoms are the eigenvalues of the pencil (A, B) on the
    span of B's eigenvectors above tol (a singular B gives fewer atoms), and
    an atom's weight is L(phi)^2 for its eigenpolynomial phi, L(phi^2) = 1.
    """
    lam, U = np.linalg.eigh(B)
    keep = lam > tol
    root, U = np.sqrt(lam[keep]), U[:, keep]
    z, V = np.linalg.eigh(U.T @ A @ U / np.outer(root, root))
    return z, (V.T @ (root * U[0])) ** 2


def gab_dual_measure(fam: GabFamily, x: float, y: float, order: int = 8,
                     slack: float = 1e-8) -> MomentResult:
    """Whether a positive measure on [-s1, s1] has moments P_n(x) P_n(y), n <= order.

    A truncated moment problem (Krein-Nudelman, The Markov Moment Problem,
    1977, ch. III) in the P basis: with L(P_n) = m_n = P_n(x) P_n(y),
    L(P_i P_j) = sum_n g_ij^n m_n by ``gab_linearization`` and x P_i by the
    recurrence.  Such a measure exists iff, at order 2k, [L(P_i P_j)]
    (i, j <= k) and [L((s1^2 - x^2) P_i P_j)] (i, j < k) are positive
    semidefinite, and at order 2k + 1, [L((s1 -+ x) P_i P_j)] (i, j <= k).

    The measure tried is a principal representation: at an odd order the
    Gauss rule of L, at an even one the Gauss-Radau rule with its fixed
    atom at the endpoint away from the mean L(x).  A singular Gram matrix
    gives fewer atoms (at x = s1, the point mass at y).  With atoms clipped
    into [-s1, s1] and negative weights dropped, ``max_violation`` is its
    largest moment residual; feasible means at most slack * max |m_n|.

    Otherwise an eigenvalue below -slack * max |m_n| gives a q with
    L(w q^2) < 0, w >= 0 on the interval.  The certificate's y holds the P
    coefficients of -w q^2 (exact interpolation at order + 1 Chebyshev
    points, |y|_1 = 1); as sum_n y_n P_n <= 0 on all of [-s1, s1], a margin
    y . m over slack * max |m_n| ("valid") rules out every positive measure
    on the interval matching the moments within the slack.
    """
    if not 1 <= order <= MOMENT_MAX_ORDER:
        raise ParameterOutOfRange(f"moment order {order} not in [1, {MOMENT_MAX_ORDER}]")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParameterOutOfRange(f"x and y must be finite, got x={x!r}, y={y!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        moments = (gab_eval_all(fam, order, np.float64(x))
                   * gab_eval_all(fam, order, np.float64(y)))
    if not np.isfinite(moments).all():
        raise ParameterOutOfRange(
            f"moments P_n(x) P_n(y) up to order {order} overflow float64 at x={x!r}, y={y!r}"
        )
    s1, k = fam.s1, order // 2
    scale = float(np.abs(moments).max())  # at least m_0 = 1
    J = _times_x(fam, order - k)
    G = _gram(fam, moments, order - k + 1)
    H = G[: k + 1, : k + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        Lx = J @ G[:, : k + 1]  # L(x P_i P_j) for i < order - k, j <= k
        if order % 2:
            checks = [("s1 - x", s1 * H - Lx, (s1, -1.0)), ("s1 + x", s1 * H + Lx, (s1, 1.0))]
        else:
            Lxx = Lx @ J.T  # L(x^2 P_i P_j) for i, j < k
            checks = [("1", H, (1.0,)),
                      ("s1^2 - x^2", s1 * s1 * H[:k, :k] - Lxx, (s1 * s1, 0.0, -1.0))]
    if not all(np.isfinite(M).all() for _, M, _ in checks):
        raise ParameterOutOfRange(f"moment matrices overflow float64 at x={x!r}, y={y!r}")
    tol = 1e-12 * scale * s1 * s1
    if order % 2:
        nodes, weights = _gauss_rule(Lx, H, tol)
    else:
        e = -1.0 if Lx[0, 0] >= 0 else 1.0  # the fixed atom e * s1
        z, w = _gauss_rule(s1 * Lx[:, :k] - e * Lxx, s1 * H[:k, :k] - e * Lx[:, :k], tol)
        w /= s1 - e * z
        nodes, weights = np.append(z, e * s1), np.append(w, moments[0] - w.sum())
    nodes, weights = np.clip(nodes, -s1, s1), np.maximum(weights, 0.0)
    violation = float(np.abs(gab_eval_all(fam, order, nodes) @ weights - moments).max())
    if violation <= slack * scale:
        return MomentResult(True, violation, nodes, weights, None, moments)

    certificate = {"y": None, "valid": False}
    lam, q, name, weight = min(((*np.linalg.eigh(M), name, w) for name, M, w in checks),
                               key=lambda c: c[0][0])
    if lam[0] < -slack * scale:
        t = s1 * np.cos(math.pi * np.arange(order + 1) / order)
        V = gab_eval_all(fam, order, t)
        values = -np.polynomial.polynomial.polyval(t, weight) * (q[:, 0] @ V[: len(q)]) ** 2
        yvec = np.linalg.solve(V.T, values)
        yvec /= np.abs(yvec).sum()
        margin = float(yvec @ moments)
        certificate = {"y": yvec, "weight": name, "moment_margin": margin,
                       "valid": margin > slack * scale}
    return MomentResult(False, violation, np.empty(0), None, certificate, moments)

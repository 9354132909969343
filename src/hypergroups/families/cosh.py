"""Deformed nearest-step family on the integers.

For r > 0 the step distributions put mass p^k, (1-p)^k (normalized,
p = e^r / (e^r + e^-r), that is 1/(1 + e^{-2rk}) and 1/(1 + e^{2rk})) on
the two points at distance k, giving a generalized scheme over the
distance partition of Z whose deformed convolution has the closed form

    S_k S_l = cosh((k+l)r)/(2 cosh(kr) cosh(lr)) S_{k+l}
            + cosh((k-l)r)/(2 cosh(kr) cosh(lr)) S_{|k-l|}.

The characters are cos(lambda n)/cosh(rn); the module also carries the
integral representation of those characters against the base family, a
trapezoid evaluation of it, and the centered-window construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterOutOfRange, QuadratureNotConverged
from ..generalized import GeneralizedScheme, build_windowed

# largest window half-width m: the window holds 2m + 1 dense (2m + 1)^2 step matrices
WINDOW_MAX_HALF_WIDTH = 64


@dataclass(frozen=True)
class CoshFamily:
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ParameterOutOfRange(f"deformation needs r > 0, got {self.r!r}")
        if not math.isfinite(self.r):
            raise ParameterOutOfRange(f"deformation r must be finite, got {self.r!r}")

    @property
    def p(self) -> float:
        return math.exp(self.r) / (math.exp(self.r) + math.exp(-self.r))


def cosh_convolution(fam: CoshFamily, k: int, l: int) -> dict:
    """Closed-form coefficients of the deformed product of classes k and l."""
    if k < 0 or l < 0:
        raise ParameterOutOfRange("classes are nonnegative integers")
    r = fam.r
    denom = 2.0 * math.cosh(k * r) * math.cosh(l * r)
    out: dict = {}
    for idx, num in ((k + l, math.cosh((k + l) * r)), (abs(k - l), math.cosh((k - l) * r))):
        out[idx] = out.get(idx, 0.0) + num / denom
    return out


def cosh_base_product(k: int, l: int) -> dict:
    """Undeformed product: equal mass on |k-l| and k+l."""
    if k < 0 or l < 0:
        raise ParameterOutOfRange("classes are nonnegative integers")
    out: dict = {}
    for idx in (k + l, abs(k - l)):
        out[idx] = out.get(idx, 0.0) + 0.5
    return out


def cosh_character(fam: CoshFamily, lam, n):
    """alpha_lambda(n) = cos(lambda n) / cosh(r n); lambda may be complex."""
    n_arr = np.asarray(n)
    val = np.cos(lam * n_arr) / np.cosh(fam.r * n_arr)
    if np.isrealobj(np.asarray(lam)) and not np.iscomplexobj(val):
        return val
    return np.real_if_close(val, tol=100)


def cosh_parameter_in_dual(fam: CoshFamily, lam, tol: float = 1e-12) -> bool:
    """Whether lambda lies in the set of bounded-character parameters.

    That set is [0, pi] on the real axis, i[0, r] on the imaginary axis,
    and the segment pi + i[0, r].
    """
    z = complex(lam)
    re, im = z.real, z.imag
    if abs(im) <= tol:
        return -tol <= re <= math.pi + tol
    if abs(re) <= tol or abs(re - math.pi) <= tol:
        return -tol <= im <= fam.r + tol
    return False


def in_plancherel_support(fam: CoshFamily, lam, tol: float = 1e-12) -> bool:
    z = complex(lam)
    return abs(z.imag) <= tol and -tol <= z.real <= math.pi + tol


def cosh_window_scheme(fam: CoshFamily, m: int) -> GeneralizedScheme:
    """Centered window {-m..m} of the deformed family on Z.

    Classes are the distances 0..2m.  Boundary rows are sub-stochastic;
    products of classes k, l are only verified when k + l <= m, and the
    resulting object reports which pairs stayed unchecked.
    """
    if not 1 <= m <= WINDOW_MAX_HALF_WIDTH:
        raise ParameterOutOfRange(f"window half-width {m} not in [1, {WINDOW_MAX_HALF_WIDTH}]")
    n = 2 * m + 1
    d = 2 * m + 1
    points = tuple(range(-m, m + 1))
    classes = tuple(range(d))
    xs = np.arange(-m, m + 1)
    relation = np.abs(xs[:, None] - xs[None, :]).astype(np.int64)
    # step masses p^k / (p^k + (1-p)^k) = 1 / (1 + e^{-2rk}) up and 1 / (1 + e^{2rk})
    # down, in forms that keep the small one instead of rounding 1 - p to 0
    steps = 2.0 * fam.r * np.arange(1, d)
    with np.errstate(over="ignore"):
        weight = np.exp(2.0 * fam.r * xs)
        up, down = 1.0 / (1.0 + np.exp(-steps)), 1.0 / (1.0 + np.exp(steps))
    if not np.isfinite(weight).all():
        raise ParameterOutOfRange(
            f"vertex weight exp(2 r x) overflows float64 at x = {m} "
            f"(r = {fam.r!r}, window half-width {m})"
        )
    subnormal = down < np.finfo(np.float64).tiny
    if subnormal.any():
        raise ParameterOutOfRange(
            f"down-step mass 1/(1 + exp(2 r k)) underflows float64 from k = "
            f"{int(np.argmax(subnormal)) + 1} "
            f"(r = {fam.r!r}, window half-width {m})"
        )

    stoch = np.zeros((d, n, n))
    stoch[0] = np.eye(n)
    for k in range(1, d):
        stoch[k] = np.eye(n, k=k) * up[k - 1] + np.eye(n, k=-k) * down[k - 1]

    boundary = m - np.abs(xs)

    return build_windowed(
        points=points,
        classes=classes,
        relation=relation,
        identity=0,
        involution=np.arange(d),
        stoch=stoch,
        vertex_weight=weight,
        base_point=m,
        boundary_distance=boundary,
        class_order=np.arange(d),
        base_product=cosh_base_product,
    )


def window_character(g: GeneralizedScheme, alpha1: complex):
    """Character of the window's deformed tensor generated from its value at 1.

    Runs the three-term recurrence alpha(1) alpha(n) =
    p~[1,n,n-1] alpha(n-1) + p~[1,n,n+1] alpha(n+1) as far as the window
    determines it, then returns (values, residual) where residual is the
    worst multiplicativity defect over all checked class pairs that stay
    inside the generated range.
    """
    d = g.n_classes
    m = (d - 1) // 2
    alpha = np.empty(m + 1, dtype=complex)
    alpha[0] = 1.0
    if m >= 1:
        alpha[1] = alpha1
    for n in range(1, m):
        lead = g.p_tilde[1, n, n + 1]
        back = g.p_tilde[1, n, n - 1] if n >= 1 else 0.0
        alpha[n + 1] = (alpha[1] * alpha[n] - back * alpha[n - 1]) / lead

    worst = 0.0
    for i in range(m + 1):
        for j in range(m + 1):
            if i + j > m or not g.pair_checked[i, j]:
                continue
            rhs = complex(np.dot(g.p_tilde[i, j, : m + 1], alpha))
            worst = max(worst, abs(alpha[i] * alpha[j] - rhs))
    return alpha, worst


def cosh_connection_quadrature(fam: CoshFamily, lam: float, n: int,
                               step: float = 0.1, cutoff: float = 40.0,
                               tol: float = 1e-8) -> float:
    """Trapezoid evaluation of the positive integral representation.

    Computes (1/2) * integral of cos(t r n) / cosh((t + lambda/r) pi/2)
    over the line, which reproduces cos(lambda n)/cosh(rn) for real
    lambda.  The estimate is refined once (half step, double cutoff);
    disagreement beyond tol raises ``QuadratureNotConverged``.
    """
    lam = float(lam)

    def estimate(h: float, c: float) -> float:
        t = np.arange(-c, c + h / 2, h)
        vals = np.cos(t * fam.r * n) / np.cosh((t + lam / fam.r) * math.pi / 2.0)
        return 0.5 * float(np.trapezoid(vals, dx=h))

    rough = estimate(step, cutoff)
    fine = estimate(step / 2.0, cutoff * 2.0)
    if abs(rough - fine) > tol:
        raise QuadratureNotConverged(
            f"refinement moved the value by {abs(rough - fine):.3e}"
        )
    return fine

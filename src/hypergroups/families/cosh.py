"""Deformed nearest-step family on the integers.

For r > 0 the step distributions put mass p^k, (1-p)^k (normalized,
p = e^r / (e^r + e^-r), that is 1/(1 + e^{-2rk}) and 1/(1 + e^{2rk})) on
the two points at distance k, giving a generalized scheme over the
distance partition of Z whose deformed convolution has the closed form

    S_k S_l = cosh((k+l)r)/(2 cosh(kr) cosh(lr)) S_{k+l}
            + cosh((k-l)r)/(2 cosh(kr) cosh(lr)) S_{|k-l|}.

The characters are cos(lambda n)/cosh(rn); the module also carries the
bounded-character parameter set, the Plancherel support, and the
centered-window construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ParameterOutOfRange
from ..generalized import GeneralizedScheme, build_windowed
from ..harmonic import _multiplicativity_gap

# largest window half-width m: the audit multiplies about m^2 / 2 pairs of (2m + 1)^2 matrices
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

    # the step matrix: up[k - 1] from x to x + k, down[k - 1] from x + k to x
    step = np.eye(n)
    upper = np.triu_indices(n, 1)
    step[upper], step[upper[::-1]] = up[relation[upper] - 1], down[relation[upper] - 1]

    boundary = m - np.abs(xs)
    # the undeformed product of the classes 0..m, whose sums stay inside the window
    base_conv = np.zeros((m + 1, m + 1, d))
    for k, l in np.ndindex(m + 1, m + 1):
        for idx, w in cosh_base_product(k, l).items():
            base_conv[k, l, idx] = w

    g = build_windowed(points, classes, relation, 0, np.arange(d), step, weight, m, boundary,
                       np.arange(d))
    return replace(g, base_conv=base_conv)


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

    gap = _multiplicativity_gap(g.p_tilde[: m + 1, : m + 1, : m + 1], alpha)
    inside = np.add.outer(np.arange(m + 1), np.arange(m + 1)) <= m
    return alpha, float(gap[inside & g.pair_checked[: m + 1, : m + 1]].max(initial=0.0))


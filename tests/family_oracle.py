"""Reference routes for the closed-form families: the ones ``families.gab`` and
``families.cosh`` are held to.

For the clique-tree polynomials, the closed form P_n(x) through the substitution
x = (z + 1/z)/2 (checked against ``gab_eval_all``'s recurrence) and the
orthogonality measure, a density on [-1, 1] with an atom at s0 when b > a,
integrated by Gauss-Legendre rules in the angle.  For the deformed integer walk,
a trapezoid evaluation of the positive integral representation of its characters
(checked against ``cosh_character``).  A route that cannot settle raises: the
closed form at its singular points, a quadrature whose refinement still moves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypergroups.errors import SchemeError
from hypergroups.families.cosh import CoshFamily
from hypergroups.families.gab import GabFamily


class ClosedFormSingular(SchemeError):
    """Closed-form evaluation point hits a removable singularity."""


class QuadratureNotConverged(SchemeError):
    """Refining the quadrature still moves the result."""


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

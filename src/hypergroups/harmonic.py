"""Characters, Plancherel weights, the Fourier transform, and dual convolutions.

All of this lives on a commutative finite hypergroup.  A character a
satisfies M_i a = a(i) a for the class matrices (M_i)[j, k] = conv[i, j, k],
so one seeded random positive combination of them is diagonalized once; a
draw that leaves two eigenvalues within ``CLUSTER_GAP`` does not separate
the characters and raises ``DegenerateSplitFailure``, and another
``--seed`` redraws it.  The dual coefficients c[a, b, g] of chi_a chi_b =
sum_g c[a, b, g] chi_g are computed for all pairs at once and cached on
the table as ``CharacterTable.duals`` (24 m^3 bytes).  ``CHARACTER_RESIDUAL_TOL``
bounds multiplicativity, ``DUAL_TOL`` negative duals, ``PSD_TOL`` eigenvalue floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SEED, DegenerateSplitFailure, DualNotPositive, NotCommutative
from .hypergroup import FiniteHypergroup, is_commutative, make_hypergroup

CLUSTER_GAP = 1e-8
CHARACTER_RESIDUAL_TOL = 1e-8
PSD_TOL = 1e-9
DUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Characters (rows) of a commutative finite hypergroup.

    ``chars[r, i]`` is the r-th character at class i, normalized to 1 at
    the identity; rows descend by their 1e-9-rounded values, compared class
    by class, the real part before the imaginary.  ``plancherel[r]`` is the
    dual weight, ``positive_index`` points at the unique strictly
    positive character, and ``residual`` is the worst multiplicativity
    defect of the table.
    """

    classes: tuple
    chars: np.ndarray
    plancherel: np.ndarray
    haar: np.ndarray
    positive_index: int
    residual: float

    @property
    def n_characters(self) -> int:
        return self.chars.shape[0]

    @cached_property
    def labels(self) -> tuple:
        return tuple(f"chi{r}" for r in range(self.n_characters))

    @cached_property
    def duals(self) -> DualCoefficients:
        """Every dual coefficient, from one stacked matmul per a that numpy
        runs as one gemv per pair, so each pair matches ``fourier`` bitwise."""
        chars, conj = self.chars, np.conjugate(self.chars)
        raw = np.empty((len(chars),) * 3, dtype=complex)
        for a, row in enumerate(raw):  # one a at a time keeps temporaries at m^2 entries
            np.matmul(conj, (self.haar * (chars[a] * chars))[..., None], out=row[..., None])
        np.multiply(self.plancherel, raw, out=raw)
        re = raw.real
        weights = np.where(re > 0.0, re, 0.0)
        total = weights.sum(axis=-1)
        np.divide(weights, total[..., None], out=weights, where=total[..., None] > 0.0)
        duals = DualCoefficients(raw, weights, total, re.min(axis=-1),
                                 np.abs(raw.imag).max(axis=-1), raw.sum(axis=-1))
        for array in vars(duals).values():
            array.setflags(write=False)  # DualMeasure hands out views
        return duals


@dataclass(frozen=True)
class DualCoefficients:
    """c[a, b, g] for all pairs (a, b), with per-pair statistics."""

    raw: np.ndarray           # (m, m, m) complex
    weights: np.ndarray       # (m, m, m) clamped at 0, renormalized where total > 0
    total: np.ndarray         # (m, m) clamped mass
    min_raw_real: np.ndarray  # (m, m)
    max_abs_imag: np.ndarray  # (m, m)
    sum_raw: np.ndarray       # (m, m) complex


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a float a and a complex z, without casting a to complex."""
    return a @ z.real + 1j * (a @ z.imag)


def _multiplicativity_gap(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|sum_k t[i, j, k] z[k] - z[i] z[j]| over (i, j) for a (d, d, d) tensor t and
    values z of shape (d,), or (d, m) for m functions at once; one (d^2, d) product."""
    d = len(t)
    prod = _real_times(t.reshape(d * d, d), z).reshape((d, d) + z.shape[1:])
    return np.abs(prod - z[:, None] * z[None, :])


def _hermitian_floor(M: np.ndarray) -> tuple:
    """(max |M - M^H|, smallest eigenvalue of the hermitian part (M + M^H) / 2)."""
    adjoint = np.conjugate(M.T)
    return float(np.abs(M - adjoint).max()), float(np.linalg.eigvalsh((M + adjoint) / 2.0).min())


def character_table(h: FiniteHypergroup, seed: int = SEED) -> CharacterTable:
    """All characters of a commutative finite hypergroup.

    One seeded combination T = sum_i mu_i M_i is diagonalized once.  Raises
    ``NotCommutative`` for noncommutative input and ``DegenerateSplitFailure``
    when two eigenvalues of T lie within ``CLUSTER_GAP`` (the draw does not separate
    the characters; witness: the index pair; another ``seed`` redraws it), when
    T overflows float64, or when the result fails the multiplicativity validation.
    """
    if not is_commutative(h):
        raise NotCommutative("character theory here needs a commutative hypergroup")
    conv = h.conv_float.astype(complex)
    d = h.n_classes

    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, size=d)
    with np.errstate(over="ignore", invalid="ignore"):
        T = np.tensordot(mu, conv, axes=([0], [0]))
    if not np.isfinite(T).all():
        raise DegenerateSplitFailure(
            f"the combination drawn with seed {seed} overflows float64; redraw with another seed")

    w, V = np.linalg.eig(T)
    close = np.argwhere(np.triu(np.abs(w[:, None] - w[None, :]) <= CLUSTER_GAP, 1))
    if len(close):
        i, j = close[0].tolist()
        raise DegenerateSplitFailure(
            f"eigenvalues {i} and {j} of the combination drawn with seed {seed} lie within "
            f"{CLUSTER_GAP:g}, so it does not separate the characters; redraw with another seed",
            witness=(i, j))

    e = h.identity
    v = np.linalg.qr(V.T[:, :, None])[0][:, :, 0]  # row r: column r of V, normalized
    vanish = np.abs(v[:, e]) < 1e-12 * np.linalg.norm(v, axis=1)
    if vanish.any():
        raise DegenerateSplitFailure("candidate character vanishes at the identity class",
                                     witness=int(vanish.argmax()))
    chars = v / v[:, [e]]

    # validation: a(i) a(j) = sum_k conv[i,j,k] a(k), and a(ibar) = conj a(i)
    residual = float(_multiplicativity_gap(h.conv_float, chars.T).max())
    herm = float(np.abs(np.conjugate(chars[:, h.involution]) - chars).max())
    residual = max(residual, herm)
    if residual > CHARACTER_RESIDUAL_TOL:
        raise DegenerateSplitFailure(
            f"multiplicativity residual {residual:.3e} exceeds {CHARACTER_RESIDUAL_TOL:.1e}"
        )

    # the keys (-re_0, -im_0, -re_1, ...) of each row, reversed: lexsort's primary key is its last
    keys = np.stack((-np.round(chars.real, 9), -np.round(chars.imag, 9)), axis=2)
    chars = chars[np.lexsort(keys.reshape(d, 2 * d).T[::-1])]

    haar = h.haar_float
    plancherel = 1.0 / ((np.abs(chars) ** 2) @ haar).real

    positive = np.flatnonzero((chars.real.min(axis=1) > 1e-10)
                              & (np.abs(chars.imag).max(axis=1) < 1e-10)).tolist()
    if len(positive) != 1:
        raise DegenerateSplitFailure(
            f"{len(positive)} strictly positive characters found, expected exactly one",
            witness=positive,
        )

    chars.setflags(write=False)
    plancherel.setflags(write=False)
    return CharacterTable(
        classes=h.classes,
        chars=chars,
        plancherel=plancherel,
        haar=haar.copy(),
        positive_index=positive[0],
        residual=residual,
    )


def fourier(tbl: CharacterTable, f) -> np.ndarray:
    """fhat(a) = sum_i haar_i f(i) conj(a(i))."""
    f = np.asarray(f, dtype=complex)
    return np.conjugate(tbl.chars) @ (tbl.haar * f)


def orthogonality_residual(tbl: CharacterTable) -> float:
    """Worst deviation of the weighted character Gram matrix from diag(1/plancherel)."""
    gram = (tbl.chars * tbl.haar) @ np.conjugate(tbl.chars).T
    return float(np.abs(gram - np.diag(1.0 / tbl.plancherel)).max())


def is_positive_definite(h: FiniteHypergroup, f, tbl: CharacterTable | None = None):
    """Positive definiteness of a function, with a two-route certificate.

    Primary test: the matrix M[i, j] = f(i * jbar) must be hermitian and
    positive semidefinite, both to ``PSD_TOL``.  Cross-check: all Fourier
    coefficients against the characters must be >= -``PSD_TOL`` (real).
    Returns (bool, certificate dict); the bool is the matrix verdict.
    """
    f = np.asarray(f, dtype=complex)
    conv = h.conv_float
    M = np.tensordot(conv[:, h.involution, :], f, axes=([2], [0]))
    herm_residual, min_eig = _hermitian_floor(M)
    matrix_positive = herm_residual <= PSD_TOL and min_eig >= -PSD_TOL

    cert = {
        "hermiticity_residual": herm_residual,
        "min_eigenvalue": min_eig,
        "matrix_positive": matrix_positive,
    }
    if tbl is not None:
        coeffs = tbl.plancherel * fourier(tbl, f)
        cert["fourier_min"] = float(coeffs.real.min())
        cert["fourier_imag_max"] = float(np.abs(coeffs.imag).max())
        cert["bochner_positive"] = bool(
            cert["fourier_min"] >= -PSD_TOL and cert["fourier_imag_max"] <= PSD_TOL
        )
    return matrix_positive, cert


@dataclass(frozen=True)
class DualMeasure:
    """Expansion of a product of characters over the character set."""

    raw: np.ndarray       # complex coefficients, character order
    weights: np.ndarray   # clamped to >= 0 and renormalized
    min_raw_real: float
    max_abs_imag: float
    sum_raw: complex
    positive: bool        # no raw coefficient below -DUAL_TOL
    clamped: bool         # some coefficient in [-DUAL_TOL, 0) was zeroed


def dual_convolution(h: FiniteHypergroup, tbl: CharacterTable, a: int, b: int) -> DualMeasure:
    """Coefficients of chi_a chi_b = sum_g c_g chi_g.

    c_g = plancherel(g) sum_i haar_i a(i) b(i) conj(g(i)).  Raw values
    are kept; weights are the raw real parts with tiny negatives (within
    ``DUAL_TOL`` of zero) clamped and the vector renormalized to mass one.  With no
    positive coefficient there is no mass to renormalize, and
    ``DualNotPositive`` names (a, b) and the lowest coefficient.  Values
    are views into ``tbl.duals``, computed for all pairs on first use.
    """
    duals = tbl.duals
    min_re = float(duals.min_raw_real[a, b])
    if not duals.total[a, b] > 0.0:
        g = int(duals.raw[a, b].real.argmin())
        raise DualNotPositive(
            f"(chi{a} chi{b}) has no positive coefficient; the lowest is {min_re:.6e} at chi{g}",
            witness=(a, b, g),
        )
    return DualMeasure(raw=duals.raw[a, b], weights=duals.weights[a, b], min_raw_real=min_re,
                       max_abs_imag=float(duals.max_abs_imag[a, b]),
                       sum_raw=complex(duals.sum_raw[a, b]),
                       positive=min_re >= -DUAL_TOL, clamped=-DUAL_TOL <= min_re < 0.0)


def dual_hypergroup(h: FiniteHypergroup, tbl: CharacterTable) -> FiniteHypergroup:
    """The dual convolution structure, when its coefficients are positive.

    Raises ``DualNotPositive`` (with the offending character triple) at
    the first pair a <= b with any raw coefficient below -``DUAL_TOL``;
    coefficients in [-``DUAL_TOL``, 0) are clamped, each row renormalized,
    and the result keeps ``DUAL_TOL``.  Row (b, a) copies row (a, b), whose
    raw values can differ from it in the last bit.
    """
    duals = tbl.duals
    upper = np.triu(np.ones(duals.total.shape, dtype=bool))
    bad = upper & ~((duals.total > 0.0) & (duals.min_raw_real >= -DUAL_TOL))
    if bad.any():
        a, b = divmod(int(np.argmax(bad)), len(bad))
        dm = dual_convolution(h, tbl, a, b)  # raises first if the pair has no mass
        g = int(dm.raw.real.argmin())
        raise DualNotPositive(f"(chi{a} chi{b}) has coefficient {dm.min_raw_real:.6e} at chi{g}",
                              witness=(a, b, g))
    conv = np.where(upper[..., None], duals.weights, duals.weights.swapaxes(0, 1))
    return make_hypergroup(tbl.labels, conv, tol=DUAL_TOL)


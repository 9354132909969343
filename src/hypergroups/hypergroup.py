"""Finite hypergroups: convolution tensors over a class set.

A finite hypergroup is a class set D with a convolution sending each
pair (i, j) to a probability vector over D, an identity class, and an
involution tied to the support of the convolution at the identity.
Tensors coming from schemes are exact (Fraction entries); tensors coming
from numeric families are float and carry a tolerance.  Exact checks run
on integer numerators over a common denominator, so one code path serves
both kinds: exact input compares with tolerance 0, float input with tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NotAHypergroup
from .schemes import BLOCK, Scheme, associativity_gap

DEFAULT_TOL = 1e-12


def _is_exact(conv: np.ndarray) -> bool:
    return conv.dtype == object


@dataclass(frozen=True, eq=False)
class FiniteHypergroup:
    """Convolution structure; build via make_hypergroup or hypergroup_from_scheme."""

    classes: tuple
    conv: np.ndarray        # (d, d, d): conv[i, j, k] = (delta_i * delta_j)({k})
    identity: int
    involution: np.ndarray  # (d,) int
    # exact tensors only: (num, den) with conv == num / den entrywise in lowest
    # terms, den > 0, as int64 arrays below 2**53 or Python ints; read off conv
    # when not given
    ratio: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.ratio is None and self.exact:
            object.__setattr__(self, "ratio", _ratio(self.conv))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def exact(self) -> bool:
        return _is_exact(self.conv)

    def class_index(self, c) -> int:
        return self.classes.index(c)

    @cached_property
    def haar(self) -> np.ndarray:
        """Left Haar weights: 1 / (delta_{ibar} * delta_i)({e})."""
        d = self.n_classes
        e = self.identity
        if self.exact:
            return np.array(
                [Fraction(1, 1) / self.conv[self.involution[i], i, e] for i in range(d)],
                dtype=object,
            )
        return 1.0 / np.real(self.conv[self.involution, np.arange(d), e]).astype(float)

    @cached_property
    def conv_float(self) -> np.ndarray:
        if not self.exact:
            return self.conv
        num, den = self.ratio  # true division of the integers, as float(Fraction) does
        return (num / den).astype(np.float64)

    @cached_property
    def haar_float(self) -> np.ndarray:
        return self.haar.astype(np.float64) if self.exact else self.haar


def _identity_candidates(reals: np.ndarray, scale, cut) -> list:
    """Classes acting as a two-sided unit: both slices equal scale * eye within cut."""
    unit = np.eye(len(reals), dtype=reals.dtype) * scale
    return [e for e in range(len(reals)) if np.abs(reals[e] - unit).max() <= cut
            and np.abs(reals[:, e] - unit).max() <= cut]


def make_hypergroup(classes, conv, tol: float = DEFAULT_TOL) -> FiniteHypergroup:
    """Wrap a convolution tensor, inferring identity and involution.

    The identity must be the unique class acting as a two-sided unit;
    the involution is read off the support of the convolution at the
    identity.  Ambiguity or absence raises ``NotAHypergroup``; the full
    axiom sweep lives in :func:`verify_hypergroup`.
    """
    classes = tuple(classes)
    conv = np.asarray(conv)
    d = len(classes)
    if conv.shape != (d, d, d):
        raise NotAHypergroup(f"tensor shape {conv.shape} does not match {d} classes")

    exact = _is_exact(conv)
    ratio = _ratio(conv) if exact else None
    reals, scale = _integer_form(conv, ratio) if exact else (np.real(conv), 1)
    cut = 0 if exact else tol
    ids = _identity_candidates(reals, scale, cut)
    if not ids:
        raise NotAHypergroup("no class acts as a two-sided identity")
    if len(ids) > 1:
        raise NotAHypergroup(
            f"classes {[classes[e] for e in ids]} all act as identities", witness=ids
        )
    e = ids[0]

    tau = np.full(d, -1, dtype=np.int64)
    at_e = reals[:, :, e] if exact else np.abs(conv[:, :, e])
    for i in range(d):
        support = np.flatnonzero(at_e[i] > cut).tolist()
        if len(support) != 1:
            raise NotAHypergroup(
                f"identity lies in {len(support)} products of class {classes[i]!r}",
                witness=(i, support),
            )
        tau[i] = support[0]
    if not (tau[tau] == np.arange(d)).all():
        raise NotAHypergroup("support map at the identity is not an involution",
                             witness=tuple(int(t) for t in tau))

    if isinstance(conv, np.ndarray):
        conv = conv.copy()
        conv.setflags(write=False)
    tau.setflags(write=False)
    return FiniteHypergroup(classes=classes, conv=conv, identity=e, involution=tau, ratio=ratio)


def hypergroup_from_scheme(s: Scheme) -> FiniteHypergroup:
    """Exact hypergroup on the classes of a scheme.

    (delta_i * delta_j)({k}) = valency_k p[i,j,k] / (valency_i valency_j);
    the left Haar weights then reproduce the valencies.  Both sides are at
    most n^2, so the reduced fractions are int64 arrays well below 2**53
    (num / den then rounds as float(Fraction) does), and one Fraction is
    made per distinct value.
    """
    omega = s.valencies.astype(np.int64)
    num = omega * s.p.astype(np.int64)
    den = np.broadcast_to(np.multiply.outer(omega, omega)[:, :, None], num.shape)
    common = np.gcd(num, den)
    num, den = num // common, den // common
    # num + i den is exact in complex128, so equal keys are equal fractions
    _, first, index = np.unique((num + 1j * den).ravel(), return_index=True,
                                return_inverse=True)
    values = np.empty(len(first), dtype=object)
    values[:] = [Fraction(a, b) for a, b in zip(num.flat[first].tolist(),
                                                den.flat[first].tolist())]
    h = FiniteHypergroup(
        classes=s.classes,
        conv=values[index].reshape(num.shape),
        identity=s.identity,
        involution=s.involution.copy(),
        ratio=(num, den),
    )
    assert all(h.haar[i] == omega[i] for i in range(s.n_classes))
    return h


def _ratio(conv: np.ndarray) -> tuple:
    """Reduced numerators and denominators of an exact tensor, as Python ints."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in conv.flat]
    return tuple(np.array(part, dtype=object).reshape(conv.shape) for part in
                 ([f.numerator for f in fracs], [f.denominator for f in fracs]))


def _integer_form(conv: np.ndarray, ratio: tuple | None = None):
    """Exact tensor as integer numerators over L, the lcm of its denominators.

    ``ratio`` is the (num, den) pair of conv when the caller holds it.  The
    numerators are float64 when d * max|N|^2 and L stay below 2**53: every
    partial sum of a contraction of two such tensors is then an integer
    that float64 holds exactly, so BLAS stays exact.  Otherwise they are
    Python ints in an object array.
    """
    num, den = ratio if ratio is not None else _ratio(conv)
    scale = math.lcm(*np.unique(den).tolist())
    nums = num.astype(object) * (scale // den.astype(object))
    top = np.abs(nums).max()
    fits = conv.shape[0] * top * top < 2**53 and scale < 2**53
    return nums.astype(np.float64 if fits else object), scale


def _witness(bad: np.ndarray, cut, first: bool):
    """Index of the first (C order) or the largest entry of ``bad`` above cut, else None."""
    k = np.argmax(bad > cut) if first else bad.argmax()
    return tuple(map(int, np.unravel_index(k, bad.shape))) if bad.flat[k] > cut else None


def verify_hypergroup(h: FiniteHypergroup, tol: float = DEFAULT_TOL) -> dict:
    """Axiom-by-axiom report for a convolution tensor.

    Exact tensors are checked on integer numerators over a common
    denominator with tolerance 0 (tol is only reported), and a witness is
    the first violation in C order; float tensors use ``tol`` and report
    the largest violation.  Each entry carries a ``holds`` flag, a witness
    index tuple when it fails, and a residual.
    """
    d, e, tau, exact = h.n_classes, h.identity, h.involution, h.exact
    vals, scale = _integer_form(h.conv, h.ratio) if exact else (h.conv, 1)
    reals = vals if exact else np.real(vals)
    cut = 0 if exact else tol
    report: dict = {"exact": exact, "tol": tol}

    def entry(name, holds, witness=None, residual=None):
        report[name] = {"holds": bool(holds), "witness": witness, "residual": residual}

    imag_max = float(np.abs(np.imag(vals)).max()) if np.iscomplexobj(vals) else 0.0
    below = -reals
    neg = _witness(below, cut, exact)
    lowest = reals[neg] if neg is not None else min(reals.min(), 0.0)
    entry("nonnegative", below.max() <= cut and imag_max <= cut, neg, float(lowest / scale))

    dev = reals.sum(axis=2) - scale
    gap = np.abs(dev)
    off = _witness(gap, cut, exact)
    worst = dev[off] if exact and off is not None else gap.max()  # exact: signed, first
    entry("row_sums", gap.max() <= cut, off, float(worst / scale))

    ids = _identity_candidates(reals, scale, cut)
    entry("identity_unique", ids == [e], witness=ids if ids != [e] else None)

    # identity support: e in supp(delta_i * delta_j) iff j = ibar
    should = np.zeros((d, d), dtype=bool)
    should[np.arange(d), tau] = True
    mismatch = (reals[:, :, e] > cut) != should
    entry("identity_support", not mismatch.any(), witness=_witness(mismatch, 0, True))

    # involution antihomomorphism: conv[i, j, tau k] == conv[tau j, tau i, k]
    bad = np.abs(vals[:, :, tau] - vals[np.ix_(tau, tau)].transpose(1, 0, 2))
    entry("involution_antihomomorphism", bad.max() <= cut, _witness(bad, cut, exact),
          None if exact and bad.max() > 0 else float(bad.max() / scale))

    # (delta_i*delta_j)*delta_k against delta_i*(delta_j*delta_k), indexed i j k m, over
    # blocks of i so that no d^4 tensor is built: the two products of a block hold
    # about BLOCK entries together
    step = max(1, BLOCK // (2 * d**3))
    starts = range(0, d, step)
    peaks = np.array([associativity_gap(vals, i, step).max() for i in starts])
    witness = _witness(peaks, cut, exact)
    if witness is not None:
        start = starts[witness[0]]
        i, *jkm = _witness(associativity_gap(vals, start, step), cut, exact)
        witness = (start + i, *jkm)
    entry("associativity", peaks.max() <= cut, witness, None if exact else float(peaks.max()))

    # left Haar weight of i is 1 / (delta_ibar * delta_i)({e})
    pair = reals[tau, np.arange(d), e]
    entry("haar_consistency", (pair > 0).all() and (
        exact or np.abs(h.haar * pair - 1.0).max() <= tol))

    report["all_hold"] = all(
        v["holds"] for k, v in report.items() if isinstance(v, dict) and "holds" in v
    )
    return report


def is_commutative(h: FiniteHypergroup, tol: float = DEFAULT_TOL) -> bool:
    if h.exact:  # reduced fractions are equal iff numerators and denominators are
        return all(bool((a == a.transpose(1, 0, 2)).all()) for a in h.ratio)
    return float(np.abs(h.conv - h.conv.transpose(1, 0, 2)).max()) <= tol


def is_hermitian(h: FiniteHypergroup) -> bool:
    """Involution is the identity map."""
    return bool((h.involution == np.arange(h.n_classes)).all())


def is_probability(vec, tol: float = DEFAULT_TOL) -> bool:
    arr = np.asarray(vec)
    if arr.dtype == object:
        return all(v >= 0 for v in arr) and arr.sum() == 1
    r = np.real(arr)
    im = np.abs(np.imag(arr)).max() if np.iscomplexobj(arr) else 0.0
    return bool(r.min() >= -tol and im <= tol and abs(r.sum() - 1.0) <= tol)


def convolve_measures(h: FiniteHypergroup, mu, nu) -> np.ndarray:
    """Pushforward of mu x nu through the convolution: sum_ij mu_i nu_j (d_i*d_j)."""
    mu = np.asarray(mu)
    nu = np.asarray(nu)
    tmp = np.tensordot(mu, h.conv, axes=([0], [0]))
    return np.tensordot(nu, tmp, axes=([0], [0]))


def translate(h: FiniteHypergroup, f, i: int, j: int):
    """f evaluated at the product i * j, i.e. (delta_i * delta_j)(f)."""
    f = np.asarray(f)
    return np.tensordot(h.conv[i, j], f, axes=([0], [0]))


def involute(h: FiniteHypergroup, f) -> np.ndarray:
    """f^*(i) = conj(f(ibar))."""
    f = np.asarray(f)
    return np.conjugate(f[h.involution])


def convolve_functions(h: FiniteHypergroup, f, g) -> np.ndarray:
    """(f "*" g)(i) = sum_j f(i * jbar) g(j) haar_j, matching measure convolution."""
    f = np.asarray(f)
    g = np.asarray(g)
    shifted = np.tensordot(h.conv[:, h.involution, :], f, axes=([2], [0]))  # (i, j)
    weights = g * h.haar
    return np.tensordot(shifted, weights, axes=([1], [0]))


def modular_function(h: FiniteHypergroup) -> np.ndarray:
    """Delta(i) = haar(i) / haar(ibar); multiplicative on supports."""
    return h.haar / h.haar[h.involution] if not h.exact else np.array(
        [h.haar[i] / h.haar[h.involution[i]] for i in range(h.n_classes)], dtype=object
    )


def is_unimodular(h: FiniteHypergroup, tol: float = DEFAULT_TOL) -> bool:
    delta = modular_function(h)
    if h.exact:
        return all(x == 1 for x in delta)
    return bool(np.abs(delta - 1.0).max() <= tol)

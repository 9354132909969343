"""Finite hypergroups: convolution tensors over a class set.

A finite hypergroup is a class set D with a convolution sending each
pair (i, j) to a probability vector over D, an identity class, and an
involution tied to the support of the convolution at the identity.
Tensors coming from schemes are exact and stored once, as integer
numerators N over L, the lcm of their reduced denominators; ``conv``
gives them as Fractions, built on first use.  Tensors coming from
numeric families are float and keep ``tol``, the tolerance they were
accepted under (``DEFAULT_TOL`` unless named).  Checks run on values over
a scale (N over L, or the float tensor over 1), so one code path serves
both kinds: exact input compares with tolerance 0, float input with
``tol``.  The module holds the tensor, two constructors, and the checks.
"""

from __future__ import annotations

import contextlib
import math
from functools import cached_property

import numpy as np

from .errors import DegenerateSplitFailure, NotAHypergroup
from .schemes import Scheme, _associativity_scan, _witness

DEFAULT_TOL = 1e-12


class FiniteHypergroup:
    """Convolution structure; build via make_hypergroup or hypergroup_from_scheme.

    ``conv`` is a float tensor, or an exact one: numerators N over
    ``scale`` = L when that is given, else ints and Fractions, read once
    into N over L.  ``values`` holds the float tensor or N; ``scale`` is
    None for a float tensor.  ``tol`` is the tolerance its checks read.
    """

    tol = DEFAULT_TOL

    def __init__(self, classes, conv, identity: int, involution, scale: int | None = None):
        self.classes = tuple(classes)
        self.values, self.scale = _stored(conv, scale)
        self.identity = identity
        self.involution = involution  # (d,) int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def exact(self) -> bool:
        return self.scale is not None

    @cached_property
    def conv(self) -> np.ndarray:
        """(d, d, d): conv[i, j, k] = (delta_i * delta_j)({k}); read-only Fractions when exact."""
        if not self.exact:
            return self.values
        conv = _fractions(self.values, self.scale)
        conv.setflags(write=False)
        return conv

    @cached_property
    def conv_float(self) -> np.ndarray:
        return _quotient(self.values, self.scale, "conv value") if self.exact else self.values

    @cached_property
    def _at_identity(self) -> np.ndarray:
        """(delta_ibar * delta_i)({e}) per class i, over the scale."""
        return self.values[self.involution, np.arange(self.n_classes), self.identity]

    @cached_property
    def haar(self) -> np.ndarray:
        """Left Haar weights: 1 / (delta_{ibar} * delta_i)({e}); Fractions when exact."""
        if self.exact:
            return _fractions(self.scale, self._at_identity)
        return 1.0 / np.real(self._at_identity).astype(float)

    @cached_property
    def haar_float(self) -> np.ndarray:
        return _quotient(self.scale, self._at_identity, "Haar weight") if self.exact else self.haar


def _integer_form(num, den) -> tuple:
    """(N, L) for the entries num / den (den > 0): N / L == num / den, L the lcm
    of the reduced denominators.  N is int64 while L * max|num| < 2**62 (so
    the difference of two entries fits), else Python ints in an object array.
    """
    common = np.gcd(num, den)
    num, den = num // common, den // common
    scale = math.lcm(*np.unique(den).tolist())
    kind = np.int64 if scale * int(np.abs(num).max(initial=0)) < 2**62 else object
    return num.astype(kind) * (scale // den.astype(kind)), scale


def _stored(conv, scale) -> tuple:
    """(values, scale) of a tensor; an object array of ints and Fractions is read into (N, L)."""
    conv = np.asarray(conv)
    if scale is not None or conv.dtype != object:
        return conv, scale
    parts = np.array([(v.numerator, v.denominator) for v in conv.flat], dtype=object)
    parts = parts.reshape(conv.shape + (2,))
    return _integer_form(parts[..., 0], parts[..., 1])


def _quotient(num, den, what: str) -> np.ndarray:
    """Integer num / den in float64, rounded once as float(Fraction(num, den)): float64
    division is, on integers up to 2**53; past that, Python's int true division is,
    and a quotient past float64 raises ``DegenerateSplitFailure`` naming ``what``."""
    num, den = np.asarray(num), np.asarray(den)
    if all(a.dtype != object and np.abs(a).max(initial=0) <= 2**53 for a in (num, den)):
        return num / den
    try:
        return (num.astype(object) / den.astype(object)).astype(np.float64)
    except OverflowError:
        raise DegenerateSplitFailure(f"a {what} overflows float64") from None


def _fractions(num, den) -> np.ndarray:
    """Object array of Fraction(num, den), broadcast; only callers that ask for Fractions pay."""
    from fractions import Fraction

    return np.frompyfunc(Fraction, 2, 1)(np.asarray(num, dtype=object),
                                         np.asarray(den, dtype=object))


def _identity_candidates(reals: np.ndarray, scale, cut) -> list:
    """Classes acting as a two-sided unit: both slices equal scale * eye within cut."""
    unit = np.eye(len(reals), dtype=reals.dtype) * scale
    return [e for e in range(len(reals)) if np.abs(reals[e] - unit).max() <= cut
            and np.abs(reals[:, e] - unit).max() <= cut]


def make_hypergroup(classes, conv, tol: float = DEFAULT_TOL,
                    scale: int | None = None) -> FiniteHypergroup:
    """Wrap a convolution tensor, given as for FiniteHypergroup, inferring identity and involution.

    The identity must be the unique class acting as a two-sided unit;
    the involution is read off the support of the convolution at the
    identity.  Ambiguity or absence raises ``NotAHypergroup``; the full
    axiom sweep lives in :func:`verify_hypergroup`.
    """
    classes = tuple(classes)
    conv, scale = _stored(conv, scale)
    d = len(classes)
    if conv.shape != (d, d, d):
        raise NotAHypergroup(f"tensor shape {conv.shape} does not match {d} classes")

    exact = scale is not None
    reals = np.real(conv)
    cut = 0 if exact else tol
    ids = _identity_candidates(reals, scale if exact else 1, cut)
    if not ids:
        raise NotAHypergroup("no class acts as a two-sided identity")
    if len(ids) > 1:
        raise NotAHypergroup(
            f"classes {[classes[e] for e in ids]} all act as identities", witness=ids
        )
    e = ids[0]

    at_e = (reals[:, :, e] if exact else np.abs(conv[:, :, e])) > cut
    bad = np.flatnonzero(at_e.sum(axis=1) != 1)
    if bad.size:
        i, support = int(bad[0]), np.flatnonzero(at_e[bad[0]]).tolist()
        raise NotAHypergroup(f"identity lies in {len(support)} products of class "
                             f"{classes[i]!r}", witness=(i, support))
    tau = at_e.argmax(axis=1)
    if not (tau[tau] == np.arange(d)).all():
        raise NotAHypergroup("support map at the identity is not an involution",
                             witness=tuple(int(t) for t in tau))

    conv = conv.copy()
    conv.setflags(write=False)
    tau.setflags(write=False)
    h = FiniteHypergroup(classes, conv, e, tau, scale)
    h.tol = tol
    return h


def _scheme_ratio(s: Scheme) -> tuple:
    """(num, den) with (delta_i * delta_j)({k}) = num / den = valency_k p[i,j,k] /
    (valency_i valency_j).  Both are int64 and at most n^2, so float64 division
    rounds the quotient once, as ``conv_float`` of the scheme hypergroup does."""
    omega = s.valencies.astype(np.int64)
    num = omega * s.p.astype(np.int64)
    return num, np.broadcast_to(np.multiply.outer(omega, omega)[:, :, None], num.shape)


def hypergroup_from_scheme(s: Scheme) -> FiniteHypergroup:
    """Exact hypergroup on the classes of a scheme, with the entries of
    :func:`_scheme_ratio`; the left Haar weights then reproduce the valencies."""
    values, scale = _integer_form(*_scheme_ratio(s))
    h = FiniteHypergroup(s.classes, values, s.identity, s.involution.copy(), scale)
    # the Haar weight of class i is L / N[ibar, i, e]
    assert all(w * n == scale for w, n in zip(s.valencies.tolist(), h._at_identity.tolist()))
    return h


@np.errstate(over="ignore", invalid="ignore")  # an overflowing float tensor fails, quietly
def verify_hypergroup(h: FiniteHypergroup, tol: float | None = None) -> dict:
    """Axiom-by-axiom report for a convolution tensor.

    Exact tensors are checked on integer numerators over a common
    denominator with tolerance 0 (tol is only reported), and a witness is
    the first violation in C order; float tensors use ``tol``, by default
    ``h.tol``, and report the largest violation.  Each entry carries a
    ``holds`` flag, a witness index tuple when it fails, and a residual.
    """
    d, e, tau, exact = h.n_classes, h.identity, h.involution, h.exact
    tol = h.tol if tol is None else tol
    vals, scale = h.values, h.scale if exact else 1
    if exact:
        # float64 when d * max|N| and L stay below 2**53, so that every sum and
        # difference below is exact; Python ints otherwise
        top = int(np.abs(vals).max(initial=0))
        vals = vals.astype(np.float64 if d * top < 2**53 and scale < 2**53 else object)
    reals = np.real(vals)
    cut = 0 if exact else tol
    report: dict = {"exact": exact, "tol": tol}

    def entry(name, holds, witness=None, residual=None):
        # a residual over the scale is written where it is a finite float64, else as None
        with contextlib.suppress(OverflowError):  # a Python int quotient past float64
            residual = None if residual is None else float(residual / scale)
        finite = isinstance(residual, float) and math.isfinite(residual)
        report[name] = {"holds": bool(holds), "witness": witness,
                        "residual": residual if finite else None}

    imag_max = float(np.abs(np.imag(vals)).max()) if np.iscomplexobj(vals) else 0.0
    below = -reals
    neg = _witness(below, cut, exact)
    lowest = reals[neg] if neg is not None else min(reals.min(), 0.0)
    entry("nonnegative", below.max() <= cut and imag_max <= cut, neg, lowest)

    dev = reals.sum(axis=2) - scale
    gap = np.abs(dev)
    off = _witness(gap, cut, exact)
    worst = dev[off] if exact and off is not None else gap.max()  # exact: signed, first
    entry("row_sums", gap.max() <= cut, off, worst)

    ids = _identity_candidates(reals, scale, cut)
    entry("identity_unique", ids == [e], witness=ids if ids != [e] else None)

    # identity support: e in supp(delta_i * delta_j) iff j = ibar
    should = np.zeros((d, d), dtype=bool)
    should[np.arange(d), tau] = True
    mismatch = (reals[:, :, e] > cut) != should
    entry("identity_support", not mismatch.any(), witness=_witness(mismatch, 0, True))

    # involution antihomomorphism: conv[i, j, tau k] == conv[tau j, tau i, k]
    bad = np.abs(vals.take(tau, axis=2) - vals[np.ix_(tau, tau)].transpose(1, 0, 2))
    entry("involution_antihomomorphism", bad.max() <= cut, _witness(bad, cut, exact),
          None if exact and bad.max() > 0 else bad.max())

    # (delta_i*delta_j)*delta_k against delta_i*(delta_j*delta_k), on the stored tensor
    peak, witness = _associativity_scan(h.values, None if exact else tol)
    entry("associativity", peak <= cut, witness, None if exact else peak)

    # left Haar weight of i is 1 / (delta_ibar * delta_i)({e})
    pair = reals[tau, np.arange(d), e]
    entry("haar_consistency", (pair > 0).all() and (
        exact or np.abs(h.haar * pair - 1.0).max() <= tol))

    report["all_hold"] = all(v["holds"] for v in report.values() if isinstance(v, dict))
    return report


def is_commutative(h: FiniteHypergroup) -> bool:
    gap = np.abs(h.values - h.values.transpose(1, 0, 2)).max()
    return bool(gap <= (0 if h.exact else h.tol))


"""Schemes with deformed transition matrices instead of 0/1 adjacency.

A generalized scheme keeps the relation partition of a classical scheme
but replaces each normalized adjacency matrix by a stochastic matrix
with the same support, reversible with respect to a vertex weight, whose
products stay inside the linear span of the family.  The coefficients of
those products (extracted at witness entries, then verified globally)
form a deformed convolution tensor.

The classes partition the pairs of points, so the d matrices are held as one
step matrix, step[x, y] = S_i(x, y) for the class i of (x, y); a legacy
document's (d, n, n) stack is folded into it where it is read.

Infinite examples enter through centered windows: boundary rows are
sub-stochastic and every product check is restricted to rows far enough
from the boundary, tracked per class pair.

The positive-connection certificate reads the base hypergroup from one
tensor, ``base_conv``: the scheme hypergroup over a base scheme, or the
undeformed block a window's builder attaches with ``replace``.  A window
read from a document has none, and its certificate raises ``SchemeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ClosureResidual,
    DetailedBalanceViolation,
    NoInvolution,
    NotACharacter,
    NotAHypergroup,
    NonSquare,
    NotStochastic,
    ParseError,
    SchemeError,
    SupportMismatch,
)
from .harmonic import _hermitian_floor, _multiplicativity_gap, _real_times, dual_convolution
from .hypergroup import FiniteHypergroup, _scheme_ratio, make_hypergroup
from .schemes import _UNDEFINED, Scheme, _key, _label_index

STOCHASTIC_TOL = 1e-12
BALANCE_TOL = 1e-10
CLOSURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GeneralizedScheme:
    points: tuple
    classes: tuple
    relation: np.ndarray          # (n, n) class indices
    identity: int
    involution: np.ndarray
    step: np.ndarray              # (n, n) float, S_i(x, y) for the class i of (x, y)
    vertex_weight: np.ndarray     # (n,) float, 1 at base_point
    base_point: int
    p_tilde: np.ndarray           # (d, d, d) float, deformed tensor
    pair_checked: np.ndarray      # (d, d) bool: closure verified for this pair
    boundary_distance: np.ndarray  # (n,) int, large when not windowed
    class_order: np.ndarray       # (d,) int weights for the window policy
    report: dict
    base_scheme: Scheme | None = None
    base_conv: np.ndarray | None = None  # (k, k, d) float, base tensor on classes < k

    def __post_init__(self):
        for arr in (self.step, self.vertex_weight, self.p_tilde, self.pair_checked,
                    self.boundary_distance, self.class_order, self.base_conv):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def windowed(self) -> bool:
        return not bool(self.pair_checked.all())

    @cached_property
    def _base_algebra(self) -> tuple:
        """Tensors for positive_connection_check, built once: base_conv[i, jbar, l] as
        (k*k, d), and over a base scheme the (d, d*d) map from class coefficients c to
        the matrix sqrt(valency_l) (sum_i c_i p[i, j, l]) / sqrt(valency_j), else None."""
        k, s = len(self.base_conv), self.base_scheme
        pairing = self.base_conv[:, self.involution[:k], :].reshape(k * k, -1)
        if s is None:
            return pairing, None
        root = np.sqrt(s.valencies.astype(np.float64))
        regular = s.p.transpose(0, 2, 1) * (root[:, None] / root[None, :])
        return pairing, regular.reshape(s.n_classes, -1)


def _fold(stoch: np.ndarray, relation, classes) -> np.ndarray:
    """The step matrix of a (classes, points, points) stack of that shape.  Raises
    ``SupportMismatch`` for a nonzero entry outside its class."""
    stray = stoch != 0.0
    np.put_along_axis(stray, relation[None], False, axis=0)
    if stray.any():
        i, x, y = map(int, np.unravel_index(stray.argmax(), stray.shape))
        raise SupportMismatch(f"class {classes[i]!r} transition is nonzero outside its "
                              f"relation", witness=(i, x, y))
    return np.take_along_axis(stoch, relation[None], axis=0)[0]


def _first(mask, relation) -> tuple:
    """(class, x, y) of the first cell of ``mask`` in that order, the C order of the stack."""
    cells = np.flatnonzero(mask)
    c = int(cells[np.argmin(relation.ravel()[cells])])
    return (int(relation.flat[c]), *divmod(c, relation.shape[1]))


def _row_set(relation, step, rows) -> tuple:
    """(rows, their classes, their steps, ks, xs, ys): each class k met on ``rows`` is
    read at (x, y), its largest entry there, the first in C order on ties."""
    cells, values = relation[rows], step[rows]
    flat = np.lexsort((-values.ravel(), cells.ravel()))  # by class, then decreasing entry
    firsts = flat[np.flatnonzero(np.diff(cells.ravel()[flat], prepend=-1))]
    rloc, ys = np.divmod(firsts, cells.shape[1])
    return rows, cells, values, cells.ravel()[firsts], rows[rloc], ys


def build_generalized(base: Scheme, step, vertex_weight=None,
                      base_point=_UNDEFINED) -> GeneralizedScheme:
    """Verify deformed transition data over a classical scheme: the audit of
    :func:`build_windowed` on a window without boundary, so every pair is checked.

    ``step`` is the (points, points) step matrix, S_i(x, y) for the class i
    of (x, y); ``vertex_weight`` defaults to the constant weight;
    ``base_point`` (a point label, where true and false name no number and
    None is a label; the first point when left out) fixes the
    normalization.  Raises ``ParseError`` for an unknown base point, what
    ``build_windowed`` raises, and ``SupportMismatch`` when the deformed
    tensor's support differs from the base counts.
    """
    n, d = base.n_points, base.n_classes
    x = 0 if base_point is _UNDEFINED else _label_index(base.points, "point").get(_key(base_point))
    if x is None:
        raise ParseError(f"unknown point {base_point!r}")
    g = build_windowed(
        base.points, base.classes, base.relation, base.identity, base.involution, step,
        np.ones(n) if vertex_weight is None else vertex_weight, x,
        np.full(n, n + max(1, d)), np.zeros(d))
    if not g.report["deformed_support_matches"]:
        raise SupportMismatch("deformed tensor support differs from the base counts")
    return replace(g, base_scheme=base, base_conv=np.divide(*_scheme_ratio(base)))


def build_windowed(points, classes, relation, identity, involution, step, vertex_weight,
                   base_point, boundary_distance, class_order) -> GeneralizedScheme:
    """Verify deformed transition data on a window of a relation partition.

    ``step[x, y]`` is S_i(x, y) for the class i = relation[x, y], and no
    (d, n, n) array is built; the involution must send the class of (x, y) to
    that of (y, x).  The relation partition need not be a scheme on the window;
    closure of the pair (i, j) is verified on rows whose boundary distance is at
    least class_order[i] + class_order[j], and pairs with no such row stay
    unchecked.  A coefficient must be positive where the relation has a path
    through its pair at the witness it is read at.  Raises ``NonSquare``,
    ``NotStochastic``, ``SupportMismatch``, ``NoInvolution``,
    ``DetailedBalanceViolation`` or ``ClosureResidual`` with witnesses, (class,
    x, y) for an entry; a nan residual fails its tolerance.
    """
    points, classes = tuple(points), tuple(classes)
    n, d = len(points), len(classes)
    relation = np.asarray(relation, dtype=np.int64)
    involution = np.asarray(involution, dtype=np.int64)
    # copies, as the fields are made read-only; the weight is copied by its normalization
    bd = np.array(boundary_distance, dtype=np.int64)
    order = np.array(class_order, dtype=np.int64)
    step = np.array(step, dtype=np.float64)
    weight = np.asarray(vertex_weight, dtype=np.float64)
    report: dict = {}

    if step.shape != (n, n):
        raise NonSquare(f"step matrix has shape {step.shape}, expected {(n, n)}")
    if (weight <= 0).any():
        x = int(np.flatnonzero(weight <= 0)[0])
        raise DetailedBalanceViolation(f"vertex weight at {points[x]!r} is not positive",
                                       witness=x)
    with np.errstate(over="ignore"):  # a weight past float64 is refused just below
        weight = weight / weight[base_point]
    off = ~(np.isfinite(weight) & (weight > 0.0))
    if off.any():
        x = int(off.argmax())
        raise DetailedBalanceViolation(f"normalized vertex weight at {points[x]!r} leaves "
                                       "float64", witness=x)

    eye_dev = float(np.abs(np.where(relation == identity, step, 0.0) - np.eye(n)).max())
    if not eye_dev <= STOCHASTIC_TOL:
        raise SupportMismatch(f"identity transition deviates from I by {eye_dev:.3e}")

    low = float(step.min())
    if low < 0.0:
        i, x, y = _first(step == low, relation)
        raise NotStochastic(f"negative entry {low:.3e} in class {classes[i]!r}",
                            witness=(i, x, y))

    row_sums = np.bincount((np.arange(n)[:, None] * d + relation).ravel(), step.ravel(),
                           n * d).reshape(n, d).T  # [i, x]: the mass of class i on row x
    full_rows = bd >= order[:, None]  # (d, n): rows on which class i keeps mass one
    for i in range(d):
        full = np.flatnonzero(full_rows[i])
        dev_full = np.abs(row_sums[i, full] - 1.0)
        if dev_full.size and not float(dev_full.max()) <= STOCHASTIC_TOL:
            x = int(full[dev_full.argmax()])
            raise NotStochastic(
                f"row {points[x]!r} of class {classes[i]!r} sums to {float(row_sums[i, x])!r}",
                witness=(i, x))
        over = row_sums[i] - 1.0
        if not float(over.max()) <= STOCHASTIC_TOL:
            x = int(over.argmax())
            raise NotStochastic(f"row {points[x]!r} of class {classes[i]!r} exceeds mass one",
                                witness=(i, x))
    report["stochastic_rows_checked"] = int(full_rows.sum())

    if not (step > 0.0).all():
        i, x, y = _first(~(step > 0.0), relation)
        raise SupportMismatch(
            f"class {classes[i]!r} transition vanishes on its relation", witness=(i, x, y))

    # balance and adjointness compare each entry with its transpose, in the conjugate class
    wrong = np.bincount(relation[involution[relation] != relation.T], minlength=d) > 0
    wrong |= involution[involution] != np.arange(d)
    if wrong.any():
        i = int(wrong.argmax())
        raise NoInvolution(f"involution sends class {classes[i]!r} to "
                           f"{classes[involution[i]]!r}, which is not its transpose", witness=i)

    # residual is relative where entries are large: the weight can span many
    # orders of magnitude, and an absolute tolerance on entries of size 1/eps
    # would demand sub-ulp agreement
    lhs = weight[:, None] * step
    balance = np.abs(lhs - lhs.T)
    lhs = np.abs(lhs)
    balance /= np.maximum(1.0, np.maximum(lhs, lhs.T))
    bal_dev = float(balance.max())
    report["detailed_balance_residual"] = bal_dev
    if not bal_dev <= BALANCE_TOL:
        i, x, y = _first(balance == bal_dev, relation)
        raise DetailedBalanceViolation(
            f"reversibility off by {bal_dev:.3e} on class {classes[i]!r}", witness=(i, x, y))

    # weighted operator picture: conjugated matrices are mutual adjoints
    # and contractions; meaningful on full (non-window) data, advisory on windows
    sq = np.sqrt(weight)
    conj = sq[:, None] * step / sq
    report["adjoint_residual"] = float(np.abs(conj - conj.T).max())
    report["operator_norms"] = [float(np.linalg.norm(np.where(relation == i, conj, 0.0), 2))
                                for i in range(d)]
    del lhs, balance, conj  # n x n each, freed before the closure products

    p_tilde = np.zeros((d, d, d), dtype=np.float64)
    pair_checked = np.zeros((d, d), dtype=bool)
    closure_dev, rowsum_dev, support_ok = 0.0, 0.0, True
    # (i, j) reads its rows and witnesses only through needed = order[i] + order[j],
    # a Python int, as the sum of two int64 orders may wrap
    orders = order.tolist()
    row_sets = {needed: _row_set(relation, step, np.flatnonzero(bd >= needed))
                for needed in {a + b for a in orders for b in orders}}
    for i in range(d):
        left = np.where(relation == i, step, 0.0)
        for j in range(d):
            rows, cells, values, ks, xs, ys = row_sets[orders[i] + orders[j]]
            if rows.size == 0:
                continue
            right = np.where(relation == j, step, 0.0)
            prod = left @ right
            p_tilde[i, j, ks] = prod[xs, ys] / step[xs, ys]
            # against the span's member sum_k p_tilde[i, j, k] S_k on these rows
            dev = float(np.abs(prod[rows] - p_tilde[i, j][cells] * values).max())
            closure_dev = max(closure_dev, dev)
            if not dev <= CLOSURE_TOL:
                raise ClosureResidual(
                    f"product of classes ({classes[i]!r}, {classes[j]!r}) leaves the "
                    f"span by {dev:.3e}", witness=(i, j))
            srow = float(p_tilde[i, j].sum())
            rowsum_dev = max(rowsum_dev, abs(srow - 1.0))
            if not abs(srow - 1.0) <= BALANCE_TOL:
                raise ClosureResidual(f"deformed coefficients of ({classes[i]!r}, "
                                      f"{classes[j]!r}) sum to {srow!r}", witness=(i, j))
            # every step is positive, so a path x -> z -> y through classes i and j exists
            # where the masks meet: there the coefficient must be positive (elsewhere it is 0.0)
            path = ((left[xs] > 0.0) & (right[:, ys].T > 0.0)).any(axis=1)
            support_ok &= bool((p_tilde[i, j, ks] > 0.0)[path].all())
            pair_checked[i, j] = True

    report["closure_residual"] = closure_dev
    report["deformed_row_sum_residual"] = rowsum_dev
    report["deformed_support_matches"] = support_ok
    report["pairs_checked"] = int(pair_checked.sum())
    report["pairs_total"] = d * d
    report["window_size"] = n
    report["interior_fraction"] = float(pair_checked.mean())

    return GeneralizedScheme(
        points=points, classes=classes, relation=relation,
        identity=identity, involution=involution, step=step,
        vertex_weight=weight, base_point=base_point, p_tilde=p_tilde,
        pair_checked=pair_checked, boundary_distance=bd, class_order=order, report=report,
    )


def classical_embedding(s: Scheme) -> GeneralizedScheme:
    """A scheme viewed as a generalized scheme: S_i = A_i / valency_i.

    Nothing is re-checked in floats: build_scheme has verified the counts
    in integers, so each S_i is doubly stochastic (operator norm 1),
    reversible for the constant weight, and closed with the deformed
    tensor valency_k p[i, j, k] / (valency_i valency_j), which is the
    scheme hypergroup; ``p_tilde`` and ``base_conv`` are its ``conv_float``,
    the quotient rounded once.  The report says ``"route": "scheme"``.
    """
    n, d = s.n_points, s.n_classes
    step = (1.0 / s.valencies)[s.relation]
    p_tilde = np.divide(*_scheme_ratio(s))
    report = {
        "route": "scheme", "stochastic_rows_checked": d * n,
        "detailed_balance_residual": 0.0, "adjoint_residual": 0.0,
        "operator_norms": [1.0] * d, "closure_residual": 0.0,
        "deformed_row_sum_residual": float(np.abs(p_tilde.sum(axis=2) - 1.0).max()),
        "deformed_support_matches": True, "pairs_checked": d * d, "pairs_total": d * d,
        "window_size": n, "interior_fraction": 1.0,
    }
    return GeneralizedScheme(
        points=s.points, classes=s.classes, relation=s.relation,
        identity=s.identity, involution=s.involution, step=step,
        vertex_weight=np.ones(n), base_point=0, p_tilde=p_tilde,
        pair_checked=np.ones((d, d), dtype=bool),
        boundary_distance=np.full(n, n + max(1, d), dtype=np.int64),
        class_order=np.zeros(d, dtype=np.int64), report=report, base_scheme=s,
        base_conv=p_tilde,
    )


def _deformed_valency(g: GeneralizedScheme, i: int) -> float:
    """1 / p_tilde[i, ibar, e], which needs the pair (i, ibar) checked."""
    if not g.pair_checked[i, g.involution[i]]:
        raise SchemeError(
            f"deformed valency of class {g.classes[i]!r} not determined by this window"
        )
    return 1.0 / g.p_tilde[i, g.involution[i], g.identity]


def deformed_valencies(g: GeneralizedScheme) -> np.ndarray:
    """1 / p_tilde[i, ibar, e] per class; requires those pairs checked."""
    return np.array([_deformed_valency(g, i) for i in range(g.n_classes)])


def hypergroup_from_generalized(g: GeneralizedScheme, tol: float = 1e-9) -> FiniteHypergroup:
    """Finite hypergroup carried by the deformed tensor.

    Windowed objects with unchecked pairs are refused: their convolution
    is only partially determined, which cannot form a finite hypergroup.
    """
    if g.windowed:
        raise NotAHypergroup(
            f"only {int(g.pair_checked.sum())}/{g.pair_checked.size} class pairs "
            f"are determined by this window"
        )
    return make_hypergroup(g.classes, g.p_tilde, tol=tol)


def pi_positive_definite(g: GeneralizedScheme, kernel, tol: float = 1e-9):
    """Positive definiteness of a kernel against the vertex weight.

    Tests the matrix B[x, y] = weight(x) K(x, y): hermitian within tol
    and eigenvalue floor -tol.  Returns (bool, certificate).
    """
    K = np.asarray(kernel, dtype=complex)
    n = g.n_points
    if K.shape != (n, n):
        raise NonSquare(f"kernel has shape {K.shape}, expected {(n, n)}")
    herm, min_eig = _hermitian_floor(g.vertex_weight[:, None] * K)
    ok = herm <= tol and min_eig >= -tol
    return ok, {"hermiticity_residual": herm, "min_eigenvalue": min_eig}


def s_tilde_f(g: GeneralizedScheme, f) -> np.ndarray:
    """Weighted transition mixture sum_i f(i) valency~_i S~_i."""
    f = np.asarray(f, dtype=complex)
    d = g.n_classes
    omega = np.zeros(d)
    for i in np.flatnonzero(f):
        omega[i] = _deformed_valency(g, i)
    return (f * omega)[g.relation] * g.step


def kernel_F_f(g: GeneralizedScheme, f) -> np.ndarray:
    """Point kernel F(x, y) = f(class of (x, y))."""
    f = np.asarray(f)
    return f[g.relation]


def positive_connection_check(g: GeneralizedScheme, alpha, tol: float = 1e-9,
                              character_tol: float = 1e-8):
    """Certificate that a deformed character connects the two structures.

    Verifies alpha is multiplicative for the deformed tensor (over the
    checked pairs), then tests (a) positive definiteness of alpha on the
    base class hypergroup, read from ``base_conv``, and (b) plain positive
    semidefiniteness of the point kernel F_alpha = sum_i alpha(i) A_i.
    Over a base scheme (b) runs in its d-dimensional Bose-Mesner algebra:
    the hermitian part sum_i c_i A_i, c = (alpha + conj alpha[ibar]) / 2,
    has the eigenvalues of its left action on the algebra (C^X and the
    regular module of a semisimple algebra hold the same simple modules),
    written in the orthonormal basis A_j / sqrt(n valency_j).  A window
    carries the base tensor on the classes whose products stay inside it
    (one read from a document carries none: ``SchemeError``), runs (b) on
    the dense n x n kernel, and the certificate is flagged as truncated.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (g.n_classes,):
        raise NotACharacter(f"class function of shape {alpha.shape} on {g.n_classes} classes")
    char_residual = float(_multiplicativity_gap(g.p_tilde, alpha)[g.pair_checked].max(initial=0.0))
    if not char_residual <= character_tol:  # a nan residual is no character either
        raise NotACharacter(
            f"multiplicativity residual {char_residual:.3e} over checked pairs"
        )

    if g.base_conv is None:
        raise SchemeError("windowed object carries no base tensor (none is read from a document)")
    d, k = g.n_classes, len(g.base_conv)
    pairing, regular = g._base_algebra
    herm, base_min = _hermitian_floor(_real_times(pairing, alpha).reshape(k, k))
    if regular is None:
        kherm, kernel_min = _hermitian_floor(kernel_F_f(g, alpha))
    else:
        adjoint = np.conjugate(alpha[g.involution])
        # F_alpha^H = F_(conj alpha[ibar]), so the kernel is hermitian as far as alpha is
        kherm = float(np.abs(alpha - adjoint).max())
        kernel_min = _hermitian_floor(
            _real_times(regular.T, (alpha + adjoint) / 2.0).reshape(d, d))[1]

    ok = (herm <= tol and base_min >= -tol and kherm <= tol and kernel_min >= -tol)
    return ok, {
        "character_residual": char_residual,
        "base_hermiticity_residual": herm,
        "base_min_eigenvalue": base_min,
        "kernel_hermiticity_residual": kherm,
        "kernel_min_eigenvalue": kernel_min,
        "truncated": regular is None,
    }


def dual_product_generalized(g: GeneralizedScheme, tbl, a: int, b: int,
                             tol: float = 1e-9, check_precondition: bool = True):
    """Product of two deformed characters expanded over the character set.

    ``tbl`` is the character table of the deformed hypergroup.  The
    spectral positivity of the expansion is only guaranteed when the
    second factor passes the positive-connection certificate; the
    certificate outcome rides along in the info dict.
    """
    h = hypergroup_from_generalized(g)
    info: dict = {}
    if check_precondition:
        ok, cert = positive_connection_check(g, tbl.chars[b], tol=tol)
        info["precondition_certified"] = ok
        info["precondition"] = cert
    dm = dual_convolution(h, tbl, a, b, tol=tol)
    return dm, info

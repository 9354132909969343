"""Reference window audit: the one ``generalized.build_windowed`` is held to.

It audits the (d, n, n) transition stack itself, class by class, in the order
stack shape, vertex weight, identity transition, negative entries, row mass
(full rows equal to one, every row at most one), support (positive outside the
relation, vanishing on it), detailed balance through the involution, operator
norms, then closure of each class pair on the rows its class orders allow and
the deformed tensor's support, and the first failure raises with its witness.
"""

import numpy as np

from hypergroups.errors import (
    ClosureResidual,
    DetailedBalanceViolation,
    NonSquare,
    NotStochastic,
    SupportMismatch,
)
from hypergroups.generalized import BALANCE_TOL, CLOSURE_TOL, STOCHASTIC_TOL
from hypergroups.schemes import _triple_counts


def audit_window(points, classes, relation, identity, involution, stoch,
                 vertex_weight, base_point, boundary_distance, class_order) -> tuple:
    """(report, p_tilde, pair_checked) of a window's transition stack, or the first
    failure raised."""
    points, classes = tuple(points), tuple(classes)
    n, d = len(points), len(classes)
    relation = np.asarray(relation, dtype=np.int64)
    involution = np.asarray(involution, dtype=np.int64)
    bd = np.array(boundary_distance, dtype=np.int64)
    order = np.array(class_order, dtype=np.int64)
    stoch = np.array(stoch, dtype=np.float64)
    weight = np.asarray(vertex_weight, dtype=np.float64)
    report: dict = {}

    if stoch.shape != (d, n, n):
        raise NonSquare(f"transition stack has shape {stoch.shape}, expected {(d, n, n)}")
    if (weight <= 0).any():
        x = int(np.flatnonzero(weight <= 0)[0])
        raise DetailedBalanceViolation(f"vertex weight at {points[x]!r} is not positive",
                                       witness=x)
    weight = weight / weight[base_point]

    eye_dev = float(np.abs(stoch[identity] - np.eye(n)).max())
    if eye_dev > STOCHASTIC_TOL:
        raise SupportMismatch(f"identity transition deviates from I by {eye_dev:.3e}")

    if float(stoch.min()) < 0.0:
        i, x, y = map(int, np.unravel_index(stoch.argmin(), stoch.shape))
        raise NotStochastic(f"negative entry {stoch.min():.3e} in class {classes[i]!r}",
                            witness=(i, x, y))

    row_sums = stoch.sum(axis=2)
    full_rows = bd >= order[:, None]
    for i in range(d):
        full = np.flatnonzero(full_rows[i])
        dev_full = np.abs(row_sums[i, full] - 1.0)
        if dev_full.size and float(dev_full.max()) > STOCHASTIC_TOL:
            x = int(full[dev_full.argmax()])
            raise NotStochastic(
                f"row {points[x]!r} of class {classes[i]!r} sums to {row_sums[i, x]!r}",
                witness=(i, x))
        over = row_sums[i] - 1.0
        if float(over.max()) > STOCHASTIC_TOL:
            x = int(over.argmax())
            raise NotStochastic(f"row {points[x]!r} of class {classes[i]!r} exceeds mass one",
                                witness=(i, x))
    report["stochastic_rows_checked"] = int(full_rows.sum())

    for i in range(d):
        on_class = relation == i
        positive = stoch[i] > 0.0
        if (positive & ~on_class).any():
            x, y = map(int, np.argwhere(positive & ~on_class)[0])
            raise SupportMismatch(
                f"class {classes[i]!r} transition is positive outside its relation",
                witness=(i, x, y))
        if (on_class & ~positive).any():
            x, y = map(int, np.argwhere(on_class & ~positive)[0])
            raise SupportMismatch(
                f"class {classes[i]!r} transition vanishes on its relation",
                witness=(i, x, y))

    lhs = weight[None, :, None] * stoch
    rhs = lhs[involution].transpose(0, 2, 1)
    balance = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    bal_dev = float(balance.max())
    report["detailed_balance_residual"] = bal_dev
    if bal_dev > BALANCE_TOL:
        i, x, y = map(int, np.unravel_index(balance.argmax(), balance.shape))
        raise DetailedBalanceViolation(
            f"reversibility off by {bal_dev:.3e} on class {classes[i]!r}", witness=(i, x, y))

    sq = np.sqrt(weight)
    conj_ops = sq[None, :, None] * stoch / sq[None, None, :]
    report["adjoint_residual"] = float(
        np.abs(conj_ops - conj_ops[involution].transpose(0, 2, 1)).max())
    report["operator_norms"] = [float(np.linalg.norm(conj_ops[i], 2)) for i in range(d)]

    p_tilde = np.zeros((d, d, d), dtype=np.float64)
    pair_checked = np.zeros((d, d), dtype=bool)
    closure_dev = 0.0
    rowsum_dev = 0.0
    witnesses: dict = {}
    for i in range(d):
        for j in range(d):
            needed = int(order[i]) + int(order[j])
            rows = np.flatnonzero(bd >= needed)
            if rows.size == 0:
                continue
            if needed not in witnesses:
                cells = relation[rows]
                ks = np.flatnonzero(np.bincount(cells.ravel(), minlength=d))
                flat = [np.where(cells == k, stoch[k][rows], -1.0).argmax() for k in ks]
                rloc, ys = np.unravel_index(flat, cells.shape)
                witnesses[needed] = ks, rows[rloc], ys
            ks, xs, ys = witnesses[needed]
            prod = stoch[i] @ stoch[j]
            p_tilde[i, j, ks] = prod[xs, ys] / stoch[ks, xs, ys]
            approx = np.tensordot(p_tilde[i, j], stoch, axes=([0], [0]))
            dev = float(np.abs(prod[rows] - approx[rows]).max())
            closure_dev = max(closure_dev, dev)
            if dev > CLOSURE_TOL:
                raise ClosureResidual(
                    f"product of classes ({classes[i]!r}, {classes[j]!r}) leaves the "
                    f"span by {dev:.3e}", witness=(i, j))
            srow = float(p_tilde[i, j].sum())
            rowsum_dev = max(rowsum_dev, abs(srow - 1.0))
            if abs(srow - 1.0) > BALANCE_TOL:
                raise ClosureResidual(
                    f"deformed coefficients of ({classes[i]!r}, {classes[j]!r}) "
                    f"sum to {srow!r}", witness=(i, j))
            pair_checked[i, j] = True

    expected = np.zeros((d, d, d), dtype=bool)
    for needed, (ks, xs, ys) in witnesses.items():
        read_here = order[:, None] + order[None, :] == needed
        for k, x, y in zip(ks, xs, ys):
            expected[k] |= read_here & (_triple_counts(relation, x, y, d) > 0)
    expected = expected.transpose(1, 2, 0)
    zero_ok = (np.abs(p_tilde) <= np.sqrt(CLOSURE_TOL)) | expected
    pos_ok = (p_tilde > 0.0) | ~expected

    report["closure_residual"] = closure_dev
    report["deformed_row_sum_residual"] = rowsum_dev
    report["deformed_support_matches"] = bool((zero_ok & pos_ok).all())
    report["pairs_checked"] = int(pair_checked.sum())
    report["pairs_total"] = d * d
    report["window_size"] = n
    report["interior_fraction"] = float(pair_checked.mean())
    return report, p_tilde, pair_checked


def audit_scheme(base, stoch) -> tuple:
    """The window audit of a stack over a scheme with constant weight at its first
    point and no boundary, which must reproduce the base counts' support."""
    n, d = base.n_points, base.n_classes
    out = audit_window(base.points, base.classes, base.relation, base.identity,
                       base.involution, stoch, np.ones(n), 0, np.full(n, n + max(1, d)),
                       np.zeros(d))
    if not out[0]["deformed_support_matches"]:
        raise SupportMismatch("deformed tensor support differs from the base counts")
    return out

"""Finite association schemes on explicit point sets.

A scheme is a partition of X x X into relation classes such that the
diagonal is one class, the transpose of every class is a class, and all
triple intersection counts depend only on the classes involved.  This
module builds schemes from raw relation data, computes the intersection
tensor exactly, and audits the classical identities the tensor has to
satisfy.

``p[:, :, k]`` is a histogram of (rel[x, z], rel[z, y]) over z at the first
pair (x, y) of class k; every pair is then checked for every (i, j) by
float64 products of A_i with a one-hot class stack, in blocks of j, for the
rows i of greedy generators when their words span (Light's test, as for
associativity).  The identity row is skipped, as A_e = I is proved before.
A distance partition is checked by its adjacency row alone, which decides
distance-regularity (Brouwer-Cohen-Neumaier 1989, section 4.1), inside the
breadth-first search whose integer neighbour sums it reuses, and a group
quotient by no row, as orbitals form a scheme (Bannai-Ito 1984, II.2).  Audit
counts are at most n^2, so its float products are exact; nothing is
sampled.  ``_key`` is the key of a label, under which true and false name no
number, and ``_label_index`` the one map from labels to positions, built
under it for every reader and check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyClass,
    InconsistentIntersection,
    NoIdentityClass,
    NoInvolution,
    NotBijective,
    NotDistanceRegular,
    ParseError,
)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Verified association scheme.

    Instances are produced by :func:`build_scheme` and friends; the
    constructor itself performs no checking.  ``relation`` holds class
    indices, ``p[i, j, k]`` is the triple count for a pair in class k,
    and ``valencies[i]`` is the common row count of class i.
    """

    points: tuple
    classes: tuple
    relation: np.ndarray
    identity: int
    involution: np.ndarray
    p: np.ndarray
    valencies: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


# entries that the two largest arrays of one block of a contraction hold
# together: 32 MiB of float64
BLOCK = 2**22

# a prime below 2**23: the int64 products of a span mod P stay below d P^2 < 2**63 for
# every d below 2**17, and the float64 tensors of the exact scans (entries below 2**26.5
# past one block) may hold multiples of P
PRIME = 2**23 - 15

_UNDEFINED = object()  # no label: a pair the relation data leaves out, or no assertion

_BOOL_KEYS = (object(), object())  # the keys of false and true, equal to no other key


def _key(label):
    """The dict key of a label, under which true and false match no number (True == 1)."""
    if type(label) is bool:
        return _BOOL_KEYS[label]
    if type(label) is tuple:
        return tuple(map(_key, label))
    return label


def _int_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding -bound to bound - 1; int64 past its range."""
    return np.min_scalar_type(-max(bound, 1)) if bound < 2**63 else np.dtype(np.int64)


def _label_index(labels, what: str) -> dict:
    """{_key(label): position}; a ParseError if two of the labels share a key."""
    index = {_key(label): i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError(f"duplicate {what} labels")
    return index


def _relation_matrix(points, classes, relation_of) -> np.ndarray:
    n = len(points)
    cls_index = _label_index(classes, "class")
    _label_index(points, "point")

    if callable(relation_of) or isinstance(relation_of, Mapping):
        def label(x, y):
            try:
                return relation_of(x, y) if callable(relation_of) else relation_of[(x, y)]
            except KeyError:
                return _UNDEFINED

        rows = [[label(x, y) for y in points] for x in points]
    else:
        # positional: nested sequence or array aligned with the points order
        rows = relation_of if isinstance(relation_of, np.ndarray) else list(relation_of)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError("relation table is not |X| x |X|")

    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iub":
        # integer array: look each distinct label up once
        values, inverse = np.unique(rows, return_inverse=True)
        rel = np.array([cls_index.get(_key(v), -1) for v in values.tolist()])[inverse].reshape(n, n)
    else:
        rel = np.array([[cls_index.get(_key(v), -1) for v in row] for row in rows], dtype=np.int64)
    if (rel < 0).any():
        a, b = map(int, np.argwhere(rel < 0)[0])
        x, y, c = points[a], points[b], rows[a][b]
        if c is _UNDEFINED:
            raise ParseError(f"relation undefined for pair ({x!r}, {y!r})")
        raise ParseError(f"pair ({x!r}, {y!r}) maps to unknown class {c!r}")
    return rel


def _triple_counts(rel, x, y, d: int) -> np.ndarray:
    """(d, d) counts of the class pairs (rel[x, z], rel[z, y]) over the points z."""
    return np.bincount(rel[x] * d + rel[:, y], minlength=d * d).reshape(d, d)


def _identity_class(classes, rel) -> int:
    diag = np.diagonal(rel)
    e = int(diag[0])
    if not (diag == e).all():
        a = int(np.flatnonzero(diag != e)[0])
        raise NoIdentityClass(
            f"diagonal is split between classes {classes[e]!r} and {classes[rel[a, a]]!r}",
            witness=(0, a),
        )
    off = (rel == e) & ~np.eye(rel.shape[0], dtype=bool)
    if off.any():
        a, b = map(int, np.argwhere(off)[0])
        raise NoIdentityClass(
            f"identity class {classes[e]!r} holds an off-diagonal pair",
            witness=(a, b),
        )
    return e


def _involution_map(classes, rel) -> np.ndarray:
    d = len(classes)
    # meets[i, j]: some pair of class i has its transpose in class j
    meets = np.bincount((rel * d + rel.T).ravel(), minlength=d * d).reshape(d, d) > 0
    several = np.flatnonzero(meets.sum(axis=1) > 1)
    if several.size:
        i = int(several[0])
        raise NoInvolution(
            f"transpose of class {classes[i]!r} meets several classes "
            f"{[classes[int(v)] for v in np.flatnonzero(meets[i])]}",
            witness=i,
        )
    # no class is empty, so each meets one: a bijection, as tau(i) = tau(i') would make
    # tau(i) meet both, and an involution, as tau(i)'s transposes include i's pairs
    return meets.argmax(axis=1)


def _bad_count(points, classes, rel, p, rows) -> dict | None:
    """Witness of the first (i, j), i in ``rows``, then the first pair (x, y)
    in C order, whose count (A_i @ onehot)[x, j, y], with onehot[z, j, y] =
    [rel[z, y] == j] taken over blocks of j, is not p[i, j, rel[x, y]]; None
    if there is none.

    It returns rather than raises, so a caller that keeps the exception does
    not keep the float64 blocks (about 10 MiB at 256 points and nine classes)
    alive through this frame."""
    n, d = rel.shape[0], len(classes)
    step = max(1, BLOCK // (2 * n * n))
    onehot = None
    for i in rows:
        a_i = (rel == i).astype(np.float64)
        for j0 in range(0, d, step):
            js = np.arange(j0, min(d, j0 + step))
            if onehot is None or step < d:
                onehot = (rel[:, None, :] == js[:, None]).astype(np.float64).reshape(n, -1)
            prod = a_i @ onehot
            for jj, j in enumerate(js.tolist()):
                count = prod[:, jj * n:(jj + 1) * n]
                bad = count != p[i, j][rel]
                if not bad.any():
                    continue
                a, b = map(int, np.argwhere(bad)[0])
                k = int(rel[a, b])
                return {"i": classes[i], "j": classes[j], "k": classes[k],
                        "pair": (points[a], points[b]), "count": int(count[a, b]),
                        "reference_count": int(p[i, j, k])}
    return None


def _spanning_generators(t: np.ndarray, start: list) -> list:
    """Greedy generators of the product with integer structure tensor t (indexed i j k):
    each is the smallest class outside the span over F_P of the classes in ``start`` and
    the words s_1 (s_2 (... s_k)) in the earlier ones, s v being v @ t[s].  Rank mod P is
    at most rank over Q, so once every class is inside, the words span over Q."""
    d = len(t)
    basis = np.zeros((d, d), dtype=np.int64)  # row c: the reduced row with pivot c, or 0
    grown: list = []  # the rows added, which span; done[s] of them are multiplied by s
    done, left = {}, {}  # left[s]: t[s] mod P

    def extend(rows):
        for v in rows:
            hit = np.flatnonzero(basis.diagonal() * v)  # pivots where v is nonzero
            v = np.mod(v - v[hit] @ basis[hit], PRIME)
            if v.any():
                c = int(np.argmax(v != 0))
                v = v * pow(int(v[c]), -1, PRIME) % PRIME
                hit = np.flatnonzero(basis[:, c])
                basis[hit] = np.mod(basis[hit] - np.outer(basis[hit, c], v), PRIME)
                basis[c] = v
                grown.append(v)

    gens: list = []
    extend(np.eye(d, dtype=np.int64)[start])
    while True:
        while any(n < len(grown) for n in done.values()):
            for s, n in done.items():
                if n < len(grown):
                    done[s] = len(grown)
                    extend(np.stack(grown[n:]) @ left[s] % PRIME)
        inside = (basis != 0).sum(axis=1) == 1  # unit rows: the classes in the span
        if inside.all():
            return gens
        s = int(np.argmin(inside))
        gens.append(s)
        left[s], done[s] = np.mod(t[s], PRIME).astype(np.int64), 0
        extend(np.eye(d, dtype=np.int64)[[s]])


def _inconsistency(w: dict) -> InconsistentIntersection:
    return InconsistentIntersection(
        f"count for classes ({w['i']!r}, {w['j']!r}) over a {w['k']!r}-pair is {w['count']} "
        f"at {w['pair']!r} but {w['reference_count']} at the representative pair", witness=w)


def build_scheme(
    points: Sequence,
    classes: Sequence,
    relation_of: Callable | Mapping | Sequence,
    identity=_UNDEFINED,
    involution: Mapping | Sequence | None = None,
) -> Scheme:
    """Construct and fully verify a scheme from relation data.

    ``relation_of`` may be a callable ``(x, y) -> class label``, a dict
    keyed by point pairs, or a nested sequence aligned with ``points``.
    The identity class and the involution are always inferred; passing
    ``identity`` (any label, None included) or ``involution`` (a mapping or
    (class, conjugate) pairs) merely asserts the inference matches.
    Every pair is checked against the representative counts for every j
    and the rows i of greedy generators whose words span the algebra mod
    PRIME: A_s V in V for each generator s gives every row.  A failing
    row, or generators that are every row but the identity's (A_e = I is
    proved first), run the full check, whose witness is the first in row
    order.

    Raises one of ``ParseError``, ``EmptyClass``, ``NoIdentityClass``,
    ``NoInvolution``, ``InconsistentIntersection`` (with a witness
    pair) when the data is not a scheme.
    """
    points = tuple(points)
    classes = tuple(classes)
    if not points:
        raise ParseError("empty point set")
    if not classes:
        raise ParseError("empty class list")

    rel = _relation_matrix(points, classes, relation_of)
    return _verified_scheme(points, classes, rel, None, identity, involution)


def _verified_scheme(points, classes, rel, rows, identity=_UNDEFINED, involution=None) -> Scheme:
    """The scheme on the class-index matrix ``rel``, checking the counts of the
    rows i in ``rows`` only, or if it is None of every row, through the rows of
    greedy generators as :func:`build_scheme` says; the identity row never fails,
    so it is skipped."""
    n, d = len(points), len(classes)

    empty = np.flatnonzero(np.bincount(rel.ravel(), minlength=d) == 0)
    if empty.size:
        i = int(empty[0])
        raise EmptyClass(f"class {classes[i]!r} is attained by no pair", witness=i)

    e = _identity_class(classes, rel)
    tau = _involution_map(classes, rel)

    # p[:, :, k] counts the class pairs (rel[x, z], rel[z, y]) over z at the
    # first pair (x, y) of class k in C order, its counting representative
    first = np.full(d, n * n)
    np.minimum.at(first, rel.ravel(), np.arange(n * n))
    p = np.empty((d, d, d), dtype=np.int64)
    for k, (x, y) in enumerate(zip(*np.unravel_index(first, (n, n)))):
        p[:, :, k] = _triple_counts(rel, x, y, d)
    if rows is None:  # A_s V in V for generators s whose words span V
        gens = _spanning_generators(p, [e])
        if len(gens) < d - 1 and _bad_count(points, classes, rel, p, gens) is None:
            rows = []
    rows = range(d) if rows is None else rows
    w = _bad_count(points, classes, rel, p, [i for i in rows if i != e])
    if w is not None:
        raise _inconsistency(w)

    omega = p[np.arange(d), tau, e].copy()
    # internal consistency of what was just computed
    assert omega[e] == 1 and int(omega.sum()) == n

    scheme = Scheme(
        points=points,
        classes=classes,
        relation=rel,
        identity=e,
        involution=tau,
        p=p,
        valencies=omega,
    )

    if identity is not _UNDEFINED and _key(classes[e]) != _key(identity):
        raise NoIdentityClass(
            f"inferred identity {classes[e]!r} does not match asserted {identity!r}"
        )
    if involution is not None:
        class_of = _label_index(classes, "class")
        for c, cbar in involution.items() if isinstance(involution, Mapping) else involution:
            if _key(c) not in class_of:
                raise ParseError(f"unknown class {c!r}")
            i = class_of[_key(c)]
            if _key(classes[tau[i]]) != _key(cbar):
                raise NoInvolution(
                    f"inferred involution sends {c!r} to {classes[tau[i]]!r}, "
                    f"not the asserted {cbar!r}"
                )

    for arr in (rel, tau, p, omega):
        arr.setflags(write=False)
    return scheme


def is_commutative(s: Scheme) -> bool:
    return np.array_equal(s.p, s.p.transpose(1, 0, 2))


def is_symmetric(s: Scheme) -> bool:
    """Whether the involution is the identity map, of a scheme or a hypergroup alike."""
    return bool((s.involution == np.arange(s.n_classes)).all())


def is_unimodular(s: Scheme) -> bool:
    return bool((s.valencies == s.valencies[s.involution]).all())


def associativity_gap(t: np.ndarray, start: int, step: int) -> np.ndarray:
    """|(i*j)*k - i*(j*k)| for the structure tensor t, indexed [i - start, j, k, m]."""
    rows = t[start:start + step]
    gap = np.tensordot(rows, t, axes=([2], [0]))
    gap -= np.tensordot(t, rows, axes=([2], [1])).transpose(2, 0, 1, 3)
    return np.abs(gap)


def _witness(bad: np.ndarray, cut, first: bool):
    """Index of the first (C order) or the largest entry of ``bad`` above cut, else None."""
    k = np.argmax(bad > cut) if first else bad.argmax()
    return tuple(map(int, np.unravel_index(k, bad.shape))) if bad.flat[k] > cut else None


def _associates_with(t: np.ndarray, s: int) -> bool:
    """Whether (x*s)*y == x*(s*y) for all classes x, y: two (d, d) by (d, d^2) products,
    in blocks of x whose two products hold about BLOCK entries together."""
    d = len(t)
    step = max(1, BLOCK // (2 * d * d))
    for x0 in range(0, d, step):
        left = t[x0:x0 + step, s] @ t.reshape(d, -1)  # [x, (y, m)]
        if not np.array_equal(left.reshape(-1, d, d), t[s] @ t[x0:x0 + step]):
            return False
    return True


def _associativity_scan(t: np.ndarray, tol: float | None = None) -> tuple:
    """(peak, witness) of |(i*j)*k - i*(j*k)| over the structure tensor t, indexed i j k m,
    in blocks of i whose two products hold about BLOCK entries together.

    With tol None, t holds exact integers, contracted in float64 while d max|t|^2 <
    2**53 (every partial sum is then an integer float64 holds, so BLAS stays exact)
    and in Python ints otherwise; the witness is the first nonzero entry in C order,
    and the scan stops at its block.  Otherwise it is the largest entry above tol.
    Past one block, an exact t is first put to Light's test: the u with
    (x*u)*y == x*(u*y) for all x, y form a subspace closed under the product, so
    greedy generators that pass and whose words span prove t associative; if one
    fails, or they are every class, the scan runs as before.
    """
    d, exact, cut = len(t), tol is None, tol or 0
    if exact:
        top = int(np.abs(t).max(initial=0))
        t = t.astype(np.float64 if d * top * top < 2**53 else object)
    step = max(1, BLOCK // (2 * d**3))
    if exact and step < d:
        # e with e*x == x*e == c x for all x is in that subspace untested, and starts the span
        eye, c = np.eye(d), np.einsum("iii->i", t)
        units = [e for e in np.flatnonzero(c).tolist()
                 if (t[e] == c[e] * eye).all() and (t[:, e] == c[e] * eye).all()]
        gens = _spanning_generators(t, units)
        if len(units + gens) < d and all(_associates_with(t, s) for s in gens):
            return 0.0, None
    peak = witness = None
    for start in range(0, d, step):
        gap = associativity_gap(t, start, step)
        top = gap.max()
        # the witness comes from the first block holding the peak; a nan peak has none
        if peak is None or top > peak or top != top and peak == peak:
            at = _witness(gap, cut, exact) if top > cut else None
            peak, witness = top, at and (start + at[0], *at[1:])
        del gap  # one block is live at a time
        if exact and top > 0:
            break
    return peak, witness


def audit_intersection_identities(s: Scheme) -> dict:
    """Exact audit of the seven classical intersection-number identities.

    Returns a report dict with one entry per identity: whether it holds
    and, when it does not, the first offending index tuple.  All checks
    run on integers; nothing is approximated.
    """
    p, tau, omega, e = s.p, s.involution, s.valencies, s.identity
    d = s.n_classes
    eye = np.eye(d, dtype=np.int64)
    report = {}

    def add(name, mask):
        ok = bool(mask.all())
        report[name] = {"holds": ok, "witness": None if ok else _witness(~mask, 0, True)}

    add("identity_left", p[e] == eye)
    add("identity_right", p[:, e, :] == eye)
    add("pair_count", p[:, :, e] == omega[:, None] * (np.arange(d) == tau[:, None]))

    # the d^3 identities compare in the narrowest integer type holding their products
    big_p, big_w = (max(int(a.max()), -int(a.min()), 1) for a in (p, omega))
    dt = _int_dtype(max(big_p, big_w * big_w) * big_w)
    q, om, wt = p.astype(dt), omega.astype(dt), omega[tau].astype(dt)
    add("transpose_symmetry",
        q == q.take(tau, axis=0).take(tau, axis=1).take(tau, axis=2).transpose(1, 0, 2))

    add("row_sum", p.sum(axis=1) == omega[:, None])

    # omega_k p[i, j, k] against omega_i p[k, tau j, i], (j, i, k) slabs against transposes
    op = np.ascontiguousarray((q * om).transpose(1, 0, 2))
    left = op == op.take(tau, axis=0).transpose(0, 2, 1)
    add("valency_exchange_left", left.transpose(1, 0, 2))
    wp = np.multiply(q, wt, out=op)  # wt_k p[i, j, k], against wt_j p[tau i, k, j]
    add("valency_exchange_right", wp.take(tau, axis=0).transpose(0, 2, 1) == wp)

    add("weighted_sum", p @ omega == np.outer(omega, omega))
    add("weighted_sum_transposed", p @ omega[tau] == np.outer(omega[tau], omega[tau]))

    witness = _associativity_scan(p)[1]
    report["associativity"] = {"holds": witness is None, "witness": witness}

    # positivity of a triple (i, j, k) forces compatibility of the valency ratios
    ratio_ok = (np.multiply.outer(np.outer(wt, wt), om)
                == np.multiply.outer(np.outer(om, om), wt))
    add("support_modularity", ratio_ok | (p <= 0))

    report["all_hold"] = all(v["holds"] for v in report.values())
    return report


def scheme_from_distance_regular_graph(adjacency) -> Scheme:
    """Scheme whose classes are the graph distances, if that is a scheme.

    ``adjacency`` is a symmetric 0/1 matrix without loops, checked on the
    values as given (``ParseError`` otherwise).  One breadth-first search
    measures the distances and checks the adjacency row of the counts: a
    connected graph is distance-regular iff A A_j = sum_k p[1, j, k] A_k for
    every j (Brouwer-Cohen-Neumaier 1989, 4.1), and then each A_k is a
    polynomial in A, so every other row holds and the full check's first
    failure is in this row.  Raises ``NotDistanceRegular`` (with that
    witness) when the distances do not form a scheme.
    """
    try:
        A = np.asarray(adjacency)
    except ValueError:  # ragged nested sequences
        raise ParseError("adjacency matrix must be square") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ParseError("adjacency matrix must be square and nonempty")
    # past the 0/1 check, everything reads a narrow copy
    if (A.dtype.kind not in "biuf" or not ((A == 0) | (A == 1)).all()
            or not np.array_equal(A := A.astype(np.int8), A.T) or np.diagonal(A).any()):
        raise ParseError("adjacency must be symmetric 0/1 with empty diagonal")
    n = A.shape[0]

    dist, w = _distances_and_first_bad_count(A)
    if dist is None:  # a count failed or pairs are unreached: search from vertex 0
        seen = front = np.arange(n) == 0
        while front.any():
            front = A[front].any(axis=0) > seen
            seen = seen | front
        if not seen.all():  # the first unreached pair in C order
            raise NotDistanceRegular("graph is not connected", witness=(0, int(seen.argmin())))
        exc = _inconsistency(w)
        raise NotDistanceRegular(f"distance counts are not constant: {exc}", witness=w) from exc
    return _verified_scheme(tuple(range(n)), tuple(range(int(dist.max()) + 1)), dist, [])


def _distances_and_first_bad_count(A: np.ndarray) -> tuple[np.ndarray | None, dict | None]:
    """Distances of a connected int8 0/1 adjacency matrix whose counts pass, else
    None, and the witness of the adjacency row's first failing count, or None.

    Breadth-first search from every vertex at once.  Level r adds up, for each c
    below the largest degree k_max, the rows of A_r at every vertex's c-th neighbour
    (row n, all zero, past its degree): Q = A A_r, int8 while k_max < 128.  Q marks
    the pairs at distance r + 1 and is block j = r of the row, which lives on the
    distances r - 1, r and r + 1, so each of those bands is checked against Q at its
    first pair in C order, p's representative, and the search stops at the first
    level that fails, on the full scan's first failure.
    """
    n = A.shape[0]
    cols = np.flatnonzero(A.view(bool))  # the neighbours, vertex by vertex
    deg = np.bincount(cols // n, minlength=n)
    k_max = max(int(deg.max()), 1)  # an edgeless graph gathers the zero row n once
    nbr = np.full((n, k_max), n)
    nbr[np.arange(k_max) < deg[:, None]] = cols % n
    frontier = np.eye(n + 1, n, dtype=_int_dtype(k_max + 1))  # counts up to k_max
    count, row = np.empty((2, n, n), dtype=frontier.dtype)
    unreached = ~np.eye(n, dtype=bool)
    dist = unreached.astype(_int_dtype(n))  # each level adds the pairs past it
    bands, first = [~unreached], [0]  # pairs at the last distances; first pair of each
    for r in range(n):  # the diameter is below n
        frontier.take(nbr[:, 0], axis=0, out=count, mode="clip")  # "raise" would buffer
        for c in range(1, k_max):
            count += frontier.take(nbr[:, c], axis=0, out=row, mode="clip")
        reached = (count > 0) & unreached
        if reached.any():
            first.append(int(reached.argmax()))
            unreached ^= reached
            dist += unreached
        bands.append(reached)
        bad = np.zeros((n, n), dtype=bool)
        for k in range(max(r - 1, 0), len(first)):
            bad |= (count != count.flat[first[k]]) & bands[k - r - 2]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            k = int(dist[a, b])
            return None, {"i": 1, "j": r, "k": k, "pair": (a, b), "count": int(count[a, b]),
                          "reference_count": int(count.flat[first[k]])}
        if len(first) == r + 1:  # nothing reached at this level
            break
        frontier[:n] = reached
        bands = bands[-2:]
    return (None if unreached.any() else dist.astype(np.int64)), None


def _as_permutation(mapping, labels, what: str) -> np.ndarray:
    """Normalize a label map to an index permutation array."""
    n = len(labels)
    pos = _label_index(labels, what)
    if callable(mapping):
        images = [mapping(x) for x in labels]
    elif isinstance(mapping, Mapping):
        try:
            images = [mapping[x] for x in labels]
        except KeyError as exc:
            raise NotBijective(f"{what} map misses label {exc.args[0]!r}") from None
    else:
        images = list(mapping)
        if len(images) != n:
            raise NotBijective(f"{what} map has {len(images)} images for {n} labels")
    perm = np.array([pos.get(_key(y), -1) for y in images], dtype=np.int64)
    if (perm < 0).any():
        raise NotBijective(f"{what} map hits unknown label {images[int(np.argmax(perm < 0))]!r}")
    if len(set(perm.tolist())) != n:
        raise NotBijective(f"{what} map is not injective", witness=images)
    return perm


def check_automorphism(s: Scheme, point_map, class_map) -> bool:
    """Whether (point_map, class_map) is a color automorphism of the scheme.

    Both maps may be callables, dicts, or image sequences over the
    respective label lists.  Non-bijections raise ``NotBijective``.
    """
    phi = _as_permutation(point_map, s.points, "point")
    psi = _as_permutation(class_map, s.classes, "class")
    return np.array_equal(s.relation[np.ix_(phi, phi)], psi[s.relation])


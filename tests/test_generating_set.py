"""Associativity and scheme counts decided from a generating set (Light's test).

Past one block of the associativity scan (2 d^4 > ``schemes.BLOCK``), an exact
float64 tensor is first put to the test on greedy generators whose words span
modulo ``schemes.PRIME``, and ``build_scheme`` checks the count rows of such
generators only, at every size.  The oracles are the full scan, one row i at a
time, and the full count check (``_verified_scheme`` asked for every row).  The
properties lower ``BLOCK`` so that small tensors cross the scan's gate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import catalog, schemes
from hypergroups.errors import SchemeError
from hypergroups.groups import cyclic_group, symmetric_group
from hypergroups.hypergroup import hypergroup_from_scheme, verify_hypergroup
from hypergroups.schemes import audit_intersection_identities, build_scheme

GROUPS = [cyclic_group(m).mul for m in (2, 3, 5, 8, 12, 17)] + [
    symmetric_group(3).mul, symmetric_group(4).mul]


def first_gap(t: np.ndarray):
    """The first (i, j, k, m) in C order with (i*j)*k != i*(j*k), or None: the
    full scan, one row i at a time, in float64 where it is exact, else in Python ints."""
    d, top = len(t), int(np.abs(t).max())
    t = t.astype(np.float64 if d * top * top < 2**53 else object)
    for i in range(d):
        gap = np.tensordot(t[i], t, axes=([1], [0])) - np.tensordot(t, t[i], axes=([2], [0]))
        if gap.any():
            return (i, *map(int, np.argwhere(gap)[0]))
    return None


def group_algebra(mul: np.ndarray, perm: np.ndarray, scale: int) -> np.ndarray:
    """scale * the group algebra of the table mul, its elements renumbered by perm."""
    n = len(mul)
    t = np.zeros((n, n, n), dtype=np.int64)
    i, j = np.indices((n, n))
    t[perm[i], perm[j], perm[mul]] = scale
    return t


def cyclotomic_relation(n: int, u: int) -> np.ndarray:
    """Z_n with the classes of y - x under multiplication by the unit u: the
    orbitals of Z_n extended by u, a commutative scheme."""
    label, k = np.full(n, -1), 0
    for x in range(n):
        if label[x] < 0:
            y = x
            while label[y] < 0:
                label[y] = k
                y = y * u % n
            k += 1
    return label[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


@st.composite
def tensors(draw):
    """A small integer structure tensor: a scaled and renumbered group algebra, a
    commutative scheme's counts or its hypergroup's numerators; one entry of it
    perturbed half of the time."""
    kind = draw(st.sampled_from(["group", "counts", "numerators"]))
    if kind == "group":
        mul = draw(st.sampled_from(GROUPS))
        perm = np.array(draw(st.permutations(range(len(mul)))))
        t = group_algebra(mul, perm, draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(3, 16))
        u = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
        rel = cyclotomic_relation(n, u)
        s = build_scheme(range(n), range(int(rel.max()) + 1), rel)
        t = s.p.copy() if kind == "counts" else hypergroup_from_scheme(s).values.copy()
    if draw(st.booleans()):
        at = tuple(draw(st.integers(0, len(t) - 1)) for _ in range(3))
        t[at] += draw(st.sampled_from([-2, -1, 1, 2]))
    return t


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(t=tensors(), data=st.data())
def test_generators_decide_associativity_as_the_full_scan(t, data):
    d = len(t)
    block = data.draw(st.integers(1, 2 * d**4 - 1), label="BLOCK")  # past one block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "BLOCK", block)
        peak, witness = schemes._associativity_scan(t)
    assert witness == first_gap(t)
    assert (peak > 0) == (witness is not None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 14), data=st.data())
def test_generator_rows_decide_the_counts_as_the_full_check(n, data):
    u = data.draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
    rel = cyclotomic_relation(n, u)
    d = int(rel.max()) + 1
    tau = dict(zip(rel.ravel().tolist(), rel.T.ravel().tolist()))  # class -> transposed class
    if data.draw(st.booleans()):  # one pair and its transpose moved to another class
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = data.draw(st.integers(1, d - 1))
        rel[a, b], rel[b, a] = c, tau[c]

    def outcome(build):
        try:
            s = build()
        except SchemeError as exc:
            return type(exc), str(exc), exc.witness
        return s.p.tolist()

    points, classes = tuple(range(n)), tuple(range(d))
    got = outcome(lambda: build_scheme(points, classes, rel))
    want = outcome(lambda: schemes._verified_scheme(points, classes, rel, range(d)))
    assert got == want


def test_a_one_sided_identity_is_put_to_the_test(monkeypatch):
    """Classes e, a, b with e * x = x, a * e = b and b * e = e, every other product 0:
    a passes Light's test and its words a, a * e = b with e span, yet (a * e) * e = e
    and a * (e * e) = b.  A class starts the span untested only if it is an
    identity on both sides."""
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0] = np.eye(3, dtype=np.int64)
    t[1, 0, 2] = t[2, 0, 0] = 1
    monkeypatch.setattr(schemes, "BLOCK", 1)
    assert schemes._associativity_scan(t)[1] == first_gap(t) == (1, 0, 0, 0)


def test_multiples_of_the_prime_leave_the_span_short(monkeypatch):
    """Every entry of P * Z_40 vanishes mod P, so no word adds to the span: the
    generators are every class and the full scan decides, with its witness."""
    t = group_algebra(cyclic_group(40).mul, np.arange(40), schemes.PRIME)
    assert 2 * 40**4 > schemes.BLOCK and 40 * schemes.PRIME**2 < 2**53
    assert schemes._spanning_generators(t, [0]) == list(range(1, 40))
    checked = []
    monkeypatch.setattr(schemes, "_associates_with", lambda t, s: checked.append(s))
    assert schemes._associativity_scan(t) == (0, None)
    bad = t.copy()
    bad[7, 9, 16] = 0
    assert schemes._associativity_scan(bad)[1] == first_gap(bad) is not None
    assert checked == []


def test_tensors_held_as_python_ints_take_the_generator_path(monkeypatch):
    """2^40 Z_n is held as Python ints (n 2^80 >= 2^53) and decided by its
    generator with no full scan, at Z_48 at the real block size; a corrupted entry
    still runs the full scan and gets its first witness."""
    scans = []
    gap = schemes.associativity_gap
    monkeypatch.setattr(schemes, "associativity_gap", lambda *a: scans.append(a) or gap(*a))
    t = group_algebra(cyclic_group(48).mul, np.arange(48), 1).astype(object) * 2**40
    assert 2 * 48**4 > schemes.BLOCK
    assert schemes._associativity_scan(t) == (0, None) and scans == []

    monkeypatch.setattr(schemes, "BLOCK", 2 * 12**3)  # a block of one row at Z_12
    t = group_algebra(cyclic_group(12).mul, np.arange(12), 1).astype(object) * 2**40
    assert schemes._associativity_scan(t) == (0, None) and scans == []
    for at in ((1, 2, 3), (5, 8, 1), (11, 0, 11)):
        bad = t.copy()
        bad[at] += 1
        assert schemes._associativity_scan(bad)[1] == first_gap(bad) is not None
    assert scans


def test_z128_relation_and_tensor_take_the_generator_path(monkeypatch):
    """The Z_128 relation is decided by count row 1 alone, and its tensor by the
    generator 1; a moved pair and a corrupted count are caught with the full
    check's and the full scan's witnesses."""
    n = 128
    rel = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    rows = []
    bad_count = schemes._bad_count
    monkeypatch.setattr(schemes, "_bad_count",
                        lambda *args: rows.append(list(args[-1])) or bad_count(*args))
    s = build_scheme(range(n), range(n), rel)
    assert rows == [[1], []]  # the generator row, then no row left

    moved = rel.copy()
    moved[3, 70], moved[70, 3] = 5, n - 5
    with pytest.raises(SchemeError) as got:
        build_scheme(range(n), range(n), moved)
    with pytest.raises(SchemeError) as want:
        schemes._verified_scheme(tuple(range(n)), tuple(range(n)), moved, range(n))
    assert (type(got.value), str(got.value), got.value.witness) == (
        type(want.value), str(want.value), want.value.witness)

    scans = []
    gap = schemes.associativity_gap
    monkeypatch.setattr(schemes, "associativity_gap", lambda *a: scans.append(a) or gap(*a))
    assert audit_intersection_identities(s)["all_hold"]
    assert verify_hypergroup(hypergroup_from_scheme(s))["associativity"] == {
        "holds": True, "witness": None, "residual": None}
    assert scans == []
    assert schemes._spanning_generators(s.p, [0]) == [1]

    p = s.p.copy()
    p[40, 3, 43] += 1
    fake = schemes.Scheme(s.points, s.classes, s.relation, s.identity, s.involution, p,
                          s.valencies)
    witness = audit_intersection_identities(fake)["associativity"]["witness"]
    assert witness == first_gap(p) is not None


def test_one_block_never_spans(monkeypatch):
    """At d <= 38 the full associativity scan is one block (2 d^4 <= BLOCK), so
    the audit and the exact verification grow no span; at d = 39 both do.  The
    count check of ``build_scheme`` spans at every size."""
    calls = []
    span = schemes._spanning_generators
    monkeypatch.setattr(schemes, "_spanning_generators",
                        lambda t, start: calls.append(len(t)) or span(t, start))
    for d, want in ((38, []), (39, [39, 39])):
        s = catalog.cyclic_scheme(d)
        calls.clear()
        assert audit_intersection_identities(s)["all_hold"]
        assert verify_hypergroup(hypergroup_from_scheme(s))["all_hold"]
        assert calls == want
    calls.clear()
    catalog.cyclic_scheme(3)
    assert calls == [3]
    assert 2 * 38**4 <= schemes.BLOCK < 2 * 39**4

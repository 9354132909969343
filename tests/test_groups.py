"""Cayley tables, subgroup checks, double-coset schemes, and coset convolution."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_oracle import group_from_indices as oracle_group
from group_oracle import hecke_convolution
from hypergroups import groups
from hypergroups.errors import InvalidCayleyTable, NotASubgroup, ParseError
from hypergroups.groups import (
    check_subgroup,
    cyclic_group,
    group_from_table,
    scheme_from_group_quotient,
    symmetric_group,
)
from hypergroups.hypergroup import hypergroup_from_scheme
from hypergroups.schemes import build_scheme, is_commutative


def test_cyclic_group_structure():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    for i in range(6):
        for j in range(6):
            assert g.mul[i, j] == (i + j) % 6
        assert g.inverse[i] == (-i) % 6


def test_symmetric_group_structure():
    g = symmetric_group(3)
    assert g.order == 6
    assert g.elements[g.identity] == (0, 1, 2)
    # composition matches applying the right permutation first
    for p, q in itertools.product(g.elements, repeat=2):
        composed = tuple(p[q[i]] for i in range(3))
        assert g.elements[g.mul[g.index(p), g.index(q)]] == composed


def test_group_from_table_accepts_labels_and_indices():
    table_idx = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table_lbl = [["abc"[(i + j) % 3] for j in range(3)] for i in range(3)]
    g1 = group_from_table([0, 1, 2], table_idx)
    g2 = group_from_table(["a", "b", "c"], table_lbl)
    assert np.array_equal(g1.mul, g2.mul)
    # a label wins over an index: Z_3 on the labels 2, 0, 1, where entry 1 is
    # the label at position 2, not index 1
    elements = [2, 0, 1]
    table = [[(x + y) % 3 for y in elements] for x in elements]
    want = [[elements.index((x + y) % 3) for y in elements] for x in elements]
    for given_as in (table, np.array(table)):
        assert group_from_table(elements, given_as).mul.tolist() == want


def test_non_latin_table_rejected():
    with pytest.raises(InvalidCayleyTable):
        group_from_table([0, 1], [[0, 0], [1, 1]])


def test_no_identity_rejected():
    # x * y = x - y mod 3 is a latin square with no two-sided identity
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(InvalidCayleyTable):
        group_from_table([0, 1, 2], table)


def test_nonassociative_loop_rejected():
    # smallest nonassociative loop (order 5); verify nonassociativity
    # by brute force before asserting the builder refuses it
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    t = np.array(table)
    assert all(sorted(t[i]) == list(range(5)) for i in range(5))
    assert all(sorted(t[:, i]) == list(range(5)) for i in range(5))
    assert not all(
        t[t[i, j], k] == t[i, t[j, k]]
        for i, j, k in itertools.product(range(5), repeat=3)
    )
    with pytest.raises(InvalidCayleyTable):
        group_from_table([0, 1, 2, 3, 4], table)


def test_nonassociative_loop_witness_is_first_failing_row():
    """An order-6 loop whose first greedy generator (1) passes Light's test
    while the second (2) fails; the fallback scan names row 2, the first
    row i with (i j) k != i (j k) for some j, k."""
    table = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ]
    t = np.array(table)
    assert all(t[t[1, j], k] == t[1, t[j, k]] for j, k in itertools.product(range(6), repeat=2))
    failing = [i for i in range(6)
               if any(t[t[i, j], k] != t[i, t[j, k]]
                      for j, k in itertools.product(range(6), repeat=2))]
    assert failing[0] == 2
    with pytest.raises(InvalidCayleyTable, match="not associative") as info:
        group_from_table(range(6), table)
    assert info.value.witness == 2


def test_table_errors_name_the_first_bad_entry_and_row():
    with pytest.raises(InvalidCayleyTable, match=r"entry 9 at \(1, 2\) is no element"):
        group_from_table([0, 1, 2], [[0, 1, 2], [1, 2, 9], [2, "x", 1]])
    # the first bad entry in C order, not in column order, of an integer array
    with pytest.raises(InvalidCayleyTable, match=r"^entry 9 at \(1, 2\) is no element$"):
        group_from_table([0, 1, 2], np.array([[0, 1, 2], [1, 2, 9], [-1, 0, 1]]))
    with pytest.raises(InvalidCayleyTable, match="not |G| x |G|"):
        group_from_table([0, 1, 2], np.arange(6).reshape(2, 3))
    with pytest.raises(InvalidCayleyTable, match="latin") as info:
        group_from_table([0, 1, 2], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert info.value.witness == 1
    # a loop where 2 * 3 = 0 but 3 * 2 = 1: element 2 is the first without a two-sided inverse
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    with pytest.raises(InvalidCayleyTable, match="element 2 has no two-sided inverse"):
        group_from_table(range(5), loop)


@pytest.mark.parametrize("bad, text", [(5, "5"), (1.5, "1.5")])
def test_array_table_entry_prints_as_a_plain_number(bad, text):
    """An entry of an integer or float array table is named as its Python value."""
    with pytest.raises(InvalidCayleyTable, match=rf"^entry {text} at \(0, 1\) is no element$"):
        group_from_table([0, 1], np.array([[0, bad], [1, 0]]))


def test_element_labels_are_distinct_under_one_key():
    """1 and true are two elements; 1 and 1.0 are one label given twice."""
    g = group_from_table([1, True], [[1, True], [True, 1]])
    assert g.mul.tolist() == [[0, 1], [1, 0]] and g.index(True) == 1 and g.index(1) == 0
    with pytest.raises(ParseError, match="^duplicate element labels$"):
        group_from_table([1, 1.0], [[1, 1.0], [1.0, 1]])
    with pytest.raises(ParseError, match="^empty element list$"):
        group_from_table([], [])


@pytest.mark.parametrize("elements, value, position", [
    (("e", "a"), "a", 1),                # a label
    (("e", "a"), 1, 1),                  # an int index
    (("e", "a"), np.int64(1), 1),        # a numpy integer index
    (("e", 0), 0, 1),                    # a label wins over an index
    ((0, 1), True, None),                # true is neither the label 1 nor an index
    (((0, 0), (0, 1)), (0, True), None),  # nor inside a tuple label
    (((0, (0, 0)), (0, (0, 1))), (0, (0, True)), None),  # at any depth
    (("e", "a"), ["a"], None),           # an unhashable value is no element
])
def test_one_element_rule_for_tables_and_lookups(elements, value, position):
    """Z_2 with ``value`` as the product of elements 0 and 1, and ``value`` looked up."""
    e, a = elements
    if position is None:
        with pytest.raises(InvalidCayleyTable,
                           match=rf"^entry {re.escape(repr(value))} at \(0, 1\) is no element$"):
            group_from_table(elements, [[e, value], [a, e]])
        with pytest.raises(ParseError, match=rf"^unknown group element {re.escape(repr(value))}$"):
            group_from_table(elements, [[e, a], [a, e]]).index(value)
    else:
        g = group_from_table(elements, [[e, value], [a, e]])
        assert g.mul.tolist() == [[0, 1], [1, 0]] and g.index(value) == position


def test_symmetric_group_tables_accepted():
    for n in (4, 5):
        g = symmetric_group(n)
        labelled = [[g.elements[v] for v in row] for row in g.mul.tolist()]
        # index and label entries mixed in one table
        mixed = [[g.elements[v] if (i + j) % 2 else v for j, v in enumerate(row)]
                 for i, row in enumerate(g.mul.tolist())]
        for table in (labelled, mixed, g.mul.tolist(), g.mul, g.mul.astype(np.uint16)):
            assert np.array_equal(group_from_table(g.elements, table).mul, g.mul)


def test_symmetric_group_matches_composition_by_loops():
    for n in range(6):
        perms = list(itertools.permutations(range(n)))
        pos = {p: i for i, p in enumerate(perms)}
        table = [[pos[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
        g = symmetric_group(n)
        assert g.elements == tuple(perms)
        assert g.mul.tolist() == table


def test_check_subgroup_accepts_and_rejects():
    g = symmetric_group(3)
    sub = check_subgroup(g, [(0, 1, 2), (1, 0, 2)])
    assert len(sub) == 2
    # A3 as indices
    a3 = check_subgroup(g, [g.index(p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]])
    assert len(a3) == 3
    with pytest.raises(NotASubgroup):
        check_subgroup(g, [(1, 0, 2)])  # not closed: square escapes... is identity
    with pytest.raises(NotASubgroup):
        check_subgroup(g, [(0, 1, 2), (1, 0, 2), (0, 2, 1)])  # products escape
    with pytest.raises(ParseError):
        check_subgroup(g, [(9, 9, 9)])


def test_empty_subgroup_and_order_zero_are_refused():
    with pytest.raises(NotASubgroup, match="^subgroup must be nonempty$"):
        check_subgroup(symmetric_group(3), [])
    with pytest.raises(ParseError, match="^order must be positive$"):
        cyclic_group(0)


def test_quotient_scheme_against_brute_force():
    """Double-coset partition recomputed with raw set algebra."""
    g = symmetric_group(3)
    h = [(0, 1, 2), (1, 0, 2)]
    s = scheme_from_group_quotient(g, h)

    elements = list(g.elements)
    hset = set(h)

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    cosets = []
    seen = set()
    for x in elements:
        cs = frozenset(mul(x, hh) for hh in hset)
        if cs not in seen:
            seen.add(cs)
            cosets.append(cs)
    assert s.n_points == len(cosets) == 3

    def double_coset(x):
        return frozenset(mul(mul(h1, x), h2) for h1 in hset for h2 in hset)

    doubles = {double_coset(x) for x in elements}
    assert s.n_classes == len(doubles) == 2

    # align local coset order with the scheme's point labels
    reps = [sorted(c) for c in cosets]
    order = [s.points.index(f"{min(c)}H") for c in cosets]

    # the class of a pair (xH, yH) must be a function of the double coset
    # of x^-1 y: same double coset <=> same class, for every representative
    def pair_class(i, j):
        return s.relation[order[i], order[j]]

    for ci, cj in itertools.product(range(len(cosets)), repeat=2):
        for ck, cl in itertools.product(range(len(cosets)), repeat=2):
            for x, y, u, v in itertools.product(reps[ci], reps[cj], reps[ck], reps[cl]):
                same_dc = double_coset(mul(inv(x), y)) == double_coset(mul(inv(u), v))
                assert same_dc == (pair_class(ci, cj) == pair_class(ck, cl))

    # valency of each class = number of left cosets in its double coset
    for k, _ in enumerate(s.classes):
        ci, cj = next(
            (i, j)
            for i in range(len(cosets))
            for j in range(len(cosets))
            if pair_class(i, j) == k
        )
        dc = double_coset(mul(inv(reps[ci][0]), reps[cj][0]))
        assert s.valencies[k] == len(dc) // len(hset)


def test_gelfand_pair_examples():
    assert is_commutative(catalog_scheme_s3_h())
    assert is_commutative(catalog_scheme_s4_s3())


def catalog_scheme_s3_h():
    g = symmetric_group(3)
    return scheme_from_group_quotient(g, [(0, 1, 2), (1, 0, 2)])


def catalog_scheme_s4_s3():
    g = symmetric_group(4)
    return scheme_from_group_quotient(g, [p for p in g.elements if p[3] == 3])


def test_regular_scheme_of_nonabelian_group_not_commutative():
    g = symmetric_group(3)
    s = scheme_from_group_quotient(g, [g.identity])
    assert s.n_points == 6
    assert s.n_classes == 6
    assert not is_commutative(s)


def test_regular_scheme_of_abelian_group_commutative():
    g = cyclic_group(6)
    s = scheme_from_group_quotient(g, [0])
    assert is_commutative(s)
    assert s.n_classes == 6


@pytest.mark.parametrize(
    "build_group,subgroup",
    [
        (lambda: symmetric_group(3), [(0, 1, 2), (1, 0, 2)]),
        (lambda: symmetric_group(4), "stabilizer"),
        (lambda: cyclic_group(6), [0, 3]),
        (lambda: cyclic_group(4), [0]),
    ],
)
def test_coset_convolution_equals_scheme_convolution(build_group, subgroup):
    """Counting products of coset representatives reproduces the exact
    rational convolution of the quotient scheme."""
    g = build_group()
    if subgroup == "stabilizer":
        subgroup = [p for p in g.elements if p[3] == 3]
    s = scheme_from_group_quotient(g, subgroup)
    h = hypergroup_from_scheme(s)
    d = s.n_classes
    for a in range(d):
        for b in range(d):
            measured = hecke_convolution(g, subgroup, a, b)
            for k in range(d):
                expected = Fraction(h.conv[a, b, k])
                assert measured.get(s.classes[k], Fraction(0)) == expected, (a, b, k)


def test_hecke_weights_are_probabilities():
    g = symmetric_group(4)
    sub = [p for p in g.elements if p[3] == 3]
    out = hecke_convolution(g, sub, 1, 1)
    assert sum(out.values()) == 1
    assert all(v >= 0 for v in out.values())


def _latin_witness(table):
    """The first k whose row or column is not a permutation, by brute force."""
    t = np.array(table)
    n = len(t)
    return next(k for k in range(n)
                if sorted(t[k]) != list(range(n)) or sorted(t[:, k]) != list(range(n)))


@pytest.mark.parametrize("swap, witness", [
    (((2, 0), (3, 0)), 2),  # within column 0: rows 2 and 3 break, every column stays a permutation
    (((0, 1), (0, 2)), 1),  # within row 0: columns 1 and 2 break, every row stays a permutation
])
def test_latin_witness_of_a_row_or_a_column_failure(swap, witness):
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    (i, j), (k, l) = swap
    table[i][j], table[k][l] = table[k][l], table[i][j]
    assert _latin_witness(table) == witness
    with pytest.raises(InvalidCayleyTable, match="not a latin square") as info:
        group_from_table(range(4), table)
    assert info.value.witness == witness


def _first_subgroup_failure(g, labels):
    """For each a in index order: its inverse, then a * b for each b."""
    idx = sorted({g.index(x) for x in labels})
    for a in idx:
        if g.inverse[a] not in idx:
            return f"inverse of {g.elements[a]!r} is missing", None
        for b in idx:
            if g.mul[a, b] not in idx:
                return f"product of {g.elements[a]!r} and {g.elements[b]!r} escapes", (a, b)
    return None


@pytest.mark.parametrize("subset, message, witness", [
    ([0, 4, 8, 6], "product of 4 and 6 escapes", (4, 6)),  # every inverse present
    ([0, 2, 10, 5], "product of 2 and 2 escapes", (2, 2)),  # before the missing inverse of 5
    ([0, 1], "inverse of 1 is missing", None),  # row 1 also has 1 + 1 escaping
])
def test_check_subgroup_names_the_first_failure(subset, message, witness):
    g = cyclic_group(12)
    assert _first_subgroup_failure(g, subset) == (message, witness)
    with pytest.raises(NotASubgroup) as info:
        check_subgroup(g, subset)
    assert str(info.value) == message
    assert info.value.witness == witness


def _compose(p, q):
    return tuple(p[i] for i in q)


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _dihedral_6():
    """The 12 symmetries of a hexagon as vertex permutations, sorted."""
    rotation, reflection = (1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)
    elements = {tuple(range(6))}
    while True:
        grown = elements | {_compose(p, g) for p in elements for g in (rotation, reflection)}
        if grown == elements:
            return sorted(elements)
        elements = grown


def _stabilizer_case(n):
    """S_n and the stabilizer of its last point, S_{n-1}."""
    elements = sorted(itertools.permutations(range(n)))
    return elements, [p for p in elements if p[-1] == n - 1]


@pytest.mark.parametrize("elements, subgroup", [
    _stabilizer_case(4),
    _stabilizer_case(5),
    (_dihedral_6(), [tuple(range(6)), (0, 5, 4, 3, 2, 1)]),  # a reflection: not normal
], ids=["S4/S3", "S5/S4", "D6/reflection"])
def test_quotient_relation_is_the_double_coset_of_x_inverse_y(elements, subgroup):
    """Every pair (xH, yH) lies in the class of H x^-1 y H, recomputed by set algebra."""
    g = group_from_table(elements, [[_compose(p, q) for q in elements] for p in elements])
    s = scheme_from_group_quotient(g, subgroup)
    pos = {p: i for i, p in enumerate(elements)}

    def first(members):
        return elements[min(pos[x] for x in members)]

    reps = sorted({first({_compose(x, h) for h in subgroup}) for x in elements}, key=pos.get)
    assert s.points == tuple(f"{x}H" for x in reps)
    for x, y in itertools.product(reps, repeat=2):
        z = _compose(_inverse(x), y)
        dc = {_compose(_compose(h1, z), h2) for h1 in subgroup for h2 in subgroup}
        found = s.classes[s.relation[s.points.index(f"{x}H"), s.points.index(f"{y}H")]]
        assert found == f"H{first(dc)}H", (x, y)


def _recounted(g, subgroup):
    """build_scheme over the labels of the double cosets H x^-1 y H, found by set
    algebra on the table, with every count row checked."""
    sub = [g.index(h) for h in subgroup]
    reps = sorted({min(g.mul[x, h] for h in sub) for x in range(g.order)})
    points = [f"{g.elements[x]}H" for x in reps]
    first = {}  # (xH, yH) -> the minimal member of H x^-1 y H
    for (x, px), (y, py) in itertools.product(zip(reps, points), repeat=2):
        z = g.mul[g.inverse[x], y]
        first[px, py] = min(g.mul[g.mul[h1, z], h2] for h1 in sub for h2 in sub)
    classes = {m: f"H{g.elements[m]}H" for m in sorted(set(first.values()))}
    return build_scheme(points, list(classes.values()),
                        {pair: classes[m] for pair, m in first.items()})


@pytest.mark.parametrize("build_group, subgroup", [
    (lambda: symmetric_group(3), [(0, 1, 2), (1, 0, 2)]),
    (lambda: symmetric_group(4), _stabilizer_case(4)[1]),
    (lambda: symmetric_group(5), _stabilizer_case(5)[1]),
    (lambda: group_from_table(_dihedral_6(), [[_compose(p, q) for q in _dihedral_6()]
                                              for p in _dihedral_6()]),
     [tuple(range(6)), (0, 5, 4, 3, 2, 1)]),
    (lambda: symmetric_group(3), [(0, 1, 2)]),
    *((lambda n=n: cyclic_group(n), [0]) for n in range(1, 25)),
    (lambda: cyclic_group(4), [0, 2]),
], ids=["S3/H", "S4/S3", "S5/S4", "D6/reflection", "S3",
        *(f"Z{n}" for n in range(1, 25)), "Z4/{0,2}"])
def test_quotient_equals_the_full_recount(build_group, subgroup):
    """The quotient, built with no count checked, is the scheme that build_scheme
    verifies row by row from the same labels."""
    g = build_group()
    s, ref = scheme_from_group_quotient(g, subgroup), _recounted(g, subgroup)
    assert (s.points, s.classes, s.identity) == (ref.points, ref.classes, ref.identity)
    for name in ("relation", "p", "valencies", "involution"):
        np.testing.assert_array_equal(getattr(s, name), getattr(ref, name), err_msg=name)


def _product_table(a, b):
    """Z_a x Z_b, (x, y) numbered x b + y."""
    x, y = np.divmod(np.arange(a * b), b)
    return (np.add.outer(x, x) % a) * b + np.add.outer(y, y) % b


BASE_TABLES = [np.add.outer(np.arange(n), np.arange(n)) % n for n in range(1, 13)] + [
    _product_table(2, 2), _product_table(2, 4), _product_table(3, 3), _product_table(2, 6),
    np.array(symmetric_group(3).mul), np.array(symmetric_group(4).mul),
    # loops that are no group: in the first 2 * 3 = 0 but 3 * 2 = 1, the second has
    # two-sided inverses and is not associative
    np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]),
    np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1], [3, 2, 5, 4, 1, 0],
              [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]),
]


@st.composite
def cayley_cases(draw):
    """(elements, labelled table, index table): a relabelled group table, the same with
    one entry moved or two rows swapped, a random isotope of it (a quasigroup), that
    isotope normalized (a loop), a table with an identity and inverses drawn at random
    elsewhere (rarely latin), or an associative one with an identity and no inverses."""
    t = draw(st.sampled_from(BASE_TABLES))
    n = len(t)
    perm = np.array(draw(st.permutations(range(n))))
    t = np.argsort(perm)[t[np.ix_(perm, perm)]]
    kinds = ["group", "moved", "swapped", "quasigroup", "loop", "unit", "monoid"]
    kind = draw(st.sampled_from(kinds))
    if kind == "moved" and n > 1:
        i, j, shift = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(
            st.integers(1, n - 1))
        t[i, j] = (t[i, j] + shift) % n
    elif kind == "swapped" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        t[[i, j]] = t[[j, i]]
    elif kind in ("quasigroup", "loop"):
        # switch an intercalate (a b / b a in rows r, s), if the rows hold one, then take
        # an isotope: away from the group's isotopy class, whose loops are groups
        r = draw(st.integers(0, n - 1))
        cols = np.argsort(t[r])[t]  # cols[s, c]: the column of row r holding t[s, c]
        hits = np.argwhere((np.take_along_axis(t, cols, 1) == t[r]) & (cols != np.arange(n)))
        if hits.size:
            s, c = hits[draw(st.integers(0, len(hits) - 1))]
            rows, at = [r, r, s, s], [c, cols[s, c], c, cols[s, c]]
            t[rows, at] = t[rows[::-1], at]
        a, b, c = (np.array(draw(st.permutations(range(n)))) for _ in range(3))
        t = c[t[np.ix_(a, b)]]
        if kind == "loop":  # row 0 and column 0 in order: 0 is the identity
            t = t[:, np.argsort(t[0])]
            t = t[np.argsort(t[:, 0])]
    elif kind == "monoid":  # x y = max(x, y): associative, with identity 0, no inverses
        t = np.argsort(perm)[np.maximum.outer(perm, perm)]
    elif kind == "unit":
        t = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
        t = t.reshape(n, n)
        t[0], t[:, 0] = np.arange(n), np.arange(n)
        pairs = np.array(draw(st.permutations(range(1, n))), dtype=np.int64)
        inv = np.arange(n)
        inv[pairs[0:-1:2]], inv[pairs[1::2]] = pairs[1::2], pairs[0:-1:2]
        t[np.arange(n), inv] = 0
    if draw(st.booleans()):
        names = [f"g{v}" for v in draw(st.permutations(range(n)))]
    else:  # integer labels that are not their indices: a label wins
        names = draw(st.permutations(range(n)))
    return names, [[names[v] for v in row] for row in t.tolist()], t


def _outcome(build):
    try:
        mul, e, inverse = build()
    except InvalidCayleyTable as exc:
        return str(exc), exc.witness
    return np.asarray(mul).tolist(), e, np.asarray(inverse).tolist()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(cayley_cases())
def test_checks_match_the_oracle(case):
    """The same group, or the same first failure and witness, as every check run in
    order: latin square, identity, inverses, associativity."""
    elements, table, index_table = case

    def build():
        g = group_from_table(elements, table)
        return g.mul, g.identity, g.inverse

    assert _outcome(build) == _outcome(lambda: oracle_group(tuple(elements), index_table))


def test_a_group_table_never_runs_the_latin_scan(monkeypatch):
    def scan(mul):
        raise AssertionError("the latin scan ran on a group table")

    monkeypatch.setattr(groups, "_latin", scan)
    for g in (cyclic_group(1), cyclic_group(12), symmetric_group(4), symmetric_group(5)):
        names = [str(x) for x in g.elements]
        table = [[names[v] for v in row] for row in g.mul.tolist()]
        assert np.array_equal(group_from_table(names, table).mul, g.mul)
        assert np.array_equal(group_from_table(g.elements, g.mul).mul, g.mul)


def test_generator_search_stops_on_a_degenerate_table(monkeypatch):
    """x y = e for all non-identity x, y: identity and inverses hold, and each greedy
    generator reaches one more element; the search stops at floor(log2 720) + 1 = 10."""
    n = 720
    t = np.zeros((n, n), dtype=np.int64)
    t[0], t[:, 0] = np.arange(n), np.arange(n)
    found = []
    search = groups._generators
    monkeypatch.setattr(groups, "_generators", lambda mul, e: found.append(search(mul, e))
                        or found[-1])
    with pytest.raises(InvalidCayleyTable, match="^table is not a latin square$") as info:
        group_from_table(range(n), t)
    assert info.value.witness == 1
    assert len(found) == 1 and len(found[0]) == 10 == n.bit_length()
    assert _outcome(lambda: oracle_group(tuple(range(n)), t)) == (str(info.value), 1)

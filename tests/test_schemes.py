"""Scheme construction, intersection-count verification, and the identity audit."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergroups import catalog, schemes
from hypergroups.errors import (
    EmptyClass,
    InconsistentIntersection,
    NoIdentityClass,
    NoInvolution,
    NotBijective,
    NotDistanceRegular,
    ParseError,
    SchemeError,
)
from hypergroups.schemes import (
    audit_intersection_identities,
    build_scheme,
    check_automorphism,
    is_commutative,
    is_symmetric,
    is_unimodular,
    scheme_from_distance_regular_graph,
)
from hypergroups.hypergroup import hypergroup_from_scheme


def brute_force_tensor(scheme):
    """Triple counts recomputed with plain loops, as an independent oracle."""
    n, d = scheme.n_points, scheme.n_classes
    rel = scheme.relation
    p = np.zeros((d, d, d), dtype=np.int64)
    seen = np.zeros((d, d, d), dtype=bool)
    for x in range(n):
        for y in range(n):
            k = rel[x, y]
            for i in range(d):
                for j in range(d):
                    count = sum(1 for z in range(n) if rel[x, z] == i and rel[z, y] == j)
                    if seen[i, j, k]:
                        assert p[i, j, k] == count, (i, j, k, x, y)
                    else:
                        p[i, j, k] = count
                        seen[i, j, k] = True
    return p


@pytest.mark.parametrize("name", ["pentagon", "k4", "z4", "s3_mod_h"])
def test_tensor_matches_brute_force(name, request):
    s = request.getfixturevalue(name)
    assert np.array_equal(s.p, brute_force_tensor(s))


def test_pentagon_fixture_values(pentagon):
    assert pentagon.n_points == 5
    assert list(pentagon.valencies) == [1, 2, 2]
    assert pentagon.identity == 0
    assert list(pentagon.involution) == [0, 1, 2]
    # walking one step from both ends of a distance-1 pair meets both
    # remaining vertices: two common routes via class patterns
    assert pentagon.p[1, 1, 0] == 2
    assert pentagon.p[1, 1, 1] == 0
    assert pentagon.p[1, 1, 2] == 1


def test_cyclic_scheme_is_group_table(z5):
    # classes compose like the group: p[i, j, k] = 1 iff i + j = k mod 5
    d = z5.n_classes
    for i in range(d):
        for j in range(d):
            expected = np.zeros(d, dtype=np.int64)
            expected[(i + j) % 5] = 1
            assert list(z5.p[i, j]) == list(expected)
    assert list(z5.involution) == [0, 4, 3, 2, 1]
    assert is_commutative(z5) and not is_symmetric(z5)


def test_petersen_parameters(petersen):
    assert list(petersen.valencies) == [1, 3, 6]
    # strongly regular (10, 3, 0, 1): adjacent pairs share no neighbors,
    # non-adjacent pairs share exactly one
    assert petersen.p[1, 1, 1] == 0
    assert petersen.p[1, 1, 2] == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_schemes_audit(n):
    s = catalog.cyclic_scheme(n)
    report = audit_intersection_identities(s)
    assert report["all_hold"], report


@pytest.mark.parametrize(
    "name",
    ["pentagon", "k4", "petersen", "z4", "z5", "s3_mod_h", "s4_mod_s3", "s3_regular"],
)
def test_audit_identities(name, request):
    s = request.getfixturevalue(name)
    report = audit_intersection_identities(s)
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v.get("holds", True)]
    assert report["all_hold"], failed


def test_audit_associativity_witness_over_blocks(monkeypatch):
    # d = 48 needs several blocks of i at the default budget and one i per
    # block at a budget of d^3; the witness must be the first failing
    # (i, j, k, m) of the full d^4 comparison either way
    s = catalog.cyclic_scheme(48)
    default = schemes.BLOCK
    assert 2 * 48**4 > default
    for i, j, k in ((40, 3, 5), (0, 47, 1)):
        p = s.p.copy()
        p[i, j, k] += 1
        fake = schemes.Scheme(s.points, s.classes, s.relation, s.identity,
                              s.involution, p, s.valencies)
        pf = p.astype(np.float64)
        full = (np.einsum("ijl,lkm->ijkm", pf, pf, optimize=True)
                == np.einsum("jkl,ilm->ijkm", pf, pf, optimize=True))
        want = tuple(map(int, np.argwhere(~full)[0]))
        for block in (default, 48**3):
            monkeypatch.setattr(schemes, "BLOCK", block)
            assert audit_intersection_identities(fake)["associativity"] == {
                "holds": False, "witness": want,
            }


def test_audit_names_cover_the_seven_identities(pentagon):
    report = audit_intersection_identities(pentagon)
    for key in (
        "identity_left",
        "identity_right",
        "pair_count",
        "transpose_symmetry",
        "row_sum",
        "valency_exchange_left",
        "valency_exchange_right",
        "weighted_sum",
        "associativity",
        "support_modularity",
    ):
        assert key in report, key
        assert report[key]["holds"]


def test_symmetric_implies_commutative(pentagon, petersen, k4):
    for s in (pentagon, petersen, k4):
        assert is_symmetric(s)
        assert is_commutative(s)


def test_noncommutative_group_scheme(s3_regular):
    assert not is_commutative(s3_regular)
    assert not is_symmetric(s3_regular)
    # yet all counting identities still hold
    assert audit_intersection_identities(s3_regular)["all_hold"]


@pytest.mark.parametrize(
    "name", ["pentagon", "z4", "z5", "s3_mod_h", "s4_mod_s3", "s3_regular"]
)
def test_unimodularity_and_modular_function(name, request):
    """The modular function of a scheme hypergroup is valency(i) / valency(ibar) = 1."""
    s = request.getfixturevalue(name)
    assert is_unimodular(s)
    h = hypergroup_from_scheme(s)
    assert np.array_equal(h.haar / h.haar[h.involution], np.ones(s.n_classes))


# ---------------------------------------------------------------------------
# construction error paths


def test_duplicate_points_rejected():
    with pytest.raises(ParseError):
        build_scheme([0, 0, 1], [0], lambda x, y: 0)


def test_empty_class_rejected():
    rel = {(x, y): (0 if x == y else 1) for x in range(3) for y in range(3)}
    with pytest.raises(EmptyClass):
        build_scheme(list(range(3)), [0, 1, 2], rel)


def test_identity_must_be_the_diagonal():
    # class 0 contains the diagonal plus one off-diagonal pair
    rel = {(x, y): (0 if x == y else 1) for x in range(3) for y in range(3)}
    rel[(0, 1)] = 0
    with pytest.raises(NoIdentityClass):
        build_scheme(list(range(3)), [0, 1], rel)


def test_identity_must_be_one_class_on_the_diagonal():
    # the diagonal is split between two classes: 'a' at the first point, 'c' at the second
    rel = [["a", "b"], ["b", "c"]]
    with pytest.raises(NoIdentityClass, match="split between classes 'a' and 'c'") as info:
        build_scheme(["x", "y"], ["a", "b", "c"], rel)
    assert info.value.witness == (0, 1)


def test_transpose_must_be_a_class():
    # differences {1, 2} vs {3} on Z4: the transpose of {1, 2} is {3, 2}
    rel = {}
    for x in range(4):
        for y in range(4):
            diff = (y - x) % 4
            rel[(x, y)] = 0 if diff == 0 else (1 if diff in (1, 2) else 2)
    with pytest.raises(NoInvolution):
        build_scheme(list(range(4)), [0, 1, 2], rel)


def test_inconsistent_counts_detected(pentagon):
    # symmetric corruption keeps the involution intact but breaks constancy
    rel = {}
    for x in range(5):
        for y in range(5):
            rel[(x, y)] = int(pentagon.relation[x, y])
    rel[(0, 2)] = 1
    rel[(2, 0)] = 1
    with pytest.raises(InconsistentIntersection) as err:
        build_scheme(list(range(5)), [0, 1, 2], rel)
    assert str(err.value) == (
        "count for classes (1, 1) over a 1-pair is 0 at (0, 4) but 1 at the "
        "representative pair"
    )
    assert err.value.witness == {
        "i": 1, "j": 1, "k": 1, "pair": (0, 4), "count": 0, "reference_count": 1,
    }


def reference_first_failure(rel):
    """First (i, j), then first pair in C order, whose count differs from the
    count at the first pair of its class: the plain d^2 matrix-product scan."""
    d = int(rel.max()) + 1
    adj = [(rel == i).astype(np.float64) for i in range(d)]
    reps = [tuple(np.argwhere(rel == k)[0]) for k in range(d)]
    for i in range(d):
        for j in range(d):
            prod = adj[i] @ adj[j]
            row = np.array([prod[r] for r in reps])
            bad = np.argwhere(prod != row[rel])
            if len(bad):
                a, b = map(int, bad[0])
                k = int(rel[a, b])
                return {"i": i, "j": j, "k": k, "pair": (a, b),
                        "count": int(prod[a, b]), "reference_count": int(row[k])}
    return None


def test_blocked_count_check_matches_the_full_scan():
    # complete tripartite graph K_{400,400,400} with one edge moved: two
    # n x n arrays hold more than schemes.BLOCK / 2 entries, so the check
    # runs one class j per block
    n = 1200
    part = np.arange(n) // 400
    rel = np.where(part[:, None] == part[None, :], 2, 1)
    np.fill_diagonal(rel, 0)
    assert 4 * n * n > schemes.BLOCK
    rel[0, 1] = rel[1, 0] = 1
    rel[0, 600] = rel[600, 0] = 2
    with pytest.raises(InconsistentIntersection) as err:
        build_scheme(range(n), [0, 1, 2], rel)
    assert err.value.witness == reference_first_failure(rel)
    assert err.value.witness["j"] > 0  # not in the first block


def test_blocked_count_check_on_small_blocks(monkeypatch):
    # one class j per block on small schemes, many corruptions
    rng = np.random.default_rng(5)
    for s in (catalog.petersen_scheme(), catalog.cyclic_scheme(12), catalog.s3_regular()):
        n = s.n_points
        monkeypatch.setattr(schemes, "BLOCK", n * n)
        for _ in range(20):
            rel = s.relation.copy()
            x, y = rng.choice(n, 2, replace=False)
            c = int(rng.integers(1, s.n_classes))
            rel[x, y], rel[y, x] = c, s.involution[c]
            want = reference_first_failure(rel)
            if want is None or len(np.unique(rel)) < s.n_classes:
                continue
            with pytest.raises(InconsistentIntersection) as err:
                build_scheme(range(n), range(s.n_classes), rel)
            assert err.value.witness == want


def test_relation_table_as_array_and_unknown_labels():
    table = [[(y - x) % 3 for y in range(3)] for x in range(3)]
    s = build_scheme(range(3), [0, 1, 2], table)
    s_arr = build_scheme(range(3), [0, 1, 2], np.array(table))
    assert np.array_equal(s.relation, s_arr.relation) and np.array_equal(s.p, s_arr.p)
    strs = [["abc"[v] for v in row] for row in table]
    assert np.array_equal(build_scheme(range(3), "abc", strs).p, s.p)
    table[1][2] = 7
    with pytest.raises(ParseError, match=r"^pair \(1, 2\) maps to unknown class 7$"):
        build_scheme(range(3), [0, 1, 2], table)
    strs[2][0] = "z"
    with pytest.raises(ParseError, match=r"^pair \(2, 0\) maps to unknown class 'z'$"):
        build_scheme(range(3), "abc", strs)


@pytest.mark.parametrize("points, classes, relation, message", [
    ([], [0], [], "empty point set"),
    (range(2), [], [[0, 0], [0, 0]], "empty class list"),
    (range(2), [0, 1], [[0, 1], [1]], "relation table is not |X| x |X|"),
    (range(2), [0, 1], [[0, 1]], "relation table is not |X| x |X|"),
    (range(2), [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1}, "relation undefined for pair (1, 1)"),
], ids=["no-points", "no-classes", "ragged", "short", "mapping-lacks-a-pair"])
def test_relation_data_that_gives_no_table_is_a_parse_error(points, classes, relation, message):
    with pytest.raises(ParseError) as err:
        build_scheme(points, classes, relation)
    assert str(err.value) == message


def test_asserted_involution_of_an_unknown_class_is_a_parse_error():
    table = [[(y - x) % 3 for y in range(3)] for x in range(3)]
    with pytest.raises(ParseError, match="^unknown class 7$"):
        build_scheme(range(3), [0, 1, 2], table, involution=[(0, 0), (7, 1)])


def test_asserted_identity_and_involution_checked(z4):
    rel = {(x, y): (y - x) % 4 for x in range(4) for y in range(4)}
    s = build_scheme(list(range(4)), [0, 1, 2, 3], rel,
                     identity=0, involution={0: 0, 1: 3, 2: 2, 3: 1})
    assert list(s.involution) == [0, 3, 2, 1]
    with pytest.raises(NoIdentityClass):
        build_scheme(list(range(4)), [0, 1, 2, 3], rel, identity=1)
    with pytest.raises(NoInvolution):
        build_scheme(list(range(4)), [0, 1, 2, 3], rel,
                     involution={0: 0, 1: 1, 2: 2, 3: 3})


def test_relation_callable_and_nested_list_agree():
    rel_list = [[(y - x) % 3 for y in range(3)] for x in range(3)]
    s1 = build_scheme(list(range(3)), [0, 1, 2], rel_list)
    s2 = build_scheme(list(range(3)), [0, 1, 2], lambda x, y: (y - x) % 3)
    assert np.array_equal(s1.relation, s2.relation)
    assert np.array_equal(s1.p, s2.p)


# ---------------------------------------------------------------------------
# distance-regular graphs


def test_drg_pentagon_matches_catalog(pentagon):
    s = scheme_from_distance_regular_graph(catalog.cycle_graph(5))
    assert np.array_equal(s.p, pentagon.p)


def test_drg_rejects_path():
    with pytest.raises(NotDistanceRegular):
        scheme_from_distance_regular_graph(catalog.path_graph(4))


def test_drg_rejects_disconnected():
    adj = np.zeros((4, 4), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(NotDistanceRegular):
        scheme_from_distance_regular_graph(adj)


def test_drg_rejects_irregular_but_connected():
    # K4 minus one edge is connected yet not distance-regular
    adj = catalog.complete_graph(4)
    adj[0, 1] = adj[1, 0] = 0
    with pytest.raises(NotDistanceRegular):
        scheme_from_distance_regular_graph(adj)


def test_drg_switched_hamming_witness(monkeypatch):
    # H(4,2) with edges {0, 1}, {2, 3} switched to {0, 3}, {2, 1}: the count of
    # level 1 fails, and the search stops there, after two n x n products
    v = np.arange(16)
    adj = (np.bitwise_count(v[:, None] ^ v[None, :]) == 1).astype(np.int64)
    adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = 0
    adj[0, 3] = adj[3, 0] = adj[2, 1] = adj[1, 2] = 1
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b):
            products.append((a.shape, b.shape))
            return np.matmul(a, b)

    monkeypatch.setattr(schemes, "np", CountingNumpy())
    with pytest.raises(NotDistanceRegular) as err:
        scheme_from_distance_regular_graph(adj)
    assert str(err.value) == (
        "distance counts are not constant: count for classes (1, 1) over a "
        "2-pair is 1 at (0, 5) but 2 at the representative pair"
    )
    assert err.value.witness == {
        "i": 1, "j": 1, "k": 2, "pair": (0, 5), "count": 1, "reference_count": 2,
    }
    assert products == [((16, 16), (16, 16))] * 2
    # beside a disjoint edge, the failing count gives way to the first unreached pair
    split = np.zeros((18, 18), dtype=np.int64)
    split[:16, :16] = adj
    split[16, 17] = split[17, 16] = 1
    with pytest.raises(NotDistanceRegular) as err:
        scheme_from_distance_regular_graph(split)
    assert str(err.value) == "graph is not connected"
    assert err.value.witness == (0, 16)


def test_drg_rejection_does_not_pin_scratch_arrays():
    # a kept exception holds its frames; they may hold the n x n integer
    # relation, but not the BFS's float matrices or the count check's blocks
    v = np.arange(64)
    adj = (np.bitwise_count(v[:, None] ^ v[None, :]) == 1).astype(np.int64)
    adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = 0
    adj[0, 3] = adj[3, 0] = adj[2, 1] = adj[1, 2] = 1
    with pytest.raises(NotDistanceRegular) as err:
        scheme_from_distance_regular_graph(adj)
    arrays = []
    for exc in (err.value, err.value.__cause__):
        tb = exc.__traceback__
        while tb is not None:
            arrays += [a for a in tb.tb_frame.f_locals.values() if isinstance(a, np.ndarray)]
            tb = tb.tb_next
    large = [a for a in arrays if a.size >= 64 * 64]
    assert large and all(a.size == 64 * 64 and a.dtype.kind == "i" for a in large)


def test_drg_input_validation():
    bad = catalog.cycle_graph(4)
    bad[0, 1] = 2
    malformed = {
        "loops": np.ones((3, 3), dtype=np.int64), "entry 2": bad,
        "not square": catalog.cycle_graph(5)[:4], "scalar": np.int64(1), "vector": [0, 1],
        "empty": np.zeros((0, 0)), "cube": np.zeros((2, 2, 2)), "ragged": [[0, 1], [1]],
        "digit strings": [["0", "1"], ["1", "0"]], "strings": [["a", "b"], ["b", "a"]],
        "fractional": [[0, 1.5], [1.5, 0]], "nan": [[0, np.nan], [np.nan, 0]],
        "complex": [[0, 1j], [1j, 0]], "object": np.array([[0, 1], [1, None]]),
    }
    for name, adjacency in malformed.items():
        try:
            scheme_from_distance_regular_graph(adjacency)
        except ParseError:
            continue
        pytest.fail(f"{name} adjacency accepted")


def test_drg_accepts_bool_and_float_adjacency(petersen):
    adj = catalog.petersen_graph()
    for given_as in (adj.astype(bool), adj.astype(float), adj.tolist()):
        assert np.array_equal(scheme_from_distance_regular_graph(given_as).p, petersen.p)
    assert scheme_from_distance_regular_graph([[0]]).p.tolist() == [[[1]]]


def hamming_graph(D, q):
    words = np.array(list(itertools.product(range(q), repeat=D))).reshape(-1, D)
    return ((words[:, None, :] != words[None, :, :]).sum(axis=2) == 1).astype(np.int64)


def hamming_intersection_numbers(D, q):
    """p[i, j, k] of H(D, q) in closed form.  For x, y at distance k, a word z
    agrees with x at a and with y at b of the k places where they differ,
    with neither at the c others, and differs from both at t of the D - k
    places where they agree; then d(x, z) = b + c + t and d(z, y) = a + c + t."""
    p = np.zeros((D + 1,) * 3, dtype=np.int64)
    for k in range(D + 1):
        for a in range(k + 1):
            for b in range(k + 1 - a):
                c = k - a - b
                for t in range(D - k + 1):
                    p[b + c + t, a + c + t, k] += (comb(k, a) * comb(k - a, b) * (q - 2) ** c
                                                   * comb(D - k, t) * (q - 1) ** t)
    return p


@pytest.mark.parametrize("D, q", [(3, 3), (2, 4), (4, 2)])
def test_hamming_closed_form_on_small_graphs(D, q):
    s = scheme_from_distance_regular_graph(hamming_graph(D, q))
    assert np.array_equal(s.p, hamming_intersection_numbers(D, q))
    assert np.array_equal(s.p, brute_force_tensor(s))


def test_drg_hamming_10_2_matches_closed_form():
    v = np.arange(2**10)
    distance = np.bitwise_count(v[:, None] ^ v[None, :])
    s = scheme_from_distance_regular_graph(distance == 1)
    assert s.classes == tuple(range(11))
    assert np.array_equal(s.relation, distance)
    assert np.array_equal(s.p, hamming_intersection_numbers(10, 2))


def test_drg_counts_come_from_the_search_products(monkeypatch):
    # H(6, 2) has diameter 6: seven n x n products, one per search level,
    # and no row left for the count check after the search
    adj = hamming_graph(6, 2)
    n = len(adj)
    products, rows = [], []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b):
            products.append((a.shape, b.shape))
            return np.matmul(a, b)

    bad_count = schemes._bad_count

    def spy(points, classes, rel, p, rows_asked):
        rows.append(list(rows_asked))
        return bad_count(points, classes, rel, p, rows_asked)

    monkeypatch.setattr(schemes, "np", CountingNumpy())
    monkeypatch.setattr(schemes, "_bad_count", spy)
    s = scheme_from_distance_regular_graph(adj)
    assert np.array_equal(s.p, hamming_intersection_numbers(6, 2))
    assert products == [((n, n), (n, n))] * 7
    assert rows == [[]]


def full_scan_bad_count(points, classes, rel, p, rows=None):
    """The count check over every row i, whatever ``rows`` asks for: the
    oracle for skipping the identity row and for the adjacency row alone."""
    n, d = rel.shape[0], len(classes)
    step = max(1, schemes.BLOCK // (2 * n * n))
    onehot = None
    for i in range(d):
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


def bfs_distances(A):
    """Distances of a 0/1 adjacency matrix, -1 where unreachable, by a
    breadth-first search that checks no counts."""
    edges = np.asarray(A, dtype=np.float64)
    n = len(edges)
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier, r = np.eye(n), 0
    while frontier.any():
        r += 1
        reached = (frontier @ edges > 0) & (dist < 0)
        dist[reached] = r
        frontier = reached.astype(np.float64)
    return dist


def full_scan_drg(adjacency):
    """The distance-regular route with the counts checked after the search,
    by ``_bad_count``: the oracle for the check done inside the search."""
    n = len(adjacency)
    dist = bfs_distances(adjacency)
    if (dist < 0).any():
        a, b = map(int, np.argwhere(dist < 0)[0])
        raise NotDistanceRegular("graph is not connected", witness=(a, b))
    try:
        return schemes._verified_scheme(tuple(range(n)), tuple(range(int(dist.max()) + 1)),
                                        dist, range(int(dist.max()) + 1))
    except InconsistentIntersection as exc:
        raise NotDistanceRegular(
            f"distance counts are not constant: {exc}", witness=exc.witness
        ) from exc


def outcome(build, *args, full_scan=False):
    """The scheme's tensor, or the exception's type, message, witness and
    cause type."""
    with pytest.MonkeyPatch.context() as mp:
        if full_scan:
            mp.setattr(schemes, "_bad_count", full_scan_bad_count)
        try:
            s = build(*args)
        except SchemeError as exc:
            return type(exc), str(exc), exc.witness, type(exc.__cause__)
    return s.classes, s.identity, s.relation.tolist(), s.p.tolist()


DRGS = [catalog.cycle_graph(n) for n in (3, 4, 5, 6, 7)] + [
    catalog.complete_graph(5), catalog.petersen_graph(), hamming_graph(3, 2),
    hamming_graph(4, 2), hamming_graph(2, 3), 1 - np.kron(np.eye(4, dtype=np.int64),
                                                          np.ones((2, 2), dtype=np.int64)),
]


def generalized_petersen(n, k):
    adj = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        for a, b in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n)):
            adj[a, b] = adj[b, a] = 1
    return adj


# cubic graphs of girth at least 5 have constant counts k, lambda = 0 and
# mu = 1, so unless distance-regular they first fail past j = 1: j = 2 for
# the first three (GP(8, 3) is the Moebius-Kantor graph), j = 3 for GP(13, 5)
CUBIC = [generalized_petersen(n, k) for n, k in ((7, 2), (8, 3), (12, 5), (13, 5))]


@st.composite
def graphs(draw):
    """Random graphs, and relabelled or edge-switched distance-regular ones or
    cubic ones that are not."""
    kind = draw(st.sampled_from(["random", "relabelled", "switched"]))
    if kind == "random":
        n = draw(st.integers(1, 9))
        adj = np.zeros((n, n), dtype=np.int64)
        upper = np.triu_indices(n, 1)
        adj[upper] = draw(st.lists(st.booleans(), min_size=len(upper[0]),
                                   max_size=len(upper[0])))
        return adj + adj.T
    base = draw(st.sampled_from(DRGS + CUBIC))
    perm = draw(st.permutations(range(len(base))))
    adj = base[np.ix_(perm, perm)]
    if kind == "switched":
        # degree-preserving switch {a, b}, {c, e} -> {a, e}, {c, b}
        edges = np.argwhere(np.triu(adj))
        (a, b), (c, e) = edges[draw(st.lists(st.integers(0, len(edges) - 1), min_size=2,
                                             max_size=2))]
        if len({a, b, c, e}) == 4 and not adj[a, e] and not adj[c, b]:
            adj[a, b] = adj[b, a] = adj[c, e] = adj[e, c] = 0
            adj[a, e] = adj[e, a] = adj[c, b] = adj[b, c] = 1
    return adj


# a path on three vertices beside a disjoint edge: the larger component is not
# distance-regular, and "not connected" must still be the error
PATH_AND_EDGE = np.zeros((5, 5), dtype=np.int64)
PATH_AND_EDGE[[0, 1, 1, 2, 3, 4], [1, 0, 2, 1, 4, 3]] = 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs(), st.data())
@example(PATH_AND_EDGE, None)
@example(np.zeros((1, 1), dtype=np.int64), None)  # a single vertex
def test_row_shortcuts_match_the_full_scan(adj, data):
    """The adjacency row checked inside the breadth-first search decides a
    distance partition, and skipping the identity row decides any relation:
    same tensor, or same exception, message, witness and cause, as the count
    check over every row."""
    want = outcome(full_scan_drg, adj, full_scan=True)
    assert outcome(scheme_from_distance_regular_graph, adj) == want
    dist = bfs_distances(adj)
    if (dist < 0).any():
        return
    # the distances as an explicit relation, classes in a random order
    order = list(range(int(dist.max()) + 1))
    if data is not None:  # the named examples keep the natural order
        order = data.draw(st.permutations(order))
    args = (range(len(adj)), order, dist)
    assert outcome(build_scheme, *args) == outcome(build_scheme, *args, full_scan=True)


# ---------------------------------------------------------------------------
# automorphisms


def test_rotation_is_automorphism(pentagon):
    rotate = {x: (x + 1) % 5 for x in range(5)}
    identity_classes = {c: c for c in pentagon.classes}
    assert check_automorphism(pentagon, rotate, identity_classes)


def test_callable_maps_are_applied_to_each_label(pentagon):
    """x -> 2x mod 5 sends neighbours to distance 2, so it swaps classes 1 and 2."""
    assert check_automorphism(pentagon, lambda x: 2 * x % 5, lambda c: (0, 2, 1)[c])
    assert not check_automorphism(pentagon, lambda x: 2 * x % 5, lambda c: c)


def test_broken_map_is_not_automorphism(petersen):
    swap = {x: x for x in range(10)}
    swap[0], swap[1] = 1, 0  # transposing adjacent outer vertices breaks edges
    identity_classes = {c: c for c in petersen.classes}
    assert not check_automorphism(petersen, swap, identity_classes)


@pytest.mark.parametrize("point_map, class_map, message", [
    ({0: 0}, range(3), "point map misses label 1"),
    ([0, 1], range(3), "point map has 2 images for 5 labels"),
    (range(5), [0, 1, 7], "class map hits unknown label 7"),
    ([0, 0, 1, 2, 3], range(3), "point map is not injective"),
], ids=["misses-a-label", "too-few-images", "unknown-image", "not-injective"])
def test_maps_that_are_no_bijection_are_refused(pentagon, point_map, class_map, message):
    with pytest.raises(NotBijective) as err:
        check_automorphism(pentagon, point_map, class_map)
    assert str(err.value) == message


def test_boolean_class_labels_are_their_own_classes():
    """Z3 on classes 0, 1, true: three classes, matched as labels under one key."""
    labels = [0, 1, True]
    z3 = build_scheme(range(3), labels, lambda x, y: labels[(y - x) % 3])
    assert [z3.classes[t] for t in z3.involution] == [0, True, 1]
    assert check_automorphism(z3, range(3), [0, 1, True])
    assert check_automorphism(z3, [0, 2, 1], [0, True, 1])  # x -> -x transposes the classes
    assert not check_automorphism(z3, [0, 2, 1], [0, 1, True])


def test_boolean_relation_array_names_the_boolean_classes():
    """A numpy bool array names the classes false and true, as JSON booleans do, not 0 and 1."""
    off = ~np.eye(3, dtype=bool)
    assert build_scheme(range(3), [False, True], off).relation.tolist() == off.astype(int).tolist()
    with pytest.raises(ParseError, match="maps to unknown class"):
        build_scheme(range(3), [0, 1], off)


def _transposing(s) -> list:
    """The class map sending each class to its transpose, as class labels."""
    return [s.classes[t] for t in s.involution.tolist()]


def test_commutativity_certificate_on_string_classes(s4_mod_s3):
    """The involution goes to the automorphism check as class labels, not indices."""
    assert check_automorphism(s4_mod_s3, {x: x for x in s4_mod_s3.points},
                              _transposing(s4_mod_s3))


def test_negation_automorphism_proves_commutativity(z5):
    # x -> -x sends the class of (x, y) to its transpose, which forces
    # the intersection tensor to be symmetric in its first two slots
    negate = {x: (-x) % 5 for x in range(5)}
    assert check_automorphism(z5, negate, _transposing(z5))
    assert is_commutative(z5)


def test_commutativity_witness_rejects_wrong_map(z5):
    shift = {x: (x + 1) % 5 for x in range(5)}
    assert not check_automorphism(z5, shift, _transposing(z5))


# ---------------------------------------------------------------------------
# randomized structural property: group schemes and their symmetrizations


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9, 10, 11, 12])
def test_symmetrized_cyclic_schemes(n):
    """Fusing each difference class with its negative stays a scheme."""
    classes = sorted({frozenset({d, (-d) % n}) for d in range(n)}, key=min)
    index = {}
    for ci, pair in enumerate(classes):
        for d in pair:
            index[d] = ci
    s = build_scheme(list(range(n)), list(range(len(classes))),
                     lambda x, y: index[(y - x) % n])
    assert is_symmetric(s)
    report = audit_intersection_identities(s)
    assert report["all_hold"]
    assert np.array_equal(s.p, brute_force_tensor(s))

"""Convolution tensors: construction, axiom checks, and the measure and function
convolutions they define."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from hypergroups import schemes
from hypergroups.catalog import cyclic_scheme
from hypergroups.errors import NotAHypergroup
from hypergroups.hypergroup import (
    FiniteHypergroup,
    hypergroup_from_scheme,
    is_commutative,
    make_hypergroup,
    verify_hypergroup,
)
from hypergroups.schemes import (
    audit_intersection_identities,
    is_symmetric,
    scheme_from_distance_regular_graph,
)

F = Fraction


def test_pentagon_convolution_exact_values(pentagon):
    h = hypergroup_from_scheme(pentagon)
    assert h.exact
    assert h.identity == 0
    assert list(h.involution) == [0, 1, 2]
    assert list(h.conv[1, 1]) == [F(1, 2), F(0), F(1, 2)]
    assert list(h.conv[1, 2]) == [F(0), F(1, 2), F(1, 2)]
    assert list(h.conv[2, 2]) == [F(1, 2), F(1, 2), F(0)]
    assert list(h.haar) == [1, 2, 2]


def test_haar_reproduces_valencies(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        assert [int(w) for w in h.haar] == s.valencies.tolist(), name


def test_haar_left_invariance_exact(commutative_schemes):
    """sum_j haar_j (delta_i * delta_j)({k}) == haar_k, exactly."""
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        d = h.n_classes
        for i in range(d):
            for k in range(d):
                total = sum(h.haar[j] * h.conv[i, j, k] for j in range(d))
                assert total == h.haar[k], (name, i, k)


def test_verify_accepts_all_fixtures(commutative_schemes):
    for name, s in commutative_schemes.items():
        rep = verify_hypergroup(hypergroup_from_scheme(s))
        assert rep["all_hold"], (name, rep)
        assert rep["exact"]


def test_make_hypergroup_float_pentagon(pentagon):
    h0 = hypergroup_from_scheme(pentagon)
    h = make_hypergroup(h0.classes, h0.conv_float)
    assert not h.exact
    assert h.identity == 0
    assert list(h.involution) == [0, 1, 2]
    rep = verify_hypergroup(h)
    assert rep["all_hold"]
    np.testing.assert_allclose(h.haar, [1.0, 2.0, 2.0], rtol=0, atol=1e-12)


def test_make_hypergroup_shape_mismatch():
    with pytest.raises(NotAHypergroup):
        make_hypergroup((0, 1), np.zeros((3, 3, 3)))


def test_make_hypergroup_requires_identity():
    conv = np.zeros((2, 2, 2))
    conv[:, :, 0] = 1.0  # every product collapses to class 0; no unit
    with pytest.raises(NotAHypergroup, match="identity"):
        make_hypergroup((0, 1), conv)


def test_make_hypergroup_rejects_several_identities():
    """Z_2's class 1 is within 1 of the unit matrix on both sides: at tol 1 it is an
    identity as well."""
    conv = np.zeros((2, 2, 2))
    conv[0] = conv[:, 0] = np.eye(2)
    conv[1, 1, 0] = 1.0
    with pytest.raises(NotAHypergroup) as err:
        make_hypergroup(("e", "g"), conv, tol=1.0)
    assert str(err.value) == "classes ['e', 'g'] all act as identities"
    assert err.value.witness == [0, 1]


def test_make_hypergroup_rejects_ambiguous_adjoint():
    # class 1 meets the identity in two different products
    conv = np.zeros((3, 3, 3))
    conv[0] = np.eye(3)
    conv[:, 0] = np.eye(3)
    conv[1, 1] = [0.5, 0.5, 0.0]
    conv[1, 2] = [0.5, 0.0, 0.5]
    conv[2, 1] = [0.5, 0.0, 0.5]
    conv[2, 2] = [0.0, 0.5, 0.5]
    with pytest.raises(NotAHypergroup, match="products"):
        make_hypergroup((0, 1, 2), conv)


def test_make_hypergroup_rejects_non_involutive_support():
    # support map at the identity is the 3-cycle (1 2 3)
    conv = np.zeros((4, 4, 4))
    conv[0] = np.eye(4)
    conv[:, 0] = np.eye(4)
    pairs = {(1, 2), (2, 3), (3, 1)}
    for i in range(1, 4):
        for j in range(1, 4):
            if (i, j) in pairs:
                conv[i, j] = np.zeros(4)
                conv[i, j, 0] = 0.5
                conv[i, j, i] = 0.5
            else:
                conv[i, j] = np.zeros(4)
                conv[i, j, max(i, j)] = 1.0
    with pytest.raises(NotAHypergroup, match="involution"):
        make_hypergroup((0, 1, 2, 3), conv)


def _involution_by_rows(conv, e, cut):
    """The per-row scan of the identity's support: the involution, or the
    (message, witness) of the first failure."""
    tau = []
    for i in range(len(conv)):
        support = np.flatnonzero(np.abs(conv[i, :, e]) > cut).tolist()
        if len(support) != 1:
            return f"identity lies in {len(support)} products of class {i!r}", (i, support)
        tau.append(support[0])
    if [tau[t] for t in tau] != list(range(len(conv))):
        return "support map at the identity is not an involution", tuple(tau)
    return tau


def test_involution_inference_matches_the_row_scan(rng):
    for _ in range(200):
        d = int(rng.integers(2, 7))
        conv = np.zeros((d, d, d))
        conv[0] = conv[:, 0] = np.eye(d)
        conv[1:, 1:, 0] = 0.5 * (rng.random((d - 1, d - 1)) < 0.3)
        try:
            got = make_hypergroup(range(d), conv).involution.tolist()
        except NotAHypergroup as err:
            got = (str(err), err.witness)
        assert got == _involution_by_rows(conv, 0, 1e-12), conv[:, :, 0]


@pytest.mark.parametrize(
    "key,mutate",
    [
        ("nonnegative", lambda c: (c.__setitem__((1, 1, 0), -1e-6),
                                   c.__setitem__((1, 1, 2), c[1, 1, 2] + 1e-6))),
        ("row_sums", lambda c: c.__setitem__((1, 2, 0), c[1, 2, 0] + 1e-6)),
        ("associativity", lambda c: (c.__setitem__((1, 1, 0), c[1, 1, 0] - 1e-4),
                                     c.__setitem__((1, 1, 1), c[1, 1, 1] + 1e-4))),
        ("involution_antihomomorphism",
         lambda c: (c.__setitem__((1, 2, 1), c[1, 2, 1] - 1e-4),
                    c.__setitem__((1, 2, 2), c[1, 2, 2] + 1e-4))),
    ],
)
def test_verify_flags_injected_faults(pentagon, key, mutate):
    h0 = hypergroup_from_scheme(pentagon)
    conv = h0.conv_float.copy()
    mutate(conv)
    h = FiniteHypergroup(classes=h0.classes, conv=conv, identity=0,
                         involution=h0.involution)
    rep = verify_hypergroup(h, tol=1e-9)
    assert not rep[key]["holds"], rep[key]
    assert not rep["all_hold"]
    assert rep[key]["witness"] is not None


def test_verify_flags_exact_negative_entry(pentagon):
    h0 = hypergroup_from_scheme(pentagon)
    conv = h0.conv.copy()
    conv[1, 1, 0] = F(-1, 2)
    conv[1, 1, 2] = F(3, 2)
    h = FiniteHypergroup(classes=h0.classes, conv=conv, identity=0,
                         involution=h0.involution)
    rep = verify_hypergroup(h)
    assert not rep["nonnegative"]["holds"]
    assert rep["nonnegative"]["witness"] == (1, 1, 0)


def test_verify_reports_wrong_identity_index(pentagon):
    h0 = hypergroup_from_scheme(pentagon)
    h = FiniteHypergroup(classes=h0.classes, conv=h0.conv, identity=1,
                         involution=h0.involution)
    rep = verify_hypergroup(h)
    assert not rep["identity_unique"]["holds"]


def _convolve_measures(h, mu, nu) -> np.ndarray:
    """Pushforward of mu x nu through the convolution: sum_ij mu_i nu_j (d_i*d_j)."""
    return np.tensordot(nu, np.tensordot(mu, h.conv, axes=([0], [0])), axes=([0], [0]))


def _convolve_functions(h, f, g) -> np.ndarray:
    """(f "*" g)(i) = sum_j f(i * jbar) g(j) haar_j, matching measure convolution."""
    shifted = np.tensordot(h.conv_float[:, h.involution, :], f, axes=([2], [0]))  # (i, j)
    return shifted @ (g * h.haar_float)


def test_convolve_measures_associative_and_unital(commutative_schemes, rng):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        d = h.n_classes
        mu, nu, sigma = rng.dirichlet(np.ones(d), size=3)
        left = _convolve_measures(h, _convolve_measures(h, mu, nu), sigma)
        right = _convolve_measures(h, mu, _convolve_measures(h, nu, sigma))
        np.testing.assert_allclose(left.astype(float), right.astype(float),
                                   rtol=0, atol=1e-12, err_msg=name)
        e = np.zeros(d)
        e[h.identity] = 1.0
        np.testing.assert_allclose(_convolve_measures(h, e, mu).astype(float),
                                   mu, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_convolve_measures(h, mu, e).astype(float),
                                   mu, rtol=0, atol=1e-15)
        out = _convolve_measures(h, mu, nu).astype(float)
        # a probability vector: nonnegative with total 1
        assert out.min() >= -1e-12 and abs(out.sum() - 1) <= 1e-12


def test_group_case_matches_classic_convolution(rng):
    """On a cyclic-group tensor the hypergroup operations reduce to the
    familiar group formulas."""
    h = hypergroup_from_scheme(cyclic_scheme(4))
    f = rng.standard_normal(4)
    g = rng.standard_normal(4)
    # conv[i, j] = point mass at i + j mod 4
    for i in range(4):
        for j in range(4):
            expected = np.zeros(4)
            expected[(i + j) % 4] = 1.0
            np.testing.assert_array_equal(h.conv[i, j].astype(float), expected)
            # f at the product i * j, (delta_i * delta_j)(f)
            assert h.conv_float[i, j] @ f == pytest.approx(f[(i + j) % 4])
    classic = np.array([sum(f[(i - j) % 4] * g[j] for j in range(4)) for i in range(4)])
    np.testing.assert_allclose(_convolve_functions(h, f, g), classic, rtol=0, atol=1e-12)
    # involution is negation mod 4
    np.testing.assert_array_equal(h.involution, [0, 3, 2, 1])


def test_function_convolution_consistent_with_measures(commutative_schemes, rng):
    """Treating f, g as densities against Haar weight, function convolution
    must match the measure convolution of f.haar and g.haar."""
    for name, s in commutative_schemes.items():
        h = hypergroup_from_scheme(s)
        d = h.n_classes
        f = rng.standard_normal(d)
        g = rng.standard_normal(d)
        haar = h.haar_float
        via_measures = _convolve_measures(h, f * haar, g * haar).astype(float)
        via_functions = _convolve_functions(h, f, g) * haar
        np.testing.assert_allclose(via_functions, via_measures, rtol=0, atol=1e-10,
                                   err_msg=name)


def test_modular_function_trivial_on_scheme_tensors(commutative_schemes, s3_regular):
    """The modular function haar(i) / haar(ibar) is 1 on every scheme tensor."""
    for s in list(commutative_schemes.values()) + [s3_regular]:
        h = hypergroup_from_scheme(s)
        assert all(x == 1 for x in h.haar / h.haar[h.involution])


def test_commutativity_and_hermitian_flags(pentagon, z4, s3_regular):
    assert is_commutative(hypergroup_from_scheme(pentagon))
    assert is_symmetric(hypergroup_from_scheme(pentagon))
    h4 = hypergroup_from_scheme(z4)
    assert is_commutative(h4)
    assert not is_symmetric(h4)
    assert not is_commutative(hypergroup_from_scheme(s3_regular))


def test_conv_tensor_is_read_only(pentagon):
    h = make_hypergroup((0, 1, 2), hypergroup_from_scheme(pentagon).conv_float)
    with pytest.raises(ValueError):
        h.conv[0, 0, 0] = 2.0


def test_exact_nonassociative_document_witness():
    """A hermitian 3-class tensor passing every axiom but associativity.

    The witness (1, 1, 2, 0) is the one the Fraction tensordot verifier
    reported; it is also the first mismatch found by brute force."""
    from hypergroups.jsonio import hypergroup_from_json

    doc = {"classes": [0, 1, 2], "conv": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 0, 1, "1"], [2, 0, 2, "1"],
        [1, 1, 0, "1/2"], [1, 1, 1, "1/3"], [1, 1, 2, "1/6"],
        [1, 2, 1, "1/2"], [1, 2, 2, "1/2"], [2, 1, 1, "1/2"], [2, 1, 2, "1/2"],
        [2, 2, 0, "1/2"], [2, 2, 1, "1/2"]]}
    h = hypergroup_from_json(doc)
    rep = verify_hypergroup(h)
    assert rep["associativity"] == {"holds": False, "witness": (1, 1, 2, 0), "residual": None}
    assert not rep["all_hold"]
    assert all(rep[k]["holds"] for k in ("nonnegative", "row_sums", "identity_unique",
                                         "identity_support", "involution_antihomomorphism",
                                         "haar_consistency"))
    c = h.conv
    first = next(
        (i, j, k, m)
        for i, j, k, m in np.ndindex(3, 3, 3, 3)
        if sum(c[i, j, l] * c[l, k, m] for l in range(3))
        != sum(c[j, k, l] * c[i, l, m] for l in range(3))
    )
    assert first == (1, 1, 2, 0)


def _two_point(q):
    """Order-2 hypergroup: delta_1 * delta_1 = q delta_0 + (1 - q) delta_1."""
    conv = np.empty((2, 2, 2), dtype=object)
    conv[0] = [[F(1), F(0)], [F(0), F(1)]]
    conv[1] = [[F(0), F(1)], [q, 1 - q]]
    return conv


def test_exact_verify_with_huge_denominators():
    """Denominators near 3**30 and 5**20 push d * max|N|**2 past 2**53, so
    the numerators stay Python ints; the product hypergroup still verifies."""
    a, b = _two_point(F(1, 3**30)), _two_point(F(2, 5**20))
    conv = np.empty((4, 4, 4), dtype=object)
    for (i, j, k), (p, q, r) in itertools.product(np.ndindex(2, 2, 2), repeat=2):
        conv[2 * i + p, 2 * j + q, 2 * k + r] = a[i, j, k] * b[p, q, r]
    h = make_hypergroup(range(4), conv)
    nums, scale = h.values, h.scale
    assert nums.dtype == object and scale == 3**30 * 5**20
    assert 4 * max(abs(v) for v in nums.flat) ** 2 >= 2**53
    rep = verify_hypergroup(h)
    assert rep["all_hold"], rep
    assert rep["exact"]
    # one numerator off by one unit of 1/scale: caught exactly
    conv[3, 3, 3] += F(1, scale)
    conv[3, 3, 1] -= F(1, scale)
    bad = verify_hypergroup(FiniteHypergroup(classes=h.classes, conv=conv,
                                             identity=h.identity, involution=h.involution))
    assert bad["row_sums"]["holds"]
    assert not bad["associativity"]["holds"]


def test_exact_verify_z32():
    h = hypergroup_from_scheme(cyclic_scheme(32))
    rep = verify_hypergroup(h)
    assert rep["exact"]
    assert rep["all_hold"], rep


@pytest.mark.parametrize("i, j, k", [(3, 5, 8), (30, 20, 10), (47, 47, 2), (1, 1, 1)])
def test_audit_and_verify_name_the_same_associativity_witness(i, j, k):
    """The audit scans p and verify_hypergroup the scheme hypergroup's
    numerators, whose defect at (i, j, k, m) is p's times valency_m /
    (valency_i valency_j valency_k) > 0 (up to the common scale), so the zero
    patterns agree.  The 94-cycle has d = 48 classes of valencies 1, 2, ..., 2, 1,
    which takes several blocks; a corrupted count off the identity column
    must give one witness both ways."""
    n = 94
    cycle = np.zeros((n, n), dtype=np.int64)
    cycle[np.arange(n), (np.arange(n) + 1) % n] = 1
    s = scheme_from_distance_regular_graph(cycle + cycle.T)
    assert s.n_classes == 48 and 2 * 48**4 > schemes.BLOCK
    p = s.p.copy()
    p[i, j, k] += 1
    fake = schemes.Scheme(s.points, s.classes, s.relation, s.identity, s.involution, p,
                          s.valencies)
    witness = audit_intersection_identities(fake)["associativity"]["witness"]
    assert witness is not None
    h = hypergroup_from_scheme(fake)
    assert h.exact and h.scale > 1
    assert verify_hypergroup(h)["associativity"]["witness"] == witness


def test_associativity_witness_matches_full_tensor_beyond_first_block(rng):
    """At d = 48 associativity is checked in blocks of i.  Rows i < 40 are
    zero, so every violation lies at i >= 40, past the first block; the
    witness must match a search over the full d^4 defect tensor: the first
    mismatch in C order (exact) and the argmax (float)."""
    d = 48
    ints = rng.integers(0, 4, size=(d, d, d))
    ints[:40] = 0
    full = np.abs(np.tensordot(ints, ints, axes=([2], [0]))
                  - np.tensordot(ints, ints, axes=([2], [1])).transpose(2, 0, 1, 3))
    first = tuple(map(int, np.argwhere(full > 0)[0]))
    assert first[0] >= 40
    exact = np.array([F(int(v)) for v in ints.flat], dtype=object).reshape(ints.shape)
    h = FiniteHypergroup(classes=tuple(range(d)), conv=exact, identity=0,
                         involution=np.arange(d))
    assert verify_hypergroup(h)["associativity"]["witness"] == first

    floats = ints / 7.0 + rng.uniform(0, 1e-3, size=ints.shape) * (ints > 0)
    full = np.abs(np.tensordot(floats, floats, axes=([2], [0]))
                  - np.tensordot(floats, floats, axes=([2], [1])).transpose(2, 0, 1, 3))
    largest = tuple(map(int, np.unravel_index(full.argmax(), full.shape)))
    hf = FiniteHypergroup(classes=tuple(range(d)), conv=floats, identity=0,
                          involution=np.arange(d))
    rep = verify_hypergroup(hf)["associativity"]
    assert rep["witness"] == largest
    assert rep["residual"] == pytest.approx(float(full.max()), rel=1e-12)


def _hamming_4_2():
    x = np.arange(16)
    flips = np.bitwise_xor.outer(x, x)
    return (np.array([bin(v).count("1") for v in flips.flat]) == 1).reshape(16, 16).astype(int)


def test_scheme_hypergroup_matches_per_entry_fractions():
    """conv[i, j, k] is Fraction(w_k p_ijk, w_i w_j), in value and type; conv_float
    and the commutativity test agree with the Fraction entries."""
    from hypergroups import catalog
    from hypergroups.schemes import scheme_from_distance_regular_graph

    fixtures = {name: getattr(catalog, name)() for name in (
        "pentagon_scheme", "k4_scheme", "petersen_scheme", "s3_mod_transposition",
        "s4_mod_s3", "s3_regular")}
    fixtures.update({f"z{n}": cyclic_scheme(n) for n in range(1, 25)})
    fixtures["h42"] = scheme_from_distance_regular_graph(_hamming_4_2())
    for name, s in fixtures.items():
        h = hypergroup_from_scheme(s)
        w = [int(v) for v in s.valencies]
        d = s.n_classes
        for i, j, k in np.ndindex(d, d, d):
            v = h.conv[i, j, k]
            ref = Fraction(w[k] * int(s.p[i, j, k]), w[i] * w[j])
            assert type(v) is Fraction and v == ref, (name, i, j, k)
            assert type(v.numerator) is int and type(v.denominator) is int
            assert h.conv_float[i, j, k] == float(ref), (name, i, j, k)
        assert h.conv_float.dtype == np.float64
        assert is_commutative(h) == bool((h.conv == h.conv.transpose(1, 0, 2)).all()), name
    assert not is_commutative(hypergroup_from_scheme(fixtures["s3_regular"]))


def test_is_commutative_reads_the_tolerance_the_hypergroup_was_built_at(pentagon):
    """The only asymmetry is 1e-11: commutative at tol 1e-9, not at the default 1e-12."""
    conv = hypergroup_from_scheme(pentagon).conv_float.copy()
    conv[1, 2] += [0.0, 1e-11, -1e-11]
    assert is_commutative(make_hypergroup((0, 1, 2), conv, tol=1e-9))
    assert not is_commutative(make_hypergroup((0, 1, 2), conv))


def test_exact_ratio_is_read_off_conv():
    """A tensor given as ints and Fractions is read once into numerators over
    the lcm of its reduced denominators; conv gives the Fractions back."""
    h0 = hypergroup_from_scheme(cyclic_scheme(5))
    conv = np.empty((2, 2, 2), dtype=object)
    conv[...] = [[[1, 0], [0, 1]], [[0, 1], [F(2, 6), F(4, 6)]]]
    h = FiniteHypergroup(classes=(0, 1), conv=conv, identity=0, involution=np.arange(2))
    assert h.exact and h.scale == 3
    assert h.values.tolist() == [[[3, 0], [0, 3]], [[0, 3], [1, 2]]]
    assert h.values.dtype == h0.values.dtype == np.int64
    assert h.conv.tolist() == conv.tolist() and not h.conv.flags.writeable
    assert h.conv_float[1, 1].tolist() == [1 / 3, 2 / 3]
    assert is_commutative(h) and h.conv_float.dtype == np.float64
    conv[0, 1, 1], conv[1, 0, 1] = F(1, 2), F(1, 3)  # reduced numerators equal, values not
    assert not is_commutative(FiniteHypergroup(classes=(0, 1), conv=conv, identity=0,
                                               involution=np.arange(2)))

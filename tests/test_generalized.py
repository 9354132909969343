"""Stochastic-matrix realizations of schemes: verification and deformed duals."""

import dataclasses
import itertools

import numpy as np
import pytest

from hypergroups.errors import (
    ClosureResidual,
    DetailedBalanceViolation,
    NonSquare,
    NotACharacter,
    NotAHypergroup,
    NotStochastic,
    ParseError,
    SchemeError,
    SupportMismatch,
)
from hypergroups.families.cosh import (
    CoshFamily,
    cosh_base_product,
    cosh_character,
    cosh_window_scheme,
    window_character,
)
from hypergroups import generalized
from hypergroups.generalized import (
    build_generalized,
    build_windowed,
    classical_embedding,
    deformed_valencies,
    dual_product_generalized,
    hypergroup_from_generalized,
    kernel_F_f,
    pi_positive_definite,
    positive_connection_check,
    s_tilde_f,
)
from hypergroups.harmonic import character_table, dual_convolution
from hypergroups.hypergroup import FiniteHypergroup, hypergroup_from_scheme, verify_hypergroup
from hypergroups.jsonio import generalized_from_json, generalized_to_json
from hypergroups import catalog
from hypergroups.schemes import build_scheme, scheme_from_distance_regular_graph
from legacy_stack import stack, stack_document


def symmetrized_z8():
    n = 8
    classes = sorted({frozenset({d, (-d) % n}) for d in range(n)}, key=min)
    index = {d: ci for ci, pair in enumerate(classes) for d in pair}
    return build_scheme(list(range(n)), list(range(len(classes))),
                        lambda x, y: index[(y - x) % n])


def test_classical_embedding_reproduces_convolution(commutative_schemes):
    for name, s in commutative_schemes.items():
        g = classical_embedding(s)
        h = hypergroup_from_scheme(s)
        assert not g.windowed, name
        np.testing.assert_allclose(g.p_tilde, h.conv_float, rtol=0, atol=1e-12,
                                   err_msg=name)
        assert g.pair_checked.all(), name
        np.testing.assert_allclose(deformed_valencies(g), h.haar_float,
                                   rtol=0, atol=1e-9, err_msg=name)


def test_embedding_report_contents(pentagon):
    g = classical_embedding(pentagon)
    rep = g.report
    assert rep["stochastic_rows_checked"] == 3 * 5
    assert rep["detailed_balance_residual"] <= 1e-12
    assert rep["closure_residual"] <= 1e-12
    assert rep["deformed_row_sum_residual"] <= 1e-12
    assert rep["deformed_support_matches"]
    assert rep["pairs_checked"] == rep["pairs_total"] == 9
    assert rep["interior_fraction"] == 1.0
    assert max(rep["operator_norms"]) <= 1.0 + 1e-10


def test_embedding_yields_verified_hypergroup(commutative_schemes):
    for name, s in commutative_schemes.items():
        h = hypergroup_from_generalized(classical_embedding(s))
        assert verify_hypergroup(h, tol=1e-9)["all_hold"], name


def test_uniform_weight_is_reversible(pentagon):
    g = classical_embedding(pentagon)
    np.testing.assert_array_equal(g.vertex_weight, np.ones(5))
    assert g.base_point == 0


def test_base_point_is_a_label_matched_by_type(pentagon):
    g = classical_embedding(pentagon)
    assert build_generalized(pentagon, g.step, base_point=1).base_point == 1
    with pytest.raises(ParseError, match="unknown point True"):
        build_generalized(pentagon, g.step, base_point=True)


def test_build_windowed_freezes_copies_not_the_callers_arrays(pentagon):
    """The returned fields are read-only; the step matrix, weights, boundary distances
    and class orders the caller passed stay writeable, also through build_generalized."""
    n, d = pentagon.n_points, pentagon.n_classes
    args = {"step": classical_embedding(pentagon).step.copy(), "vertex_weight": np.ones(n),
            "boundary_distance": np.full(n, n + d), "class_order": np.zeros(d, dtype=np.int64)}
    g = build_windowed(pentagon.points, pentagon.classes, pentagon.relation, pentagon.identity,
                       pentagon.involution, base_point=0, **args)
    assert all(arr.flags.writeable for arr in args.values())
    assert not any(getattr(g, name).flags.writeable for name in args)
    step = classical_embedding(pentagon).step.copy()
    assert not build_generalized(pentagon, step).step.flags.writeable
    assert step.flags.writeable


def test_rejects_non_stochastic_rows(pentagon):
    step = classical_embedding(pentagon).step.copy()
    step[pentagon.relation == 1] *= 1.5
    with pytest.raises(NotStochastic):
        build_generalized(pentagon, step)


def test_row_mass_error_prints_a_plain_number(pentagon):
    step = classical_embedding(pentagon).step.copy()
    step[pentagon.relation == 1] *= 1.5
    with pytest.raises(NotStochastic, match=r"^row 0 of class 1 sums to 1\.5$"):
        build_generalized(pentagon, step)


def test_rejects_support_mismatch(pentagon):
    """Only a stack can put mass outside its class: read from a legacy document."""
    doc = stack_document(classical_embedding(pentagon))
    stoch = doc["stoch"][1][0]
    # move the mass of (0 -> 1) onto (0 -> 2): rows stay stochastic but
    # the matrix for class 1 now touches a class-2 pair
    assert pentagon.relation[0, 1] == 1 and pentagon.relation[0, 2] == 2
    stoch[2] += stoch[1]
    stoch[1] = 0.0
    with pytest.raises(SupportMismatch):
        generalized_from_json(doc)


def test_rejects_detailed_balance_violation(pentagon):
    step = np.eye(5)
    for x in range(5):
        step[x, (x + 1) % 5] = 0.6   # drift breaks reversibility at weight 1
        step[x, (x - 1) % 5] = 0.4
        step[x, (x + 2) % 5] = 0.5
        step[x, (x - 2) % 5] = 0.5
    with pytest.raises(DetailedBalanceViolation):
        build_generalized(pentagon, step)


def test_rejects_closure_failure():
    """Alternating nearest-neighbour weights on the 8-cycle stay stochastic,
    supported, and reversible, but their products leave the class algebra."""
    s = symmetrized_z8()
    step = classical_embedding(s).step.copy()
    t = 0.7
    cls1 = 1  # class of the +-1 differences, every pair of which is set below
    assert (s.relation == cls1).sum() == 2 * 8
    for x in range(8):
        a, b = (t, 1 - t) if x % 2 == 0 else (1 - t, t)
        step[x, (x + 1) % 8] = a
        step[x, (x - 1) % 8] = b
    with pytest.raises(ClosureResidual):
        build_generalized(s, step)


def test_windowed_object_refuses_global_structure():
    g = cosh_window_scheme(CoshFamily(1.0), 3)
    assert g.windowed
    assert not g.pair_checked.all()
    with pytest.raises(NotAHypergroup):
        hypergroup_from_generalized(g)
    with pytest.raises(SchemeError):
        deformed_valencies(g)


def test_windowed_valencies_need_checked_pairs():
    g = cosh_window_scheme(CoshFamily(0.5), 4)
    # class 1 with itself lands inside the window, so mixtures touching
    # only low classes are fine
    f = np.zeros(g.n_classes)
    f[1] = 1.0
    out = s_tilde_f(g, f)
    assert out.shape == (g.n_points, g.n_points)
    f[g.n_classes - 1] = 1.0  # top class valency is not determined
    with pytest.raises(SchemeError):
        s_tilde_f(g, f)


def test_mixture_operator_matches_kernel(commutative_schemes, rng):
    """For embedded schemes the weighted mixture of transition matrices is
    exactly the class-function kernel."""
    for name, s in commutative_schemes.items():
        g = classical_embedding(s)
        f = rng.standard_normal(s.n_classes)
        np.testing.assert_allclose(s_tilde_f(g, f).real, kernel_F_f(g, f),
                                   rtol=0, atol=1e-12, err_msg=name)
        assert np.abs(s_tilde_f(g, f).imag).max() <= 1e-15


def test_pi_positive_definite_routes(pentagon):
    g = classical_embedding(pentagon)
    h = hypergroup_from_scheme(pentagon)
    tbl = character_table(h)
    good = kernel_F_f(g, tbl.chars[1].real)
    ok, cert = pi_positive_definite(g, good)
    assert ok, cert
    bad = kernel_F_f(g, np.array([1.0, -1.0, 1.0]))
    ok, cert = pi_positive_definite(g, bad)
    assert not ok
    assert cert["min_eigenvalue"] < -1e-3
    with pytest.raises(NonSquare):
        pi_positive_definite(g, np.ones((2, 3)))


def test_positive_connection_certificate(pentagon):
    g = classical_embedding(pentagon)
    tbl = character_table(hypergroup_from_scheme(pentagon))
    ok, cert = positive_connection_check(g, tbl.chars[1])
    assert ok, cert
    assert not cert["truncated"]
    with pytest.raises(NotACharacter):
        positive_connection_check(g, np.array([1.0, 0.3, 0.7]))
    with pytest.raises(NotACharacter):
        positive_connection_check(g, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(NotACharacter, match=r"^class function of shape \(4,\) on 3 classes$"):
        positive_connection_check(g, np.ones(4))


def test_windowed_positive_connection_certificate():
    """The window's branch: cosh characters pass, with the certificate flagged
    truncated; the m + 1 values of window_character are no class function on
    the 2m + 1 classes of the window."""
    fam = CoshFamily(1.0)
    g = cosh_window_scheme(fam, 4)
    for lam in (0.0, 1.0, np.pi):
        ok, cert = positive_connection_check(g, cosh_character(fam, lam, np.arange(9)))
        assert ok and cert["truncated"], (lam, cert)
    alpha, _ = window_character(g, 0.5)
    with pytest.raises(NotACharacter, match=r"^class function of shape \(5,\) on 9 classes$"):
        positive_connection_check(g, alpha)


def _set(index, value):
    def corrupt(array):
        array = array.copy()
        array[index] = value
        return array
    return corrupt


@pytest.mark.parametrize("field, corrupt, error, witness", [
    ("step", lambda step: step[:, :-1], NonSquare, None),
    ("vertex_weight", _set(1, -1.0), DetailedBalanceViolation, 1),
    ("step", _set((0, 0), 0.5), SupportMismatch, None),
    ("step", _set((1, 3), -0.1), NotStochastic, (2, 1, 3)),
    ("step", _set((0, 2), 1.5), NotStochastic, (2, 0)),
    ("step", _set((0, 2), 0.0), SupportMismatch, (2, 0, 2)),
], ids=["stack-shape", "weight-not-positive", "identity-not-I", "negative-entry",
        "boundary-row-above-one", "vanishes-on-relation"])
def test_build_windowed_rejections(field, corrupt, error, witness):
    """Corrupted copies of the inputs cosh_window_scheme passes; row 0 (x = -3)
    is a boundary row of class 2, which may lose mass but not exceed one."""
    g = cosh_window_scheme(CoshFamily(1.0), 3)
    inputs = {name: getattr(g, name) for name in (
        "points", "classes", "relation", "identity", "involution", "step", "vertex_weight",
        "base_point", "boundary_distance", "class_order")}
    assert build_windowed(**inputs).windowed
    inputs[field] = corrupt(inputs[field])
    with pytest.raises(error) as failure:
        build_windowed(**inputs)
    assert failure.value.witness == witness


def test_deformed_coefficients_that_lose_mass_are_refused():
    """Two points a, b; b is a boundary row of class 1, which keeps 0.5 of its mass.
    Row a may check (1, 1): S_1 S_1 there is 0.5 S_0, inside the span, but its
    coefficients sum to 0.5."""
    with pytest.raises(ClosureResidual) as failure:
        build_windowed(("a", "b"), (0, 1), [[0, 1], [1, 0]], 0, [0, 1],
                       [[1.0, 1.0], [0.5, 1.0]], [1.0, 2.0], 0, [2, 0], [0, 1])
    assert str(failure.value) == "deformed coefficients of (1, 1) sum to 0.5"
    assert failure.value.witness == (1, 1)


def test_dual_product_matches_dual_convolution(commutative_schemes):
    for name, s in commutative_schemes.items():
        g = classical_embedding(s)
        h = hypergroup_from_generalized(g)
        tbl = character_table(h)
        m = h.n_classes
        for a in range(m):
            for b in range(m):
                dm, info = dual_product_generalized(g, tbl, a, b)
                ref = dual_convolution(h, tbl, a, b)
                np.testing.assert_allclose(dm.raw, ref.raw, rtol=0, atol=1e-12,
                                           err_msg=(name, a, b))
                np.testing.assert_allclose(dm.weights, ref.weights, rtol=0,
                                           atol=1e-12, err_msg=(name, a, b))
                assert "precondition_certified" in info


def hamming_scheme(D, q):
    digits = (np.arange(q ** D)[:, None] // q ** np.arange(D)) % q
    adj = (digits[:, None, :] != digits[None, :, :]).sum(-1) == 1
    return scheme_from_distance_regular_graph(adj.astype(np.int64))


def johnson_scheme(v, k):
    sets = np.array([[x in c for x in range(v)] for c in itertools.combinations(range(v), k)],
                    dtype=np.int64)
    return scheme_from_distance_regular_graph((sets @ sets.T == k - 1).astype(np.int64))


@pytest.fixture(scope="module")
def algebra_schemes(commutative_schemes):
    return {**commutative_schemes, "s3_regular": catalog.s3_regular(),
            "H(6,2)": hamming_scheme(6, 2), "J(9,4)": johnson_scheme(9, 4)}


def _dense_kernel(g, alpha):
    """The n x n reference: hermiticity residual and eigenvalue floor of F_alpha."""
    F = kernel_F_f(g, np.asarray(alpha, dtype=complex))
    herm = float(np.abs(F - np.conjugate(F.T)).max())
    return herm, float(np.linalg.eigvalsh((F + np.conjugate(F.T)) / 2.0).min())


def test_kernel_floor_matches_dense_eigvalsh(algebra_schemes, rng, monkeypatch):
    """The Bose-Mesner route gives the dense kernel floor, for characters,
    random complex class functions and noncommutative bases alike."""
    monkeypatch.setattr(generalized, "CHARACTER_RESIDUAL_TOL", np.inf)
    for name, s in algebra_schemes.items():
        g = classical_embedding(s)
        d = s.n_classes
        alphas = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
        alphas.append(np.ones(d))
        if name != "s3_regular":
            alphas.extend(character_table(hypergroup_from_scheme(s)).chars)
        for alpha in alphas:
            _, cert = positive_connection_check(g, alpha)
            herm, floor = _dense_kernel(g, alpha)
            assert cert["kernel_hermiticity_residual"] == herm, name
            scale = max(1.0, s.n_points * float(np.abs(alpha).max()))
            assert abs(cert["kernel_min_eigenvalue"] - floor) <= 1e-10 * scale, (name, alpha)


def test_base_fields_match_the_complex_contraction(algebra_schemes, rng, monkeypatch):
    """The base block is contracted in split real and imaginary parts; the
    complex tensordot of the same block is the reference."""
    monkeypatch.setattr(generalized, "CHARACTER_RESIDUAL_TOL", np.inf)
    for name, s in algebra_schemes.items():
        g = classical_embedding(s)
        h0 = hypergroup_from_scheme(s)
        d = s.n_classes
        alphas = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
        alphas += [np.ones(d), 1e3 * rng.standard_normal(d)]
        for alpha in alphas:
            _, cert = positive_connection_check(g, alpha)
            M = np.tensordot(h0.conv_float[:, h0.involution, :], alpha, axes=([2], [0]))
            herm = float(np.abs(M - np.conjugate(M.T)).max())
            floor = float(np.linalg.eigvalsh((M + np.conjugate(M.T)) / 2.0).min())
            tol = 1e-12 * max(1.0, float(np.abs(alpha).max()))
            assert abs(cert["base_hermiticity_residual"] - herm) <= tol, name
            assert abs(cert["base_min_eigenvalue"] - floor) <= tol, name


def test_kernel_floor_rejects_what_the_dense_kernel_rejects(pentagon, monkeypatch):
    monkeypatch.setattr(generalized, "CHARACTER_RESIDUAL_TOL", np.inf)
    g = classical_embedding(pentagon)
    alpha = np.array([1.0, -1.0, 1.0])
    ok, cert = positive_connection_check(g, alpha)
    _, floor = _dense_kernel(g, alpha)
    assert not ok
    assert floor < -1e-3 and abs(cert["kernel_min_eigenvalue"] - floor) <= 1e-12


def test_classical_route_matches_the_audit(algebra_schemes):
    """The audited build of the same step matrix is the oracle for
    every field the scheme route reads off the verified counts."""
    for name, s in algebra_schemes.items():
        g = classical_embedding(s)
        assert np.array_equal(g.p_tilde, hypergroup_from_scheme(s).conv_float), name
        norms = [np.linalg.norm(m, 2) for m in stack(g.step, g.relation, s.n_classes)]
        np.testing.assert_allclose(g.report["operator_norms"], norms, rtol=0, atol=1e-12)
        audited = build_generalized(s, g.step)
        np.testing.assert_allclose(g.p_tilde, audited.p_tilde, rtol=0, atol=1e-12,
                                   err_msg=name)
        assert g.report.pop("route") == "scheme"
        assert g.report.keys() == audited.report.keys(), name
        for key, value in audited.report.items():
            np.testing.assert_allclose(g.report[key], value, rtol=0, atol=1e-12,
                                       err_msg=(name, key))
        for field in ("step", "vertex_weight", "pair_checked", "boundary_distance",
                      "class_order"):
            assert np.array_equal(getattr(g, field), getattr(audited, field)), (name, field)
            assert not getattr(g, field).flags.writeable, (name, field)


def test_classical_route_solves_nothing_larger_than_d(monkeypatch):
    s = hamming_scheme(6, 2)
    chars = character_table(hypergroup_from_scheme(s)).chars
    sizes = []
    for solver in ("eigvalsh", "svd"):
        def spy(a, *args, _solver=getattr(np.linalg, solver), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, solver, spy)
        # np.linalg.norm(., 2) reaches svd through its own module globals
        monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, solver, spy)
    g = classical_embedding(s)
    assert all(positive_connection_check(g, alpha)[0] for alpha in chars)
    assert sizes and max(sizes) <= s.n_classes, sizes


def test_classical_embedding_builds_no_hypergroup(algebra_schemes, monkeypatch, rng):
    """The embedding and its certificates read base_conv and construct no
    hypergroup, and a dataclasses.replace copy certifies alike."""
    built = []
    real = FiniteHypergroup.__init__
    monkeypatch.setattr(FiniteHypergroup, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    monkeypatch.setattr(generalized, "CHARACTER_RESIDUAL_TOL", np.inf)
    for name, s in algebra_schemes.items():
        d = s.n_classes
        alphas = (np.ones(d), rng.standard_normal(d) + 1j * rng.standard_normal(d))
        g = classical_embedding(s)
        certs = [positive_connection_check(g, a)[1] for a in alphas]
        own = dataclasses.replace(g)
        assert certs == [positive_connection_check(own, a)[1] for a in alphas], name
        assert built == [], name


def test_base_conv_is_the_scheme_hypergroup_bit_for_bit(algebra_schemes):
    """Over a scheme base_conv is conv_float of hypergroup_from_scheme, compared
    as uint64 bit patterns, on both routes in, and read-only."""
    for name, s in algebra_schemes.items():
        expected = hypergroup_from_scheme(s).conv_float.view(np.uint64)
        g = classical_embedding(s)
        for base_conv in (g.base_conv, build_generalized(s, g.step).base_conv):
            assert np.array_equal(base_conv.view(np.uint64), expected), name
            assert not base_conv.flags.writeable, name


def _base_product_floor(g, alpha):
    """(hermiticity residual, eigenvalue floor) of the window's base matrix,
    built entry by entry from the product rule cosh_base_product."""
    k = (g.n_classes - 1) // 2 + 1
    M = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            prod = cosh_base_product(i, int(g.involution[j]))
            M[i, j] = sum(w * alpha[l] for l, w in prod.items())
    adjoint = np.conjugate(M.T)
    return float(np.abs(M - adjoint).max()), float(np.linalg.eigvalsh((M + adjoint) / 2.0).min())


@pytest.mark.parametrize("m", [1, 4, 8])
def test_window_base_matrix_matches_the_product_rule(m):
    """The window's base half reads the undeformed block of base_conv; it equals,
    bit for bit, the matrix the product rule gives, for real and complex lambda."""
    fam = CoshFamily(0.5)
    g = cosh_window_scheme(fam, m)
    assert g.base_conv.shape == (m + 1, m + 1, 2 * m + 1)
    assert not g.base_conv.flags.writeable
    for lam in (0.0, 0.7, np.pi, 0.3 + 0.2j, 1j * 0.4, np.pi + 0.1j):
        alpha = np.asarray(cosh_character(fam, lam, np.arange(2 * m + 1)), dtype=complex)
        _, cert = positive_connection_check(g, alpha)
        assert (cert["base_hermiticity_residual"], cert["base_min_eigenvalue"]) \
            == _base_product_floor(g, alpha), lam
        assert cert["truncated"]


def test_window_read_from_a_document_has_no_base_tensor():
    fam = CoshFamily(1.0)
    g = generalized_from_json(generalized_to_json(cosh_window_scheme(fam, 3)))
    assert g.windowed and g.base_conv is None
    with pytest.raises(SchemeError, match=r"^windowed object carries no base tensor "
                       r"\(none is read from a document\)$"):
        positive_connection_check(g, cosh_character(fam, 0.5, np.arange(7)))

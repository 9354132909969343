"""Hyperbolic deformation of the integer half-line: window schemes,
deformed characters, and the connection quadrature."""

import tracemalloc

import numpy as np
import pytest

from family_oracle import QuadratureNotConverged, cosh_connection_quadrature
from hypergroups.errors import ParameterOutOfRange
from hypergroups.families.cosh import (
    WINDOW_MAX_HALF_WIDTH,
    CoshFamily,
    cosh_base_product,
    cosh_character,
    cosh_convolution,
    cosh_parameter_in_dual,
    cosh_window_scheme,
    in_plancherel_support,
    window_character,
)

RS = [0.5, 1.0, 2.0]
LAMBDAS = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]


@pytest.mark.parametrize("r", [0.0, -1.0, -0.3])
def test_rate_must_be_positive(r):
    with pytest.raises(ParameterOutOfRange):
        CoshFamily(r)


def test_rate_must_be_finite():
    with pytest.raises(ParameterOutOfRange, match="finite"):
        CoshFamily(float("inf"))


def test_window_weight_overflow_rejected():
    with pytest.raises(ParameterOutOfRange, match="overflows"):
        cosh_window_scheme(CoshFamily(60.0), 8)


def test_drift_probability():
    for r in [0.1, 0.5, 1.0, 2.0, 5.0]:
        fam = CoshFamily(r)
        assert fam.p == pytest.approx(np.exp(r) / (np.exp(r) + np.exp(-r)))
        assert 0.5 < fam.p < 1.0


def test_convolution_weights_closed_form():
    for r in RS:
        fam = CoshFamily(r)
        for k in range(6):
            for l in range(6):
                out = cosh_convolution(fam, k, l)
                assert sum(out.values()) == pytest.approx(1.0, abs=1e-14)
                assert all(v > 0 for v in out.values())
                if k and l and k != l:
                    assert set(out) == {k + l, abs(k - l)}
                    denom = 2 * np.cosh(k * r) * np.cosh(l * r)
                    assert out[k + l] == pytest.approx(
                        np.cosh((k + l) * r) / denom, rel=1e-14)
                    assert out[abs(k - l)] == pytest.approx(
                        np.cosh((k - l) * r) / denom, rel=1e-14)
                if l == 0:
                    assert out == {k: 1.0}
                if k == l and k > 0:
                    assert set(out) == {2 * k, 0}


def test_identity_weight_defines_valency():
    # mass at 0 in d_k * d_k is 1 / (2 cosh(kr)^2 ... ) times cosh(0):
    # its reciprocal is the natural weight of class k
    for r in RS:
        fam = CoshFamily(r)
        for k in range(1, 8):
            w = cosh_convolution(fam, k, k)[0]
            assert 1.0 / w == pytest.approx(2 * np.cosh(k * r) ** 2, rel=1e-13)


def test_base_product_is_the_undeformed_limit():
    for k in range(5):
        for l in range(5):
            out = cosh_base_product(k, l)
            assert sum(out.values()) == pytest.approx(1.0)
            if k and l and k != l:
                assert out == {k + l: 0.5, abs(k - l): 0.5}
            if l == 0:
                assert out == {k: 1.0}
    with pytest.raises(ParameterOutOfRange):
        cosh_base_product(-1, 2)


@pytest.mark.parametrize("k, l", [(-1, 2), (2, -1)])
def test_deformed_product_rejects_negative_classes(k, l):
    with pytest.raises(ParameterOutOfRange, match="^classes are nonnegative integers$"):
        cosh_convolution(CoshFamily(1.0), k, l)


def test_characters_multiplicative_exactly():
    """a(k) a(l) = sum of convolution weights times a: holds pointwise for
    every dual parameter, not just on a grid."""
    for r in RS:
        fam = CoshFamily(r)
        for lam in LAMBDAS + [0.3, 1.0 + 0.0j]:
            alpha = np.array([cosh_character(fam, lam, n) for n in range(13)])
            for k in range(1, 7):
                for l in range(1, 7):
                    conv = cosh_convolution(fam, k, l)
                    rhs = sum(w * alpha[n] for n, w in conv.items())
                    assert abs(alpha[k] * alpha[l] - rhs) <= 1e-12, (r, lam, k, l)


def test_character_normalization_and_decay():
    fam = CoshFamily(1.0)
    assert cosh_character(fam, 0.7, 0) == 1.0
    for n in range(1, 6):
        assert abs(cosh_character(fam, 0.3, n)) <= 1.0 / np.cosh(n)


def test_dual_parameter_membership():
    fam = CoshFamily(1.0)
    for lam in [0.0, 0.5, np.pi]:
        assert cosh_parameter_in_dual(fam, lam)
    assert cosh_parameter_in_dual(fam, 0.5j)          # [0, i r] segment
    assert cosh_parameter_in_dual(fam, 1.0j)
    assert cosh_parameter_in_dual(fam, np.pi + 0.8j)  # pi + i [0, r] segment
    assert not cosh_parameter_in_dual(fam, 1.2j)      # past i r
    assert not cosh_parameter_in_dual(fam, 3.5)       # outside [0, pi]
    assert not cosh_parameter_in_dual(fam, -0.2)
    assert not cosh_parameter_in_dual(fam, 1.0 + 0.5j)
    assert not cosh_parameter_in_dual(fam, np.pi + 1.4j)


def test_plancherel_support_is_the_real_segment():
    fam = CoshFamily(2.0)
    assert in_plancherel_support(fam, 1.0)
    assert in_plancherel_support(fam, np.pi)
    assert not in_plancherel_support(fam, 0.5j)
    assert not in_plancherel_support(fam, np.pi + 0.5j)


@pytest.mark.parametrize("r", RS)
def test_window_scheme_shape_and_audit(r):
    m = 8
    g = cosh_window_scheme(CoshFamily(r), m)
    assert g.n_points == 2 * m + 1
    assert g.n_classes == 2 * m + 1
    assert g.windowed
    rep = g.report
    assert rep["detailed_balance_residual"] <= 1e-10
    assert rep["closure_residual"] <= 1e-9
    assert rep["deformed_row_sum_residual"] <= 1e-10
    assert rep["deformed_support_matches"]
    assert rep["pairs_checked"] == sum(1 for i in range(m + 1) for j in range(m + 1)
                                       if i + j <= m)
    # vertex weights follow the exponential profile e^{2 r x}
    xs = np.array([int(p) for p in g.points])
    np.testing.assert_allclose(g.vertex_weight, np.exp(2 * r * xs), rtol=1e-12)


@pytest.mark.parametrize("r", RS)
def test_window_tensor_matches_closed_form(r):
    """Extracted products of checked pairs equal the global formula to
    near machine precision."""
    m = 8
    fam = CoshFamily(r)
    g = cosh_window_scheme(fam, m)
    worst = 0.0
    for k in range(m + 1):
        for l in range(m + 1):
            if not g.pair_checked[k, l]:
                continue
            expected = cosh_convolution(fam, k, l)
            row = g.p_tilde[k, l]
            for idx in range(g.n_classes):
                want = expected.get(idx, 0.0)
                worst = max(worst, abs(row[idx] - want))
    assert worst <= 1e-12


@pytest.mark.parametrize("r", RS)
def test_window_character_recursion_matches_closed_form(r):
    m = 8
    fam = CoshFamily(r)
    g = cosh_window_scheme(fam, m)
    for lam in LAMBDAS:
        alpha, residual = window_character(g, cosh_character(fam, lam, 1))
        expected = np.array([cosh_character(fam, lam, n) for n in range(m + 1)])
        np.testing.assert_allclose(alpha.real, expected, rtol=0, atol=1e-8,
                                   err_msg=str((r, lam)))
        assert np.abs(alpha.imag).max() <= 1e-10
        assert residual <= 1e-8, (r, lam)


def test_window_size_guard():
    with pytest.raises(ParameterOutOfRange):
        cosh_window_scheme(CoshFamily(1.0), 0)


def test_largest_window_audit_peak_memory():
    """At the largest window the audit's peak allocation stays a few (d, n, n)
    transition stacks: it keeps no (d, d) triple-count array per witness."""
    tracemalloc.start()
    try:
        g = cosh_window_scheme(CoshFamily(1.0), WINDOW_MAX_HALF_WIDTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.report["deformed_support_matches"]
    assert peak <= 8 * g.n_classes * g.step.nbytes, (peak, g.n_classes * g.step.nbytes)


def test_quadrature_reproduces_characters():
    for r in RS:
        fam = CoshFamily(r)
        for lam in (0.0, np.pi / 2):
            for n in range(6):
                val = cosh_connection_quadrature(fam, lam, n)
                assert abs(val - cosh_character(fam, lam, n)) <= 1e-8, (r, lam, n)


def test_quadrature_convergence_guard():
    fam = CoshFamily(1.0)
    with pytest.raises(QuadratureNotConverged):
        cosh_connection_quadrature(fam, 0.0, 2, step=3.0, cutoff=3.0)


def test_window_step_underflow_rejected():
    with pytest.raises(ParameterOutOfRange, match="underflows float64"):
        cosh_window_scheme(CoshFamily(30.0), 8)


@pytest.mark.parametrize("r", [18.0, 19.0, 20.0])
def test_window_keeps_the_small_step_mass(r):
    """1 - p rounds to 0 here; the down-step mass must not."""
    g = cosh_window_scheme(CoshFamily(r), 8)
    k = np.arange(1, 17)
    assert (g.relation[k, 0] == k).all() and (g.relation[0, k] == k).all()
    np.testing.assert_allclose(g.step[k, 0], 1.0 / (1.0 + np.exp(2 * r * k)), rtol=1e-15)
    np.testing.assert_allclose(g.step[0, k], 1.0 / (1.0 + np.exp(-2 * r * k)), rtol=1e-15)

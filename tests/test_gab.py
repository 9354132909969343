"""Two-parameter polynomial family: evaluation, linearization, measures,
graph realizations, and the dual moment test against the grid LP oracle."""

import math
import time
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups.errors import BallTooLarge, ParameterOutOfRange
from hypergroups.families import gab
from hypergroups.families.gab import (
    GabFamily,
    gab_ball,
    gab_dual_measure,
    gab_eval_all,
    gab_haar,
    gab_kernel_psd,
    gab_left_endpoint_values,
    gab_linearization,
)

import lp_oracle
from family_oracle import (
    ClosedFormSingular,
    QuadratureNotConverged,
    gab_eval_closed_form,
    gab_orthogonality_measure,
)
from lp_oracle import chebyshev_grid, lp_dual_measure

F = Fraction
PARAMS = [(2.0, 2.0), (2.0, 2.5), (2.5, 2.0), (2.5, 2.5), (3.0, 3.0),
          (2.0, 5.0), (5.0, 2.0), (5.0, 5.0), (3.0, 5.0), (10.0, 3.0)]


@pytest.mark.parametrize("a,b", [(1.0, 3.0), (3.0, 1.0), (0.5, 2.0), (2.0, -1.0)])
def test_parameters_must_exceed_one(a, b):
    with pytest.raises(ParameterOutOfRange):
        GabFamily(a, b)


@pytest.mark.parametrize("a,b", [(10**400, 3), (3, 10**400), (10**300, 10**300)],
                         ids=["a-past-float64", "b-past-float64", "s0-past-float64"])
def test_parameters_past_the_float_range(a, b):
    """Python ints past float64, or whose s0, s1 pass it: an error, not OverflowError."""
    with pytest.raises(ParameterOutOfRange, match="float64 range"):
        GabFamily(a, b)


def test_interval_endpoints_pinned():
    fam = GabFamily(3, 3)
    assert fam.s0 == -1.0
    assert fam.s1 == 1.25
    fam = GabFamily(2, 5)
    assert fam.s0 == pytest.approx(-1.25)
    assert fam.s1 == pytest.approx(1.25)


def test_haar_weights_closed_form():
    for a, b in PARAMS:
        fam = GabFamily(a, b)
        assert gab_haar(fam, 0) == 1.0
        for n in range(1, 8):
            expected = a * (a - 1) ** (n - 1) * (b - 1) ** n
            assert gab_haar(fam, n) == pytest.approx(expected, rel=1e-14), (a, b, n)


def test_linearization_low_order_pinned():
    fam = GabFamily(3, 3)
    g11 = gab_linearization(fam, 1, 1)
    assert g11.keys() == {0, 1, 2}
    assert g11[0] == pytest.approx(float(F(1, 6)), abs=1e-15)
    assert g11[1] == pytest.approx(float(F(1, 6)), abs=1e-15)
    assert g11[2] == pytest.approx(float(F(2, 3)), abs=1e-15)
    g22 = gab_linearization(fam, 2, 2)
    expected = {0: F(1, 24), 1: F(1, 24), 2: F(1, 12), 3: F(1, 6), 4: F(2, 3)}
    assert g22.keys() == expected.keys()
    for k, v in expected.items():
        assert g22[k] == pytest.approx(float(v), abs=1e-15)


def test_linearization_is_a_probability_on_the_right_support():
    for a, b in PARAMS:
        fam = GabFamily(a, b)
        for m in range(8):
            for n in range(8):
                g = gab_linearization(fam, m, n)
                assert set(g) <= set(range(abs(m - n), m + n + 1)), (a, b, m, n)
                assert abs(m - n) in g and (m + n in g or m == 0 or n == 0)
                assert all(v >= 0 for v in g.values()), (a, b, m, n)
                assert sum(g.values()) == pytest.approx(1.0, abs=1e-12)
                assert g == gab_linearization(fam, n, m)
                # identity-coefficient / weight duality
                if m == n and n > 0:
                    assert g[0] == pytest.approx(1.0 / gab_haar(fam, n), rel=1e-12)


def test_value_at_right_endpoint_is_one():
    for a, b in PARAMS:
        fam = GabFamily(a, b)
        vals = gab_eval_all(fam, 20, fam.s1)
        np.testing.assert_allclose(vals, 1.0, rtol=1e-9, err_msg=str((a, b)))


def test_value_at_left_endpoint_is_geometric():
    for a, b in PARAMS:
        fam = GabFamily(a, b)
        vals = gab_eval_all(fam, 20, fam.s0)
        expected = (1.0 - b) ** -np.arange(21.0)
        np.testing.assert_allclose(vals, expected, rtol=1e-9, err_msg=str((a, b)))


def test_product_formula_pointwise(rng):
    """P_m(x) P_n(x) = sum_k g_k P_k(x) for every real x, not just on the
    spectrum: the linearization is an algebraic identity."""
    for a, b in [(2.0, 2.0), (3.0, 3.0), (2.5, 4.0), (5.0, 2.0)]:
        fam = GabFamily(a, b)
        inside = rng.uniform(fam.s0, fam.s1, size=20)
        outside = np.concatenate([rng.uniform(fam.s1, fam.s1 + 0.5, size=3),
                                  rng.uniform(fam.s0 - 0.5, fam.s0, size=3)])
        for m in range(11):
            for n in range(11):
                g = gab_linearization(fam, m, n)
                for x in inside:
                    vals = gab_eval_all(fam, m + n, x)
                    lhs = vals[m] * vals[n]
                    rhs = sum(w * vals[k] for k, w in g.items())
                    assert abs(lhs - rhs) < 1e-10, (a, b, m, n, x)
                for x in outside:  # unbounded values: identity holds relatively
                    vals = gab_eval_all(fam, m + n, x)
                    lhs = vals[m] * vals[n]
                    rhs = sum(w * vals[k] for k, w in g.items())
                    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs)), \
                        (a, b, m, n, x)


def test_recurrence_agrees_with_closed_form():
    for a, b in [(2.0, 2.0), (3.0, 3.0), (2.0, 5.0), (2.5, 3.5)]:
        fam = GabFamily(a, b)
        for x in (0.37, -0.61, 0.93, 1.4, 2.0, -1.7, fam.s1 + 0.3):
            vals = gab_eval_all(fam, 50, x)
            for n in range(51):
                try:
                    ref = gab_eval_closed_form(fam, n, x)
                except ClosedFormSingular:
                    continue
                assert abs(ref.imag) < 1e-9 * max(1.0, abs(ref))
                assert vals[n] == pytest.approx(ref.real,
                                                rel=1e-9, abs=1e-12), (a, b, n, x)


def test_closed_form_singular_points_still_evaluate():
    fam = GabFamily(3, 3)
    for x in (1.0, -1.0):
        with pytest.raises(ClosedFormSingular):
            gab_eval_closed_form(fam, 5, x)
        assert np.isfinite(gab_eval_all(fam, 5, x)[5])


def test_bounded_by_one_on_the_interval():
    for a, b in PARAMS:
        fam = GabFamily(a, b)
        xs = np.linspace(fam.s0, fam.s1, 113)
        vals = np.array([gab_eval_all(fam, 12, x) for x in xs])
        assert np.abs(vals).max() <= 1.0 + 1e-12, (a, b)


def _second_kind_rule(n_nodes):
    k = np.arange(1, n_nodes + 1)
    theta = k * np.pi / (n_nodes + 1)
    return np.cos(theta), (np.pi / (n_nodes + 1)) * np.sin(theta) ** 2


@pytest.mark.parametrize("a,b", [(3.0, 5.0), (2.0, 5.0), (4.0, 2.5)])
def test_orthogonality_against_independent_quadrature(a, b):
    """Pairwise integrals recomputed with a hand-rolled Gauss rule for the
    sqrt(1-x^2) weight (valid because the interval endpoints stay off the
    quadrature support for these parameters)."""
    fam = GabFamily(a, b)
    mu = gab_orthogonality_measure(fam)
    if b > a:
        assert mu.atom_location == pytest.approx(fam.s0)
        assert mu.atom_mass == pytest.approx((b - a) / b)
    else:
        assert mu.atom_location is None and mu.atom_mass == 0.0
    x, w = _second_kind_rule(4000)
    dens = (fam.a / (2 * np.pi)) / ((fam.s1 - x) * (x - fam.s0))
    V = np.array([gab_eval_all(fam, 5, t) for t in x]).T         # (6, nodes)
    atomV = gab_eval_all(fam, 5, mu.atom_location) if mu.atom_mass else None
    for m in range(6):
        for n in range(6):
            val = float(np.dot(w, V[m] * V[n] * dens))
            if atomV is not None:
                val += mu.atom_mass * atomV[m] * atomV[n]
            expected = 1.0 / gab_haar(fam, n) if m == n else 0.0
            assert val == pytest.approx(expected, abs=2e-9), (a, b, m, n)


def test_measure_object_integrates_consistently():
    """Mass one and the Gram matrix of P_0..P_5 diag(1 / haar(n)), atom at s0
    included (b > a; (3, 3) has s0 = -1 on the support edge, and (2, 2) s0 = -1
    and s1 = 1 on both), and the density alone, by its own rule in theta, carries
    all but the atom's mass."""
    t, w = np.polynomial.legendre.leggauss(200)
    theta = math.pi * (t + 1.0) / 2.0
    for a, b in [(3, 3), (2, 3), (2, 5), (3, 5), (2, 2)]:
        fam = GabFamily(a, b)
        mu = gab_orthogonality_measure(fam)
        assert (mu.atom_location is not None) == (b > a)
        total = mu.total_mass()
        assert total == pytest.approx(1.0, abs=1e-10), (a, b)
        for n in range(1, 6):
            assert mu.integrate(lambda x: gab_eval_all(fam, n, x)[n]) == pytest.approx(
                0.0, abs=1e-10), (a, b, n)
        gram = [[mu.integrate(lambda x: gab_eval_all(fam, m, x)[m] * gab_eval_all(fam, n, x)[n])
                 for n in range(6)] for m in range(6)]
        np.testing.assert_allclose(gram, np.diag([1.0 / gab_haar(fam, n) for n in range(6)]),
                                   rtol=1e-9, atol=1e-12, err_msg=str((a, b)))
        density_mass = (math.pi / 2.0) * float(np.sum(w * mu.density(np.cos(theta))
                                                      * np.sin(theta)))
        assert density_mass == pytest.approx(total - mu.atom_mass, abs=1e-10), (a, b)


def test_ball_sphere_sizes_match_haar_weights():
    for a, b in [(3, 3), (2, 3), (2, 5)]:
        fam = GabFamily(a, b)
        dist, depth = gab_ball(fam, 3)
        counts = [int((dist[0] == k).sum()) for k in range(4)]
        expected = [int(gab_haar(fam, n)) for n in range(4)]
        assert counts == expected, (a, b)
        assert dist.shape == (sum(expected), sum(expected))
        np.testing.assert_array_equal(dist, dist.T)
        np.testing.assert_array_equal(dist[0], depth)


def test_ball_is_homogeneous_around_interior_vertices():
    fam = GabFamily(3, 3)
    dist, depth = gab_ball(fam, 3)
    for v in np.flatnonzero(depth == 1):
        counts = [int((dist[v] == k).sum()) for k in range(3)]
        assert counts == [1, 6, 24]


def test_ball_budget_and_parameter_guards():
    fam = GabFamily(3, 3)
    with pytest.raises(BallTooLarge):
        gab_ball(fam, 4, vertex_budget=100)
    with pytest.raises(ParameterOutOfRange):
        gab_ball(GabFamily(2.5, 3), 2)


def _ball_by_dijkstra(a, b, radius):
    """Reference: the clique tree's edge list grown clique by clique, then
    scipy's unweighted shortest paths."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rows, cols, depth = [], [], [0]
    frontier, next_id = [(0, a)], 1
    for t in range(radius):
        incoming = []
        for v, cliques in frontier:
            for _ in range(cliques):
                members = [v] + list(range(next_id, next_id + b - 1))
                next_id += b - 1
                for u in members[1:]:
                    depth.append(t + 1)
                    incoming.append((u, a - 1))
                for s, u in enumerate(members):
                    for w in members[s + 1:]:
                        rows += [u, w]
                        cols += [w, u]
        frontier = incoming
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(next_id, next_id))
    return dijkstra(adj, unweighted=True).astype(np.int64), np.array(depth)


@pytest.mark.parametrize("a, b, radius, budget", [
    (2, 2, 4, 5000), (3, 3, 3, 5000), (2, 5, 3, 5000), (5, 2, 3, 5000),
    (4, 3, 2, 5000), (3, 4, 1, 5000), (3, 3, 0, 5000),
    (3, 3, 5, 2047),  # exactly at its budget
])
def test_ball_matches_dijkstra(a, b, radius, budget):
    dist, depth = gab_ball(GabFamily(a, b), radius, vertex_budget=budget)
    ref, ref_depth = _ball_by_dijkstra(a, b, radius)
    assert dist.dtype == depth.dtype == np.int64
    np.testing.assert_array_equal(dist, ref)
    np.testing.assert_array_equal(depth, ref_depth)
    if budget < 5000:
        with pytest.raises(BallTooLarge):
            gab_ball(GabFamily(a, b), radius, vertex_budget=budget - 1)


def _ball_by_root_paths(a, b, radius):
    """Reference: distances half those of the vertex-clique tree, whose root
    paths (root, clique, vertex, ..., clique, v) share a prefix of length P:
    dist(u, v) = depth u + depth v + 1 - P, with P counted column by column."""
    size = 1 + sum(a * (b - 1) * ((a - 1) * (b - 1)) ** t for t in range(radius))
    # path[v, 2t] is the ancestor of v at depth t, path[v, 2t-1] the clique joining
    # it to its parent, and -1-v pads the row past the depth of v
    path = np.repeat(-1 - np.arange(size)[:, None], 2 * radius + 1, axis=1)
    path[0, 0] = 0
    depth = np.zeros(size, dtype=np.int64)
    lo, hi, cliques = 0, 1, 0
    for t in range(1, radius + 1):
        parents = np.repeat(np.arange(lo, hi), (a if t == 1 else a - 1) * (b - 1))
        fresh = np.arange(hi, hi + len(parents))
        path[fresh, : 2 * t - 1] = path[parents, : 2 * t - 1]
        path[fresh, 2 * t - 1] = cliques + np.arange(len(parents)) // (b - 1)
        path[fresh, 2 * t] = fresh
        depth[fresh] = t
        cliques += len(parents) // (b - 1)
        lo, hi = hi, hi + len(parents)
    shared = sum((col[:, None] == col[None, :]).astype(np.int64) for col in path.T)
    dist = depth[:, None] + depth[None, :] + 1 - shared
    np.fill_diagonal(dist, 0)
    return dist, depth


@pytest.mark.parametrize("a, b, radius", [
    (2, 2, 0), (2, 2, 1), (2, 2, 7), (3, 3, 1), (3, 3, 4), (2, 5, 3), (5, 2, 3),
    (4, 3, 2), (3, 4, 3), (2, 3, 6), (6, 6, 2),
])
def test_ball_matches_root_path_formula(a, b, radius):
    dist, depth = gab_ball(GabFamily(a, b), radius)
    ref, ref_depth = _ball_by_root_paths(a, b, radius)
    np.testing.assert_array_equal(dist, ref)
    np.testing.assert_array_equal(depth, ref_depth)


def test_thin_ball_is_built_level_by_level():
    """At a = b = 2 the ball is a path of 2 radius + 1 vertices; radius 2499
    fills the default budget of 5000 with 4999."""
    start = time.perf_counter()
    dist, depth = gab_ball(GabFamily(2, 2), 2499)
    assert time.perf_counter() - start < 2.0
    assert dist.shape == (4999, 4999)
    assert dist[0].max() == 2499 and dist[-1, -2] == 4998 == dist.max()


def test_psd_sweep_builds_one_ball(monkeypatch, capsys):
    from hypergroups.cli import main

    calls = []
    real = gab.gab_ball

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gab, "gab_ball", counted)
    assert main(["family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep"]) == 0
    assert '"points": 61' in capsys.readouterr().out
    assert len(calls) == 1


def test_kernel_positivity_frontier_small_radius():
    fam = GabFamily(3, 3)
    for x in (-1.0, -0.5, 0.0, 1.0, 1.25):
        out = gab_kernel_psd(fam, x, 3)
        assert out["psd"], out
        assert out["min_eigenvalue"] >= -1e-8
        assert out["n_vertices"] == 127
    for x in (-1.1, -1.2):
        out = gab_kernel_psd(fam, x, 3)
        assert not out["psd"]
        assert out["min_eigenvalue"] < -1e-6


def test_chebyshev_grid_shape():
    fam = GabFamily(3, 3)
    grid = chebyshev_grid(fam, 40)
    assert grid.shape == (40,)
    assert grid[0] == pytest.approx(-fam.s1)
    assert grid[-1] == pytest.approx(fam.s1)
    assert (np.diff(grid) > 0).all()


def test_lp_feasible_interior_point():
    fam = GabFamily(3, 3)
    res = gab_dual_measure(fam, 0.3, 0.7, order=8)
    assert res.feasible
    assert res.max_violation <= 1e-8
    assert (res.weights >= 0).all()
    # the returned weights really do match the target moments
    vals = np.array([gab_eval_all(fam, 8, t) for t in res.nodes])
    lhs = res.weights @ vals
    rhs = gab_eval_all(fam, 8, 0.3) * gab_eval_all(fam, 8, 0.7)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-8)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-8)


def test_lp_feasible_at_endpoint_pairs():
    fam = GabFamily(3, 3)
    for x, y in [(fam.s1, fam.s1), (fam.s0, fam.s0), (fam.s1, 0.37)]:
        res = gab_dual_measure(fam, x, y, order=8)
        assert res.feasible, (x, y, res.max_violation)
        assert res.max_violation <= 1e-8


def test_lp_respects_explicit_grid():
    fam = GabFamily(3, 3)
    grid = np.array([fam.s0, 0.0, fam.s1])
    res = lp_dual_measure(fam, fam.s1, fam.s1, order=6, grid=grid)
    assert res.feasible
    np.testing.assert_array_equal(res.nodes, grid)


def test_lp_infeasible_outside_with_valid_certificate():
    fam = GabFamily(3, 3)
    phi = gab_eval_all(fam, 8, np.linspace(-fam.s1, fam.s1, 4001))
    for x, y in [(2.0, 2.0), (1.3, 1.3), (-1.2, 0.3)]:
        res = gab_dual_measure(fam, x, y, order=8)
        assert not res.feasible, (x, y)
        cert = res.certificate
        assert cert is not None and cert["valid"]
        assert cert["moment_margin"] > 1e-6
        # re-verify the separating polynomial from scratch: nonpositive on
        # the whole interval, positive against the moments
        yvec = np.asarray(cert["y"])
        assert float((yvec @ phi).max()) <= 1e-10
        assert float(yvec @ res.moments) > 0
        # so no grid measure matches the moments either
        assert not lp_dual_measure(fam, x, y, order=8).feasible


def test_lp_oracle_reports_solver_failure(monkeypatch):
    failed = SimpleNamespace(status=4, message="numerical difficulties")
    monkeypatch.setattr(lp_oracle, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(lp_oracle.SolverFailed, match="numerical difficulties"):
        lp_dual_measure(GabFamily(3, 3), 0.3, 0.7, order=4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e200])
@pytest.mark.parametrize("which", ["x", "y"])
def test_lp_rejects_unusable_points(monkeypatch, value, which):
    def no_matrices(*args, **kwargs):
        raise AssertionError("the moment matrices must not be built")

    monkeypatch.setattr(gab, "_gram", no_matrices)
    x, y = (value, 0.3) if which == "x" else (0.3, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            gab_dual_measure(GabFamily(3, 3), x, y, order=8)


def test_moment_matrices_that_overflow_are_rejected():
    fam = GabFamily(50, 50)
    assert np.isfinite(gab_eval_all(fam, 8, 4e20) ** 2).all()  # the moments fit float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="moment matrices overflow"):
            gab_dual_measure(fam, 4e20, 4e20, order=8)
        # Haar weights: a float power, and with integer a, b no big int either
        for fam, n in ((GabFamily(1e200, 3), 3), (GabFamily(3, 3), 10**6)):
            with pytest.raises(ParameterOutOfRange, match="Haar weight .* overflows"):
                gab_haar(fam, n)


def test_lp_rejects_bad_order():
    fam = GabFamily(3, 3)
    for order in (0, gab.MOMENT_MAX_ORDER + 1):
        with pytest.raises(ParameterOutOfRange):
            gab_dual_measure(fam, 0.3, 0.7, order=order)


@pytest.mark.parametrize("x, y", [(-0.5, 0.0), (0.3, 0.7), (0.9, -0.2), (-1.0, 0.25),
                                  (1.0, 0.5), (0.6, 0.6)])
def test_chebyshev_case_matches_closed_form(x, y):
    """At a = b = 2, P_n = T_n and, with x = cos(al), y = cos(be), the
    product formula is (delta_cos(al+be) + delta_cos(al-be)) / 2.  With
    two atoms the moments from order 4 on fix the measure."""
    fam = GabFamily(2, 2)
    al, be = math.acos(x), math.acos(y)
    atoms = np.array([math.cos(al + be), math.cos(al - be)])
    for order in (4, 7, 8, 12):
        res = gab_dual_measure(fam, x, y, order=order)
        assert res.feasible and res.max_violation <= 1e-12, (order, res.max_violation)
        near = np.abs(res.nodes[:, None] - atoms[None, :]) <= 1e-9
        assert near[res.weights > 1e-12].any(axis=1).all(), (order, res.nodes, res.weights)
        for j in range(2):
            expected = 0.5 * (np.abs(atoms - atoms[j]) <= 1e-9).sum()
            assert res.weights[near[:, j]].sum() == pytest.approx(expected, abs=1e-12)
    if (x, y) == (-0.5, 0.0):
        # the atoms +-sqrt(3)/2 are off the Chebyshev grid, which read this as a failure
        assert not lp_dual_measure(fam, x, y, order=8).feasible


@pytest.mark.parametrize("a, b", [(3, 3), (2, 5), (5, 2), (2.5, 4.0), (2, 2)])
def test_point_mass_at_the_right_endpoint(a, b):
    """P_n(s1) = 1, so the product formula at x = s1 is the point mass at y."""
    fam = GabFamily(a, b)
    for order in (1, 2, 5, 8, 12):
        for y in (fam.s0, 0.0, (fam.s0 + fam.s1) / 2, fam.s1):
            res = gab_dual_measure(fam, fam.s1, y, order=order)
            assert res.feasible, (order, y, res.max_violation)
            at_y = np.abs(res.nodes - y) <= 1e-12
            assert res.weights[at_y].sum() == pytest.approx(1.0, abs=1e-12), (order, y)
            assert res.weights[~at_y].sum() <= 1e-12, (order, y, res.nodes, res.weights)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(2, 5), st.floats(2, 5), st.floats(0, 1), st.floats(0, 1), st.integers(1, 12))
def test_moment_measures_hold_up_against_the_lp(a, b, u, v, order):
    """Over [s0, s1]^2 the moment test finds a measure; it re-verifies
    from scratch, and the grid LP, given a grid that holds its atoms,
    finds a measure too."""
    fam = GabFamily(a, b)
    x, y = fam.s0 + u * (fam.s1 - fam.s0), fam.s0 + v * (fam.s1 - fam.s0)
    res = gab_dual_measure(fam, x, y, order=order)
    assert res.feasible, res.max_violation
    assert (np.abs(res.nodes) <= fam.s1).all() and (res.weights >= 0).all()
    dev = float(np.abs(gab_eval_all(fam, order, res.nodes) @ res.weights - res.moments).max())
    assert dev <= 1e-8 and dev == pytest.approx(res.max_violation, rel=1e-6, abs=1e-15)
    grid = np.union1d(chebyshev_grid(fam, 100), res.nodes)
    assert lp_dual_measure(fam, x, y, order=order, grid=grid).feasible


def _exact_left_endpoint_values(a, b, nmax):
    """Forward recurrence at s0 in exact rationals.

    All recurrence data is rational there: P_1(s0) collapses to
    1/(1-b), so the whole sequence stays in Fraction arithmetic and is
    immune to the mode mixing that limits the float forward pass.
    """
    a, b = F(a), F(b)
    p1 = 1 / (1 - b)
    c_prev = 1 / (a * (b - 1))
    c_same = (b - 2) / (a * (b - 1))
    lift = a / (a - 1)
    vals = [F(1), p1]
    for n in range(1, nmax):
        vals.append(lift * (p1 * vals[n] - c_prev * vals[n - 1] - c_same * vals[n]))
    return vals[: nmax + 1]


def test_left_endpoint_values_match_exact_recurrence():
    for a, b in [(2.0, 2.0), (2.0, 2.5), (2.5, 5.0), (2.0, 5.0), (3.0, 5.0),
                 (5.0, 2.0), (5.0, 5.0), (2.5, 3.0), (10.0, 3.0), (2.0, 12.0)]:
        fam = GabFamily(a, b)
        got = gab_left_endpoint_values(fam, 30)
        ref = _exact_left_endpoint_values(a, b, 30)
        for n in range(31):
            rel = abs(got[n] - float(ref[n])) / abs(float(ref[n]))
            assert rel <= 1e-11, (a, b, n, rel)


def test_left_endpoint_values_are_geometric():
    """The stable route reproduces (1-b)^{-n} even where the plain
    forward pass loses eight digits."""
    fam = GabFamily(2.5, 5.0)
    noisy = gab_eval_all(fam, 20, np.float64(fam.s0))
    stable = gab_left_endpoint_values(fam, 20)
    ref = (1.0 - 5.0) ** -np.arange(21.0)
    assert abs(noisy[20] - ref[20]) / abs(ref[20]) > 1e-9   # the failure mode is real
    np.testing.assert_allclose(stable, ref, rtol=1e-12)


def test_left_endpoint_values_rejects_negative_degree():
    with pytest.raises(ParameterOutOfRange):
        gab_left_endpoint_values(GabFamily(3, 3), -1)


def test_left_endpoint_values_survive_a_rescaled_backward_pass():
    """At (3, 7) the backward pass from degree 340 grows by about b - 1 = 6 a step,
    past 1e250 before degree zero, so it is rescaled on the way down."""
    np.testing.assert_allclose(gab_left_endpoint_values(GabFamily(3, 7), 300),
                               (1.0 - 7.0) ** -np.arange(301.0), rtol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda fam: gab_haar(fam, -1), "degree must be nonnegative"),
    (lambda fam: gab_linearization(fam, -1, 2), "degrees must be nonnegative"),
    (lambda fam: gab_linearization(fam, 2, -1), "degrees must be nonnegative"),
    (lambda fam: gab_eval_all(fam, -1, 0.5), "degree must be nonnegative"),
], ids=["haar", "linearization-left", "linearization-right", "eval-all"])
def test_negative_degrees_rejected(call, message):
    with pytest.raises(ParameterOutOfRange) as err:
        call(GabFamily(3, 3))
    assert str(err.value) == message


def test_measure_integration_refuses_a_rule_that_does_not_settle():
    """cos(300 x) oscillates faster than 100 Gauss nodes resolve: the two rules disagree."""
    mu = gab_orthogonality_measure(GabFamily(3, 3))
    with pytest.raises(QuadratureNotConverged, match="^doubling the rule moved the value by "):
        mu.integrate(lambda x: np.cos(300 * x))

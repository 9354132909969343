"""Acceptance checks for the package contract.

Each test covers one criterion end to end, prints exactly one PASS/FAIL
summary line (visible even under capture), and enforces a wall-clock
cap.  Tolerances are stated inline next to each assertion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from family_oracle import ClosedFormSingular, cosh_connection_quadrature, gab_eval_closed_form
from group_oracle import hecke_convolution
from hypergroups import catalog
from hypergroups.cli import main
from hypergroups.families.cosh import (
    CoshFamily,
    cosh_character,
    cosh_convolution,
    cosh_window_scheme,
    window_character,
)
from hypergroups.families.gab import (
    GabFamily,
    gab_dual_measure,
    gab_eval_all,
    gab_kernel_psd,
    gab_left_endpoint_values,
    gab_linearization,
)
from hypergroups.generalized import (
    classical_embedding,
    dual_product_generalized,
    hypergroup_from_generalized,
)
from hypergroups.groups import (
    cyclic_group,
    scheme_from_group_quotient,
    symmetric_group,
)
from hypergroups.harmonic import (
    character_table,
    dual_convolution,
    is_positive_definite,
)
from hypergroups.hypergroup import hypergroup_from_scheme
from hypergroups.jsonio import (
    dump_report,
    generalized_to_json,
    hypergroup_to_json,
    scheme_to_json,
)
from hypergroups.schemes import audit_intersection_identities

SEED = 0xC0FFEE


def _commutative_fixtures():
    """Every commutative scheme in the catalog fixture set."""
    out = {f"z{n}": catalog.cyclic_scheme(n) for n in range(2, 13)}
    out.update({
        "pentagon": catalog.pentagon_scheme(),
        "k4": catalog.k4_scheme(),
        "petersen": catalog.petersen_scheme(),
        "s3_mod_h": catalog.s3_mod_transposition(),
        "s4_mod_s3": catalog.s4_mod_s3(),
    })
    return out


def _run_criterion(capsys, idx, label, cap, body):
    """Run one criterion body, print its summary line, enforce the cap."""
    t0 = time.perf_counter()
    ok = False
    note = ""
    try:
        body()
        ok = True
    except BaseException as exc:  # the line must appear even on a crash
        note = f" <- {type(exc).__name__}"
        raise
    finally:
        elapsed = time.perf_counter() - t0
        timed_out = cap is not None and elapsed >= cap
        status = "PASS" if ok and not timed_out else "FAIL"
        cap_txt = "" if cap is None else f", cap {cap:g}s"
        with capsys.disabled():
            print(f"acceptance {idx:02d} {status}: {label} "
                  f"[{elapsed:.2f}s{cap_txt}]{note}")
    if cap is not None:
        assert elapsed < cap, f"runtime {elapsed:.2f}s exceeded the {cap:g}s cap"


def test_01_scheme_axioms_exact(capsys):
    def body():
        for name, s in _commutative_fixtures().items():
            report = audit_intersection_identities(s)
            assert report["all_hold"], (name, report)

    _run_criterion(capsys, 1, "scheme axioms hold exactly on all catalog fixtures",
                   5.0, body)


def test_02_coset_counting_equals_scheme_convolution(capsys):
    def body():
        g3 = symmetric_group(3)
        g4 = symmetric_group(4)
        pairs = [(cyclic_group(n), [0]) for n in range(2, 13)]
        pairs += [
            (g3, [(0, 1, 2), (1, 0, 2)]),
            (g4, [p for p in g4.elements if p[3] == 3]),
            (cyclic_group(6), [0, 3]),
            (g3, [g3.identity]),
        ]
        for g, sub in pairs:
            s = scheme_from_group_quotient(g, sub)
            h = hypergroup_from_scheme(s)
            d = s.n_classes
            for a in range(d):
                for b in range(d):
                    measured = hecke_convolution(g, sub, a, b)
                    for k in range(d):
                        assert (measured.get(s.classes[k], Fraction(0))
                                == Fraction(h.conv[a, b, k])), (s.classes, a, b, k)

    _run_criterion(capsys, 2,
                   "double-coset counting reproduces the quotient-scheme "
                   "convolution exactly", 5.0, body)


def test_03_matrix_and_spectral_positivity_agree(capsys):
    def body():
        rng = np.random.default_rng(SEED)
        for name, s in _commutative_fixtures().items():
            h = hypergroup_from_scheme(s)
            tbl = character_table(h)
            d = h.n_classes
            for trial in range(1000):
                mode = trial % 3
                if mode == 0:
                    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    f = (f + np.conjugate(f[h.involution])) / 2
                else:
                    coeffs = np.abs(rng.standard_normal(d))
                    if mode == 2:
                        coeffs[rng.integers(d)] *= -1.0
                    f = (tbl.plancherel * coeffs) @ tbl.chars  # the inverse Fourier transform
                ok, cert = is_positive_definite(h, f, tbl=tbl)
                assert ok == cert["bochner_positive"], (
                    name, trial, cert["min_eigenvalue"], cert["fourier_min"])

    _run_criterion(capsys, 3,
                   "matrix test and character-coefficient test of positive "
                   "definiteness agree on 1000 seeded functions per fixture",
                   30.0, body)


def test_04_dual_products_are_orthogonal_probabilities(capsys):
    def body():
        for name, s in _commutative_fixtures().items():
            h = hypergroup_from_scheme(s)
            tbl = character_table(h)
            d = h.n_classes
            # gap[b, c]: how far chi_c lies from the complex conjugate of chi_b
            gap = np.abs(tbl.chars[None, :] - np.conjugate(tbl.chars)[:, None]).max(axis=2)
            conjugate = gap.argmin(axis=1)
            assert gap[np.arange(d), conjugate].max() <= 1e-8, (name, gap.min(axis=1))
            for a in range(d):
                for b in range(d):
                    dm = dual_convolution(h, tbl, a, b)
                    assert dm.min_raw_real >= -1e-9, (name, a, b, dm.min_raw_real)
                    assert abs(dm.sum_raw - 1.0) <= 1e-10, (name, a, b, dm.sum_raw)
                    if a != b:
                        paired = dual_convolution(h, tbl, a, int(conjugate[b]))
                        mass = abs(paired.raw[tbl.positive_index])
                        assert mass <= 1e-10, (name, a, b, mass)

    _run_criterion(capsys, 4,
                   "dual products: coefficients >= -1e-9, total mass 1, and "
                   "zero trivial mass for distinct conjugate pairs", 10.0, body)


def test_05_clique_tree_polynomial_identities(capsys):
    def body():
        rng = np.random.default_rng(SEED)
        grid = (2.0, 2.5, 3.0, 5.0)
        for a in grid:
            for b in grid:
                fam = GabFamily(a, b)
                right = gab_eval_all(fam, 20, np.float64(fam.s1))
                left = gab_left_endpoint_values(fam, 20)
                for n in range(21):
                    ref = (1.0 - b) ** (-n)
                    assert abs(right[n] - 1.0) <= 1e-9, (a, b, n, right[n])
                    assert abs(left[n] - ref) / abs(ref) <= 1e-9, (a, b, n, left[n])

                xs = fam.s0 + (fam.s1 - fam.s0) * rng.random(20)
                table = gab_eval_all(fam, 20, xs)
                for m in range(11):
                    for n in range(11):
                        coeffs = gab_linearization(fam, m, n)
                        rhs = sum(c * table[k] for k, c in coeffs.items())
                        dev = float(np.abs(table[m] * table[n] - rhs).max())
                        assert dev < 1e-10, (a, b, m, n, dev)

                interior = np.concatenate([rng.uniform(-0.95, 0.95, 8),
                                           [fam.s0 / 2.0, -0.3, 0.6]])
                for x in interior:
                    rec = gab_eval_all(fam, 50, np.float64(x))
                    for n in range(51):
                        try:
                            cf = gab_eval_closed_form(fam, n, float(x))
                        except ClosedFormSingular:
                            continue
                        rel = abs(rec[n] - cf) / max(1.0, abs(cf))
                        assert rel <= 1e-9, (a, b, n, float(x), rel)

    _run_criterion(capsys, 5,
                   "polynomial family identities: endpoint values, product "
                   "formula, recurrence vs closed form", 10.0, body)


def test_06_distance_kernel_positivity_frontier(capsys):
    def body():
        fam = GabFamily(3, 3)
        for x in (-1.0, -0.5, 0.0, 1.0, 1.25):
            for radius in range(1, 5):
                rep = gab_kernel_psd(fam, x, radius, vertex_budget=5000, tol=1e-8)
                assert rep["n_vertices"] <= 5000
                assert rep["min_eigenvalue"] >= -1e-8, (x, radius, rep)
        for x in (-1.10, -1.20):
            floors = [gab_kernel_psd(fam, x, radius, vertex_budget=5000,
                                     tol=1e-8)["min_eigenvalue"]
                      for radius in range(1, 5)]
            assert min(floors) < -1e-6, (x, floors)

    _run_criterion(capsys, 6,
                   "distance-kernel eigenvalue floor: nonnegative inside the "
                   "interval and beyond the right edge, strictly negative "
                   "past the left edge", 60.0, body)


def test_07_moment_lp_feasible_on_spectrum_grid(capsys):
    def body():
        fam = GabFamily(3, 3)
        values = [fam.s0 + (fam.s1 - fam.s0) * i / 4 for i in range(5)]
        for x in values:
            for y in values:
                res = gab_dual_measure(fam, x, y, order=8, slack=1e-8)
                assert res.feasible, (x, y, res.max_violation)
                assert res.max_violation < 1e-8, (x, y, res.max_violation)
                # re-verify the returned measure from scratch; the solver
                # reports bound values only to its own roundoff
                w = np.asarray(res.weights)
                assert float(w.min()) >= -1e-9
                phi = gab_eval_all(fam, 8, res.nodes)
                dev = float(np.abs(phi @ w - res.moments).max())
                assert dev <= 1e-8 + 1e-12, (x, y, dev)

    _run_criterion(capsys, 7,
                   "moment test is feasible on the full 5x5 spectrum "
                   "grid at order 8", 120.0, body)


def test_08_exponential_window_scheme_contract(capsys):
    def body():
        lam_values = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
        for r in (0.5, 1.0, 2.0):
            fam = CoshFamily(r)
            g = cosh_window_scheme(fam, 8)
            rep = g.report
            assert rep["stochastic_rows_checked"] > 0
            assert rep["deformed_support_matches"]
            for key, value in rep.items():
                if key.endswith("residual"):
                    assert value <= 1e-10, (r, key, value)

            closed_dev = 0.0
            for k in range(9):
                for l in range(9 - k):
                    ref = cosh_convolution(fam, k, l)
                    vec = g.p_tilde[k, l]
                    for idx in range(g.n_classes):
                        closed_dev = max(closed_dev,
                                         abs(vec[idx] - ref.get(idx, 0.0)))
            assert closed_dev <= 1e-12, (r, closed_dev)

            for lam in lam_values:
                _, resid = window_character(g, complex(cosh_character(fam, lam, 1)))
                assert resid <= 1e-12, (r, lam, resid)

            for lam in (0.0, math.pi / 2):
                for n in range(6):
                    dev = abs(cosh_connection_quadrature(fam, lam, n)
                              - cosh_character(fam, lam, n))
                    assert dev <= 1e-8, (r, lam, n, dev)

    _run_criterion(capsys, 8,
                   "windowed exponential family: interior axioms, closed-form "
                   "convolution, multiplicative characters, quadrature "
                   "identity", 30.0, body)


def test_09_generalized_dual_matches_classical(capsys):
    def body():
        for name, s in _commutative_fixtures().items():
            g = classical_embedding(s)
            h = hypergroup_from_scheme(s)
            tbl = character_table(h)
            hg = hypergroup_from_generalized(g)
            tblg = character_table(hg)
            d = h.n_classes
            for a in range(d):
                for b in range(d):
                    dm_gen, info = dual_product_generalized(g, tblg, a, b)
                    assert info["precondition_certified"], (name, a, b)
                    dm_cls = dual_convolution(h, tbl, a, b)
                    dev = float(np.abs(dm_gen.raw - dm_cls.raw).max())
                    assert dev <= 1e-12, (name, a, b, dev)

    _run_criterion(capsys, 9,
                   "dual products through the generalized route equal the "
                   "classical dual convolution", 5.0, body)


def test_10_reports_are_deterministic(capsys, tmp_path):
    def body():
        s = catalog.pentagon_scheme()
        docs = {}
        for name, obj in (
            ("scheme.json", scheme_to_json(s)),
            ("hg.json", hypergroup_to_json(hypergroup_from_scheme(s))),
            ("gen.json", generalized_to_json(classical_embedding(s))),
            ("cayley.json", {
                "elements": [0, 1, 2, 3],
                "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
                "subgroup": [0, 2],
            }),
        ):
            p = tmp_path / name
            p.write_text(dump_report(obj))
            docs[name] = str(p)

        suite = [
            ["verify", docs["scheme.json"]],
            ["verify", docs["hg.json"]],
            ["verify", docs["gen.json"]],
            ["verify", docs["cayley.json"]],
            ["hypergroup", docs["scheme.json"]],
            ["chartable", docs["scheme.json"]],
            ["dualtable", docs["scheme.json"]],
            ["family", "gab", "--a", "3", "--b", "3",
             "--report", "linearization", "--max-degree", "6"],
            ["family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep",
             "--radius", "2", "--x-min", "-1.2", "--x-max", "1.25",
             "--x-step", "0.35"],
            ["family", "gab", "--a", "3", "--b", "3", "--report", "lp-sweep",
             "--sweep-points", "3", "--moment-order", "6"],
            ["family", "cosh", "--r", "1.0", "--window", "6"],
        ]
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        for out_dir in (run_a, run_b):
            for argv in suite:
                assert main(argv + ["--out", str(out_dir)]) == 0, argv
        names_a = sorted(p.name for p in run_a.iterdir())
        names_b = sorted(p.name for p in run_b.iterdir())
        assert names_a == names_b and len(names_a) >= len(suite)
        for name in names_a:
            assert ((run_a / name).read_bytes()
                    == (run_b / name).read_bytes()), name

    _run_criterion(capsys, 10,
                   "two consecutive full report runs are byte-identical",
                   None, body)

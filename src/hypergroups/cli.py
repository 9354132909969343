"""Command-line front end: verification, tables, and family sweeps.

Exit codes: 0 success/pass, 1 unreadable or malformed input or a usage
error in the command line, 2 structural verification failure, 3
commutativity required but absent, 4 family parameter out of range.
Option defaults live only in ``build_parser``, and handlers read the
parsed ``argparse.Namespace``.  ``--tol``, ``--moment-order`` and
``--vertex-budget`` default to None there, so a report lists them only
when given; the command that reads one supplies its own value otherwise.
Each ``cmd_*`` handler returns ``(results, (CSV header, lazy rows) or None, ok)``,
numpy values unconverted; ``main`` alone builds the report, streams it to stdout
or ``--out``, formats the CSV rows only into an ``--out`` file and maps ``ok`` to
exit 0 or 2.  Each handler imports the modules it runs, so a command loads
only those.  Reports are byte-deterministic for a fixed command line (fixed
seed, sorted keys, fixed orderings).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import jsonio
from .errors import SEED, NotCommutative, ParameterOutOfRange, ParseError, SchemeError

if TYPE_CHECKING:
    from .families.cosh import CoshFamily
    from .families.gab import GabFamily

REPORT_SCHEMA = "hypergroups-report/1"

EXIT_PASS = 0
EXIT_PARSE = 1
EXIT_STRUCTURE = 2
EXIT_NONCOMMUTATIVE = 3
EXIT_PARAMETER = 4

# largest x grid a gab psd-sweep may ask for; each point is one eigenvalue
# problem on a ball of the clique tree
PSD_SWEEP_MAX_POINTS = 10_000
# largest gab --max-degree: the linearization table has about (2/3) d^3 rows
LINEARIZATION_MAX_DEGREE = 64
# largest gab --sweep-points: an lp-sweep runs one moment test per pair, points^2 of them
LP_SWEEP_MAX_POINTS = 100


def _parameters(args: argparse.Namespace) -> dict:
    """The options a report echoes: optional overrides only when given."""
    params = {"inputs": [args.input] if "input" in args else [], "seed": args.seed}
    for key in ("tol", "moment_order", "vertex_budget"):
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    if args.command == "family":
        params.update(family=args.family, report=args.report)
        params.update((key, getattr(args, key)) for key in REPORTS[args.report][1])
    return params


# ---------------------------------------------------------------------------
# input loading


def _load_any(path: str):
    """Returns (kind, object) where object is Scheme/FiniteHypergroup/GeneralizedScheme."""
    doc = jsonio.load_document(path)
    kind = jsonio.detect_kind(doc)
    if kind == "scheme":
        return kind, jsonio.scheme_from_json(doc)
    if kind == "cayley":
        from .groups import scheme_from_group_quotient

        group, sub = jsonio.cayley_from_json(doc)
        return kind, scheme_from_group_quotient(group, sub)
    if kind == "hypergroup":
        return kind, jsonio.hypergroup_from_json(doc)
    return kind, jsonio.generalized_from_json(doc)


def _hypergroup_of(kind: str, obj):
    if kind in ("scheme", "cayley"):
        from .hypergroup import hypergroup_from_scheme

        return hypergroup_from_scheme(obj)
    if kind == "generalized":
        from .generalized import hypergroup_from_generalized

        return hypergroup_from_generalized(obj)
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args: argparse.Namespace) -> tuple:
    kind, obj = _load_any(args.input)
    if kind in ("scheme", "cayley"):
        from .schemes import (
            audit_intersection_identities,
            is_commutative,
            is_symmetric,
            is_unimodular,
        )

        audit = audit_intersection_identities(obj)
        results = {
            "kind": kind,
            "audit": audit,
            "flags": {
                "commutative": is_commutative(obj),
                "symmetric": is_symmetric(obj),
                "unimodular": is_unimodular(obj),
            },
            "valencies": obj.valencies,
            "intersection_tensor": obj.p,
        }
        return results, None, audit["all_hold"]
    if kind == "hypergroup":
        from .hypergroup import verify_hypergroup

        audit = verify_hypergroup(obj, tol=args.tol)
        return {"kind": kind, "audit": audit}, None, audit["all_hold"]
    results = {"kind": kind, "audit": obj.report, "windowed": obj.windowed,
               "pairs_checked": obj.pair_checked.sum()}
    return results, None, True


def cmd_hypergroup(args: argparse.Namespace) -> tuple:
    from .hypergroup import verify_hypergroup

    kind, obj = _load_any(args.input)
    h = _hypergroup_of(kind, obj)
    audit = verify_hypergroup(h, tol=args.tol)
    results = {"kind": kind, "hypergroup": jsonio.hypergroup_to_json(h), "audit": audit}
    return results, None, audit["all_hold"]


def cmd_chartable(args: argparse.Namespace) -> tuple:
    from .harmonic import CHARACTER_RESIDUAL_TOL, character_table, orthogonality_residual

    kind, obj = _load_any(args.input)
    h = _hypergroup_of(kind, obj)
    tbl = character_table(h, seed=args.seed)
    results = {
        "kind": kind,
        "classes": h.classes,
        # a+bi even when the imaginary part is zero, as in the CSV table
        "characters": [list(map(jsonio.format_complex, row)) for row in tbl.chars.tolist()],
        "plancherel": tbl.plancherel,
        "haar": tbl.haar,
        "positive_index": tbl.positive_index,
        "residual": tbl.residual,
        "orthogonality_residual": orthogonality_residual(tbl),
    }
    # pass: the Gram matrix is diag(1/plancherel) to the tolerance, relative to its largest entry
    ok = results["orthogonality_residual"] <= CHARACTER_RESIDUAL_TOL / tbl.plancherel.min()
    header = ["character", *(f"class_{i}" for i in range(len(tbl.classes))), "plancherel"]
    rows = zip(tbl.labels, results["characters"], tbl.plancherel.tolist())
    return results, (header, ([label, *texts, w] for label, texts, w in rows)), ok


def cmd_dualtable(args: argparse.Namespace) -> tuple:
    from .harmonic import DUAL_TOL, character_table, dual_convolution

    kind, obj = _load_any(args.input)
    h = _hypergroup_of(kind, obj)
    tbl = character_table(h, seed=args.seed)
    duals = tbl.duals
    for a, b in np.argwhere(~(duals.total > 0.0))[:1].tolist():
        dual_convolution(h, tbl, a, b)  # raises DualNotPositive: the pair has no mass
    m = tbl.n_characters
    pairs = [f"{a},{b}" for a in range(m) for b in range(m)]
    # Python min/max in row-major pair order, so ties of 0.0 and -0.0 resolve as before
    min_raw = min(math.inf, *duals.min_raw_real.ravel().tolist())
    results = {
        "kind": kind,
        "characters": tbl.labels,
        "raw_coefficients": dict(zip(pairs, duals.raw.reshape(m * m, -1))),
        "clamped_weights": dict(zip(pairs, duals.weights.reshape(m * m, -1))),
        "min_raw_coefficient": min_raw,
        "max_imaginary_part": max(0.0, *duals.max_abs_imag.ravel().tolist()),
        "max_sum_deviation": max(0.0, *(abs(z - 1.0) for z in duals.sum_raw.ravel().tolist())),
        "nonnegative": min_raw >= -(args.tol or DUAL_TOL),
    }
    rows = _dual_rows(tbl.labels, duals.weights)
    return results, (["left", "right", *tbl.labels], rows), results["nonnegative"]


def _dual_rows(labels, weights):
    """The dualtable CSV rows, a pair's weights each; the distinct weights are formatted
    once, as _csv formats a float, when the first row is read."""
    m, take = len(labels), jsonio._distinct(weights.ravel(), "%.17g")
    for k in range(m * m):
        yield [labels[k // m], labels[k % m], *take(k * m, (k + 1) * m)]


# ---------------------------------------------------------------------------
# family sweeps


def _gab_linearization_report(args: argparse.Namespace, fam: GabFamily):
    from .families.gab import gab_linearization

    nmax = args.max_degree
    if not 0 <= nmax <= LINEARIZATION_MAX_DEGREE:
        raise ParameterOutOfRange(f"--max-degree {nmax} not in [0, {LINEARIZATION_MAX_DEGREE}]")
    rows = []
    worst = 0.0
    min_coeff = math.inf
    for mdeg in range(nmax + 1):
        for ndeg in range(nmax + 1):
            coeffs = gab_linearization(fam, mdeg, ndeg)
            worst = max(worst, abs(sum(coeffs.values()) - 1.0))
            if coeffs:
                min_coeff = min(min_coeff, min(coeffs.values()))
            rows += [(mdeg, ndeg, k, coeffs[k]) for k in sorted(coeffs)]
    results = {
        "s0": fam.s0,
        "s1": fam.s1,
        "max_degree": nmax,
        "rows": len(rows),
        "max_sum_deviation": worst,
        "min_coefficient": 0.0 if min_coeff is math.inf else min_coeff,
        "nonnegative": min_coeff >= -1e-15,
    }
    ok = results["nonnegative"] and worst <= 1e-10
    return results, (("m", "n", "k", "g"), rows), ok


def _gab_psd_report(args: argparse.Namespace, fam: GabFamily):
    from .families.gab import _psd_rows

    x_min, x_max, x_step, radius = args.x_min, args.x_max, args.x_step, args.radius
    budget = args.vertex_budget if args.vertex_budget is not None else 5000
    tol = args.tol or 1e-8
    if not 0 < x_step < math.inf:
        raise ParameterOutOfRange(f"--x-step must be finite and positive, got {x_step!r}")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ParameterOutOfRange(f"--x-min and --x-max must be finite, got {x_min!r}, {x_max!r}")
    if x_max < x_min:
        raise ParameterOutOfRange(f"--x-max {x_max!r} is below --x-min {x_min!r}")
    steps = (x_max - x_min) / x_step  # inf when the span overflows
    if not steps < PSD_SWEEP_MAX_POINTS - 0.5:  # round(steps) + 1 grid points
        raise ParameterOutOfRange(
            f"--x-step {x_step!r} gives more than {PSD_SWEEP_MAX_POINTS} grid points "
            f"on [{x_min!r}, {x_max!r}]"
        )
    count = int(round(steps)) + 1
    xs = [x_min + i * x_step for i in range(count) if x_min + i * x_step <= x_max + 1e-12]
    rows = _psd_rows(fam, xs, radius, budget, tol)
    columns = ("x", "radius", "n_vertices", "min_eigenvalue", "psd")
    results = {
        "s0": fam.s0,
        "s1": fam.s1,
        "radius": radius,
        "points": len(rows),
        "psd_count": sum(1 for r in rows if r["psd"]),
        "rows": rows,
    }
    # the kernel is psd on [s0, s1] and need not be outside it: inside points decide
    ok = all(r["psd"] for r in rows if fam.s0 - 1e-12 <= r["x"] <= fam.s1 + 1e-12)
    return results, (columns, ([r[c] for c in columns] for r in rows)), ok


def _gab_lp_report(args: argparse.Namespace, fam: GabFamily):
    from .families.gab import gab_dual_measure

    order = args.moment_order if args.moment_order is not None else 8
    pts = args.sweep_points
    slack = args.tol or 1e-8
    if not 2 <= pts <= LP_SWEEP_MAX_POINTS:
        raise ParameterOutOfRange(f"--sweep-points {pts} not in [2, {LP_SWEEP_MAX_POINTS}]")
    values = [fam.s0 + (fam.s1 - fam.s0) * i / (pts - 1) for i in range(pts)]
    rows = []
    for x in values:
        for y in values:
            res = gab_dual_measure(fam, x, y, order=order, slack=slack)
            rows.append({"x": x, "y": y, "feasible": res.feasible,
                         "max_violation": res.max_violation})
    table = (("x", "y", "order", "feasible", "max_violation"), (
        (r["x"], r["y"], order, r["feasible"], r["max_violation"]) for r in rows))
    results = {
        "s0": fam.s0,
        "s1": fam.s1,
        "moment_order": order,
        "pairs": len(rows),
        "feasible_count": sum(1 for r in rows if r["feasible"]),
        "rows": rows,
    }
    return results, table, results["feasible_count"] == len(rows)


def _cosh_window_report(args: argparse.Namespace, fam: CoshFamily):
    from .families.cosh import (
        cosh_character,
        cosh_convolution,
        cosh_window_scheme,
        window_character,
    )

    m = args.window
    g = cosh_window_scheme(fam, m)
    closed_dev = 0.0
    for k in range(m + 1):
        for l in range(m + 1 - k):
            ref = cosh_convolution(fam, k, l)
            vec = g.p_tilde[k, l].tolist()
            closed_dev = max(closed_dev, *(abs(v - ref.get(i, 0.0)) for i, v in enumerate(vec)))
    lam_values = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    char_rows = []
    char_dev = 0.0
    for lam in lam_values:
        alpha1 = complex(cosh_character(fam, lam, 1))
        alpha, resid = window_character(g, alpha1)
        ref = np.asarray(cosh_character(fam, lam, np.arange(m + 1)), dtype=complex)
        dev = np.max(np.abs(alpha - ref))
        char_dev = max(char_dev, dev, resid)
        char_rows.append({
            "lambda": lam,
            "recurrence_deviation": dev,
            "multiplicativity_residual": resid,
        })
    results = {
        "r": fam.r,
        "window": m,
        "audit": g.report,
        "closed_form_deviation": closed_dev,
        "characters": char_rows,
        "character_deviation": char_dev,
    }
    ok = closed_dev <= 1e-12 and char_dev <= 1e-8
    return results, None, ok


# builder and the options of each --report; its parameters block lists them
REPORTS = {
    "linearization": (_gab_linearization_report, ("a", "b", "max_degree")),
    "psd-sweep": (_gab_psd_report, ("a", "b", "x_min", "x_max", "x_step", "radius")),
    "lp-sweep": (_gab_lp_report, ("a", "b", "sweep_points")),
    "window-audit": (_cosh_window_report, ("r", "window")),
}


def cmd_family(args: argparse.Namespace) -> tuple:
    if args.family == "gab":
        from .families.gab import GabFamily

        fam = GabFamily(args.a, args.b)
    else:
        from .families.cosh import CoshFamily

        fam = CoshFamily(args.r)
    return REPORTS[args.report][0](args, fam)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError (exit 1, one line) instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypergroups",
        description="Association schemes, finite hypergroups, duals, and families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--seed", type=lambda s: int(s, 0), default=SEED,
                       help="random seed (default 0xC0FFEE)")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")

    for name, helptext in (
        ("verify", "check structural axioms of a scheme/hypergroup document"),
        ("hypergroup", "emit the convolution tensor induced by a scheme"),
        ("chartable", "emit the character table of a commutative input"),
        ("dualtable", "emit all pairwise dual convolution coefficients"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="path to a JSON document")
        common(p)

    fam = sub.add_parser("family", help="closed-form family sweeps")
    fam_sub = fam.add_subparsers(dest="family", required=True)

    gab = fam_sub.add_parser("gab", help="clique-tree polynomial family")
    gab.add_argument("--a", type=float, required=True)
    gab.add_argument("--b", type=float, required=True)
    gab.add_argument("--report", default="linearization",
                     choices=["linearization", "psd-sweep", "lp-sweep"])
    gab.add_argument("--max-degree", type=int, default=8)
    gab.add_argument("--x-min", type=float, default=-1.5)
    gab.add_argument("--x-max", type=float, default=1.5)
    gab.add_argument("--x-step", type=float, default=0.05)
    gab.add_argument("--radius", type=int, default=3)
    gab.add_argument("--sweep-points", type=int, default=5)
    gab.add_argument("--moment-order", type=int, default=None)
    gab.add_argument("--vertex-budget", type=int, default=None)
    common(gab)

    cosh = fam_sub.add_parser("cosh", help="deformed nearest-step family")
    cosh.add_argument("--r", type=float, required=True)
    cosh.add_argument("--report", default="window-audit", choices=["window-audit"])
    cosh.add_argument("--window", type=int, default=8)
    common(cosh)

    return parser


HANDLERS = {
    "verify": cmd_verify,
    "hypergroup": cmd_hypergroup,
    "chartable": cmd_chartable,
    "dualtable": cmd_dualtable,
    "family": cmd_family,
}


# exit code of each exception kind; the first that matches wins
EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (NotCommutative, EXIT_NONCOMMUTATIVE),
    (ParameterOutOfRange, EXIT_PARAMETER),
    (SchemeError, EXIT_STRUCTURE),
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.tol is not None and not 0 < args.tol < math.inf:
            raise ParameterOutOfRange(f"--tol must be finite and positive, got {args.tol!r}")
        if args.seed < 0:
            raise ParameterOutOfRange(f"--seed must be non-negative, got {args.seed}")
        results, table, ok = HANDLERS[args.command](args)
        report = {
            "schema": REPORT_SCHEMA,
            "tool": "hypergroups",
            "command": args.command,
            "parameters": _parameters(args),
            "results": results,
            "status": "pass" if ok else "fail",
        }
    except SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    stem = args.command
    if args.command == "family":
        stem = f"family_{args.family}_{args.report.replace('-', '_')}"
    try:
        if args.out is None:
            jsonio.dump_report(report, sys.stdout)
        else:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, stem + ".json"), "w", encoding="utf-8") as fh:
                jsonio.dump_report(report, fh)
            if table is not None:
                with open(os.path.join(args.out, stem + ".csv"), "w", encoding="utf-8") as fh:
                    fh.writelines(jsonio._csv(*table))
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_PASS if ok else EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main(None))

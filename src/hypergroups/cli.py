"""Command-line front end: verification, tables, and family sweeps.

Exit codes: 0 success/pass, 1 unreadable or malformed input, 2 structural
verification failure, 3 commutativity required but absent, 4 family
parameter out of range.  All emitters are byte-deterministic for a fixed
command line (fixed seed, sorted keys, fixed orderings, no timestamps).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import harmonic, jsonio
from .errors import (
    NotCommutative,
    ParameterOutOfRange,
    ParseError,
    SchemeError,
)
from .generalized import hypergroup_from_generalized
from .groups import scheme_from_group_quotient
from .harmonic import SEED, character_table, dual_convolution, orthogonality_residual
from .hypergroup import hypergroup_from_scheme, verify_hypergroup
from .schemes import (
    audit_intersection_identities,
    is_commutative,
    is_symmetric,
    is_unimodular,
)
from .families.gab import GabFamily, _psd_rows, gab_dual_measure, gab_linearization
from .families.cosh import (
    CoshFamily,
    cosh_character,
    cosh_connection_quadrature,
    cosh_convolution,
    cosh_window_scheme,
    window_character,
)

REPORT_SCHEMA = "hypergroups-report/1"

EXIT_PASS = 0
EXIT_PARSE = 1
EXIT_STRUCTURE = 2
EXIT_NONCOMMUTATIVE = 3
EXIT_PARAMETER = 4

# largest x grid a gab psd-sweep may ask for; each point is one eigenvalue
# problem on a ball of the clique tree
PSD_SWEEP_MAX_POINTS = 10_000


@dataclass
class RunConfig:
    command: str
    inputs: list = field(default_factory=list)
    tol: float | None = None
    seed: int = SEED
    out_dir: str | None = None
    window: int | None = None
    grid_nodes: int | None = None
    moment_order: int | None = None
    vertex_budget: int | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ParameterOutOfRange("tolerance must be positive")

    def as_parameters(self) -> dict:
        params = {
            "inputs": list(self.inputs),
            "seed": self.seed,
        }
        if self.tol is not None:
            params["tol"] = self.tol
        for key in ("window", "grid_nodes", "moment_order", "vertex_budget"):
            value = getattr(self, key)
            if value is not None:
                params[key] = value
        params.update(self.extra)
        return params


def make_report(config: RunConfig, results: dict, status: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": "hypergroups",
        "command": config.command,
        "parameters": config.as_parameters(),
        "results": results,
        "status": status,
    }


def _emit(config: RunConfig, report: dict, stem: str, csv_blocks: dict | None = None):
    text = jsonio.dump_report(report)
    if config.out_dir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        for suffix, csv_text in (csv_blocks or {}).items():
            name = stem + (("_" + suffix) if suffix else "") + ".csv"
            with open(os.path.join(config.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(csv_text)


# ---------------------------------------------------------------------------
# input loading


def _load_any(path: str):
    """Returns (kind, object) where object is Scheme/FiniteHypergroup/GeneralizedScheme."""
    doc = jsonio.load_document(path)
    kind = jsonio.detect_kind(doc)
    if kind == "scheme":
        return kind, jsonio.scheme_from_json(doc)
    if kind == "cayley":
        group, sub = jsonio.cayley_from_json(doc)
        return kind, scheme_from_group_quotient(group, sub)
    if kind == "hypergroup":
        return kind, jsonio.hypergroup_from_json(doc)
    return kind, jsonio.generalized_from_json(doc)


def _hypergroup_of(kind: str, obj):
    if kind in ("scheme", "cayley"):
        return hypergroup_from_scheme(obj)
    if kind == "generalized":
        return hypergroup_from_generalized(obj)
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(config: RunConfig) -> int:
    kind, obj = _load_any(config.inputs[0])
    results: dict = {"kind": kind}
    if kind in ("scheme", "cayley"):
        audit = audit_intersection_identities(obj)
        results["audit"] = audit
        results["flags"] = {
            "commutative": is_commutative(obj),
            "symmetric": is_symmetric(obj),
            "unimodular": is_unimodular(obj),
        }
        results["valencies"] = [int(w) for w in obj.valencies]
        results["intersection_tensor"] = obj.p.tolist()
        ok = bool(audit["all_hold"])
    elif kind == "hypergroup":
        tol = config.tol if config.tol is not None else 1e-12
        report = verify_hypergroup(obj, tol=tol)
        results["audit"] = report
        ok = bool(report["all_hold"])
    else:
        results["audit"] = obj.report
        results["windowed"] = obj.windowed
        results["pairs_checked"] = int(obj.pair_checked.sum())
        ok = True
    status = "pass" if ok else "fail"
    _emit(config, make_report(config, results, status), "verify")
    return EXIT_PASS if ok else EXIT_STRUCTURE


def cmd_hypergroup(config: RunConfig) -> int:
    kind, obj = _load_any(config.inputs[0])
    h = _hypergroup_of(kind, obj)
    tol = config.tol if config.tol is not None else 1e-12
    report = verify_hypergroup(h, tol=tol)
    results = {
        "kind": kind,
        "hypergroup": jsonio.hypergroup_to_json(h),
        "audit": report,
    }
    ok = bool(report["all_hold"])
    _emit(config, make_report(config, results, "pass" if ok else "fail"), "hypergroup")
    return EXIT_PASS if ok else EXIT_STRUCTURE


def cmd_chartable(config: RunConfig) -> int:
    kind, obj = _load_any(config.inputs[0])
    h = _hypergroup_of(kind, obj)
    tbl = character_table(h, seed=config.seed)
    results = {
        "kind": kind,
        "classes": [jsonio._plain(c) for c in h.classes],
        "characters": [[jsonio.format_complex(complex(v)) for v in row] for row in tbl.chars],
        "plancherel": [float(v) for v in tbl.plancherel],
        "haar": [float(v) for v in tbl.haar],
        "positive_index": int(tbl.positive_index),
        "residual": float(tbl.residual),
        "orthogonality_residual": float(orthogonality_residual(tbl)),
    }
    csv_text = jsonio.chartable_to_csv(tbl)
    _emit(config, make_report(config, results, "pass"), "chartable", {"": csv_text})
    return EXIT_PASS


def cmd_dualtable(config: RunConfig) -> int:
    kind, obj = _load_any(config.inputs[0])
    h = _hypergroup_of(kind, obj)
    tol = config.tol if config.tol is not None else 1e-9
    tbl = character_table(h, seed=config.seed)
    duals = tbl.duals
    for a, b in np.argwhere(~(duals.total > 0.0))[:1].tolist():
        dual_convolution(h, tbl, a, b, tol=tol)  # raises DualNotPositive: the pair has no mass
    pairs = [(a, b) for a in range(tbl.n_characters) for b in range(tbl.n_characters)]
    # Python min/max in row-major pair order, so ties of 0.0 and -0.0 resolve as before
    min_raw = min(math.inf, *duals.min_raw_real.ravel().tolist())
    nonneg = min_raw >= -tol
    results = {
        "kind": kind,
        "characters": list(tbl.labels),
        "raw_coefficients": {
            f"{a},{b}": [z.real if z.imag == 0.0 else jsonio.format_complex(z)
                         for z in duals.raw[a, b].tolist()]
            for a, b in pairs
        },
        "clamped_weights": {f"{a},{b}": duals.weights[a, b].tolist() for a, b in pairs},
        "min_raw_coefficient": min_raw,
        "max_imaginary_part": max(0.0, *duals.max_abs_imag.ravel().tolist()),
        "max_sum_deviation": max(0.0, *(abs(z - 1.0) for z in duals.sum_raw.ravel().tolist())),
        "nonnegative": nonneg,
    }
    csv_text = jsonio.dualtable_to_csv(list(tbl.labels), duals.weights)
    del tbl, duals  # frees the cached coefficients before the report is serialized
    status = "pass" if nonneg else "fail"
    _emit(config, make_report(config, results, status), "dualtable", {"": csv_text})
    return EXIT_PASS if nonneg else EXIT_STRUCTURE


# ---------------------------------------------------------------------------
# family sweeps


def _gab_linearization_report(config: RunConfig, fam: GabFamily):
    nmax = config.extra.get("max_degree", 8)
    rows = []
    worst = 0.0
    min_coeff = math.inf
    for mdeg in range(nmax + 1):
        for ndeg in range(nmax + 1):
            coeffs = gab_linearization(fam, mdeg, ndeg)
            total = sum(coeffs.values())
            worst = max(worst, abs(total - 1.0))
            if coeffs:
                min_coeff = min(min_coeff, min(coeffs.values()))
            for k in sorted(coeffs):
                rows.append((mdeg, ndeg, k, coeffs[k]))
    csv_lines = ["m,n,k,g"]
    csv_lines += [f"{mr},{nr},{kr},{jsonio.format_float(g)}" for mr, nr, kr, g in rows]
    results = {
        "s0": fam.s0,
        "s1": fam.s1,
        "max_degree": nmax,
        "rows": len(rows),
        "max_sum_deviation": worst,
        "min_coefficient": (0.0 if min_coeff is math.inf else float(min_coeff)),
        "nonnegative": bool(min_coeff >= -1e-15),
    }
    ok = results["nonnegative"] and worst <= 1e-10
    return results, {"": "\n".join(csv_lines) + "\n"}, ok


def _gab_psd_report(config: RunConfig, fam: GabFamily):
    x_min = config.extra.get("x_min", -1.5)
    x_max = config.extra.get("x_max", 1.5)
    x_step = config.extra.get("x_step", 0.05)
    radius = config.extra.get("radius", 3)
    budget = config.vertex_budget if config.vertex_budget is not None else 5000
    tol = config.tol if config.tol is not None else 1e-8
    if not x_step > 0:
        raise ParameterOutOfRange(f"--x-step must be positive, got {x_step!r}")
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
    csv_lines = ["x,radius,n_vertices,min_eigenvalue,psd"]
    for r in rows:
        csv_lines.append(
            f"{jsonio.format_float(r['x'])},{r['radius']},{r['n_vertices']},"
            f"{jsonio.format_float(r['min_eigenvalue'])},{int(r['psd'])}"
        )
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
    return results, {"": "\n".join(csv_lines) + "\n"}, ok


def _gab_lp_report(config: RunConfig, fam: GabFamily):
    order = config.moment_order if config.moment_order is not None else 8
    n_nodes = config.grid_nodes if config.grid_nodes is not None else 400
    pts = config.extra.get("sweep_points", 5)
    slack = config.tol if config.tol is not None else 1e-8
    if pts < 2:
        raise ParameterOutOfRange(f"--sweep-points must be at least 2, got {pts}")
    values = [fam.s0 + (fam.s1 - fam.s0) * i / (pts - 1) for i in range(pts)]
    rows = []
    all_ok = True
    for x in values:
        for y in values:
            res = gab_dual_measure(fam, x, y, order=order, n_nodes=n_nodes, slack=slack)
            rows.append({
                "x": x,
                "y": y,
                "feasible": res.feasible,
                "max_violation": res.max_violation,
            })
            all_ok = all_ok and res.feasible
    csv_lines = ["x,y,order,feasible,max_violation"]
    for r in rows:
        csv_lines.append(
            f"{jsonio.format_float(r['x'])},{jsonio.format_float(r['y'])},{order},"
            f"{int(r['feasible'])},{jsonio.format_float(r['max_violation'])}"
        )
    results = {
        "s0": fam.s0,
        "s1": fam.s1,
        "moment_order": order,
        "grid_nodes": n_nodes,
        "pairs": len(rows),
        "feasible_count": sum(1 for r in rows if r["feasible"]),
        "rows": rows,
    }
    return results, {"": "\n".join(csv_lines) + "\n"}, all_ok


def _cosh_window_report(config: RunConfig, fam: CoshFamily):
    m = config.window if config.window is not None else 8
    g = cosh_window_scheme(fam, m)
    closed_dev = 0.0
    for k in range(m + 1):
        for l in range(m + 1):
            if k + l > m:
                continue
            ref = cosh_convolution(fam, k, l)
            vec = g.p_tilde[k, l]
            for idx in range(g.n_classes):
                expect = ref.get(idx, 0.0)
                closed_dev = max(closed_dev, abs(vec[idx] - expect))
    lam_values = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    char_rows = []
    char_dev = 0.0
    for lam in lam_values:
        alpha1 = complex(cosh_character(fam, lam, 1))
        alpha, resid = window_character(g, alpha1)
        ref = np.asarray(cosh_character(fam, lam, np.arange(m + 1)), dtype=complex)
        dev = float(np.max(np.abs(alpha - ref)))
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


def cmd_family(config: RunConfig) -> int:
    which = config.extra["family"]
    report_kind = config.extra["report"]
    if which == "gab":
        fam = GabFamily(config.extra["a"], config.extra["b"])
        builders = {
            "linearization": _gab_linearization_report,
            "psd-sweep": _gab_psd_report,
            "lp-sweep": _gab_lp_report,
        }
        if report_kind not in builders:
            raise ParameterOutOfRange(
                f"family gab supports reports {sorted(builders)}, got {report_kind!r}"
            )
        results, csv_blocks, ok = builders[report_kind](config, fam)
    else:
        fam = CoshFamily(config.extra["r"])
        if report_kind != "window-audit":
            raise ParameterOutOfRange(
                f"family cosh supports report 'window-audit', got {report_kind!r}"
            )
        results, csv_blocks, ok = _cosh_window_report(config, fam)

    stem = f"family_{which}_{report_kind.replace('-', '_')}"
    status = "pass" if ok else "fail"
    _emit(config, make_report(config, results, status), stem, csv_blocks)
    return EXIT_PASS if ok else EXIT_STRUCTURE


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    gab.add_argument("--grid-nodes", type=int, default=None)
    gab.add_argument("--moment-order", type=int, default=None)
    gab.add_argument("--vertex-budget", type=int, default=None)
    common(gab)

    cosh = fam_sub.add_parser("cosh", help="deformed nearest-step family")
    cosh.add_argument("--r", type=float, required=True)
    cosh.add_argument("--report", default="window-audit", choices=["window-audit"])
    cosh.add_argument("--window", type=int, default=8)
    common(cosh)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {}
    inputs = []
    if args.command == "family":
        extra["family"] = args.family
        extra["report"] = args.report
        if args.family == "gab":
            extra["a"] = args.a
            extra["b"] = args.b
            if args.report == "linearization":
                extra["max_degree"] = args.max_degree
            if args.report == "psd-sweep":
                extra.update(x_min=args.x_min, x_max=args.x_max,
                             x_step=args.x_step, radius=args.radius)
            if args.report == "lp-sweep":
                extra["sweep_points"] = args.sweep_points
        else:
            extra["r"] = args.r
    else:
        inputs = [args.input]
    return RunConfig(
        command=args.command,
        inputs=inputs,
        tol=args.tol,
        seed=args.seed,
        out_dir=args.out,
        window=getattr(args, "window", None),
        grid_nodes=getattr(args, "grid_nodes", None),
        moment_order=getattr(args, "moment_order", None),
        vertex_budget=getattr(args, "vertex_budget", None),
        extra=extra,
    )


HANDLERS = {
    "verify": cmd_verify,
    "hypergroup": cmd_hypergroup,
    "chartable": cmd_chartable,
    "dualtable": cmd_dualtable,
    "family": cmd_family,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return HANDLERS[args.command](config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotCommutative as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCOMMUTATIVE
    except ParameterOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main(None))

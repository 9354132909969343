"""The three workloads: their jobs, and the check of every job's outcome.

A job is one fixture through its pipeline (library workloads) or one CLI
command (``cli-mix``).  ``Job.run`` is the timed part; ``Job.check`` runs
afterwards, outside the timing, and returns None or the reason the
outcome disagrees with the oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import jsonschema
import numpy as np

import inputs
import oracles

CLI_TIMEOUT_S = 120


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]


@dataclass
class Workload:
    jobs: list
    warmup: Job
    min_passes: int = 1


def _library_job(name: str, body: Callable[[], dict], check) -> Job:
    def run() -> Outcome:
        try:
            return Outcome(value=body())
        except Exception as exc:  # the check decides whether it was expected
            return Outcome(error=exc)
    return Job(name, run, check)


def _first_failure(checks) -> str | None:
    for ok, reason in checks:
        if not ok:
            return reason
    return None


def _check_table(tbl, expected_chars, expected_weights, what: str):
    perm = oracles.match_characters(tbl.chars, expected_chars)
    if perm is None:
        return None, f"{what}: characters differ from the closed form"
    if not oracles.plancherel_ok(tbl.plancherel, expected_weights[perm]):
        return None, f"{what}: Plancherel weights differ from the closed form"
    return perm, None


# ---------------------------------------------------------------------------
# exact-classes


def exact_classes(hg, rng: np.random.Generator, **_) -> Workload:
    groups = [build() for build in inputs.EXACT_GROUPS]
    jobs = [_exact_job(hg, g, inputs.cayley_input(g, rng), rng) for g in groups]
    order = rng.permutation(len(jobs))
    warm_group = inputs.abelian(8)
    warmup = _exact_job(hg, warm_group, inputs.cayley_input(warm_group, rng), rng)
    return Workload([jobs[i] for i in order], warmup, min_passes=2)


def _exact_job(hg, g: inputs.Group, ci: inputs.CayleyInput, rng) -> Job:
    n_sub = len(g.subgroup)
    regular = n_sub == 1
    # class order the scheme must come out in: double cosets by first member
    if regular:
        predicted = [int(i) for i in ci.order]
        chars, weights = oracles.dft_table(g, predicted) if g.commutative else (None, None)
        haar = np.ones(len(predicted))
    else:
        first_in_h = int(ci.order[0]) in g.subgroup
        e = 0 if first_in_h else 1
        n_points = len(g.labels) // n_sub
        chars, weights = oracles.complete_graph_table(n_points, e)
        haar = np.where(np.arange(2) == e, 1.0, n_points - 1.0)
    funcs, verdicts = [], []
    if g.commutative:
        m = len(chars)
        coeffs = rng.uniform(0.2, 1.0, size=m)
        funcs.append(coeffs @ chars)
        verdicts.append(True)
        neg = coeffs.copy()
        neg[rng.integers(m)] = -1.0
        funcs.append(neg @ chars)
        verdicts.append(False)

    def body() -> dict:
        grp = hg.group_from_table(ci.elements, ci.table)
        s = hg.scheme_from_group_quotient(grp, ci.subgroup)
        out = {"scheme": s, "audit": hg.audit_intersection_identities(s)}
        h = hg.hypergroup_from_scheme(s)
        out["exact"] = h.exact
        out["verify"] = hg.verify_hypergroup(h)
        try:
            tbl = hg.character_table(h)
        except hg.NotCommutative as exc:
            out["not_commutative"] = exc
            return out
        m = tbl.n_characters
        out["tbl"] = tbl
        out["duals"] = [[hg.dual_convolution(h, tbl, a, b) for b in range(m)] for a in range(m)]
        dual = hg.dual_hypergroup(h, tbl)
        out["dual"] = dual
        out["dual_verify"] = hg.verify_hypergroup(dual, tol=1e-9)
        out["pd"] = [hg.is_positive_definite(h, f, tbl=tbl)[1] for f in funcs]
        return out

    label_index = {lab: i for i, lab in enumerate(g.labels)}

    def check(oc: Outcome) -> str | None:
        if oc.error is not None:
            return f"raised {oc.error!r}"
        out = oc.value
        s = out["scheme"]
        classes = [label_index[c[1:-1]] for c in s.classes]
        if regular:
            if classes != predicted:
                return "class order differs from the double-coset order"
            expected_p = oracles.group_law_tensor(g.mul, classes)
        else:
            if classes[s.identity] not in g.subgroup or s.identity != e:
                return "identity class is not the subgroup"
            expected_p = oracles.complete_graph_tensor(len(g.labels) // n_sub, e)
        reason = _first_failure([
            (np.array_equal(s.p, expected_p), "intersection tensor differs from the group law"),
            (out["audit"]["all_hold"], "integer audit failed"),
            (out["exact"], "hypergroup is not exact"),
            (out["verify"]["all_hold"], "exact verification failed"),
        ])
        if reason:
            return reason
        if not g.commutative:
            if "not_commutative" not in out:
                return "noncommutative input did not raise NotCommutative"
            return None
        if "not_commutative" in out:
            return "commutative input raised NotCommutative"
        tbl = out["tbl"]
        perm, reason = _check_table(tbl, chars, weights, "characters")
        if reason:
            return reason
        oc_chars, oc_weights = chars[perm], weights[perm]
        m = len(perm)
        dual_conv = np.asarray(out["dual"].conv)
        for a in range(m):
            for b in range(m):
                want = oracles.dual_coefficients(oc_chars, oc_weights, haar, a, b)
                dm = out["duals"][a][b]
                if (np.abs(dm.weights - want).max() > oracles.DUAL_TOL
                        or np.abs(dm.raw.real - want).max() > oracles.DUAL_TOL):
                    return f"dual coefficients of (chi{a}, chi{b}) differ from the oracle"
                if np.abs(dual_conv[a, b] - want).max() > oracles.DUAL_TOL:
                    return f"dual hypergroup row (chi{a}, chi{b}) differs from the oracle"
        if not out["dual_verify"]["all_hold"]:
            return "dual hypergroup failed float verification"
        for cert, want in zip(out["pd"], verdicts):
            if cert["matrix_positive"] != want or cert["bochner_positive"] != want:
                return f"positive-definiteness verdict {cert} but expected {want}"
        return None

    return _library_job(g.name, body, check)


# ---------------------------------------------------------------------------
# many-points


def many_points(hg, rng: np.random.Generator, **_) -> Workload:
    jobs = []
    for name, build, family, params in inputs.DRG_GRAPHS:
        adj = build()
        chars, weights = (oracles.krawtchouk_table(*params) if family == "hamming"
                          else oracles.eberlein_table(*params))
        relabelled = inputs.relabel(adj, rng)
        jobs.append(_drg_job(hg, name, adj, relabelled, chars, weights))
        jobs.append(_rejected_job(hg, name + "~switched", inputs.switch_edges(relabelled, rng)))
    order = rng.permutation(len(jobs))
    warm = inputs.hamming(4, 2)
    warmup = _drg_job(hg, "H(4,2)", warm, inputs.relabel(warm, rng),
                      *oracles.krawtchouk_table(4, 2))
    return Workload([jobs[i] for i in order], warmup, min_passes=4)


def _drg_job(hg, name, adj, relabelled, chars, weights) -> Job:
    expected_p = []

    def body() -> dict:
        s = hg.scheme_from_distance_regular_graph(relabelled)
        out = {"scheme": s, "audit": hg.audit_intersection_identities(s)}
        h = hg.hypergroup_from_scheme(s)
        out["verify"] = hg.verify_hypergroup(h)
        out["tbl"] = hg.character_table(h)
        g = hg.classical_embedding(s)
        h2 = hg.hypergroup_from_generalized(g)
        out["verify2"] = hg.verify_hypergroup(h2, tol=1e-9)
        tbl2 = hg.character_table(h2)
        out["tbl2"] = tbl2
        out["pcc"] = [hg.positive_connection_check(g, tbl2.chars[r])[0]
                      for r in range(tbl2.n_characters)]
        return out

    def check(oc: Outcome) -> str | None:
        if oc.error is not None:
            return f"raised {oc.error!r}"
        if not expected_p:
            expected_p.append(oracles.graph_tensor(adj))
        out = oc.value
        s = out["scheme"]
        reason = _first_failure([
            (s.classes == tuple(range(len(chars))), "classes are not the distances"),
            (np.array_equal(s.p, expected_p[0]), "intersection tensor differs from graph counts"),
            (out["audit"]["all_hold"], "integer audit failed"),
            (out["verify"]["all_hold"], "exact verification failed"),
            (out["verify2"]["all_hold"], "float verification of the generalized hypergroup failed"),
            (all(out["pcc"]), "a character failed the positive-connection check"),
        ])
        if reason:
            return reason
        for key in ("tbl", "tbl2"):
            _, reason = _check_table(out[key], chars, weights, key)
            if reason:
                return reason
        return None

    return _library_job(name, body, check)


def _rejected_job(hg, name, adj) -> Job:
    def body():
        return hg.scheme_from_distance_regular_graph(adj)

    def check(oc: Outcome) -> str | None:
        if not isinstance(oc.error, hg.NotDistanceRegular):
            return f"expected NotDistanceRegular, got {oc.error or oc.value!r}"
        if oc.error.witness is None:
            return "NotDistanceRegular carries no witness"
        return None

    return _library_job(name, body, check)


# ---------------------------------------------------------------------------
# cli-mix


GAB_PAIRS = ((3, 3), (2, 4), (4, 2), (2, 3), (3, 2), (4, 4), (2, 5), (5, 2), (3, 4), (4, 3))
COSH_R = (0.25, 0.5, 1.0, 1.5)


def package_env(root: str) -> dict:
    """Environment for a child interpreter that imports the package from ``root/src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class CliRun:
    """Runs one CLI command, as a subprocess or in-process."""
    root: str
    work: str
    inprocess: bool = False
    digests: dict = field(default_factory=dict)
    calls: int = 0

    def __call__(self, argv: list) -> Outcome:
        self.calls += 1
        out_dir = os.path.join(self.work, f"out{self.calls}")
        argv = argv + ["--out", out_dir]
        if self.inprocess:
            from hypergroups import cli
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            stderr = err.getvalue()
        else:
            done = subprocess.run([sys.executable, "-m", "hypergroups"] + argv, cwd=self.work,
                                  env=package_env(self.root), stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, errors="replace", timeout=CLI_TIMEOUT_S)
            code, stderr = done.returncode, done.stderr
        return Outcome(value=(code, out_dir, stderr))

    @staticmethod
    def collect(out_dir: str) -> dict:
        """Read and remove the files a command wrote (outside the timing)."""
        files = {}
        if os.path.isdir(out_dir):
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    files[fname] = fh.read()
            shutil.rmtree(out_dir)
        return files


def _load_schema(root: str) -> dict:
    with open(os.path.join(root, "src", "hypergroups", "schemas", "report.schema.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _schema_errors(report: dict, schema: dict) -> str | None:
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return f"report violates the schema: {exc.message}"
    return None


def cli_mix(hg, rng: np.random.Generator, root: str, work: str, inprocess: bool = False,
            **_) -> Workload:
    docs = os.path.join(work, "docs")
    os.makedirs(docs, exist_ok=True)
    runner = CliRun(root, work, inprocess)
    schema = _load_schema(root)

    def doc(name: str, content: dict) -> str:
        path = os.path.join(docs, name)
        inputs.write_json(path, content)
        return path

    pet = inputs.petersen()
    s3 = inputs.symmetric_mod_stabilizer(3)
    s3_in = inputs.cayley_input(s3, rng)
    z12 = inputs.abelian(12)
    z12_in = inputs.cayley_input(z12, rng)
    z48 = inputs.abelian(48)
    z48_in = inputs.cayley_input(z48, rng)
    z64 = inputs.abelian(64)
    h42 = inputs.hamming(4, 2)
    switched = inputs.switch_edges(inputs.relabel(h42, rng), rng)
    lin_pair = GAB_PAIRS[rng.integers(len(GAB_PAIRS))]
    lp_pairs = [GAB_PAIRS[i] for i in rng.choice(len(GAB_PAIRS), size=2, replace=False)]
    cosh_r = COSH_R[rng.integers(len(COSH_R))]
    paths = {
        "petersen": doc("petersen.json", inputs.scheme_doc(inputs.distances(pet), rng)),
        "s3": doc("s3.json", inputs.cayley_doc(s3_in)),
        "gen": doc("gen.json", inputs.generalized_doc(pet, rng)),
        "nondrg": doc("nondrg.json", inputs.scheme_doc(inputs.distances(switched), rng)),
        "z12": doc("z12.json", inputs.cayley_doc(z12_in)),
        "z10hg": doc("z10hg.json", inputs.hypergroup_doc(inputs.abelian(10), rng)),
        "z64": doc("z64.json", inputs.scheme_doc(_cyclic_relation(64), rng)),
        "z48": doc("z48.json", inputs.cayley_doc(z48_in)),
    }

    def cmd(name, argv, exit_code, stem, check=None) -> Job:
        def run() -> Outcome:
            return runner(argv)

        def full_check(oc: Outcome) -> str | None:
            code, out_dir, stderr = oc.value
            files = runner.collect(out_dir)
            if code != exit_code:
                return f"exit {code}, expected {exit_code}: {stderr.strip()[-200:]}"
            digest = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
            seen = runner.digests.setdefault(name, digest)
            if seen != digest:
                return "output differs from the previous invocation in this run"
            if exit_code != 0:
                lines = stderr.strip().splitlines()
                if len(lines) != 1 or not lines[0].startswith("error:") or files:
                    return f"failure not reported as one error line: {stderr!r}"
                return None
            report = json.loads(files[stem + ".json"])
            reason = _schema_errors(report, schema)
            if reason:
                return reason
            if report["status"] != "pass":
                return f"status {report['status']!r}"
            return check(report["results"], files) if check else None

        return Job(name, run, full_check)

    def tensor_is(expected):
        return lambda res, _: (None if np.array_equal(np.array(res["intersection_tensor"]), expected)
                               else "intersection tensor differs from the oracle")

    def audit_holds(res, _):
        return None if res["audit"]["all_hold"] else "audit failed"

    pet_chars, pet_weights = oracles.petersen_table()
    s3_classes = [int(i) for i in s3_in.order]
    z64_tensor = oracles.group_law_tensor(z64.mul, list(range(64)))
    z12_index = {lab: i for i, lab in enumerate(z12.labels)}
    z48_index = {lab: i for i, lab in enumerate(z48.labels)}

    def chartable_petersen(res, _):
        chars = np.array([[oracles.parse_complex(v) for v in row] for row in res["characters"]])
        expected = pet_chars[:, res["classes"]]
        perm = oracles.match_characters(chars, expected)
        if perm is None or not oracles.plancherel_ok(res["plancherel"], pet_weights[perm]):
            return "Petersen characters differ from the closed form"
        return None

    def dualtable_petersen(res, _):
        m = len(res["characters"])
        found = np.array([[res["clamped_weights"][f"{a},{b}"] for b in range(m)]
                          for a in range(m)])
        haar = np.array([1.0, 3.0, 6.0])
        want = np.array([[oracles.dual_coefficients(pet_chars, pet_weights, haar, a, b)
                          for b in range(m)] for a in range(m)])
        for perm in _permutations(m):
            if np.abs(found - want[np.ix_(perm, perm)][:, :, perm]).max() <= oracles.DUAL_TOL:
                return None
        return "Petersen dual table differs from the closed form"

    def gen_verify(res, _):
        if res["windowed"] or res["pairs_checked"] != 9:
            return "generalized Petersen document not fully checked"
        return None

    def gab_linearization(res, files):
        rows = [line.split(",") for line in files["family_gab_linearization.csv"].decode().split()[1:]]
        sums = {}
        for m_deg, n_deg, _, g in rows:
            sums[(m_deg, n_deg)] = sums.get((m_deg, n_deg), 0.0) + float(g)
        worst = max(abs(v - 1.0) for v in sums.values())
        return None if worst <= 1e-10 else f"linearization row sums off by {worst:.3e}"

    def hypergroup_z12(res, _):
        hgdoc = res["hypergroup"]
        classes = [z12_index[c[1:-1]] for c in hgdoc["classes"]]
        want = oracles.group_law_tensor(z12.mul, classes)
        got = np.zeros_like(want)
        for i, j, k, v in hgdoc["conv"]:
            if v != "1/1":
                return f"conv entry {v!r} is not 1"
            got[i, j, k] = 1
        if not np.array_equal(got, want) or not res["audit"]["all_hold"]:
            return "Z12 convolution differs from the group law"
        return None

    def chartable_z48(res, _):
        classes = [z48_index[c[1:-1]] for c in res["classes"]]
        chars, weights = oracles.dft_table(z48, classes)
        found = np.array([[oracles.parse_complex(v) for v in row] for row in res["characters"]])
        perm = oracles.match_characters(found, chars)
        if perm is None or not oracles.plancherel_ok(res["plancherel"], weights[perm]):
            return "Z48 characters differ from the DFT"
        return None

    def dualtable_z48(res, _):
        m = len(res["characters"])
        law = np.full((m, m), -1)
        for key, vec in res["clamped_weights"].items():
            a, b = map(int, key.split(","))
            vec = np.asarray(vec)
            g = int(vec.argmax())
            if abs(vec[g] - 1.0) > oracles.DUAL_TOL or np.abs(np.delete(vec, g)).max() > oracles.DUAL_TOL:
                return f"product (chi{a}, chi{b}) is not a single character"
            law[a, b] = g
        latin = all(sorted(row) == list(range(m)) for row in law.tolist())
        if not latin or not np.array_equal(law, law.T) or not res["nonnegative"]:
            return "Z48 dual products are not the dual group law"
        return None

    def psd_sweep(res, _):
        s0, s1 = res["s0"], res["s1"]
        bad = [r["x"] for r in res["rows"] if s0 - 1e-12 <= r["x"] <= s1 + 1e-12 and not r["psd"]]
        return f"kernel not PSD inside [s0, s1] at {bad}" if bad else None

    def lp_sweep(res, _):
        if res["feasible_count"] != res["pairs"] or res["pairs"] != 25:
            return "moment LP infeasible on the spectrum grid"
        return None

    gab = ["family", "gab", "--a", str(lin_pair[0]), "--b", str(lin_pair[1])]
    jobs = [
        cmd("verify:petersen", ["verify", paths["petersen"]], 0, "verify",
            tensor_is(oracles.graph_tensor(pet))),
        cmd("verify:s3", ["verify", paths["s3"]], 0, "verify",
            tensor_is(oracles.group_law_tensor(s3.mul, s3_classes))),
        cmd("verify:generalized", ["verify", paths["gen"]], 0, "verify", gen_verify),
        cmd("chartable:petersen", ["chartable", paths["petersen"]], 0, "chartable",
            chartable_petersen),
        cmd("dualtable:petersen", ["dualtable", paths["petersen"]], 0, "dualtable",
            dualtable_petersen),
        cmd("family:gab:linearization", gab + ["--report", "linearization"], 0,
            "family_gab_linearization", gab_linearization),
        cmd("family:cosh:window-audit", ["family", "cosh", "--r", str(cosh_r)], 0,
            "family_cosh_window_audit"),
        cmd("chartable:s3", ["chartable", paths["s3"]], 3, "chartable"),
        cmd("verify:nondrg", ["verify", paths["nondrg"]], 2, "verify"),
        cmd("hypergroup:z12", ["hypergroup", paths["z12"]], 0, "hypergroup", hypergroup_z12),
        cmd("verify:z10-hypergroup", ["verify", paths["z10hg"]], 0, "verify", audit_holds),
        cmd("verify:z64", ["verify", paths["z64"]], 0, "verify", tensor_is(z64_tensor)),
        cmd("chartable:z48", ["chartable", paths["z48"]], 0, "chartable", chartable_z48),
        cmd("dualtable:z48", ["dualtable", paths["z48"]], 0, "dualtable", dualtable_z48),
        cmd("family:gab:psd-sweep", ["family", "gab", "--a", "3", "--b", "3",
                                     "--report", "psd-sweep"], 0, "family_gab_psd_sweep",
            psd_sweep),
    ]
    for a, b in lp_pairs:
        jobs.append(cmd(f"family:gab:lp-sweep:{a},{b}",
                        ["family", "gab", "--a", str(a), "--b", str(b), "--report", "lp-sweep"],
                        0, "family_gab_lp_sweep", lp_sweep))
    order = rng.permutation(len(jobs))
    warmup = cmd("warmup:verify:petersen", ["verify", paths["petersen"]], 0, "verify",
                 tensor_is(oracles.graph_tensor(pet)))
    return Workload([jobs[i] for i in order], warmup, min_passes=2)


def _cyclic_relation(n: int) -> np.ndarray:
    x = np.arange(n)
    return (x[None, :] - x[:, None]) % n


def _permutations(m: int):
    return [list(p) for p in itertools.permutations(range(m))]


WORKLOADS = {
    "exact-classes": exact_classes,
    "many-points": many_points,
    "cli-mix": cli_mix,
}

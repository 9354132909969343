"""Benchmark of the hypergroups package: one workload per invocation.

    python3 perfbench/run.py --workload exact-classes --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``exact-classes`` (group schemes with
few points and many classes, exact verification), ``many-points``
(distance-regular graphs with many points and few classes, plus rejected
edge-switched graphs) and ``cli-mix`` (one CLI subprocess per command).

The load is a closed loop with one client: each job starts after the
previous one ends.  Set-up builds the seeded inputs, imports the package
and runs one untimed warm-up job; it is repeated in two fresh interpreters
and ``setup_s`` is the median of the three.  The timed part runs whole
passes over the job list until ``--seconds`` have gone by, with a floor
per workload (two passes on ``exact-classes`` and ``cli-mix``, whose
byte-identity check compares them, four on the cheaper ``many-points``)
so that every job is timed more than once and the job count does not
hinge on a pass ending just before or after the deadline.
Every job's outcome is checked against an independent oracle afterwards.

The job list is fixed, so a run holds only a few dozen jobs of a dozen or
so kinds.  ``wall_s`` (time to finish the list once) is therefore the sum
of the per-job median latencies, ``job_p50_s`` the Harrell-Davis median of
all job latencies (steadier than the sample median, which sits on the edge
of a cluster of similar jobs), and ``job_tail_s`` the mean latency of
the slowest quarter of the run's jobs (the expected shortfall beyond p75):
a percentile with ten jobs beyond it would land among the ordinary jobs,
and a single slow sample swings with the machine's load.

With ``--trace 1`` the run instead times untraced passes, then the same
number of passes with a span around every call into a public function of
the package, and prints per-layer metrics, the tracing overhead and an
import probe from fresh interpreters.  ``cli-mix`` then calls
``hypergroups.cli.main`` in-process.  Spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
IMPORT_PROBES = 3
SETUP_PROBES = 2

UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
         "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def import_package():
    """Import ``hypergroups`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypergroups", "__init__.py")):
        sys.exit(f"error: no package source at {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hypergroups
    if os.path.dirname(os.path.dirname(os.path.abspath(hypergroups.__file__))) != SRC:
        sys.exit("error: hypergroups was imported from outside this checkout")
    return hypergroups


def per_job_medians(results: list) -> dict:
    """Median latency of each job of the list over the run's passes."""
    by_job: dict = {}
    for job, dt, _ in results:
        by_job.setdefault(job.name, []).append(dt)
    return {name: statistics.median(dts) for name, dts in by_job.items()}


def hd_median(xs: list) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    The job mix clusters by job kind, so the sample median sits on the edge
    of one cluster and jumps with single fast or slow jobs; this estimator
    weighs the order statistics around the middle smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    a = (len(xs) + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(len(xs) + 1) / len(xs)))
    return float(np.sort(xs) @ weights)


def slowest_quarter(latencies: list) -> list:
    """The slowest quarter of the latencies (at least one)."""
    return sorted(latencies)[-((len(latencies) + 3) // 4):]


def run_pass(jobs, results: list, rec=None, tag: str = "") -> float:
    """Run every job once and check it; return the summed latency.

    Appends (job, latency, failure reason or None) to
    ``results``.  The check runs after the clock stops, and the outcome is
    dropped straight after, so outcomes do not pile up in memory.
    """
    total = 0.0
    for job in jobs:
        if rec is not None:
            rec.job = f"{tag}/{job.name}"
        t0 = time.perf_counter()
        outcome = job.run()
        dt = time.perf_counter() - t0
        total += dt
        try:
            reason = job.check(outcome)
        except Exception as exc:  # malformed output the check could not read
            reason = f"check raised {exc!r}"
        results.append((job, dt, reason))
    return total


def failures_of(results: list) -> list:
    return [f"{job.name}: {reason}" for job, _, reason in results if reason]


def probe(args_list: list) -> dict:
    """Run a fresh interpreter and return the JSON of its last output line."""
    from workloads import package_env

    done = subprocess.run(args_list, cwd=ROOT, env=package_env(ROOT), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


IMPORT_SNIPPET = (
    "import json, sys, time\n"
    "before = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import hypergroups.cli\n"
    "dt = time.perf_counter() - t\n"
    "print(json.dumps({'s': dt, 'modules': len(sys.modules) - before,"
    " 'scipy': int('scipy' in sys.modules)}))\n"
)


def import_probe() -> dict:
    runs = [probe([sys.executable, "-c", IMPORT_SNIPPET]) for _ in range(IMPORT_PROBES)]
    return {"import.s": statistics.median(r["s"] for r in runs),
            "import.modules": runs[0]["modules"],
            "import.scipy_loaded": runs[0]["scipy"]}


def peak_rss_mb(children: bool) -> float:
    """Peak RSS so far of this process, or of its largest waited-for child, in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_info() -> str:
    import numpy
    from importlib.metadata import version
    blas = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS") if k in os.environ}
    return (f"machine: {os.cpu_count()} CPUs, {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, scipy "
            f"{version('scipy')}, BLAS threads {blas or 'library default'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    hg = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, hg, workloads.WORKLOADS[args.workload], work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, hg, build_workload, work: str, t_start: float) -> int:
    import numpy as np

    wl = build_workload(hg, np.random.default_rng(args.seed), root=ROOT, work=work,
                        inprocess=bool(args.trace))
    if args.trace:
        import hypergroups.cli  # noqa: F401  (in-process CLI; import is set-up)
    checked: list = []
    run_pass([wl.warmup], checked)
    setup_main = time.perf_counter() - t_start
    rss_setup = peak_rss_mb(args.workload == "cli-mix")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main, "failures": failures_of(checked)}))
        return 0

    print(machine_info())
    print(f"workload {args.workload}, seed {args.seed}, {len(wl.jobs)} jobs per pass, "
          f"closed loop with one client, trace {args.trace}")
    if args.trace:
        metrics = traced(args, wl, checked)
    else:
        metrics = untraced(args, wl, setup_main, rss_setup, checked)
    failures = failures_of(checked)
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(f"failed_frac {len(failures) / len(checked):.6g} ratio "
          f"({len(failures)} of {len(checked)} jobs, warm-ups included)")
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def untraced(args, wl, setup_main: float, rss_setup: float, checked: list) -> dict:
    """Timed passes with tracing off; returns the end-to-end metrics.

    Every job run, the set-up probes' warm-ups included, lands in ``checked``.
    ``peak_rss_mb`` is read straight after the timed passes, before the
    set-up probes start children and before ``hd_median`` imports scipy.
    """
    results: list = []
    walls = []
    t0 = time.perf_counter()
    while len(walls) < wl.min_passes or time.perf_counter() - t0 < args.seconds:
        walls.append(run_pass(wl.jobs, results))
    rss = peak_rss_mb(args.workload == "cli-mix")
    probes = [probe([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--setup-probe"])
              for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    checked += results
    for p in probes:
        checked.append((wl.warmup, p["setup_s"], "; ".join(p["failures"]) or None))
    latencies = [dt for _, dt, _ in results]
    medians = per_job_medians(results)
    slowest = slowest_quarter(latencies)
    values = {
        "setup_s": statistics.median(setups + [setup_main]),
        "wall_s": sum(medians.values()),
        "job_p50_s": hd_median(latencies),
        "job_tail_s": statistics.fmean(slowest),
        "peak_rss_mb": rss,
    }
    for name, median in sorted(medians.items(), key=lambda kv: kv[1]):
        print(f"job {name}: median {median:.4f} s")
    print(f"passes {len(walls)}, jobs {len(latencies)}, pass walls "
          f"{[round(w, 3) for w in walls]}; set-up samples "
          f"{[round(s, 3) for s in [setup_main] + setups]}")
    print(f"peak RSS after set-up {rss_setup:.1f} MiB, after the timed passes {rss:.1f} MiB"
          + (" (the peak was reached in set-up)" if rss <= rss_setup else ""))
    print(f"wall_s sums the per-job medians; job_tail_s is the mean of the slowest "
          f"{len(slowest)} of {len(latencies)} jobs")
    for name, value in values.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith((".self_s", "import.s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def traced(args, wl, checked: list) -> dict:
    """Untraced passes, then as many traced ones; returns the per-layer metrics."""
    import spans

    plain = []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < args.seconds / 2:
        plain.append(run_pass(wl.jobs, checked))
    rec = spans.Recorder()
    wrapped = spans.instrument(rec)
    rec.active = True
    walls, per_pass = [], []
    for i in range(len(plain)):
        first = len(rec.spans)
        walls.append(run_pass(wl.jobs, checked, rec, f"pass{i}"))
        per_pass.append(spans.layer_metrics(rec.spans, first))
    rec.active = False
    values = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    values.update(import_probe())
    values["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    rec.dump(dump)

    print(f"{len(plain)} untraced and {len(walls)} traced passes; {wrapped} functions "
          f"wrapped; {len(rec.spans)} spans written to {os.path.relpath(dump, ROOT)}")
    print("no layer has a queue or a second thread, so no wait-time metric is reported")
    busiest = sorted((k for k in values if k.endswith(".self_s")), key=values.get,
                     reverse=True)[:5]
    print("largest layers by self time: " + ", ".join(f"{k} {values[k]:.4g} s" for k in busiest))
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {layer_unit(name)}")
    return {k: {"value": float(v), "unit": layer_unit(k)} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())

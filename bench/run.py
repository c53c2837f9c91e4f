"""Replication-study benchmark of nestedrisk.

    python3 bench/run.py --workload optval-n200 --seed 0 --seconds 35 --trace 0

Run from the repository root; the library is imported from ``src/``. The
workloads are in ``workloads.py``. One run repeats the workload's
replication study until ``--seconds`` seconds of study time are measured
(closed loop, one caller, ``workers=1``, BLAS pinned to one thread), then
checks the outputs. ``python3 bench/selftest.py`` is the fast self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics, from studies run with spans
interleaved with studies run without. The line before it is a JSON
``detail`` record: the environment, the estimates-CSV hashes, the checks,
the tail percentile used and, traced, the cross-check against the ROADMAP
baseline rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
DEFAULT_SEED = 0
SETUP_PROBES = 6            # set-up runs in fresh processes, besides this one
CHECKED_REPS = 3            # replications of study 0 checked against independent code
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10
# ROADMAP baseline rows (Python 3.11.7, 2 CPUs) for the traced cross-check
ROADMAP = {
    "solve_empirical_ms": {200: 2.1, 20_000: 6.7},
    "solve_mixed_ms": {200: 2.4, 20_000: 50.9},
    "family_build_us": 17.0,
    "sample_n200_us": 49.0,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes; skips the recorded reference table")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it (used internally)")
    return ap.parse_args(argv)


def timed_setup(args):
    """Import, measure and plan construction and the exact reference, up to
    the first replication. Traced runs record the set-up's spans."""
    t0 = perf_counter()
    import nestedrisk
    import spans
    import workloads
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.make(args.workload, args.tiny, tracer)
    elapsed = perf_counter() - t0
    if Path(nestedrisk.__file__).resolve().parent != SRC / "nestedrisk":
        raise RuntimeError(f"nestedrisk imported from {nestedrisk.__file__}, not {SRC}")
    return elapsed, wl, tracer


def setup_probe(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, replications: int) -> dict:
    import numpy
    import scipy
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_sha = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "nestedrisk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "seed": args.seed,
            "replications": replications}


def tail(est_ms: list, nominal: float):
    """Percentile of the per-replication times: the workload's nominal
    percentile, or the highest lower one on the ladder that still has at
    least TAIL_BEYOND replications beyond it."""
    import numpy as np
    for pct in sorted({p for p in TAIL_LADDER if p <= nominal} | {nominal},
                      reverse=True):
        value = float(np.percentile(est_ms, pct))
        beyond = sum(t > value for t in est_ms)
        if beyond >= TAIL_BEYOND or pct == min(TAIL_LADDER):
            return value, pct, beyond


def deep_failures(wl, study) -> tuple[int, list]:
    """Replications of ``study`` that pass the cheap per-row checks but fail
    the checks against independent code."""
    failed, errors = 0, []
    for (s, row, extra), (_, mean_x, max_x) in zip(study.kept, study.records):
        errs = wl.deep_check(s, row, extra)
        errors += errs
        if errs and wl.row_ok(row, mean_x, max_x):
            failed += 1
    return failed, errors


def reference_check(wl, study) -> dict:
    """Study 0 at the default seed against the table recorded in
    reference.json: agreement to 1e-9 relative, and byte identity."""
    import numpy as np
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][wl.name]
    if ref["n"] != wl.n:
        return {"agrees_1e-9": False, "error": "reference recorded at another n"}
    rows = min(len(ref["estimates"]), study.reps)
    want = np.array(ref["estimates"][:rows], dtype=float)
    got = study.estimates[:rows]
    agrees = bool(np.all(np.abs(got - want) <= 1e-9 * np.abs(want)))
    return {"agrees_1e-9": agrees, "rows": rows,
            "max_rel_diff": float(np.max(np.abs(got - want) / np.abs(want))),
            "csv_sha256_identical": ref["csv_sha256"] == study.csv_sha256
            and ref["study_reps"] == wl.study_reps}


def run_untraced(args, wl, setup_s: float):
    import numpy as np
    import workloads
    # The set-up probes run between studies, spread over the run, so that
    # they sample the machine at different moments; study time excludes them.
    probes = 1 if args.tiny else SETUP_PROBES
    setup_samples = [setup_s]
    studies, measured = [], 0.0
    while not studies or measured < args.seconds:
        seed = workloads.study_seed(wl.name, args.seed, len(studies))
        studies.append(wl.run_study(seed, keep=CHECKED_REPS if not studies else 0))
        measured += studies[-1].wall_s
        if len(setup_samples) <= probes * measured / args.seconds:
            setup_samples.append(setup_probe(args))
    while len(setup_samples) <= probes:
        setup_samples.append(setup_probe(args))

    reps = sum(st.reps for st in studies)
    est_ms = [t * 1e3 for st in studies for t in st.est_s]
    deep_failed, errors = deep_failures(wl, studies[0])
    failed = sum(st.failed for st in studies) + deep_failed
    repeat = wl.run_study(workloads.study_seed(wl.name, args.seed, 0))
    determinism = {"study0_csv_sha256": studies[0].csv_sha256,
                   "repeat_identical": repeat.csv_sha256 == studies[0].csv_sha256}
    if args.seed == DEFAULT_SEED and not args.tiny:
        determinism["reference"] = reference_check(wl, studies[0])
    tail_ms, tail_pct, beyond = tail(est_ms, wl.tail_pct)

    metrics = {
        "reps_per_s": (reps / measured, "1/s"),
        # Each study's median, averaged over the run's studies. The machine
        # alternates between a fast and a slow state for tens of seconds at a
        # time; a median pooled over the run jumps between the two modes,
        # while this follows the share of time spent in each.
        "est_ms_p50": (statistics.fmean(statistics.median(st.est_s) * 1e3
                                        for st in studies), "ms"),
        "est_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    pcts = (5, 25, 50, 75, 90, 95, 99)
    detail = {"studies": len(studies), "study_reps": wl.study_reps, "n": wl.n,
              "study_reps_per_s": [st.reps / st.wall_s for st in studies],
              "failed_frac": failed / reps,
              "est_ms": {"p50": metrics["est_ms_p50"][0], "tail": tail_ms,
                         "tail_pct": tail_pct, "beyond_tail": beyond,
                         "samples": len(est_ms),
                         "pooled": dict(zip((f"p{p}" for p in pcts),
                                            np.percentile(est_ms, pcts).tolist()))},
              "setup_s_samples": setup_samples,
              "determinism": determinism, "check_errors": errors}
    ok = (not errors and determinism["repeat_identical"]
          and determinism.get("reference", {}).get("agrees_1e-9", True))
    return metrics, reps, failed, ok, detail


def run_traced(args, wl, setup_tracer):
    """Studies with and without spans, interleaved in alternating order; each
    pair replays the same seed, so their estimates CSVs must be identical."""
    import numpy as np
    import nestedrisk as nr
    import workloads
    from spans import Tracer
    tr = Tracer()
    deadline = perf_counter() + args.seconds
    plain, traced = [], []
    while not plain or perf_counter() < deadline:
        index = len(plain)
        seed = workloads.study_seed(wl.name, args.seed, index)
        keep = CHECKED_REPS if index == 0 else 0
        if index % 2:
            traced.append(wl.run_study(seed, tr))
            plain.append(wl.run_study(seed, keep=keep))
        else:
            plain.append(wl.run_study(seed, keep=keep))
            traced.append(wl.run_study(seed, tr))

    reps_t = sum(st.reps for st in traced)
    wall_t = sum(st.wall_s for st in traced)
    rps_plain = sum(st.reps for st in plain) / sum(st.wall_s for st in plain)
    attributed = sum(v for k, v in tr.self_time.items() if k != "bench.estimator")
    solves = tr.calls_sum("optimize.")
    at_max = sum(wl.at_sample_max(row, max_x) for st in traced
                 for row, _, max_x in st.records) if solves else 0

    def per_rep(value):
        return value / reps_t

    # Loop layers are per traced replication and use self time: a span's
    # time minus its child spans (family builds inside an objective
    # evaluation, evaluations inside a solve). Set-up layers are for the one
    # traced set-up; the limit variance is its whole span.

    layers = {
        "measures.family.calls": (per_rep(tr.calls["measures.family"]), "calls/rep"),
        "measures.family.s": (per_rep(tr.self_time["measures.family"]), "s/rep"),
        "optimize.solves": (per_rep(solves), "solves/rep"),
        "optimize.objective_evals": (per_rep(tr.counts["optimize.objective_evals"]), "evals/rep"),
        "optimize.iterations": (per_rep(tr.counts["optimize.iterations"]), "iters/rep"),
        "optimize.self_s": (per_rep(tr.self_sum("optimize.")), "s/rep"),
        "optimize.at_sample_max_frac": (at_max / solves if solves else 0.0, "frac"),
        "estimators.chain.calls": (per_rep(tr.calls["estimators.chain"]), "calls/rep"),
        "estimators.chain.s": (per_rep(tr.self_time["estimators.chain"]), "s/rep"),
        "estimators.rows_evaluated": (per_rep(tr.counts["estimators.rows_evaluated"]), "rows/rep"),
        "asymptotics.report.calls": (per_rep(tr.calls["asymptotics.report"]), "calls/rep"),
        "asymptotics.report.s": (per_rep(tr.self_time["asymptotics.report"]), "s/rep"),
        "asymptotics.exact_variance.s": (setup_tracer.total["asymptotics.exact_variance"], "s"),
        "core.exact_chain.calls": (setup_tracer.calls["core.exact_chain"], "calls"),
        "core.exact_chain.s": (setup_tracer.self_time["core.exact_chain"], "s"),
        "harness.replicate.self_s": (per_rep(tr.self_time["harness.replicate"]), "s/rep"),
        "harness.sample.draws": (float(wl.n), "draws/rep"),
        "harness.summary.s": (per_rep(tr.self_time["harness.summary"]), "s/rep"),
        "trace.overhead_frac": ((rps_plain - reps_t / wall_t) / rps_plain, "frac"),
        "trace.unattributed_frac": ((wall_t - attributed) / wall_t, "frac"),
    }

    # per-call figures beside the ROADMAP baseline rows
    sample_us = []
    for i in range(300):
        cfg = nr.SamplerConfig(workloads.LAW, i)
        t0 = perf_counter()
        nr.sample(cfg, 200)
        sample_us.append((perf_counter() - t0) * 1e6)
    cross = {"sample_n200_us": float(np.median(sample_us))}
    if solves:
        for key, span in (("solve_empirical_ms", "optimize.empirical-sample"),
                          ("solve_mixed_ms", "optimize.mixed-plan")):
            cross[key] = tr.total[span] / tr.calls[span] * 1e3
        cross["family_build_us"] = (tr.total["measures.family"]
                                    / tr.calls["measures.family"] * 1e6)
    crosscheck = {}
    for key, value in cross.items():
        base = ROADMAP[key]
        base = base.get(wl.n) if isinstance(base, dict) else base
        crosscheck[key] = {"traced": value, "roadmap": base,
                           "ratio": value / base if base else None}

    deep_failed, errors = deep_failures(wl, plain[0])
    failed = sum(st.failed for st in plain + traced) + deep_failed
    identical = all(a.csv_sha256 == b.csv_sha256 for a, b in zip(plain, traced))
    detail = {"studies": len(plain), "study_reps": wl.study_reps, "n": wl.n,
              "traced_reps": reps_t,
              "failed_frac": failed / (2 * reps_t),
              "determinism": {"study0_csv_sha256": plain[0].csv_sha256,
                              "traced_identical": identical},
              "check_errors": errors, "crosscheck": crosscheck,
              "setup_spans": {k: {"calls": setup_tracer.calls[k],
                                  "total_s": setup_tracer.total[k]}
                              for k in sorted(setup_tracer.calls)},
              "note": "estimators.rows_evaluated and harness.sample.draws are "
                      "computed from array sizes, not counted"}
    return layers, 2 * reps_t, failed, not errors and identical, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "nestedrisk" / "__init__.py").is_file():
        print(f"bench: no nestedrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, wl, setup_tracer = timed_setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, attempted, failed, ok, detail = run_traced(args, wl, setup_tracer)
    else:
        metrics, attempted, failed, ok, detail = run_untraced(args, wl, setup_s)
    detail = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "env": environment(args, attempted), **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

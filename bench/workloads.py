"""Workloads of the replication-study benchmark.

Every workload is a closed loop with one caller. It repeats a fixed-size
replication study, as ``nestedrisk optimize`` / ``nestedrisk simulate`` or
demo 03 would run one: ``run_replications`` with ``workers=1``, then the
summary JSON and the 17-digit estimates CSV. Study ``s`` of a run draws its
replications from ``study_seed(workload, seed, s)``, so the same seed gives
the same inputs and the same CSV bytes.

The library is driven only through public calls; spans come from
``spans.py``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy.special import ndtr, ndtri

import nestedrisk as nr
from nestedrisk.harness import dumps_json, summary_json

from spans import TracedFamily, TracedProblem, Tracer, traced

LAW = nr.Normal(10.0, math.sqrt(3.0))
C, P = 20.0, 2.0          # higher-order measure min_u {u + c ||(X-u)_+||_p}
KAPPA = 0.5               # mean-semideviation weight, same order P
LEVEL = 0.95
CONV_NODES = 64           # SmoothingPlan default, gaussian-kernel quadrature


def study_seed(workload: str, seed: int, index: int) -> int:
    """64-bit seed of study ``index``; distinct per workload and run seed."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def silverman(x: np.ndarray) -> float:
    """Silverman bandwidth 1.06 sd n^(-1/5), written out independently."""
    return 1.06 * float(np.std(x, ddof=1)) * x.shape[0] ** -0.2


@dataclass
class Study:
    """Outcome of one study: estimates, per-replication times and checks."""

    estimates: np.ndarray
    est_s: list
    failed: int
    csv_sha256: str
    wall_s: float
    records: list = field(repr=False)
    kept: list = field(repr=False)

    @property
    def reps(self) -> int:
        return self.estimates.shape[0]


class Workload:
    """Set-up plus a per-replication computation; subclasses fill in the
    measure, the estimators and the checks against independent code."""

    columns: tuple = ()
    summary_cols: tuple = ()

    def __init__(self, name: str, n: int, study_reps: int, tail_pct: float,
                 tracer: Tracer | None = None):
        self.name, self.n = name, n
        self.study_reps, self.tail_pct = study_reps, tail_pct
        self.setup(tracer)

    # -- per study ------------------------------------------------------

    def run_study(self, seed: int, tracer: Tracer | None = None,
                  keep: int = 0) -> Study:
        """One replication study timed from its first replication to the
        emitted summary JSON and estimates CSV. The first ``keep``
        replications keep their sample for the deep checks."""
        est_s, records, kept = [], [], []
        nan_row = np.full(len(self.columns), np.nan)
        t_start = perf_counter()
        compute = self.bind(tracer)

        def estimator(s: nr.Sample):
            t0 = perf_counter()
            tok = tracer.begin() if tracer is not None else None
            try:
                row, extra = compute(s)
            except nr.EvaluationError as exc:
                row, extra = nan_row, exc
            if tok is not None:
                tracer.end("bench.estimator", tok)
            est_s.append(perf_counter() - t0)
            x = s.data[:, 0]
            records.append((row, float(x.mean()), float(x.max())))
            if len(kept) < keep:
                kept.append((s, row, extra))
            return row

        table = traced(tracer, "harness.replicate", nr.run_replications,
                       estimator, nr.SamplerConfig(LAW, 0), self.n,
                       self.study_reps, seed=seed, workers=1,
                       label={"workload": self.name})
        tok = tracer.begin() if tracer is not None else None
        csv = table.to_csv()
        self.emit_summaries(table)
        if tok is not None:
            tracer.end("harness.summary", tok)
        wall = perf_counter() - t_start

        failed = sum(not self.row_ok(row, mean_x, max_x)
                     for row, mean_x, max_x in records)
        return Study(table.estimates, est_s, failed,
                     hashlib.sha256(csv.encode()).hexdigest(), wall,
                     records, kept)

    def emit_summaries(self, table) -> list[str]:
        """Summary JSON of each estimator column, as `nestedrisk simulate`
        emits it; rows of failed replications are left out."""
        ok = np.all(np.isfinite(table.estimates), axis=1)
        if not ok.all():
            table = replace(table, estimates=table.estimates[ok])
        if table.replications < 2:
            return []
        return [dumps_json(summary_json(
                    nr.summarize_distribution(table, self.reference, coord=c),
                    table.config))
                for c in self.summary_cols]

    # -- hooks ----------------------------------------------------------

    def setup(self, tracer):
        raise NotImplementedError

    def bind(self, tracer):
        raise NotImplementedError

    def row_ok(self, row, mean_x, max_x) -> bool:
        raise NotImplementedError

    def deep_check(self, s: nr.Sample, row, extra) -> list[str]:
        raise NotImplementedError


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class OptimalValue(Workload):
    """Empirical and uniform-kernel (silverman, J={2}) optimal-value solves
    of the higher-order measure, ``minimize_scalar(flat_check_grid=0)``."""

    columns = ("theta_empirical", "theta_mixed")
    summary_cols = (0, 1)
    # golden-section tolerance in u; the value error is at most the local
    # slope times this, and the slope near the optimum is below one
    SOLVE_TOL = 1e-8

    def setup(self, tracer):
        self.family = nr.make_higher_order_family(nr.MeasureParams(c=C, p=P))
        self.plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                                     nr.BandwidthSchedule("silverman"))
        mean, var = LAW.moments()
        sd = math.sqrt(var)
        bracket = (mean - 6 * sd, mean + 12 * sd)     # as the CLI's exact solve
        oracle = LAW.oracle()
        if tracer is None:
            prob = nr.ScalarProblem(self.family, bracket, "exact-oracle", oracle=oracle)
        else:
            prob = TracedProblem(TracedFamily(self.family, tracer), bracket,
                                 "exact-oracle", oracle=oracle, tracer=tracer)
        rep = traced(tracer, "optimize.exact", nr.minimize_scalar, prob)
        v = traced(tracer, "asymptotics.exact_variance",
                   nr.optimal_value_clt_variance, prob, None, rep.u_hat)
        self.reference = nr.Reference(rep.theta, v / self.n)
        # empirical optimum is the sample maximum whenever c > sqrt(n)
        self.degenerate = C > math.sqrt(self.n)

    def bind(self, tracer):
        family, plan, n = self.family, self.plan, self.n
        if tracer is None:
            def solve(s, source, plan):
                pb = nr.ScalarProblem(family, nr.default_bracket(s, C), source,
                                      sample=s, plan=plan)
                return nr.minimize_scalar(pb, flat_check_grid=0)
        else:
            fam = TracedFamily(family, tracer)

            def solve(s, source, plan):
                t0 = tracer.begin()
                try:
                    # both chains evaluate n rows per layer (the uniform
                    # kernel's power-max layer is a closed form)
                    pb = TracedProblem(fam, nr.default_bracket(s, C), source,
                                       sample=s, plan=plan, tracer=tracer,
                                       rows_per_eval=2 * n)
                    rep = nr.minimize_scalar(pb, flat_check_grid=0)
                finally:
                    tracer.end("optimize." + source, t0)
                tracer.count("optimize.iterations", rep.iterations)
                return rep

        def compute(s):
            e = solve(s, "empirical-sample", None)
            m = solve(s, "mixed-plan", plan)
            return np.array([e.theta, m.theta]), (e, m)
        return compute

    def at_sample_max(self, row, max_x) -> int:
        return sum(_rel_close(t, max_x, 1e-6) for t in row)

    def row_ok(self, row, mean_x, max_x) -> bool:
        emp, mixed = row
        if not (np.isfinite(emp) and np.isfinite(mixed)):
            return False
        # a coherent risk measure is at least the mean, smoothed or not
        tol = self.SOLVE_TOL * max(1.0, abs(mean_x))
        if emp < mean_x - tol or mixed < mean_x - tol:
            return False
        if self.degenerate:
            return _rel_close(emp, max_x, self.SOLVE_TOL)
        return emp <= max_x + tol

    def deep_check(self, s, row, extra) -> list[str]:
        """No point of a dense u-grid of the public objective beats the
        reported optimum."""
        if isinstance(extra, Exception):
            return [f"replication raised {extra}"]
        errors = []
        for rep, source, plan in ((extra[0], "empirical-sample", None),
                                  (extra[1], "mixed-plan", self.plan)):
            bracket = nr.default_bracket(s, C)
            fn = nr.ScalarProblem(self.family, bracket, source, sample=s,
                                  plan=plan).objective()
            lo, hi = bracket
            near = rep.u_hat + np.linspace(-1e-3, 1e-3, 81) * (hi - lo)
            grid = np.concatenate([np.linspace(lo, hi, 161),
                                   near[(near >= lo) & (near <= hi)]])
            best = min(fn(float(u)) for u in grid)
            tol = self.SOLVE_TOL * max(1.0, abs(rep.theta))
            if best < rep.theta - tol:
                errors.append(f"{source}: grid value {best:.17g} beats theta {rep.theta:.17g}")
            if not _rel_close(fn(rep.u_hat), rep.theta, 1e-12):
                errors.append(f"{source}: objective at u_hat differs from theta")
        return errors


class MeanSemideviation(Workload):
    """Mean-semideviation: ``estimate_empirical`` with a 95% asymptotic
    interval, and a gaussian-kernel silverman ``estimate_mixed``."""

    columns = ("empirical", "mixed", "ci_low", "ci_high")
    summary_cols = (0, 1)
    # error of the 64-node gaussian quadrature against the closed form, for
    # the kinked (max(0, .))^2 layer: measured up to 2e-9 relative at
    # n=20000 and 9e-8 at the self-test's n=400 (wider bandwidth)
    QUADRATURE_REL = 1e-6

    def setup(self, tracer):
        self.params = nr.MeasureParams(kappa=KAPPA, p=P)
        spec = traced(tracer, "measures.family", nr.make_mean_semideviation,
                      self.params)
        self.plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0),
                                     nr.BandwidthSchedule("silverman"),
                                     convolution_nodes=CONV_NODES)
        oracle = LAW.oracle()
        value = traced(tracer, "core.exact_chain", nr.eval_exact_chain,
                       spec, oracle).value[0]
        v = traced(tracer, "asymptotics.exact_variance", nr.exact_limit_variance,
                   spec, oracle)[0, 0]
        self.reference = nr.Reference(float(value), float(v) / self.n)

    def bind(self, tracer):
        # the spec is built once per study, as `nestedrisk simulate` does
        spec = traced(tracer, "measures.family", nr.make_mean_semideviation,
                      self.params)
        plan, n = self.plan, self.n

        def compute(s):
            e = traced(tracer, "estimators.chain", nr.estimate_empirical, spec, s)
            a = traced(tracer, "asymptotics.report", nr.asymptotic_report,
                       spec, s, e, level=LEVEL)
            m = traced(tracer, "estimators.chain", nr.estimate_mixed, spec, s, plan)
            if tracer is not None:
                # three layers of n rows; the smoothed layer 2 evaluates
                # n rows per quadrature node
                tracer.count("estimators.rows_evaluated", 3 * n + (CONV_NODES - 1) * n)
            (lo, hi), = a.intervals
            return np.array([e.value[0], m.value[0], lo, hi]), (e, a, m)
        return compute

    def row_ok(self, row, mean_x, max_x) -> bool:
        emp, mixed, lo, hi = row
        if not np.all(np.isfinite(row)):
            return False
        return emp >= mean_x and mixed >= mean_x and lo < emp < hi

    def deep_check(self, s, row, extra) -> list[str]:
        """Independent numpy code: closed forms for the empirical value, its
        delta-method variance and interval, and the gaussian-kernel smoothed
        value; the smoothed value also through the same 64-node rule."""
        if isinstance(extra, Exception):
            return [f"replication raised {extra}"]
        e, a, m = extra
        x = s.data[:, 0]
        n = x.shape[0]
        mean = x.mean()
        d = np.maximum(0.0, mean - x)
        eta2 = np.mean(d ** P)
        emp = mean + KAPPA * eta2 ** (1 / P)
        # influence function of E[X] + kappa ||(E[X]-X)_+||_p
        grad = KAPPA / P * eta2 ** (1 / P - 1)
        slope = np.mean(P * d ** (P - 1))
        g = x + grad * d ** P + grad * slope * x
        var = np.mean((g - g.mean()) ** 2)
        half = float(ndtri(0.5 + LEVEL / 2)) * math.sqrt(var / n)
        # E[max(0, a - hZ)^2] = h^2 ((t^2 + 1) Phi(t) + t phi(t)), t = a / h
        h = silverman(x)
        t = (mean - x) / h
        phi = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        eta2_s = np.mean(h * h * ((t * t + 1) * ndtr(t) + t * phi))
        mixed = mean + KAPPA * eta2_s ** (1 / P)
        z, w = np.polynomial.hermite_e.hermegauss(CONV_NODES)
        conv = np.maximum(0.0, (mean - x)[:, None] - h * z[None, :]) ** P
        mixed_q = mean + KAPPA * np.mean(conv @ (w / math.sqrt(2 * math.pi))) ** (1 / P)

        errors = []
        if not _rel_close(e.value[0], emp, 1e-12):
            errors.append(f"empirical {e.value[0]:.17g} vs closed form {emp:.17g}")
        if not _rel_close(a.limit_cov[0, 0], var, 1e-9):
            errors.append(f"limit variance {a.limit_cov[0, 0]:.17g} vs {var:.17g}")
        (lo, hi), = a.intervals
        if not (_rel_close(lo, emp - half, 1e-9) and _rel_close(hi, emp + half, 1e-9)):
            errors.append(f"interval ({lo:.17g}, {hi:.17g}) vs half-width {half:.17g}")
        if not _rel_close(m.value[0], mixed_q, 1e-11):
            errors.append(f"mixed {m.value[0]:.17g} vs {CONV_NODES}-node rule {mixed_q:.17g}")
        if not _rel_close(m.value[0], mixed, self.QUADRATURE_REL):
            errors.append(f"mixed {m.value[0]:.17g} vs closed form {mixed:.17g}")
        return errors


# name -> (class, n, replications per study, tail percentile of est_ms)
# Study sizes keep one study near one second. The tail percentile is the
# highest of (50, 90, 95, 99) with at least twenty replications beyond it
# at the count a 30-second run completes on a 2-CPU machine (about 4300,
# 530 and 1600), so the percentile does not switch between runs.
WORKLOADS = {
    "optval-n200": (OptimalValue, 200, 100, 99.0),
    "optval-n20000": (OptimalValue, 20_000, 16, 95.0),
    "msd-n20000": (MeanSemideviation, 20_000, 40, 95.0),
}
# self-test sizes: every code path, a fraction of a second per study
TINY = {"optval-n200": 60, "optval-n20000": 400, "msd-n20000": 400}
TINY_REPS = 4


def make(name: str, tiny: bool = False, tracer: Tracer | None = None) -> Workload:
    cls, n, reps, tail = WORKLOADS[name]
    if tiny:
        n, reps = TINY[name], TINY_REPS
    return cls(name, n, reps, tail, tracer)

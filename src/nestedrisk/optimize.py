"""Scalar decision problems embedded in optimized composite functionals.

Minimizes u -> rho[u, X] over a bracket for the shipped convex families:
by safeguarded Newton steps over the sorted sample's tail for a
uniform-kernel plan on the higher-moment family, by Brent's method
(parabolic interpolation safeguarded by golden-section steps) otherwise,
which converges superlinearly where the objective is smooth at its optimum
and falls back to golden-section steps at a kink. With a unique
minimizer u_hat the limit of sqrt(n)(theta_n - theta) is normal, and its
variance is the composite delta method C^T Sigma_g C of ``asymptotics``
at the spec family(u_hat): exact by quadrature, plug-in from a sample, or,
for a mixed plan, with the inner mean and covariance smoothed by the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import _mixed_plan_variance, asymptotic_report, exact_limit_variance
from .core import CompositeSpec, QuadratureRule, _chain, _eval_layer
from .errors import ConfigError, EvaluationError
from .estimators import (Sample, SmoothingPlan, _check_plan, _check_tag,
                         _powermax_uniform_mean, _smoother, bandwidth,
                         estimate_empirical)
from .measures import stack_specs

# golden-section fraction (3 - sqrt 5) / 2 and the rounding floor of a step
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))
_EPS = 4.0 * np.finfo(float).eps

OBJECTIVE_SOURCES = ("exact-oracle", "empirical-sample", "mixed-plan")


@dataclass(frozen=True)
class ScalarProblem:
    """A scalar decision problem: family u -> spec plus an objective source.

    Exactly one backing input is used, chosen by ``objective_source``:
    the oracle (exact), the sample (empirical), or sample + plan (mixed).
    """

    family: Callable[[float], CompositeSpec]
    bracket: tuple[float, float]
    objective_source: str = "exact-oracle"
    oracle: QuadratureRule | None = None
    sample: Sample | None = None
    plan: SmoothingPlan | None = None

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < hi:
            raise ConfigError("bracket must satisfy lo < hi")
        if self.objective_source not in OBJECTIVE_SOURCES:
            raise ConfigError(f"objective_source must be one of {OBJECTIVE_SOURCES}")
        if self.objective_source == "exact-oracle" and self.oracle is None:
            raise ConfigError("exact-oracle problems need an oracle")
        if self.objective_source == "empirical-sample" and self.sample is None:
            raise ConfigError("empirical-sample problems need a sample")
        if self.objective_source == "mixed-plan" and (self.sample is None
                                                      or self.plan is None):
            raise ConfigError("mixed-plan problems need a sample and a plan")

    def objective(self) -> Callable[[float], float]:
        """Scalar objective u -> estimated/exact composite value: the nested
        means of family(u) over the oracle's nodes or the sample's rows. A
        mixed plan is checked against the spec at the bracket midpoint once
        per call rather than once per u."""
        weights = smooth = None
        if self.objective_source == "exact-oracle":
            x, weights = self.oracle.nodes, self.oracle.weights
        else:
            x = self.sample.data
            if self.objective_source == "mixed-plan":
                _check_plan(self.family(0.5 * sum(self.bracket)), self.sample, self.plan)
                smooth = _smoother(self.sample, self.plan)
        family = self.family
        return lambda u: float(_chain(family(u), x, weights, smooth).value[0])


def default_bracket(sample: Sample, c: float) -> tuple[float, float]:
    """Bracket for the higher-order family on a sample: the optimum is a
    tail point, so [min X, max X + c * IQR] contains it. Min, max and
    quartiles are read from the sample's cached order, the one the
    sorted-tail solve reads; the quartiles equal np.percentile's bit for
    bit."""
    xs = sample._sorted()[:, 0]
    q75, q25 = _quantile(xs, 0.75), _quantile(xs, 0.25)
    return float(xs[0]), float(xs[-1] + c * max(q75 - q25, 1e-12))


def _quantile(xs: np.ndarray, q: float) -> float:
    """numpy's default (linear) quantile of the ascending xs: the value at
    virtual index (n - 1) q, interpolated from the nearer neighbour as
    numpy's _lerp does, so that it rounds as np.quantile(xs, q) does."""
    v = (xs.shape[0] - 1) * q
    i = int(v)
    if i >= xs.shape[0] - 1:
        return xs[-1]
    a, b, t = xs[i], xs[i + 1], v - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class OptimalValueReport:
    """Solver output: minimizer, optimal value, iteration count, flags.

    ``iterations`` counts the steps of Brent's method, parabolic or
    golden-section, each one objective evaluation after the first; or, on
    the sorted-tail path of ``minimize_scalar``, Newton and bisection steps
    (0 when an endpoint is returned).
    """

    u_hat: float
    theta: float
    iterations: int
    boundary: bool = False
    flat: bool = False


def minimize_scalar(problem: ScalarProblem, tol: float = 1e-8,
                    *, flat_check_grid: int = 128) -> OptimalValueReport:
    """Minimize the problem's objective over its bracket. Deterministic;
    assumes the objective is convex on the bracket (true for the shipped
    families).

    A mixed plan that smooths a declared higher-moment inner layer
    (``PowerMaxForm.tail_objective``) with the uniform kernel, in a
    one-dimensional sample, is solved by safeguarded Newton steps on the
    sorted sample (_solve_sorted_tail); a declaration that its layers do
    not compute raises ConfigError naming the layer. Every other problem
    takes Brent's method (_brent) to a bracket of width <= tol around the
    returned point. Both paths evaluate a bracket end that no iterate passed
    and return the end itself when the optimum is there.

    A boundary optimum (objective monotone on the bracket) is reported with
    ``boundary=True``; a flat optimum (more than 1% of a probe grid within
    solver tolerance of the minimum) sets ``flat=True``.
    """
    ev = problem.objective()  # a non-finite value raises, naming the layer
    lo, hi = map(float, problem.bracket)

    tail = _sorted_tail(problem)
    if tail is None:
        u_best, f_best, iterations = _brent(ev, lo, hi, tol)
    else:
        u_best, f_best, iterations = _solve_sorted_tail(*tail, lo, hi, tol, ev)

    width = hi - lo
    boundary = (u_best - lo) <= max(tol, 1e-12 * width) or \
               (hi - u_best) <= max(tol, 1e-12 * width)

    flat = False
    if flat_check_grid and flat_check_grid > 1:
        grid = np.linspace(lo, hi, flat_check_grid)
        vals = np.array([ev(u) for u in grid])
        close = np.sum(vals <= f_best + tol * max(1.0, abs(f_best)))
        flat = close > 0.01 * flat_check_grid
        if vals.min() < f_best:
            u_best = float(grid[np.argmin(vals)])
            f_best = float(vals.min())

    return OptimalValueReport(float(u_best), float(f_best), iterations,
                              bool(boundary), bool(flat))


def _brent(ev, lo: float, hi: float, tol: float):
    """Brent's method (Brent 1973, ch. 5): successive parabolic
    interpolation through the three best points, safeguarded by
    golden-section steps, until the bracket [a, b] around the best point is
    at most tol wide (plus a rounding term of a few ulps of u); no step is
    shorter than tol / 4. A bracket end no iterate passed is evaluated last
    and returned when it is not higher. Returns (u, value, steps), one
    objective evaluation per step after the first.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = ev(x)
    d = e = 0.0
    steps = 0
    while steps < 400:
        mid = 0.5 * (a + b)
        tol1 = 0.25 * tol + _EPS * abs(x)
        if max(x - a, b - x) <= 2.0 * tol1:
            break
        # parabola through (v, fv), (w, fw), (x, fx): step p / q from x,
        # taken when it lands inside (a, b) and moves less than half the
        # step before last, e; a golden-section step into the larger part
        # of the bracket otherwise
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p if q > 0.0 else p), abs(q)
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = tol1 if x < mid else -tol1
        else:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0.0 else -tol1))
        fu = ev(u)
        steps += 1
        # a convex objective's minimum is not beyond x from u when fu <= fx,
        # and not beyond u from x when fu >= fx: a tie bounds it by both
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
        if fu >= fx:
            a, b = (u, b) if u < x else (a, u)
        if fu < fx:
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        elif fu <= fw or w == x:
            v, fv, w, fw = w, fw, u, fu
        elif fu <= fv or v == x or v == w:
            v, fv = u, fu
    for end, moved in ((lo, a != lo), (hi, b != hi)):
        if not moved:
            f_end = ev(end)
            if f_end <= fx:
                return end, f_end, steps
    return x, fx, steps


def _sorted_tail(problem: ScalarProblem):
    """(sorted sample, c, p, h) when the problem is a uniform-kernel mixed
    plan smoothing a declared higher-moment inner layer (p > 1) in a
    one-dimensional sample; None otherwise. The sorted sample is the
    sample's cached order.

    The declaration stands in for both layers' evaluators, so each runs
    once, on the spec at the bracket midpoint u and at the point x = u + 2:
    layer 2 must give 2^p and layer 1, at that eta, u + 2c (to 1e-12
    relative), or ConfigError names the layer.
    """
    sample, plan = problem.sample, problem.plan
    if (problem.objective_source != "mixed-plan" or plan.kernel.family != "uniform"
            or 2 not in plan.J or sample.m != 1):
        return None
    u = 0.5 * sum(problem.bracket)
    spec = problem.family(u)
    pm = spec.layer(2).powermax if spec.k == 1 else None
    if pm is None or pm.tail_objective is None or pm.power <= 1.0:
        return None
    c, p = float(pm.tail_objective), float(pm.power)
    x = np.array([[u + 2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.maximum(0.0, x[0] - u) ** p
        _check_tag(2, _eval_layer(spec, 2, None, x)[0, 0], eta[0],
                   f"at x = {x[0, 0]:.17g}", f"(max(0, x - u))^{p:g}")
        _check_tag(1, _eval_layer(spec, 1, eta, x)[0, 0], u + c * eta[0] ** (1.0 / p),
                   f"at eta = {eta[0]:.17g}", f"u + {c:g} eta^(1/{p:g})")
    h = bandwidth(plan.schedule, sample.n, sample.std_scale())
    return sample._sorted()[:, 0], c, p, h


def _solve_sorted_tail(xs: np.ndarray, c: float, p: float, h: float,
                       lo: float, hi: float, tol: float, ev):
    """Minimize F(u) = u + c M(u)^(1/p) on [lo, hi], where M is the
    uniform-kernel smoothed mean of (max(0, x - u))^p over the sorted sample
    xs, by Newton steps on F' kept inside a sign bracket (rtsafe): a step
    that leaves the bracket or does not halve the step before last is
    replaced by bisection. Returns (u, F(u), steps).

    Only the suffix x > u - h enters. With M_q the closed form at power q,
    dM/du = -p M_(p-1) and d2M/du2 = p (p-1) M_(p-2), so with q_k the
    ratio M_(p-k) / M (kept as ratios so that only M itself can overflow)
    F' = 1 - c M^(1/p) q_1 and F'' = c (p-1) M^(1/p) (q_2 - q_1^2) >= 0.
    A bracket end is evaluated only when no iterate passed it, and is
    returned itself when F' keeps its sign up to it. A non-finite moment is
    reported by the public objective ``ev``, which names the layer-2 row;
    failing that, it raises naming layer 2.
    """
    n = xs.shape[0]

    def derivatives(u: float):
        gap = xs[np.searchsorted(xs, u - h, side="right"):] - u
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m0 = np.float64(_powermax_uniform_mean(gap, p, h, n))
            if m0 == 0.0:         # no mass within reach of the kernel
                return u, 1.0, 0.0
            norm = m0 ** (1.0 / p)
            q1 = _powermax_uniform_mean(gap, p - 1.0, h, n) / m0
            q2 = _powermax_uniform_mean(gap, p - 2.0, h, n) / m0
            out = (u + c * norm, 1.0 - c * norm * q1,
                   c * (p - 1.0) * norm * (q2 - q1 * q1))
        if not np.all(np.isfinite(out)):
            ev(u)
            raise EvaluationError(f"non-finite smoothed tail moments at u={u:g}",
                                  layer=2)
        return out

    # start at the (1 - 1/c) order statistic, the p = 1 (CVaR) optimum
    u = float(xs[min(n - 1, int(n * (1.0 - 1.0 / c)))])
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    f, d1, d2 = derivatives(u)
    u_best, f_best = u, f
    a, b = lo, hi
    last = before_last = hi - lo
    steps = 0
    while d1 != 0.0 and steps < 400:
        if d1 < 0.0:
            a = u
        else:
            b = u
        u_new = u - d1 / d2 if d2 > 0.0 else np.nan
        step = abs(u_new - u)
        if not (a < u_new < b and 2.0 * step <= before_last):
            u_new, step = 0.5 * (a + b), 0.5 * (b - a)
        before_last, last = last, step
        steps += 1
        if u_new == u:
            break
        u = u_new
        f, d1, d2 = derivatives(u)
        if f < f_best:
            u_best, f_best = u, f
        if step <= tol:
            break
    # the bracket ends were never evaluated: an end no iterate passed is
    # the optimum when F' has the same sign there
    if d1 > 0.0 and a == lo:
        f_lo, d_lo, _ = derivatives(lo)
        if d_lo >= 0.0:
            return lo, f_lo, steps
    if d1 < 0.0 and b == hi:
        f_hi, d_hi, _ = derivatives(hi)
        if d_hi <= 0.0:
            return hi, f_hi, steps
    # where F' is steep beside the root, the last iterate of a tol-wide
    # bracket need not be the lowest one
    return u_best, f_best, steps


def optimal_value_clt_variance(problem: ScalarProblem, sample: Sample | None,
                               u_hat: float) -> float:
    """Delta-method variance of the optimal-value estimator at u_hat.

    With sample=None the problem's quadrature oracle gives the exact value
    (exact_limit_variance, useful for reference variances); with a sample it
    is the plug-in asymptotic_report, except that a mixed-plan problem
    whose plan smooths layer 2 smooths the inner mean and covariance with
    that plan. A degenerate tail
    (inner mean zero, so the gradient is singular for p > 1) raises
    EvaluationError naming layer 1.
    """
    spec = problem.family(float(u_hat))
    if spec.k > 1:
        raise ConfigError("optimal-value variance is defined for 2-level families")
    if sample is None:
        return float(exact_limit_variance(spec, problem.oracle)[0, 0])
    if (problem.objective_source == "mixed-plan" and spec.k == 1
            and 2 in problem.plan.J):
        return _mixed_plan_variance(spec, sample, problem.plan)
    report = asymptotic_report(spec, sample, estimate_empirical(spec, sample))
    return float(report.limit_cov[0, 0])


def optimal_value_limit_covariance(problems, u_hats, *, samples=None) -> np.ndarray:
    """Joint limit covariance of several optimal-value estimators.

    With ``samples`` a list of per-component Samples observed independently
    (or None to use each problem's exact oracle), the covariance is block
    diagonal. With a single joint Sample whose columns split across the
    problems (one column per scalar component), it is the plug-in
    asymptotic_report of the stacked specs, which preserves dependence.
    """
    problems = list(problems)
    u_hats = [float(u) for u in u_hats]
    if len(problems) != len(u_hats):
        raise ConfigError("one u_hat per problem is required")

    if samples is None or isinstance(samples, (list, tuple)):
        per = list(samples) if samples is not None else [None] * len(problems)
        if len(per) != len(problems):
            raise ConfigError("one sample per problem is required")
        return np.diag([optimal_value_clt_variance(pb, sp, u)
                        for pb, u, sp in zip(problems, u_hats, per)])

    specs = [pb.family(u) for pb, u in zip(problems, u_hats)]
    if any(spec.k != 1 for spec in specs):
        raise ConfigError("joint covariance expects 2-level families")
    stacked = stack_specs(specs)
    return asymptotic_report(stacked, samples,
                             estimate_empirical(stacked, samples)).limit_cov

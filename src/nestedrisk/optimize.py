"""Scalar decision problems embedded in optimized composite functionals.

Minimizes u -> rho[u, X] over a bracket for the shipped convex families
(deterministic golden-section plus one parabolic refinement) and computes
the optimal-value CLT variance of the plug-in estimator: with a unique
minimizer u_hat the limit of sqrt(n)(theta_n - theta) is normal with
variance grad_eta f1(u_hat, eta_2)^2 * Var[f2(u_hat, X)].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (CompositeSpec, DistributionOracle, eval_exact_chain,
                   layer_jacobian, validate_spec)
from .errors import ConfigError, EvaluationError
from .estimators import (Sample, SmoothingPlan, _empirical_chain, _mixed_chain,
                         _powermax_smoothed_mean, bandwidth)

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

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
    oracle: DistributionOracle | None = None
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
        """Scalar objective u -> estimated/exact composite value."""
        probe = self.family(0.5 * sum(self.bracket))
        result = validate_spec(probe)
        if not result.ok:
            raise ConfigError(
                "invalid family spec: " + "; ".join(m.message for m in result.mismatches))
        if self.objective_source == "exact-oracle":
            oracle = self.oracle

            def fn(u: float) -> float:
                return float(eval_exact_chain(self.family(u), oracle).value[0])
            return fn
        if self.objective_source == "empirical-sample":
            data = self.sample.data

            def fn(u: float) -> float:
                return float(_empirical_chain(self.family(u), data).value[0])
            return fn
        sample, plan = self.sample, self.plan
        h = bandwidth(plan.schedule, sample.n, sample.std_scale())

        def fn(u: float) -> float:
            return float(_mixed_chain(self.family(u), sample, plan, h).value[0])
        return fn


def default_bracket(sample: Sample, c: float) -> tuple[float, float]:
    """Bracket for the higher-order family on a sample: the optimum is a
    tail point, so [min X, max X + c * IQR] contains it."""
    x = sample.data[:, 0]
    q75, q25 = np.percentile(x, [75, 25])
    return float(x.min()), float(x.max() + c * max(q75 - q25, 1e-12))


@dataclass(frozen=True)
class OptimalValueReport:
    """Solver output: minimizer, optimal value, iteration count, flags."""

    u_hat: float
    theta: float
    iterations: int
    boundary: bool = False
    flat: bool = False
    limit_variance: float | None = None


def minimize_scalar(problem: ScalarProblem, tol: float = 1e-8,
                    *, flat_check_grid: int = 128) -> OptimalValueReport:
    """Golden-section search to bracket width <= tol, then one parabolic
    refinement. Deterministic; assumes the objective is convex on the
    bracket (true for the shipped families).

    A boundary optimum (objective monotone on the bracket) is reported with
    ``boundary=True``; a flat optimum (more than 1% of a probe grid within
    solver tolerance of the minimum) sets ``flat=True``.
    """
    fn = problem.objective()
    lo, hi = map(float, problem.bracket)

    def ev(u: float) -> float:
        v = fn(u)
        if not np.isfinite(v):
            raise EvaluationError(f"objective non-finite at u={u:g}")
        return v

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = ev(c), ev(d)
    iterations = 0
    while (b - a) > tol and iterations < 400:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ev(d)
        iterations += 1

    u_best, f_best = (c, fc) if fc <= fd else (d, fd)
    # one parabolic refinement through (a, u_best, b)
    fa, fb = ev(a), ev(b)
    denom = (u_best - a) * (fb - f_best) - (u_best - b) * (fa - f_best)
    if abs(denom) > 0:
        num = (u_best - a) ** 2 * (fb - f_best) - (u_best - b) ** 2 * (fa - f_best)
        u_q = u_best - 0.5 * num / denom
        if lo < u_q < hi and np.isfinite(u_q):
            f_q = ev(u_q)
            if f_q < f_best:
                u_best, f_best = u_q, f_q

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


def _smoothed_inner_moments(spec: CompositeSpec, sample: Sample,
                            plan: SmoothingPlan):
    """Kernel-smoothed inner mean and covariance for a 2-level spec.

    The smoothed second moment of a power-max layer is its smoothed mean at
    doubled power, so both moments take the power-max dispatch when it
    applies at p and 2p; otherwise both go through convolution quadrature.
    """
    h = bandwidth(plan.schedule, sample.n, sample.std_scale())
    pm = spec.layer(2).powermax
    if pm is not None:
        mean = _powermax_smoothed_mean(pm, 2, None, sample, plan, h, pm.power)
        second = None if mean is None else _powermax_smoothed_mean(
            pm, 2, None, sample, plan, h, 2.0 * pm.power)
        if second is not None:
            return np.array([mean]), np.array([[second - mean ** 2]])
    rule = plan.kernel.convolution_rule(plan.convolution_nodes)
    offsets = rule.nodes * h
    x = sample.data
    n, q = x.shape[0], offsets.shape[0]
    shifted = (x[:, None, :] + offsets[None, :, :]).reshape(n * q, sample.m)
    from .core import _eval_layer
    vals = _eval_layer(spec, 2, None, shifted).reshape(n, q, -1)
    mean = np.einsum("q,nqd->d", rule.weights, vals) / n
    sec = np.einsum("q,nqd,nqe->de", rule.weights, vals, vals) / n
    return mean, sec - np.outer(mean, mean)


def _variance_ingredients(spec: CompositeSpec, problem: ScalarProblem,
                          sample: Sample | None):
    """(grad f1, inner mean, inner covariance) at the plug-in or exact law."""
    if spec.k == 0:
        # degenerate family (no composition): variance of the single layer
        if sample is not None:
            from .core import _eval_layer
            vals = _eval_layer(spec, 1, None, sample.data)
            return None, None, float(np.var(vals[:, 0]))
        rule = problem.oracle.quadrature
        from .core import _eval_layer
        mean = rule.integrate(lambda x: _eval_layer(spec, 1, None, x))[0]
        second = rule.integrate(lambda x: _eval_layer(spec, 1, None, x)[:, 0] ** 2)[0]
        return None, None, float(second - mean ** 2)
    if spec.k != 1:
        raise ConfigError("optimal-value variance is defined for 2-level families")
    from .core import _eval_layer
    if sample is not None:
        x = sample.data
        if problem.objective_source == "mixed-plan" and problem.plan is not None:
            eta2, cov = _smoothed_inner_moments(spec, sample, problem.plan)
        else:
            f2 = _eval_layer(spec, 2, None, x)
            eta2 = f2.mean(axis=0)
            dev = f2 - eta2
            cov = dev.T @ dev / x.shape[0]
        if np.all(eta2 == 0.0):
            return None, eta2, None
        jac = layer_jacobian(spec, 1, eta2, x).mean(axis=0)
        return jac, eta2, cov
    rule = problem.oracle.quadrature
    if rule is None:
        raise ConfigError("exact variance needs a quadrature oracle")
    eta2 = rule.integrate(lambda x: _eval_layer(spec, 2, None, x))
    if np.all(eta2 == 0.0):
        return None, eta2, None
    second = rule.integrate(
        lambda x: (lambda v: (v[:, :, None] * v[:, None, :]).reshape(x.shape[0], -1))
        (_eval_layer(spec, 2, None, x)))
    d = eta2.shape[0]
    cov = second.reshape(d, d) - np.outer(eta2, eta2)
    jac = rule.integrate(
        lambda x: layer_jacobian(spec, 1, eta2, x).reshape(x.shape[0], -1)
    ).reshape(spec.signature.m0, d)
    return jac, eta2, cov


def optimal_value_clt_variance(problem: ScalarProblem, sample: Sample | None,
                               u_hat: float) -> float:
    """Delta-method variance of the optimal-value estimator at u_hat.

    With a sample, gradient point and covariance are plug-in estimates; with
    sample=None the problem's quadrature oracle gives the exact values
    (useful for reference variances). Raises on a degenerate tail
    (inner mean zero makes the gradient singular for p > 1).
    """
    spec = problem.family(float(u_hat))
    jac, eta2, cov = _variance_ingredients(spec, problem, sample)
    if jac is None and eta2 is None:
        return float(cov)  # k = 0: plain variance of the single layer
    if jac is None or np.all(eta2 == 0.0):
        raise EvaluationError(
            "degenerate tail: inner mean is zero at u_hat, gradient is singular")
    g = np.asarray(jac, dtype=float).reshape(1, -1)
    return float((g @ np.atleast_2d(cov) @ g.T)[0, 0])


def optimal_value_limit_covariance(problems, u_hats, *, samples=None) -> np.ndarray:
    """Joint limit covariance of several optimal-value estimators.

    With ``samples`` a list of per-component Samples observed independently
    (or None to use each problem's exact oracle), the covariance is block
    diagonal. With a single joint Sample whose columns split across the
    problems (one column per scalar component), the plug-in covariance of
    the stacked inner evaluations preserves dependence.
    """
    problems = list(problems)
    u_hats = [float(u) for u in u_hats]
    if len(problems) != len(u_hats):
        raise ConfigError("one u_hat per problem is required")
    ell = len(problems)

    if samples is None or isinstance(samples, (list, tuple)):
        per = list(samples) if samples is not None else [None] * ell
        cov = np.zeros((ell, ell))
        for i, (pb, u, sp) in enumerate(zip(problems, u_hats, per)):
            cov[i, i] = optimal_value_clt_variance(pb, sp, u)
        return cov

    joint: Sample = samples
    if joint.m != ell:
        raise ConfigError("joint sample must have one column per component")
    from .core import _eval_layer
    grads = np.empty(ell)
    evals = np.empty((joint.n, ell))
    for i, (pb, u) in enumerate(zip(problems, u_hats)):
        spec = pb.family(u)
        if spec.k != 1:
            raise ConfigError("joint covariance expects 2-level families")
        comp = Sample(joint.data[:, i])
        f2 = _eval_layer(spec, 2, None, comp.data)[:, 0]
        eta2 = np.array([f2.mean()])
        if eta2[0] == 0.0:
            raise EvaluationError("degenerate tail in joint covariance",
                                  layer=2)
        grads[i] = layer_jacobian(spec, 1, eta2, comp.data).mean(axis=0)[0, 0]
        evals[:, i] = f2
    dev = evals - evals.mean(axis=0)
    inner_cov = dev.T @ dev / joint.n
    return np.outer(grads, grads) * inner_cov

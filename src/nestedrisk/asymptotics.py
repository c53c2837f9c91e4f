"""Plug-in delta-method asymptotics for composite plug-in estimators.

The centered per-layer evaluations (f_1(eta_2, X), ..., f_{k+1}(X)) stacked
into one M-vector have covariance Sigma_g; the expected layer Jacobians
chain into matrices C_r, and in the differentiable case

    sqrt(n) (rho_hat - rho)  ->  N(0, C^T Sigma_g C),

with C^T = (I, C_1^T, ..., C_k^T) and C_r^T the product of the first r
expected Jacobians. ``_limit_cov`` forms it, over a point set: a sample,
at its own plug-in chain point, or a law's quadrature rule, at the exact
chain. The variance of a mixed-plan optimal value, with a kernel-smoothed
inner mean and covariance, is taken here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .core import (CompositeSpec, EtaChain, QuadratureRule, _chain, _check_points,
                   _eval_layer, layer_jacobian)
from .errors import ConfigError, EvaluationError
from .estimators import Sample, SmoothingPlan, _smoothed_layer_mean, bandwidth

# Eigenvalues of Sigma_hat in (-PSD_TOL * trace, 0) are treated as roundoff
# and clipped to zero; anything lower is an error.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class AsymptoticReport:
    """Limit covariance and, when a level was given, the intervals."""

    limit_cov: np.ndarray
    intervals: tuple | None = None


def _layer_values(spec: CompositeSpec, x: np.ndarray, chain: EtaChain) -> np.ndarray:
    """Stacked per-observation layer evaluations at the chain point,
    layer-major: row i of the (M, n) result is coordinate i of the stack."""
    rows = []
    for j in range(1, spec.k + 2):
        eta = chain.input_for(j) if j <= spec.k else None
        rows.append(_eval_layer(spec, j, eta, x).T)
    return np.concatenate(rows, axis=0)


def _sigma(spec: CompositeSpec, x: np.ndarray, chain: EtaChain,
           weights: np.ndarray | None = None) -> np.ndarray:
    """Covariance of the stacked layer evaluations at the chain point over
    the point set x: the 1/n covariance of the rows, or with quadrature
    weights the weighted one. Rows are centred before the Gram product,
    which keeps the digits that the second moment minus the squared mean
    would cancel on a law far from 0.

    Roundoff-scale negative eigenvalues are clipped; genuinely negative
    spectra raise. A covariance that overflows raises EvaluationError
    naming the first layer whose variance is non-finite.
    """
    _check_points(spec, x)
    with np.errstate(over="ignore", invalid="ignore"):
        # centred in place: the block is this call's own
        dev = _layer_values(spec, x, chain)
        if weights is None:
            dev -= dev.mean(axis=1, keepdims=True)
            full = dev @ dev.T / dev.shape[1]
        else:
            dev -= (dev @ weights)[:, None]
            full = (dev * weights) @ dev.T
        full = 0.5 * (full + full.T)
    if not np.all(np.isfinite(full)):
        # an entry overflows only where a variance on its row or column does
        bad = np.flatnonzero(~np.isfinite(np.diag(full)))[0]
        offsets = np.concatenate([[0], np.cumsum(spec.dims)])
        raise EvaluationError("covariance of the layer evaluations is non-finite "
                              "(overflow)",
                              layer=int(np.searchsorted(offsets, bad, side="right")))

    scale = max(float(np.trace(full)), 0.0)
    if scale > 0:
        min_eig = float(np.linalg.eigvalsh(full)[0])
        if min_eig < -PSD_TOL * scale:
            raise EvaluationError(
                f"covariance of the layer evaluations has negative eigenvalue "
                f"{min_eig:g} beyond roundoff tolerance")
        if min_eig < 0:
            lam, q = np.linalg.eigh(full)
            full = (q * np.maximum(lam, 0.0)) @ q.T
            full = 0.5 * (full + full.T)
    return full


def _jacobian_means(spec: CompositeSpec, chain: EtaChain, x: np.ndarray,
                    weights: np.ndarray | None = None) -> list[np.ndarray]:
    """Expected layer Jacobians E[J_1], ..., E[J_k] at the chain point.

    The expectation is the mean over the rows of x, or the quadrature sum
    with ``weights``. A non-finite expectation (a singular gradient, such as
    eta^(1/p - 1) at eta = 0) raises EvaluationError naming the layer; numpy
    warnings are silenced while evaluating, so this check is the one report.
    """
    _check_points(spec, x)
    jmeans: list[np.ndarray] = []
    for j in range(1, spec.k + 1):
        with np.errstate(all="ignore"):
            jac = layer_jacobian(spec, j, chain.input_for(j), x)
            jmean = jac.mean(axis=0) if weights is None \
                else np.tensordot(weights, jac, axes=1)
        if not np.all(np.isfinite(jmean)):
            raise EvaluationError(
                "expected Jacobian is non-finite at the chain point "
                "(singular gradient)", layer=j)
        jmeans.append(jmean)
    return jmeans


def _limit_cov(spec: CompositeSpec, x: np.ndarray, chain: EtaChain,
               weights: np.ndarray | None = None) -> np.ndarray:
    """Limit covariance C^T Sigma_g C over the point set x at the chain
    point, with C^T = (I, C_1^T, ..., C_k^T) and C_r^T = E[J_1] ... E[J_r].

    Raises EvaluationError naming the layer whose expected Jacobian, or
    else whose variance, is non-finite."""
    running = np.eye(spec.m0)
    blocks = [running]
    for jmean in _jacobian_means(spec, chain, x, weights):
        running = running @ jmean
        blocks.append(running)
    ct = np.concatenate(blocks, axis=1)
    cov = ct @ _sigma(spec, x, chain, weights) @ ct.T
    return 0.5 * (cov + cov.T)


def confidence_interval(value, limit_cov, n: int, level: float):
    """Per-coordinate normal confidence intervals at the given level:
    value_i -+ z_{1-alpha/2} sqrt(limit_cov_ii / n)."""
    if not 0.0 < level < 1.0:
        raise ConfigError("confidence level must lie in (0, 1)")
    if n < 1:
        raise ConfigError(f"sample size n must be >= 1, got {n}")
    z = float(ndtri(0.5 + level / 2.0))
    value = np.asarray(value, dtype=float).reshape(-1)
    variances = np.diag(np.atleast_2d(limit_cov))
    if variances.shape[0] != value.shape[0]:
        raise ConfigError("limit covariance does not match estimate dimension")
    half = z * np.sqrt(np.maximum(variances, 0.0) / n)
    return tuple((float(v - hw), float(v + hw)) for v, hw in zip(value, half))


def exact_limit_variance(spec: CompositeSpec,
                         oracle: QuadratureRule | None) -> np.ndarray:
    """Limit covariance C^T Sigma_g C over the oracle's quadrature rule at
    the exact chain (reference values for simulations).

    Raises EvaluationError naming the layer whose expected Jacobian, or
    else whose variance, is non-finite."""
    if oracle is None:
        raise ConfigError("exact_limit_variance needs a quadrature oracle")
    x, w = oracle.nodes, oracle.weights
    return _limit_cov(spec, x, _chain(spec, x, w), w)


def propagate_direction(spec: CompositeSpec, chain: EtaChain,
                        oracle: QuadratureRule, direction) -> np.ndarray:
    """Propagate a perturbation direction d = (d_1, ..., d_{k+1}) through
    the composition.

    Entry d_j is a constant vector of dimension m_{j-1}. Computes xi_1(d)
    by the backward recursion xi_{k+1} = d_{k+1},
    xi_j = E[J_j(eta_{j+1}, X)] xi_{j+1} + d_j, with the expected Jacobians
    under the oracle; in the differentiable case this is the chain-matrix
    linearization of the composite at the chain point.
    """
    if len(direction) != spec.k + 1:
        raise ConfigError(f"direction must have {spec.k + 1} entries")
    xi = np.asarray(direction[-1], dtype=float).reshape(-1)
    if xi.shape[0] != spec.dims[-1]:
        raise ConfigError("d_{k+1} has wrong dimension")
    jmeans = _jacobian_means(spec, chain, oracle.nodes, oracle.weights)
    for j in range(spec.k, 0, -1):
        dj = np.asarray(direction[j - 1], dtype=float).reshape(-1)
        if dj.shape[0] != spec.dims[j - 1]:
            raise ConfigError(f"direction entry {j} has wrong dimension")
        xi = jmeans[j - 1] @ xi + dj
    return xi


def asymptotic_report(spec: CompositeSpec, sample: Sample, estimate: EtaChain, *,
                      level: float | None = None) -> AsymptoticReport:
    """Limit covariance and intervals of a plug-in estimate: C^T Sigma_g C
    over the sample (1/n covariance) at the estimate's own chain."""
    if sample.n < 2:
        raise ConfigError("covariance needs at least two observations")
    cov = _limit_cov(spec, sample.data, estimate)
    intervals = None if level is None \
        else confidence_interval(estimate.value, cov, sample.n, level)
    return AsymptoticReport(cov, intervals)


def _mixed_plan_variance(spec: CompositeSpec, sample: Sample,
                         plan: SmoothingPlan) -> float:
    """Delta-method variance of a mixed-plan optimal value, grad^T Cov grad,
    with the kernel-smoothed inner mean and covariance.

    The second moment is the smoothed mean of the inner layer's outer
    product, itself a layer; a power-max layer squared is a power-max layer
    at 2p, so both moments take the same dispatch in _smoothed_layer_mean.
    """
    h = bandwidth(plan.schedule, sample.n, sample.std_scale())
    inner = spec.layer(2)

    def outer(x):
        v = _eval_layer(spec, 2, None, x)
        return (v[:, :, None] * v[:, None, :]).reshape(x.shape[0], -1)

    pm = inner.powermax
    squared = replace(inner, evaluator=outer, powermax=None if pm is None
                      else replace(pm, power=2.0 * pm.power))
    mean = _smoothed_layer_mean(spec, 2, None, sample, plan, h)
    second = _smoothed_layer_mean(replace(spec, layers=(spec.layer(1), squared)),
                                  2, None, sample, plan, h)
    cov = second.reshape(mean.size, mean.size) - np.outer(mean, mean)
    # the gradient reads only eta_2 from the chain
    g = _jacobian_means(spec, EtaChain((mean, None)), sample.data)[0]
    return float((g @ cov @ g.T)[0, 0])

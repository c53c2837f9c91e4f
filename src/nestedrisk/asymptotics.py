"""Plug-in delta-method asymptotics for composite plug-in estimators.

The centered per-layer evaluations (f_1(eta_2, X), ..., f_{k+1}(X)) stacked
into one M-vector have covariance Sigma_g; the expected layer Jacobians
chain into matrices C_r, and in the differentiable case

    sqrt(n) (rho_hat - rho)  ->  N(0, C^T Sigma_g C),

with C^T = (I, C_1^T, ..., C_k^T) and C_r^T the product of the first r
expected Jacobians. Both are taken over a point set: a sample, at its
own plug-in chain point, or a law's quadrature rule, at the exact chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import (CompositeSpec, Direction, EtaChain, QuadratureRule, _chain,
                   _check_points, _eval_layer, layer_jacobian)
from .errors import ConfigError, EvaluationError
from .estimators import EstimateReport, Sample

# Eigenvalues of Sigma_hat in (-PSD_TOL * trace, 0) are treated as roundoff
# and clipped to zero; anything lower is an error.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class SigmaEstimate:
    """Plug-in covariance of the stacked per-layer evaluations.

    ``full`` is the symmetric PSD matrix of size M x M; the coordinates of
    layer j are ``offsets[j-1]:offsets[j]``.
    """

    full: np.ndarray
    offsets: tuple[int, ...]

    def block(self, a: int, b: int) -> np.ndarray:
        """Block for layer pair (a, b), 1-based."""
        o = self.offsets
        return self.full[o[a - 1]:o[a], o[b - 1]:o[b]]


@dataclass(frozen=True)
class ChainMatrices:
    """Expected layer Jacobians and their running products.

    ``C_r_T[r-1]`` is C_r^T = E[J_1] ... E[J_r] (shape m0 x m_r);
    ``stacked`` is C^T = (I, C_1^T, ..., C_k^T), shape m0 x M, ordered to
    match the Sigma block layout.
    """

    jacobian_means: tuple[np.ndarray, ...]
    C_r_T: tuple[np.ndarray, ...]
    stacked: np.ndarray


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
        rows = _layer_values(spec, x, chain)
        if weights is None:
            dev = rows - rows.mean(axis=1, keepdims=True)
            full = dev @ dev.T / rows.shape[1]
        else:
            dev = rows - (rows @ weights)[:, None]
            full = (dev * weights) @ dev.T
        full = 0.5 * (full + full.T)
    if not np.all(np.isfinite(full)):
        # an entry overflows only where a variance on its row or column does
        bad = np.flatnonzero(~np.isfinite(np.diag(full)))[0]
        offsets = np.concatenate([[0], np.cumsum(spec.signature.dims)])
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


def plugin_sigma(spec: CompositeSpec, sample: Sample, chain: EtaChain) -> SigmaEstimate:
    """Plug-in estimate of the stacked-evaluation covariance Sigma_g.

    Block (a, b) is the sample covariance (1/n convention) between the
    layer-a and layer-b evaluations, each at the plug-in chain point;
    ``full`` is checked and clipped as described in ``_sigma``.
    """
    if sample.n < 2:
        raise ConfigError("covariance needs at least two observations")
    offsets = np.concatenate([[0], np.cumsum(spec.signature.dims)])
    return SigmaEstimate(_sigma(spec, sample.data, chain),
                         tuple(int(o) for o in offsets))


def _chain_products(spec: CompositeSpec, chain: EtaChain, x: np.ndarray,
                    weights: np.ndarray | None = None, *,
                    fd_fallback: bool = True) -> ChainMatrices:
    """Expected layer Jacobians at the chain point and the products C_r^T.

    The expectation is the mean over the rows of x, or the quadrature sum
    with ``weights``. A non-finite expectation (a singular gradient, such as
    eta^(1/p - 1) at eta = 0) raises EvaluationError naming the layer; numpy
    warnings are silenced while evaluating, so this check is the one report.
    """
    _check_points(spec, x)
    m0 = spec.signature.m0
    jmeans: list[np.ndarray] = []
    crs: list[np.ndarray] = []
    running = np.eye(m0)
    for j in range(1, spec.k + 1):
        with np.errstate(all="ignore"):
            jac = layer_jacobian(spec, j, chain.input_for(j), x,
                                 fd_fallback=fd_fallback)
            jmean = jac.mean(axis=0) if weights is None \
                else np.tensordot(weights, jac, axes=1)
        if not np.all(np.isfinite(jmean)):
            raise EvaluationError(
                "expected Jacobian is non-finite at the chain point "
                "(singular gradient)", layer=j)
        jmeans.append(jmean)
        running = running @ jmean
        crs.append(running)
    stacked = np.concatenate([np.eye(m0)] + crs, axis=1)
    return ChainMatrices(tuple(jmeans), tuple(crs), stacked)


def chain_matrices(spec: CompositeSpec, sample: Sample, chain: EtaChain,
                   *, fd_fallback: bool = True) -> ChainMatrices:
    """Sample means of layer Jacobians and the chain products C_r^T.

    Raises EvaluationError naming the layer whose mean Jacobian is
    non-finite."""
    return _chain_products(spec, chain, sample.data, fd_fallback=fd_fallback)


def limit_variance(sigma: SigmaEstimate, chains: ChainMatrices) -> np.ndarray:
    """Limit covariance C^T Sigma_g C. A contrast w has the limit variance
    ``w @ cov @ w``."""
    ct = chains.stacked
    if ct.shape[1] != sigma.full.shape[0]:
        raise ConfigError(
            f"chain matrix width {ct.shape[1]} does not match Sigma size "
            f"{sigma.full.shape[0]}")
    cov = ct @ sigma.full @ ct.T
    return 0.5 * (cov + cov.T)


def confidence_interval(value, limit_cov, n: int, level: float):
    """Per-coordinate normal confidence intervals at the given level:
    value_i -+ z_{1-alpha/2} sqrt(limit_cov_ii / n)."""
    if not 0.0 < level < 1.0:
        raise ConfigError("confidence level must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    value = np.asarray(value, dtype=float).reshape(-1)
    variances = np.diag(np.atleast_2d(limit_cov))
    if variances.shape[0] != value.shape[0]:
        raise ConfigError("limit covariance does not match estimate dimension")
    half = z * np.sqrt(np.maximum(variances, 0.0) / n)
    return tuple((float(v - hw), float(v + hw)) for v, hw in zip(value, half))


def exact_limit_variance(spec: CompositeSpec,
                         oracle: QuadratureRule | None) -> np.ndarray:
    """Limit covariance C^T Sigma_g C with Sigma_g and the chain matrices
    computed by the oracle's quadrature at the exact chain (reference values
    for simulations).

    Raises EvaluationError naming the layer whose expected Jacobian, or
    else whose variance, is non-finite."""
    if oracle is None:
        raise ConfigError("exact_limit_variance needs a quadrature oracle")
    x, w = oracle.nodes, oracle.weights
    chain = _chain(spec, x, w)
    ct = _chain_products(spec, chain, x, w).stacked
    cov = ct @ _sigma(spec, x, chain, w) @ ct.T
    return 0.5 * (cov + cov.T)


def propagate_direction(spec: CompositeSpec, chain: EtaChain,
                        oracle: QuadratureRule, direction: Direction,
                        *, fd_fallback: bool = False) -> np.ndarray:
    """Propagate a perturbation direction through the composition.

    Computes xi_1(d) by the backward recursion xi_{k+1} = d_{k+1},
    xi_j = E[J_j(eta_{j+1}, X)] xi_{j+1} + d_j(eta_{j+1}), with the
    expected Jacobians of the chain matrices under the oracle; in the
    differentiable case this is the chain-matrix linearization of the
    composite at the exact chain point.
    """
    if len(direction.d) != spec.k + 1:
        raise ConfigError(f"direction must have {spec.k + 1} entries")
    xi = np.asarray(direction.d[-1], dtype=float).reshape(-1)
    if xi.shape[0] != spec.signature.dims[-1]:
        raise ConfigError("d_{k+1} has wrong dimension")
    jmeans = _chain_products(spec, chain, oracle.nodes, oracle.weights,
                             fd_fallback=fd_fallback).jacobian_means
    for j in range(spec.k, 0, -1):
        eta_in = chain.input_for(j)
        dj = direction.d[j - 1]
        dj_val = np.asarray(dj(eta_in) if callable(dj) else dj, dtype=float).reshape(-1)
        if dj_val.shape[0] != spec.signature.dims[j - 1]:
            raise ConfigError(f"direction entry {j} has wrong dimension")
        xi = jmeans[j - 1] @ xi + dj_val
    return xi


def asymptotic_report(spec: CompositeSpec, sample: Sample,
                      estimate: EstimateReport, *,
                      level: float | None = None) -> AsymptoticReport:
    """Limit covariance and intervals of a plug-in estimate, from Sigma and
    the chain matrices at the estimate's own chain."""
    sigma = plugin_sigma(spec, sample, estimate.chain)
    cov = limit_variance(sigma, chain_matrices(spec, sample, estimate.chain))
    intervals = None if level is None \
        else confidence_interval(estimate.value, cov, sample.n, level)
    return AsymptoticReport(cov, intervals)

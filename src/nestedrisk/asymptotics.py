"""Plug-in delta-method asymptotics for composite plug-in estimators.

The centered per-layer evaluations (f_1(eta_2, X), ..., f_{k+1}(X)) stacked
into one M-vector have covariance Sigma_g; the expected layer Jacobians
chain into matrices C_r, and in the differentiable case

    sqrt(n) (rho_hat - rho)  ->  N(0, C^T Sigma_g C),

with C^T = (I, C_1^T, ..., C_k^T) and C_r^T the product of the first r
expected Jacobians. Everything here is evaluated at the sample's own
plug-in chain point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import (CompositeSpec, EtaChain, QuadratureRule, _eval_layer,
                   eval_exact_chain, layer_jacobian)
from .errors import ConfigError, EvaluationError
from .estimators import EstimateReport, Sample

# Eigenvalues of Sigma_hat in (-PSD_TOL * trace, 0) are treated as roundoff
# and clipped to zero; anything lower is an error.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class SigmaEstimate:
    """Plug-in covariance of the stacked per-layer evaluations.

    ``blocks[a][b]`` holds the (dims[a] x dims[b]) block for layers a+1 and
    b+1; ``full`` is the assembled symmetric PSD matrix of size M x M.
    """

    blocks: tuple
    full: np.ndarray
    offsets: tuple[int, ...]

    def block(self, a: int, b: int) -> np.ndarray:
        """Block for layer pair (a, b), 1-based."""
        return self.blocks[a - 1][b - 1]


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
    """Limit covariance with its ingredients and optional intervals."""

    sigma: SigmaEstimate | None
    chains: ChainMatrices | None
    limit_cov: np.ndarray
    n: int
    intervals: tuple | None = None
    value: np.ndarray | None = None

    @classmethod
    def from_limit_cov(cls, limit_cov: np.ndarray, n: int,
                       value: np.ndarray | None = None) -> "AsymptoticReport":
        """Wrap an externally computed limit covariance (no chain details)."""
        return cls(None, None, np.asarray(limit_cov, dtype=float), int(n),
                   None, None if value is None else np.asarray(value, dtype=float))


def _layer_values(spec: CompositeSpec, x: np.ndarray, chain: EtaChain) -> np.ndarray:
    """Stacked per-observation layer evaluations at the chain point,
    layer-major: row i of the (M, n) result is coordinate i of the stack."""
    rows = []
    for j in range(1, spec.k + 2):
        eta = chain.input_for(j) if j <= spec.k else None
        rows.append(_eval_layer(spec, j, eta, x).T)
    return np.concatenate(rows, axis=0)


def _stacked_covariance(rows: np.ndarray,
                        weights: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized covariance of layer-major stacked evaluations (M, n).

    Without weights it is the 1/n sample covariance, one centred Gram
    product; with quadrature weights over the n columns it is the weighted
    Gram product of the rows centred by their weighted mean. Centring first
    keeps the digits that the second moment minus the squared mean would
    cancel on a law far from 0.
    """
    if weights is None:
        dev = rows - rows.mean(axis=1, keepdims=True)
        full = dev @ dev.T / rows.shape[1]
    else:
        dev = rows - (rows @ weights)[:, None]
        full = (dev * weights) @ dev.T
    return 0.5 * (full + full.T)


def plugin_sigma(spec: CompositeSpec, sample: Sample, chain: EtaChain) -> SigmaEstimate:
    """Plug-in estimate of the stacked-evaluation covariance Sigma_g.

    Block (a, b) is the sample covariance (1/n convention) between the
    layer-a and layer-b evaluations, each at the plug-in chain point.
    Roundoff-scale negative eigenvalues are clipped; genuinely negative
    spectra raise. A covariance that overflows raises EvaluationError
    naming the first layer whose variance is non-finite.
    """
    if sample.n < 2:
        raise ConfigError("covariance needs at least two observations")
    dims = spec.signature.dims
    offsets = np.concatenate([[0], np.cumsum(dims)])
    with np.errstate(over="ignore", invalid="ignore"):
        full = _stacked_covariance(_layer_values(spec, sample.data, chain))
    if not np.all(np.isfinite(full)):
        # an entry overflows only where a variance on its row or column does
        bad = np.flatnonzero(~np.isfinite(np.diag(full)))[0]
        raise EvaluationError("plug-in covariance is non-finite (overflow)",
                              layer=int(np.searchsorted(offsets, bad, side="right")))

    scale = max(float(np.trace(full)), 0.0)
    if scale > 0:
        min_eig = float(np.linalg.eigvalsh(full)[0])
        if min_eig < -PSD_TOL * scale:
            raise EvaluationError(
                f"plug-in covariance has negative eigenvalue {min_eig:g} "
                f"beyond roundoff tolerance")
        if min_eig < 0:
            lam, q = np.linalg.eigh(full)
            full = (q * np.maximum(lam, 0.0)) @ q.T
            full = 0.5 * (full + full.T)

    blocks = tuple(
        tuple(full[offsets[a]:offsets[a + 1], offsets[b]:offsets[b + 1]]
              for b in range(len(dims)))
        for a in range(len(dims)))
    return SigmaEstimate(blocks, full, tuple(int(o) for o in offsets))


def _chain_products(spec: CompositeSpec, chain: EtaChain, x: np.ndarray,
                    weights: np.ndarray | None = None, *,
                    fd_fallback: bool = True) -> ChainMatrices:
    """Expected layer Jacobians at the chain point and the products C_r^T.

    The expectation is the mean over the rows of x, or the quadrature sum
    with ``weights``. A non-finite expectation (a singular gradient, such as
    eta^(1/p - 1) at eta = 0) raises EvaluationError naming the layer; numpy
    warnings are silenced while evaluating, so this check is the one report.
    """
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


def limit_variance(sigma: SigmaEstimate, chains: ChainMatrices,
                   contrast: np.ndarray | None = None):
    """Limit covariance C^T Sigma_g C; with a contrast w, the scalar
    w^T (C^T Sigma_g C) w."""
    ct = chains.stacked
    if ct.shape[1] != sigma.full.shape[0]:
        raise ConfigError(
            f"chain matrix width {ct.shape[1]} does not match Sigma size "
            f"{sigma.full.shape[0]}")
    cov = ct @ sigma.full @ ct.T
    cov = 0.5 * (cov + cov.T)
    if contrast is None:
        return cov
    w = np.asarray(contrast, dtype=float).reshape(-1)
    if w.shape[0] != cov.shape[0]:
        raise ConfigError("contrast dimension does not match limit covariance")
    return float(w @ cov @ w)


def confidence_interval(estimate: EstimateReport, report: AsymptoticReport,
                        level: float):
    """Per-coordinate normal confidence intervals at the given level.

    Half-width is z_{1-alpha/2} * sqrt(limit_cov_ii / n).
    """
    if not 0.0 < level < 1.0:
        raise ConfigError("confidence level must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    value = np.asarray(estimate.value, dtype=float).reshape(-1)
    variances = np.diag(np.atleast_2d(report.limit_cov))
    if variances.shape[0] != value.shape[0]:
        raise ConfigError("limit covariance does not match estimate dimension")
    half = z * np.sqrt(np.maximum(variances, 0.0) / report.n)
    return tuple((float(v - hw), float(v + hw)) for v, hw in zip(value, half))


def exact_limit_variance(spec: CompositeSpec,
                         oracle: QuadratureRule | None) -> np.ndarray:
    """Limit covariance with Sigma_g and the chain matrices computed by the
    oracle's quadrature at the exact chain (reference values for simulations).

    Raises EvaluationError naming the layer whose expected Jacobian is
    non-finite."""
    if oracle is None:
        raise ConfigError("exact_limit_variance needs a quadrature oracle")
    chain = eval_exact_chain(spec, oracle)
    ct = _chain_products(spec, chain, oracle.nodes, oracle.weights).stacked

    sigma_full = _stacked_covariance(_layer_values(spec, oracle.nodes, chain),
                                     oracle.weights)
    cov = ct @ sigma_full @ ct.T
    return 0.5 * (cov + cov.T)


def asymptotic_report(spec: CompositeSpec, sample: Sample,
                      estimate: EstimateReport, *, level: float | None = None,
                      fd_fallback: bool = True) -> AsymptoticReport:
    """Assemble sigma, chain matrices, limit covariance, and intervals for a
    plug-in estimate (evaluated at the estimate's own chain)."""
    sigma = plugin_sigma(spec, sample, estimate.chain)
    chains = chain_matrices(spec, sample, estimate.chain, fd_fallback=fd_fallback)
    cov = limit_variance(sigma, chains)
    report = AsymptoticReport(sigma, chains, cov, sample.n, None, estimate.value)
    if level is not None:
        intervals = confidence_interval(estimate, report, level)
        report = AsymptoticReport(sigma, chains, cov, sample.n, intervals,
                                  estimate.value)
    return report

"""Data model and exact evaluation of nested composite functionals.

A composite functional of a random vector X with law P is

    rho[X] = E[ f_1( E[ f_2( ... E[ f_k( E[f_{k+1}(X)], X ) ] ..., X ) ], X ) ]

with k inner layers. Layer j (j <= k) maps an ``eta`` vector of dimension
``dims[j]`` and a sample point of dimension ``m`` to a vector of dimension
``dims[j-1]``; the innermost layer ``k+1`` takes the sample point only.

Evaluators are vectorized over sample rows: a middle layer receives
``(eta, X)`` with ``X`` of shape ``(n, m)`` and must return ``(n, dims[j-1])``
(a 1-d array is accepted when the output dimension is one); the innermost
layer receives ``X`` alone.

The law P of X enters exact evaluation only as a ``QuadratureRule``, the
oracle: a law's ``oracle()`` (``harness``) builds it, and
``QuadratureRule(atoms, weights)`` is a finite discrete law's exact rule.
Samples from a law are drawn by ``harness.sample`` alone. Exact
evaluation, the plug-in estimators and the solvers' objectives all take
their nested means in ``_chain``, over a point set: the rows of a sample,
or the nodes of a rule with its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError

# Central-difference step for Jacobian checks and fallback Jacobians:
# h = max(FD_STEP, FD_STEP * |eta|) per coordinate.
FD_STEP = 1e-6

# Largest tensor-product rule ``QuadratureRule.product`` builds: 10^7 nodes
# of dimension m take 80 m MB, and the layers evaluate several such arrays.
MAX_RULE_NODES = 10 ** 7


@dataclass(frozen=True)
class PowerMaxForm:
    """Marks a layer of the form (max(0, gap))^power.

    ``gap(eta, x)`` returns the scalar gap per sample row (``eta`` is None
    for the innermost layer). ``unit_slope`` records that the gap is affine
    in a one-dimensional sample with slope +-1, which is what the uniform
    kernel closed form requires. ``tail_objective`` = c declares that the
    layer is the inner layer of a two-level spec whose value is
    u + c * eta^(1/power) over the gap x - u (the higher-moment objective
    at decision u), which lets a solver in u work on the sorted sample.
    """

    power: float
    gap: Callable[[np.ndarray | None, np.ndarray], np.ndarray]
    unit_slope: bool = True
    tail_objective: float | None = None


@dataclass(frozen=True)
class LayerFn:
    """One layer of the composition; its position in the spec's ``layers``
    is its index.

    ``evaluator(eta, x)`` for layers 1..k, ``evaluator(x)`` for layer k+1.
    ``jacobian_eta(eta, x)`` returns shape (n, out_dim, eta_dim); absent for
    the innermost layer.
    """

    evaluator: Callable
    jacobian_eta: Callable | None = None
    powermax: PowerMaxForm | None = None


@dataclass(frozen=True)
class CompositeSpec:
    """A composite functional: sample dimension m, layer dimensions
    ``dims`` = (m0, m1, ..., mk) and the ordered layers f1..f_{k+1}.

    ``dims[j-1]`` is the output dimension of layer j and ``dims[j]`` its
    eta-input dimension (j <= k); m0 is the functional's output dimension
    (1 for scalar functionals). Layer j's output dimension is checked
    against ``dims[j-1]`` wherever the layer is evaluated (``_eval_layer``),
    not here.
    """

    m: int
    dims: tuple[int, ...]
    layers: tuple[LayerFn, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"sample dimension m must be >= 1, got {self.m}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError(
                f"dims must list m0, ..., mk, each >= 1, got {self.dims}")
        if len(self.layers) != len(self.dims):
            raise ConfigError(
                f"expected {len(self.dims)} layers, got {len(self.layers)}")

    @property
    def k(self) -> int:
        """Number of inner layers."""
        return len(self.dims) - 1

    @property
    def m0(self) -> int:
        return self.dims[0]

    def layer(self, j: int) -> LayerFn:
        """Layer by 1-based index j in 1..k+1."""
        return self.layers[j - 1]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating vector functions against a distribution:
    the weights are finite, nonnegative and sum to 1 within 1e-12."""

    nodes: np.ndarray    # (q, m)
    weights: np.ndarray  # (q,)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ConfigError("quadrature nodes and weights disagree in length")
        w = self.weights
        if not (np.all(np.isfinite(w)) and np.all(w >= 0)
                and abs(w.sum() - 1.0) <= 1e-12):
            raise ConfigError(
                "quadrature weights must be finite, nonnegative and sum to 1")

    @classmethod
    def product(cls, rules: Sequence[QuadratureRule]) -> QuadratureRule:
        """Tensor-product rule of one-dimensional rules, first coordinate
        varying slowest. A rule of more than MAX_RULE_NODES nodes is
        rejected before anything is allocated."""
        count = prod(r.weights.shape[0] for r in rules)
        if count > MAX_RULE_NODES:
            raise ConfigError(
                f"a tensor-product rule of {len(rules)} coordinates would have "
                f"{count} nodes, more than {MAX_RULE_NODES}")
        grids = np.meshgrid(*[r.nodes[:, 0] for r in rules], indexing="ij")
        wgrids = np.meshgrid(*[r.weights for r in rules], indexing="ij")
        return cls(np.stack([g.ravel() for g in grids], axis=1),
                   np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1))


@dataclass(frozen=True)
class EtaChain:
    """Per-layer means, innermost first: (eta_{k+1}, ..., eta_1). The means
    are exact (``eval_exact_chain``), plug-in (``estimate_empirical``) or
    partly kernel-smoothed (``estimate_mixed``)."""

    eta: tuple[np.ndarray, ...]

    @property
    def value(self) -> np.ndarray:
        """eta_1 = rho[X]."""
        return self.eta[-1]

    def input_for(self, j: int) -> np.ndarray:
        """eta_{j+1}, the eta argument consumed by layer j (j in 1..k)."""
        k = len(self.eta) - 1
        return self.eta[k - j]


def _eval_layer(spec: CompositeSpec, j: int, eta: np.ndarray | None,
                x: np.ndarray) -> np.ndarray:
    """Evaluate layer j on an (n, m) matrix, normalizing output to (n, d).

    Every path evaluates layers here, so this is where an output that is
    not (n, dims[j-1]) -- one row per point, of the dimension the layer
    above takes as eta -- is rejected.
    """
    layer = spec.layer(j)
    out = layer.evaluator(x) if j == spec.k + 1 else layer.evaluator(eta, x)
    out = np.asarray(out, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    expected = spec.dims[j - 1]
    if out.shape != (x.shape[0], expected):
        if out.ndim == 2 and out.shape[0] == x.shape[0]:
            raise ConfigError(
                f"layer {j} returned dimension {out.shape[1]}, "
                f"but layer {j - 1} expects eta of dimension {expected}")
        raise ConfigError(
            f"layer {j} returned shape {out.shape} for {x.shape[0]} points")
    return out


def _check_points(spec: CompositeSpec, x: np.ndarray) -> None:
    """Reject a point set whose rows are not of the spec's dimension m."""
    if x.shape[1] != spec.m:
        raise ConfigError(
            f"sample dimension {x.shape[1]} does not match spec dimension {spec.m}")


def _layer_mean(values: np.ndarray, j: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Mean of layer j's (n, d) values over the rows, or ``weights @ values``.

    Only the mean is checked: an inf or NaN row makes the sum non-finite,
    so a non-finite mean is traced to the first non-finite row, or, when
    every row is finite, to an overflow of the sum. Numpy's warning about
    such a sum, raised as an error under ``-W error``, is traced the same way.
    """
    try:
        mean = values.mean(axis=0) if weights is None else weights @ values
    except RuntimeWarning:
        mean = np.nan
    if np.isfinite(mean).all():
        return mean
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise EvaluationError("non-finite layer output", layer=j,
                              sample_index=int(bad[0]))
    raise EvaluationError("layer mean overflows", layer=j)


def _chain(spec: CompositeSpec, x: np.ndarray, weights: np.ndarray | None = None,
           smooth: Callable | None = None) -> EtaChain:
    """Nested layer means over the point set x (rows), innermost first.

    A mean is the row average, or the quadrature sum with ``weights``.
    ``smooth(spec, j, eta)``, when given, returns layer j's mean itself (a
    kernel-smoothed mean) or None to leave the layer to the row mean.
    """
    _check_points(spec, x)
    etas: list[np.ndarray] = []
    eta = None
    for j in range(spec.k + 1, 0, -1):
        mean = None if smooth is None else smooth(spec, j, eta)
        eta = _layer_mean(_eval_layer(spec, j, eta, x), j, weights) \
            if mean is None else mean
        etas.append(eta)
    return EtaChain(tuple(etas))


def eval_exact_chain(spec: CompositeSpec, oracle: QuadratureRule) -> EtaChain:
    """Exact nested means against the law the oracle's quadrature rule
    integrates, innermost first."""
    return _chain(spec, oracle.nodes, oracle.weights)


def layer_jacobian(spec: CompositeSpec, j: int, eta: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Jacobian of layer j with respect to eta, shape (n, out, eta_dim).

    Uses the declared ``jacobian_eta`` when present, otherwise central finite
    differences with per-coordinate step max(FD_STEP, FD_STEP * |eta_c|).
    """
    layer = spec.layer(j)
    if layer.jacobian_eta is not None:
        jac = np.asarray(layer.jacobian_eta(eta, x), dtype=float)
        n = x.shape[0]
        out_dim, eta_dim = spec.dims[j - 1], spec.dims[j]
        return np.broadcast_to(jac, (n, out_dim, eta_dim)).copy() \
            if jac.shape != (n, out_dim, eta_dim) else jac
    eta = np.asarray(eta, dtype=float)
    out_dim, eta_dim = spec.dims[j - 1], spec.dims[j]
    jac = np.empty((x.shape[0], out_dim, eta_dim))
    for c in range(eta_dim):
        h = max(FD_STEP, FD_STEP * abs(float(eta[c])))
        ep = eta.copy(); ep[c] += h
        em = eta.copy(); em[c] -= h
        jac[:, :, c] = (_eval_layer(spec, j, ep, x) - _eval_layer(spec, j, em, x)) / (2 * h)
    return jac

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

The law P of X enters exact evaluation only as a ``QuadratureRule``: the
``*_oracle`` constructors build the rule for a law, and that rule is the
oracle. Samples from a law are drawn by ``harness.sample`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EvaluationError

# Central-difference step for Jacobian checks and fallback Jacobians:
# h = max(FD_STEP, FD_STEP * |eta|) per coordinate.
FD_STEP = 1e-6


@dataclass(frozen=True)
class DimSignature:
    """Dimension bookkeeping: sample dim m, depth k, output dims per layer.

    ``dims`` lists (m0, m1, ..., mk); ``dims[j-1]`` is the output dimension
    of layer j and ``dims[j]`` its eta-input dimension (j <= k). m0 is the
    functional's output dimension (1 for scalar functionals).
    """

    m: int
    k: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"sample dimension m must be >= 1, got {self.m}")
        if self.k < 0:
            raise ConfigError(f"number of inner layers k must be >= 0, got {self.k}")
        if len(self.dims) != self.k + 1:
            raise ConfigError(
                f"dims must have k+1={self.k + 1} entries, got {len(self.dims)}")
        if any(d < 1 for d in self.dims):
            raise ConfigError(f"all layer dimensions must be >= 1, got {self.dims}")

    @property
    def m0(self) -> int:
        return self.dims[0]


@dataclass(frozen=True)
class PowerMaxForm:
    """Marks a layer of the form (max(0, gap))^power.

    ``gap(eta, x)`` returns the scalar gap per sample row (``eta`` is None
    for the innermost layer). ``unit_slope`` records that the gap is affine
    in a one-dimensional sample with slope +-1, which is what the uniform
    kernel closed form requires. ``tail_objective`` = (u, c) declares that
    the layer is the inner layer of a two-level spec whose value is
    u + c * eta^(1/power) over the gap x - u (the higher-moment objective
    at decision u), which lets a solver in u work on the sorted sample.
    """

    power: float
    gap: Callable[[np.ndarray | None, np.ndarray], np.ndarray]
    unit_slope: bool = True
    tail_objective: tuple[float, float] | None = None


@dataclass(frozen=True)
class LayerFn:
    """One layer of the composition.

    ``evaluator(eta, x)`` for layers 1..k, ``evaluator(x)`` for layer k+1.
    ``jacobian_eta(eta, x)`` returns shape (n, out_dim, eta_dim); absent for
    the innermost layer. ``eta_box`` is an optional (low, high) pair of
    coordinate bounds used only to generate probe points for checks.
    """

    index: int
    evaluator: Callable
    jacobian_eta: Callable | None = None
    eta_box: tuple[np.ndarray, np.ndarray] | None = None
    powermax: PowerMaxForm | None = None


@dataclass(frozen=True)
class CompositeSpec:
    """A composite functional: dimension signature plus ordered layers f1..f_{k+1}."""

    signature: DimSignature
    layers: tuple[LayerFn, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.layers) != self.signature.k + 1:
            raise ConfigError(
                f"expected {self.signature.k + 1} layers, got {len(self.layers)}")

    @property
    def k(self) -> int:
        return self.signature.k

    @property
    def m(self) -> int:
        return self.signature.m

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

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        vals = np.asarray(fn(self.nodes), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return self.weights @ vals

    @classmethod
    def product(cls, rules: Sequence[QuadratureRule]) -> QuadratureRule:
        """Tensor-product rule of one-dimensional rules, first coordinate
        varying slowest."""
        grids = np.meshgrid(*[r.nodes[:, 0] for r in rules], indexing="ij")
        wgrids = np.meshgrid(*[r.weights for r in rules], indexing="ij")
        return cls(np.stack([g.ravel() for g in grids], axis=1),
                   np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1))


@dataclass(frozen=True)
class EtaChain:
    """Per-layer exact means, innermost first: (eta_{k+1}, ..., eta_1)."""

    eta: tuple[np.ndarray, ...]

    @property
    def value(self) -> np.ndarray:
        """eta_1 = rho[X]."""
        return self.eta[-1]

    def input_for(self, j: int) -> np.ndarray:
        """eta_{j+1}, the eta argument consumed by layer j (j in 1..k)."""
        k = len(self.eta) - 1
        return self.eta[k - j]


@dataclass(frozen=True)
class Direction:
    """Perturbation direction d = (d_1, ..., d_{k+1}).

    Entries for j <= k may be callables eta -> vector or constant vectors;
    the last entry is a constant vector of dimension m_k.
    """

    d: tuple


@dataclass(frozen=True)
class DimMismatch:
    pair: tuple[int, int]
    expected: int
    actual: int
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    mismatches: tuple[DimMismatch, ...]


def _eval_layer(spec: CompositeSpec, j: int, eta: np.ndarray | None,
                x: np.ndarray) -> np.ndarray:
    """Evaluate layer j on an (n, m) matrix, normalizing output to (n, d)."""
    layer = spec.layer(j)
    out = layer.evaluator(x) if j == spec.k + 1 else layer.evaluator(eta, x)
    out = np.asarray(out, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out


def _check_finite(values: np.ndarray, j: int) -> None:
    if np.all(np.isfinite(values)):
        return
    bad = int(np.argwhere(~np.isfinite(values))[0][0])
    raise EvaluationError("non-finite layer output", layer=j, sample_index=bad)


def validate_spec(spec: CompositeSpec) -> ValidationResult:
    """Check that adjacent layer dimensions chain correctly.

    Each layer is probed at eta = box midpoint (or zeros) and a single
    zero sample point; output dimensions are compared with the declared
    signature. Diagnostics are returned, never raised.
    """
    sig = spec.signature
    mismatches: list[DimMismatch] = []
    x0 = np.zeros((1, sig.m))
    for j in range(sig.k + 1, 0, -1):
        layer = spec.layer(j)
        if layer.index != j:
            mismatches.append(DimMismatch(
                (j, j), j, layer.index,
                f"layer at position {j} carries index {layer.index}"))
        if j == sig.k + 1:
            eta = None
        else:
            d_in = sig.dims[j]
            if layer.eta_box is not None:
                lo, hi = layer.eta_box
                eta = (np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float)) / 2.0
            else:
                eta = np.zeros(d_in)
        try:
            out = _eval_layer(spec, j, eta, x0)
        except Exception as exc:  # evaluation failure is itself a diagnostic
            mismatches.append(DimMismatch(
                (max(j - 1, 0), j), sig.dims[j - 1], -1,
                f"layer {j} failed to evaluate at probe: {exc}"))
            continue
        expected = sig.dims[j - 1]
        if out.shape[1] != expected:
            mismatches.append(DimMismatch(
                (max(j - 1, 0), j), expected, out.shape[1],
                f"layer {j} returned dimension {out.shape[1]}, "
                f"but layer {j - 1} expects eta of dimension {expected}"))
    return ValidationResult(not mismatches, tuple(mismatches))


def eval_exact_chain(spec: CompositeSpec, oracle: QuadratureRule) -> EtaChain:
    """Exact nested means against the law the oracle's quadrature rule
    integrates, innermost first."""
    etas: list[np.ndarray] = []
    eta = None
    for j in range(spec.k + 1, 0, -1):
        eta = oracle.integrate(lambda x, j=j, eta=eta: _eval_layer(spec, j, eta, x))
        if not np.all(np.isfinite(eta)):
            raise EvaluationError("quadrature produced non-finite mean", layer=j)
        etas.append(eta)
    return EtaChain(tuple(etas))


def layer_jacobian(spec: CompositeSpec, j: int, eta: np.ndarray,
                   x: np.ndarray, *, fd_fallback: bool = True) -> np.ndarray:
    """Jacobian of layer j with respect to eta, shape (n, out, eta_dim).

    Uses the declared ``jacobian_eta`` when present, otherwise central finite
    differences with per-coordinate step max(FD_STEP, FD_STEP * |eta_c|).
    """
    layer = spec.layer(j)
    if layer.jacobian_eta is not None:
        jac = np.asarray(layer.jacobian_eta(eta, x), dtype=float)
        n = x.shape[0]
        out_dim, eta_dim = spec.signature.dims[j - 1], spec.signature.dims[j]
        return np.broadcast_to(jac, (n, out_dim, eta_dim)).copy() \
            if jac.shape != (n, out_dim, eta_dim) else jac
    if not fd_fallback:
        raise EvaluationError("missing jacobian_eta and finite differences disabled",
                              layer=j)
    eta = np.asarray(eta, dtype=float)
    out_dim, eta_dim = spec.signature.dims[j - 1], spec.signature.dims[j]
    jac = np.empty((x.shape[0], out_dim, eta_dim))
    for c in range(eta_dim):
        h = max(FD_STEP, FD_STEP * abs(float(eta[c])))
        ep = eta.copy(); ep[c] += h
        em = eta.copy(); em[c] -= h
        jac[:, :, c] = (_eval_layer(spec, j, ep, x) - _eval_layer(spec, j, em, x)) / (2 * h)
    return jac


def propagate_direction(spec: CompositeSpec, chain: EtaChain,
                        oracle: QuadratureRule, direction: Direction,
                        *, fd_fallback: bool = False) -> np.ndarray:
    """Propagate a perturbation direction through the composition.

    Computes xi_1(d) by the backward recursion xi_{k+1} = d_{k+1},
    xi_j = E[J_j(eta_{j+1}, X) xi_{j+1}] + d_j(eta_{j+1}); in the
    differentiable case this is the chain-matrix linearization of the
    composite at the exact chain point.
    """
    if len(direction.d) != spec.k + 1:
        raise ConfigError(f"direction must have {spec.k + 1} entries")

    xi = np.asarray(direction.d[-1], dtype=float).reshape(-1)
    if xi.shape[0] != spec.signature.dims[-1]:
        raise ConfigError("d_{k+1} has wrong dimension")
    for j in range(spec.k, 0, -1):
        eta_in = chain.input_for(j)
        mean_jac_xi = oracle.integrate(
            lambda x, j=j, eta_in=eta_in, xi=xi:
            layer_jacobian(spec, j, eta_in, x, fd_fallback=fd_fallback) @ xi)
        dj = direction.d[j - 1]
        dj_val = np.asarray(dj(eta_in) if callable(dj) else dj, dtype=float).reshape(-1)
        if dj_val.shape[0] != spec.signature.dims[j - 1]:
            raise ConfigError(f"direction entry {j} has wrong dimension")
        xi = mean_jac_xi + dj_val
    return xi


# ---------------------------------------------------------------------------
# Oracle constructors
# ---------------------------------------------------------------------------

def _composite_gl(a: float, b: float, panels: int, per_panel: int):
    """Composite Gauss-Legendre nodes/weights on [a, b].

    Piecewise low-order panels keep kinked integrands (tail powers such as
    max(0, x-u)^p) accurate: a kink degrades only the panel containing it.
    """
    zn, zw = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * zn[None, :]).ravel()
    weights = (half[:, None] * zw[None, :]).ravel()
    return nodes, weights


def normal_oracle(mean: float, std: float, *, nodes: int = 1000,
                  width: float = 10.0) -> QuadratureRule:
    """Quadrature rule for a scalar normal law.

    Composite Gauss-Legendre against the normal density on mean +- width*std
    (10 nodes per panel); with the default 1000 nodes the tail power
    integrals used by the shipped measures are accurate to roughly 1e-9
    relative.
    """
    if std <= 0:
        raise ConfigError("normal std must be positive")
    per_panel = 10
    panels = max(int(nodes) // per_panel, 4)
    z, w = _composite_gl(-width, width, panels, per_panel)
    w = w * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    w /= w.sum()
    return QuadratureRule((mean + std * z)[:, None], w)


def uniform_oracle(a: float, b: float, *, nodes: int = 1000) -> QuadratureRule:
    """Quadrature rule for the uniform law on [a, b] (composite Gauss-Legendre)."""
    if not a < b:
        raise ConfigError("uniform law requires a < b")
    per_panel = 10
    panels = max(int(nodes) // per_panel, 4)
    x, w = _composite_gl(a, b, panels, per_panel)
    w = w / (b - a)
    w /= w.sum()
    return QuadratureRule(x[:, None], w)


def discrete_oracle(atoms, weights) -> QuadratureRule:
    """Quadrature rule for a finite discrete law; it is exact."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    if atoms.shape[0] == 1 and atoms.shape[1] > 1:
        atoms = atoms.T
    return QuadratureRule(atoms, weights)


def two_point_oracle(x1: float, x2: float, w: float = 0.5) -> QuadratureRule:
    """Two-atom law: P(X = x1) = w, P(X = x2) = 1 - w."""
    if not 0 < w < 1:
        raise ConfigError("two-point weight must lie in (0, 1)")
    return discrete_oracle([[x1], [x2]], [w, 1 - w])


def product_oracle(oracles: Sequence[QuadratureRule]) -> QuadratureRule:
    """Product law of independent scalar laws (tensor quadrature).

    The node count multiplies across coordinates, so this is intended for a
    handful of dimensions.
    """
    if any(o.nodes.shape[1] != 1 for o in oracles):
        raise ConfigError("product_oracle factors must be one-dimensional")
    return QuadratureRule.product(oracles)

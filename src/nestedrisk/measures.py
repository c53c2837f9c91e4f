"""Factory constructors for the shipped risk functionals.

Shipped measures:

* mean-semideviation of order p: E[X] + kappa * || (E[X] - X)_+ ||_p,
  a three-layer composition;
* higher-order inverse measure: min_u { u + c * || (X - u)_+ ||_p }, a
  two-layer composition parametric in the scalar decision u;
* its portfolio variant over linear returns u^T X;
* systemic aggregation of component risks, either linear or through an
  outer mean-semideviation on the finite component space.

Factories attach analytic Jacobians, power-max tags (for closed-form
uniform-kernel smoothing), and probe boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import counter_normal
from .core import CompositeSpec, DimSignature, LayerFn, PowerMaxForm
from .errors import ConfigError, EvaluationError


@dataclass(frozen=True)
class MeasureParams:
    """Parameters shared by the measure factories.

    ``c`` is the higher-order scale (the reciprocal tail level, c = 1/alpha);
    ``weights`` is the systemic probability vector.
    """

    kappa: float = 0.5
    p: float = 2.0
    c: float = 20.0
    weights: tuple[float, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("kappa must lie in [0, 1]")
        if self.p < 1.0:
            raise ConfigError("order p must be >= 1")
        if self.c <= 1.0:
            raise ConfigError("higher-order scale c must exceed 1")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ConfigError("weights must be nonnegative and sum to 1")


def make_mean_semideviation(params: MeasureParams) -> CompositeSpec:
    """Mean-semideviation spec: f1 = x + kappa * eta^(1/p),
    f2 = (max(0, eta - x))^p, f3 = x. Requires p > 1 (the composite
    representation needs a differentiable outer root)."""
    kappa, p = params.kappa, params.p
    if p <= 1.0:
        raise ConfigError("mean-semideviation factory requires p > 1")

    def f3(x):
        return x[:, 0]

    def f2(eta, x):
        return np.maximum(0.0, eta[0] - x[:, 0]) ** p

    def f2_jac(eta, x):
        return (p * np.maximum(0.0, eta[0] - x[:, 0]) ** (p - 1.0))[:, None, None]

    def f1(eta, x):
        return x[:, 0] + kappa * eta[0] ** (1.0 / p)

    def f1_jac(eta, x):
        val = kappa * (1.0 / p) * eta[0] ** (1.0 / p - 1.0)
        return np.full((x.shape[0], 1, 1), val)

    layers = (
        LayerFn(1, f1, f1_jac, eta_box=(np.array([1e-2]), np.array([50.0]))),
        LayerFn(2, f2, f2_jac, eta_box=(np.array([-25.0]), np.array([25.0])),
                powermax=PowerMaxForm(p, lambda eta, x: eta[0] - x[:, 0])),
        LayerFn(3, f3),
    )
    label = params.label or f"mean_semideviation(kappa={kappa:g}, p={p:g})"
    return CompositeSpec(DimSignature(1, 2, (1, 1, 1)), layers, label)


@dataclass(frozen=True)
class HigherOrderFamily:
    """Decision-parametric family u -> CompositeSpec for the higher-order
    inverse measure. For p = 1 there is no composition: the family degenerates
    to the single-layer expectation of u + c * (x - u)_+."""

    c: float
    p: float
    label: str = ""

    def __call__(self, u: float) -> CompositeSpec:
        c, p, u = self.c, self.p, float(u)
        label = self.label or f"higher_order(c={c:g}, p={p:g})"
        if p == 1.0:
            def f1_plain(x):
                return u + c * np.maximum(0.0, x[:, 0] - u)
            return CompositeSpec(
                DimSignature(1, 0, (1,)),
                (LayerFn(1, f1_plain),),
                label + f" @u={u:g}")

        def f2(x):
            return np.maximum(0.0, x[:, 0] - u) ** p

        def f1(eta, x):
            return np.full(x.shape[0], u + c * eta[0] ** (1.0 / p))

        def f1_jac(eta, x):
            val = (c / p) * eta[0] ** (1.0 / p - 1.0)
            return np.full((x.shape[0], 1, 1), val)

        layers = (
            LayerFn(1, f1, f1_jac, eta_box=(np.array([1e-3]), np.array([10.0]))),
            LayerFn(2, f2, powermax=PowerMaxForm(p, lambda eta, x: x[:, 0] - u,
                                                 tail_objective=(u, c))),
        )
        return CompositeSpec(DimSignature(1, 1, (1, 1)), layers, label + f" @u={u:g}")


def make_higher_order_family(params: MeasureParams) -> HigherOrderFamily:
    """Family of two-level specs for min_u { u + c ||(X - u)_+||_p }."""
    return HigherOrderFamily(params.c, params.p, params.label)


@dataclass(frozen=True)
class PortfolioFamily:
    """Decision-parametric family over allocations u (loss convention):
    f1 = -u.x + kappa eta^(1/p), f2 = (max(0, eta - u.x))^p, f3 = u.x."""

    kappa: float
    p: float
    m: int
    label: str = ""

    def __call__(self, u) -> CompositeSpec:
        kappa, p = self.kappa, self.p
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape[0] != self.m:
            raise ConfigError(f"allocation must have dimension {self.m}")
        if not np.all(np.isfinite(u)):
            raise ConfigError("allocation must be finite")

        def f3(x):
            return x @ u

        def f2(eta, x):
            return np.maximum(0.0, eta[0] - x @ u) ** p

        def f2_jac(eta, x):
            return (p * np.maximum(0.0, eta[0] - x @ u) ** (p - 1.0))[:, None, None]

        def f1(eta, x):
            return -(x @ u) + kappa * eta[0] ** (1.0 / p)

        def f1_jac(eta, x):
            val = kappa * (1.0 / p) * eta[0] ** (1.0 / p - 1.0)
            return np.full((x.shape[0], 1, 1), val)

        unit = self.m == 1 and abs(abs(u[0]) - 1.0) < 1e-15
        layers = (
            LayerFn(1, f1, f1_jac, eta_box=(np.array([1e-2]), np.array([50.0]))),
            LayerFn(2, f2, f2_jac, eta_box=(np.array([-25.0]), np.array([25.0])),
                    powermax=PowerMaxForm(p, lambda eta, x: eta[0] - x @ u,
                                          unit_slope=unit)),
            LayerFn(3, f3),
        )
        label = self.label or f"portfolio_semideviation(kappa={kappa:g}, p={p:g})"
        return CompositeSpec(DimSignature(self.m, 2, (1, 1, 1)), layers, label)


def make_portfolio_semideviation(params: MeasureParams, m: int) -> PortfolioFamily:
    """Portfolio mean-semideviation family over allocations in R^m."""
    if params.p <= 1.0:
        raise ConfigError("portfolio factory requires p > 1")
    if m < 1:
        raise ConfigError("portfolio dimension must be >= 1")
    return PortfolioFamily(params.kappa, params.p, int(m), params.label)


# ---------------------------------------------------------------------------
# Systemic aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuterAggregation:
    """Aggregation of component risks: linear scalarization or an outer
    mean-semideviation on the finite component space."""

    kind: str
    kappa: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("linear", "mean_semideviation"):
            raise ConfigError("outer kind must be 'linear' or 'mean_semideviation'")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("outer kappa must lie in [0, 1]")
        if self.kind == "mean_semideviation" and self.p < 1.0:
            raise ConfigError("outer order p must be >= 1")

    def aggregate(self, weights: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Aggregate component risks; ``rho`` may be (l,) or batched (R, l).

        Mean-semideviation outer penalizes components above the weighted
        mean: <c, rho> + kappa (sum_i c_i max(0, rho_i - <c, rho>)^p)^(1/p).
        """
        rho = np.asarray(rho, dtype=float)
        batched = rho.ndim == 2
        r = rho if batched else rho[None, :]
        mean = r @ weights
        if self.kind == "linear" or self.kappa == 0.0:
            out = mean
        else:
            dev = np.maximum(0.0, r - mean[:, None])
            out = mean + self.kappa * (dev ** self.p @ weights) ** (1.0 / self.p)
        return out if batched else float(out[0])


@dataclass(frozen=True)
class SystemicSpec:
    """Aggregation weights over the components and the outer measure."""

    weights: tuple[float, ...]
    outer: OuterAggregation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must be nonnegative and sum to 1")

    @property
    def weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def _identity_layer(index: int) -> LayerFn:
    def ev(eta, x):
        return np.broadcast_to(np.asarray(eta, dtype=float).reshape(1, -1),
                               (x.shape[0], np.size(eta))).copy()

    def jac(eta, x):
        d = np.size(eta)
        return np.broadcast_to(np.eye(d), (x.shape[0], d, d)).copy()

    return LayerFn(index, ev, jac)


def stack_specs(components: Sequence[CompositeSpec]) -> CompositeSpec:
    """Stack scalar-valued components into one vector-valued spec.

    Components of unequal depth are padded on the outside with identity
    layers, which changes neither values nor limit covariances; layer j of
    the stacked spec applies each component's layer to its own slice of eta
    and of the concatenated sample vector.
    """
    comps = list(components)
    if not comps:
        raise ConfigError("at least one component is required")
    k = max(c.signature.k for c in comps)
    m_total = sum(c.signature.m for c in comps)
    x_off = np.concatenate([[0], np.cumsum([c.signature.m for c in comps])])

    padded_layers: list[list[LayerFn]] = []
    padded_dims: list[tuple[int, ...]] = []
    for comp in comps:
        pad = k - comp.signature.k
        padded_layers.append([_identity_layer(j + 1) for j in range(pad)]
                             + list(comp.layers))
        padded_dims.append((comp.signature.m0,) * pad + comp.signature.dims)

    dims = tuple(int(sum(pd[j] for pd in padded_dims)) for j in range(k + 1))
    eta_off = [np.concatenate([[0], np.cumsum([pd[j] for pd in padded_dims])])
               for j in range(k + 1)]

    def make_layer(j: int) -> LayerFn:
        inner = j == k + 1

        def ev(*args):
            # padding is outermost, so at j == k+1 every component evaluates
            # its own innermost layer (x only); elsewhere all take (eta, x)
            eta, x = (None, args[0]) if inner else args
            outs = []
            for i in range(len(comps)):
                xi = x[:, x_off[i]:x_off[i + 1]]
                lay = padded_layers[i][j - 1]
                if inner:
                    out = np.asarray(lay.evaluator(xi), dtype=float)
                else:
                    ei = eta[eta_off[j][i]:eta_off[j][i + 1]]
                    out = np.asarray(lay.evaluator(ei, xi), dtype=float)
                outs.append(out[:, None] if out.ndim == 1 else out)
            return np.concatenate(outs, axis=1)

        def jac(eta, x):
            n = x.shape[0]
            out_d = dims[j - 1]
            in_d = dims[j]
            full = np.zeros((n, out_d, in_d))
            ro = 0
            for i, comp in enumerate(comps):
                lay = padded_layers[i][j - 1]
                xi = x[:, x_off[i]:x_off[i + 1]]
                ei = eta[eta_off[j][i]:eta_off[j][i + 1]]
                od, idim = padded_dims[i][j - 1], padded_dims[i][j]
                if lay.jacobian_eta is None:
                    raise EvaluationError("component layer lacks a Jacobian", layer=j)
                block = np.asarray(lay.jacobian_eta(ei, xi), dtype=float)
                block = np.broadcast_to(block, (n, od, idim))
                co = int(eta_off[j][i])
                full[:, ro:ro + od, co:co + idim] = block
                ro += od
            return full

        if inner:
            return LayerFn(j, lambda x: ev(x))
        return LayerFn(j, ev, jac)

    layers = tuple(make_layer(j) for j in range(1, k + 2))
    label = " | ".join(c.label for c in comps)
    return CompositeSpec(DimSignature(m_total, k, dims), layers, label)


def systemic_value(estimates, spec: SystemicSpec) -> float:
    """Aggregate component risk values into the systemic risk value."""
    rho = np.asarray(estimates, dtype=float).reshape(-1)
    if rho.shape[0] != len(spec.weights):
        raise ConfigError("component estimate vector has wrong length")
    return float(spec.outer.aggregate(spec.weight_vector, rho))


@dataclass(frozen=True)
class SystemicLimitSummary:
    """Sampled limit distribution of the systemic estimator error."""

    quantiles: dict
    variance: float
    mean: float
    samples: int


def systemic_limit(spec: SystemicSpec, limit_cov, value, samples: int,
                   seed: int) -> SystemicLimitSummary:
    """Sample the limit law of the systemic risk estimator.

    Draws N(0, limit_cov) vectors for the joint component limit and pushes
    them through the directional derivative of the aggregation at the
    component risk vector ``value``: exactly <c, xi> for a linear outer,
    one-sided finite differences (relative step 1e-6) for an outer
    mean-semideviation (the convex directional derivative in the limit).
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    cov = np.atleast_2d(np.asarray(limit_cov, dtype=float))
    ell = len(spec.weights)
    if cov.shape != (ell, ell):
        raise ConfigError("limit covariance has wrong shape")
    rho = np.asarray(value, dtype=float).reshape(-1)
    if rho.shape != (ell,) or not np.all(np.isfinite(rho)):
        raise ConfigError("risk vector must hold one finite value per component")
    lam, q = np.linalg.eigh(0.5 * (cov + cov.T))
    scale = max(float(np.trace(cov)), 0.0)
    if lam[0] < -1e-9 * max(scale, 1e-300):
        raise EvaluationError(f"limit covariance is not PSD (min eig {lam[0]:g})")
    factor = q * np.sqrt(np.maximum(lam, 0.0))

    z = counter_normal(seed, 0, samples * ell).reshape(samples, ell)
    xi = z @ factor.T

    w = spec.weight_vector
    if spec.outer.kind == "linear" or spec.outer.kappa == 0.0:
        draws = xi @ w
    else:
        base = float(spec.outer.aggregate(w, rho))
        norms = np.maximum(np.linalg.norm(xi, axis=1), 1.0)
        t = 1e-6 * max(1.0, float(np.linalg.norm(rho))) / norms
        bumped = spec.outer.aggregate(w, rho[None, :] + t[:, None] * xi)
        draws = (bumped - base) / t

    qs = {q_: float(np.percentile(draws, q_)) for q_ in (5, 25, 50, 75, 95)}
    return SystemicLimitSummary(qs, float(np.var(draws, ddof=1)) if samples > 1 else 0.0,
                                float(draws.mean()), samples)


# ---------------------------------------------------------------------------
# Declarative JSON configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureConfig:
    """Parsed declarative measure description (the CLI's exchange format)."""

    kind: str
    params: MeasureParams
    m: int = 1
    u: tuple[float, ...] | None = None
    components: tuple["MeasureConfig", ...] = ()
    outer: OuterAggregation | None = None

    def build(self):
        """Instantiate the configured object: a spec, a family, or a
        (SystemicSpec-free) bundle of component configs for pipelines."""
        if self.kind == "mean_semideviation":
            return make_mean_semideviation(self.params)
        if self.kind == "higher_order":
            return make_higher_order_family(self.params)
        if self.kind == "portfolio_semideviation":
            family = make_portfolio_semideviation(self.params, self.m)
            return family if self.u is None else family(np.asarray(self.u))
        if self.kind == "systemic":
            return self
        raise ConfigError(f"unknown measure kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "mean_semideviation":
            return {"kind": self.kind, "kappa": self.params.kappa, "p": self.params.p}
        if self.kind == "higher_order":
            return {"kind": self.kind, "c": self.params.c, "p": self.params.p}
        if self.kind == "portfolio_semideviation":
            doc = {"kind": self.kind, "kappa": self.params.kappa,
                   "p": self.params.p, "m": self.m}
            if self.u is not None:
                doc["u"] = list(self.u)
            return doc
        if self.kind == "systemic":
            outer = {"kind": self.outer.kind}
            if self.outer.kind == "mean_semideviation":
                outer.update(kappa=self.outer.kappa, p=self.outer.p)
            return {"kind": self.kind,
                    "weights": list(self.params.weights),
                    "outer": outer,
                    "components": [c.to_json() for c in self.components]}
        raise ConfigError(f"unknown measure kind {self.kind!r}")


def parse_measure(doc) -> MeasureConfig:
    """Parse a measure JSON document (dict, JSON text, or file path)."""
    if isinstance(doc, str):
        text = doc
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read measure file {text!r}: {exc.strerror}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid measure JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("measure document must be an object with a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "mean_semideviation":
            return MeasureConfig(kind, MeasureParams(
                kappa=float(doc.get("kappa", 0.5)), p=float(doc.get("p", 2.0))))
        if kind == "higher_order":
            return MeasureConfig(kind, MeasureParams(
                c=float(doc.get("c", 20.0)), p=float(doc.get("p", 2.0))))
        if kind == "portfolio_semideviation":
            u = doc.get("u")
            return MeasureConfig(
                kind,
                MeasureParams(kappa=float(doc.get("kappa", 0.5)),
                              p=float(doc.get("p", 2.0))),
                m=int(doc.get("m", 1)),
                u=None if u is None else tuple(float(v) for v in u))
        if kind == "systemic":
            outer_doc = doc.get("outer", {"kind": "linear"})
            if not isinstance(outer_doc, dict):
                raise ConfigError("systemic 'outer' must be an object")
            outer = OuterAggregation(
                outer_doc.get("kind", "linear"),
                kappa=float(outer_doc.get("kappa", 0.0)),
                p=float(outer_doc.get("p", 2.0)))
            comps = tuple(parse_measure(c) for c in doc.get("components", []))
            if not comps:
                raise ConfigError("systemic measure needs at least one component")
            weights = doc.get("weights")
            if weights is None:
                weights = [1.0 / len(comps)] * len(comps)
            params = MeasureParams(weights=tuple(float(w) for w in weights))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure parameters: {exc}") from exc
    # only the systemic branch gets here: its weights-length error is not
    # a parameter-parsing error, and reads as SystemicSpec's does
    if kind != "systemic":
        raise ConfigError(f"unknown measure kind {kind!r}")
    if len(params.weights) != len(comps):
        raise ConfigError("one weight per component is required")
    return MeasureConfig(kind, params, components=comps, outer=outer)

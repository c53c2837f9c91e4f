"""Factory constructors for the shipped risk functionals.

Shipped measures:

* mean-semideviation of order p: E[X] + kappa * || (E[X] - X)_+ ||_p,
  a three-layer composition;
* higher-order inverse measure: min_u { u + c * || (X - u)_+ ||_p }, a
  two-layer composition parametric in the scalar decision u;
* its portfolio variant over linear returns u^T X;
* systemic aggregation of component risks, either linear or through an
  outer mean-semideviation on the finite component space.

Factories attach analytic Jacobians and power-max tags (for closed-form
uniform-kernel smoothing).
"""

from __future__ import annotations

import copy
import json
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import counter_normal
from .core import CompositeSpec, LayerFn, PowerMaxForm
from .errors import ConfigError, EvaluationError


@dataclass(frozen=True)
class MeasureParams:
    """Parameters shared by the measure factories.

    ``c`` is the higher-order scale (the reciprocal tail level, c = 1/alpha).
    """

    kappa: float = 0.5
    p: float = 2.0
    c: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("kappa must lie in [0, 1]")
        if not self.p >= 1.0:
            raise ConfigError("order p must be >= 1")
        if not self.c > 1.0:
            raise ConfigError("higher-order scale c must exceed 1")


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
        LayerFn(f1, f1_jac),
        LayerFn(f2, f2_jac, powermax=PowerMaxForm(p, lambda eta, x: eta[0] - x[:, 0])),
        LayerFn(f3),
    )
    return CompositeSpec(1, (1, 1, 1), layers)


@dataclass(frozen=True)
class HigherOrderFamily:
    """Decision-parametric family u -> CompositeSpec for the higher-order
    inverse measure. For p = 1 there is no composition: the family degenerates
    to the single-layer expectation of u + c * (x - u)_+."""

    c: float
    p: float

    def __post_init__(self):
        if not self.c > 1.0:
            raise ConfigError("higher-order scale c must exceed 1")
        if not self.p >= 1.0:
            raise ConfigError("order p must be >= 1")

    def __call__(self, u: float) -> CompositeSpec:
        c, p, u = self.c, self.p, float(u)
        if p == 1.0:
            def f1_plain(x):
                return u + c * np.maximum(0.0, x[:, 0] - u)
            return CompositeSpec(1, (1,), (LayerFn(f1_plain),))

        def f2(x):
            return np.maximum(0.0, x[:, 0] - u) ** p

        def f1(eta, x):
            return np.full(x.shape[0], u + c * eta[0] ** (1.0 / p))

        def f1_jac(eta, x):
            val = (c / p) * eta[0] ** (1.0 / p - 1.0)
            return np.full((x.shape[0], 1, 1), val)

        layers = (
            LayerFn(f1, f1_jac),
            LayerFn(f2, powermax=PowerMaxForm(p, lambda eta, x: x[:, 0] - u,
                                              tail_objective=c)),
        )
        return CompositeSpec(1, (1, 1), layers)


def make_higher_order_family(params: MeasureParams) -> HigherOrderFamily:
    """Family of two-level specs for min_u { u + c ||(X - u)_+||_p }."""
    return HigherOrderFamily(params.c, params.p)


@dataclass(frozen=True)
class PortfolioFamily:
    """Decision-parametric family over allocations u (loss convention):
    f1 = -u.x + kappa eta^(1/p), f2 = (max(0, eta - u.x))^p, f3 = u.x."""

    kappa: float
    p: float
    m: int

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("kappa must lie in [0, 1]")
        if not self.p > 1.0:
            raise ConfigError("portfolio factory requires p > 1")
        if not self.m >= 1:
            raise ConfigError("portfolio dimension must be >= 1")

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
            LayerFn(f1, f1_jac),
            LayerFn(f2, f2_jac, powermax=PowerMaxForm(
                p, lambda eta, x: eta[0] - x @ u, unit_slope=unit)),
            LayerFn(f3),
        )
        return CompositeSpec(self.m, (1, 1, 1), layers)


def make_portfolio_semideviation(params: MeasureParams, m: int) -> PortfolioFamily:
    """Portfolio mean-semideviation family over allocations in R^m."""
    return PortfolioFamily(params.kappa, params.p, int(m))


# ---------------------------------------------------------------------------
# Systemic aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemicSpec:
    """Aggregation of component risks by an outer mean-semideviation on the
    finite component space, whose law is the weight vector; its kappa = 0
    is the linear scalarization <c, rho>."""

    weights: tuple[float, ...]
    kappa: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("outer kappa must lie in [0, 1]")
        if not self.p >= 1.0:
            raise ConfigError("outer order p must be >= 1")
        w = np.asarray(self.weights, dtype=float)
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ConfigError("weights must be nonnegative and sum to 1")

    def aggregate(self, rho) -> float | np.ndarray:
        """The systemic value of component risks ``rho``, one per weight:
        a float for an (l,) vector, an array for a batch (R, l).

        The outer mean-semideviation penalizes components above the weighted
        mean: <c, rho> + kappa (sum_i c_i max(0, rho_i - <c, rho>)^p)^(1/p).
        """
        rho = np.asarray(rho, dtype=float)
        batched = rho.ndim == 2
        r = rho if batched else rho.reshape(1, -1)
        if r.shape[1] != len(self.weights):
            raise ConfigError("component estimate vector has wrong length")
        weights = np.asarray(self.weights, dtype=float)
        mean = r @ weights
        if self.kappa == 0.0:
            out = mean
        else:
            dev = np.maximum(0.0, r - mean[:, None])
            out = mean + self.kappa * (dev ** self.p @ weights) ** (1.0 / self.p)
        return out if batched else float(out[0])


def _identity_layer() -> LayerFn:
    def ev(eta, x):
        return np.broadcast_to(np.asarray(eta, dtype=float).reshape(1, -1),
                               (x.shape[0], np.size(eta))).copy()

    def jac(eta, x):
        d = np.size(eta)
        return np.broadcast_to(np.eye(d), (x.shape[0], d, d)).copy()

    return LayerFn(ev, jac)


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
    k = max(c.k for c in comps)
    x_off = np.concatenate([[0], np.cumsum([c.m for c in comps])])

    padded_layers: list[list[LayerFn]] = []
    padded_dims: list[tuple[int, ...]] = []
    for comp in comps:
        pad = k - comp.k
        padded_layers.append([_identity_layer()] * pad + list(comp.layers))
        padded_dims.append((comp.m0,) * pad + comp.dims)

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
                block = np.asarray(lay.jacobian_eta(ei, xi), dtype=float)
                block = np.broadcast_to(block, (n, od, idim))
                co = int(eta_off[j][i])
                full[:, ro:ro + od, co:co + idim] = block
                ro += od
            return full

        if inner:
            return LayerFn(lambda x: ev(x))
        # a component without a Jacobian leaves the stacked layer without
        # one, so it takes central differences as the component alone would
        declared = all(comp[j - 1].jacobian_eta is not None for comp in padded_layers)
        return LayerFn(ev, jac if declared else None)

    layers = tuple(make_layer(j) for j in range(1, k + 2))
    return CompositeSpec(int(x_off[-1]), dims, layers)


@dataclass(frozen=True)
class SystemicLimitSummary:
    """Sampled limit distribution of the systemic estimator error."""

    quantiles: dict
    variance: float


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

    if spec.kappa == 0.0:
        draws = spec.aggregate(xi)
    else:
        base = spec.aggregate(rho)
        norms = np.maximum(np.linalg.norm(xi, axis=1), 1.0)
        t = 1e-6 * max(1.0, float(np.linalg.norm(rho))) / norms
        bumped = spec.aggregate(rho[None, :] + t[:, None] * xi)
        draws = (bumped - base) / t

    qs = {q_: float(np.percentile(draws, q_)) for q_ in (5, 25, 50, 75, 95)}
    return SystemicLimitSummary(qs, float(np.var(draws, ddof=1)) if samples > 1 else 0.0)


# ---------------------------------------------------------------------------
# Declarative JSON configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureConfig:
    """A parsed measure document (the CLI's exchange format).

    ``doc`` is the document with its defaults filled in, which ``to_json``
    returns; ``built`` is what its kind builds: the spec of a
    mean-semideviation or of an allocated portfolio, the family of a
    higher-order measure or of a portfolio without ``u``, and for a
    systemic measure the pair (component configs, ``SystemicSpec``).
    """

    doc: dict
    built: object = field(compare=False)

    @property
    def kind(self) -> str:
        return self.doc["kind"]

    def to_json(self) -> dict:
        return copy.deepcopy(self.doc)


# the keys a document of each kind reads; an outer document's kind is
# "linear" when it names none, and a linear outer reads no other key
_KEYS = {"mean_semideviation": {"kind", "kappa", "p"},
         "higher_order": {"kind", "c", "p"},
         "portfolio_semideviation": {"kind", "kappa", "p", "m", "u"},
         "systemic": {"kind", "weights", "outer", "components"}}
_OUTER_KEYS = {"linear": {"kind"}, "mean_semideviation": {"kind", "kappa", "p"}}


def _check_keys(doc: dict, kind, table: dict, unknown: str, what: str) -> None:
    """Refuse a kind the table does not hold (with the message ``unknown``)
    and a document key that its kind does not read."""
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(unknown)
    extra = sorted(repr(key) for key in doc.keys() - table[kind])
    if extra:
        raise ConfigError(f"{what} kind {kind!r} does not read {', '.join(extra)}")


def _real(value, key: str) -> float:
    """A document's number as a float. A bool or a numeric string, which
    float() would read too, raises ValueError."""
    number = float(value)
    if isinstance(value, (bool, str)):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return number


def _reals(values, key: str) -> list[float]:
    """A document's list of numbers as floats; anything else raises ValueError."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key!r} must be a list of numbers, got {values!r}")
    return [_real(v, key) for v in values]


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
    _check_keys(doc, kind, _KEYS, f"unknown measure kind {kind!r}", "measure")
    try:
        if kind == "mean_semideviation":
            params = MeasureParams(kappa=_real(doc.get("kappa", 0.5), "kappa"),
                                   p=_real(doc.get("p", 2.0), "p"))
            return MeasureConfig({"kind": kind, "kappa": params.kappa, "p": params.p},
                                 make_mean_semideviation(params))
        if kind == "higher_order":
            family = make_higher_order_family(MeasureParams(
                c=_real(doc.get("c", 20.0), "c"), p=_real(doc.get("p", 2.0), "p")))
            return MeasureConfig({"kind": kind, "c": family.c, "p": family.p}, family)
        if kind == "portfolio_semideviation":
            m = doc.get("m", 1)
            if isinstance(m, bool) or not isinstance(m, numbers.Integral):
                raise ValueError(f"'m' must be an integer, got {m!r}")
            family = make_portfolio_semideviation(
                MeasureParams(kappa=_real(doc.get("kappa", 0.5), "kappa"),
                              p=_real(doc.get("p", 2.0), "p")), int(m))
            norm = {"kind": kind, "kappa": family.kappa, "p": family.p, "m": family.m}
            if doc.get("u") is None:
                return MeasureConfig(norm, family)
            norm["u"] = _reals(doc["u"], "u")
            return MeasureConfig(norm, family(np.asarray(norm["u"])))
        outer = doc.get("outer", {})
        if not isinstance(outer, dict):
            raise ConfigError("systemic 'outer' must be an object")
        _check_keys(outer, outer.get("kind", "linear"), _OUTER_KEYS,
                    "outer kind must be 'linear' or 'mean_semideviation'", "outer")
        kappa, p = _real(outer.get("kappa", 0.0), "kappa"), _real(outer.get("p", 2.0), "p")
        comps = tuple(parse_measure(c) for c in doc.get("components", []))
        if not comps:
            raise ConfigError("systemic measure needs at least one component")
        weights = doc.get("weights")
        weights = [1.0 / len(comps)] * len(comps) if weights is None \
            else _reals(weights, "weights")
        spec = SystemicSpec(tuple(weights), kappa, p)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure parameters: {exc}") from exc
    # only the systemic branch gets here: its weights-length error is not
    # a parameter-parsing error, and reads as SystemicSpec's does
    if len(spec.weights) != len(comps):
        raise ConfigError("one weight per component is required")
    outer = {"kind": "linear"} if spec.kappa == 0.0 else \
        {"kind": "mean_semideviation", "kappa": spec.kappa, "p": spec.p}
    return MeasureConfig({"kind": kind, "weights": list(spec.weights), "outer": outer,
                          "components": [c.doc for c in comps]}, (comps, spec))

"""Deterministic Monte Carlo harness.

Laws, a counter-based sampler (draw (i, j) of a sample is a pure function of
(seed, i * m + j)), a replication runner whose output is byte-identical for
any worker count, and distributional summaries (histograms, KS distances)
for comparing replication tables against normal references.

A law is the single description of P: it holds its parameters and their
checks, its ``dimension`` m, its ``transform`` of an (n, m) block of
uniforms, and its quadrature rule ``law.oracle()``, which integrates
against it for exact values. ``sample`` is the only place that draws.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import ndtri

from ._rng import counter_uniform, derive_seed
from .core import QuadratureRule
from .errors import ConfigError, EvaluationError
from .estimators import Sample

# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

# Composite Gauss-Legendre: 10 nodes per panel; the normal rule spans
# mean +- 10 std.
_PER_PANEL = 10
_NORMAL_WIDTH = 10.0


def _composite_gl(a: float, b: float, nodes: int):
    """Composite Gauss-Legendre nodes/weights on [a, b], with
    ``nodes // 10`` panels (at least 4).

    Piecewise low-order panels keep kinked integrands (tail powers such as
    max(0, x-u)^p) accurate: a kink degrades only the panel containing it.
    """
    panels = max(int(nodes) // _PER_PANEL, 4)
    zn, zw = np.polynomial.legendre.leggauss(_PER_PANEL)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * zn[None, :]).ravel()
    weights = (half[:, None] * zw[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float
    dimension = 1

    def __post_init__(self):
        if self.std <= 0:
            raise ConfigError("normal std must be positive")

    def transform(self, u: np.ndarray) -> np.ndarray:
        z = ndtri(u)
        z *= self.std
        z += self.mean
        return z

    def moments(self) -> tuple[float, float]:
        return self.mean, self.std ** 2

    def oracle(self, nodes: int = 1000) -> QuadratureRule:
        """Composite Gauss-Legendre against the normal density on
        mean +- 10 std; with the default 1000 nodes the tail power integrals
        of the shipped measures are accurate to roughly 1e-9 relative."""
        z, w = _composite_gl(-_NORMAL_WIDTH, _NORMAL_WIDTH, nodes)
        w = w * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        w /= w.sum()
        return QuadratureRule((self.mean + self.std * z)[:, None], w)


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float
    dimension = 1

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigError("uniform law requires a < b")

    def transform(self, u: np.ndarray) -> np.ndarray:
        x = (self.b - self.a) * u
        x += self.a
        return x

    def moments(self) -> tuple[float, float]:
        return 0.5 * (self.a + self.b), (self.b - self.a) ** 2 / 12.0

    def oracle(self, nodes: int = 1000) -> QuadratureRule:
        """Composite Gauss-Legendre on [a, b]."""
        x, w = _composite_gl(self.a, self.b, nodes)
        w = w / (self.b - self.a)
        w /= w.sum()
        return QuadratureRule(x[:, None], w)


@dataclass(frozen=True)
class TwoPoint:
    """P(X = x1) = w, P(X = x2) = 1 - w."""

    x1: float
    x2: float
    w: float = 0.5
    dimension = 1

    def __post_init__(self):
        if not 0.0 < self.w < 1.0:
            raise ConfigError("two-point weight must lie in (0, 1)")

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.w, self.x1, self.x2)

    def moments(self) -> tuple[float, float]:
        mean = self.w * self.x1 + (1 - self.w) * self.x2
        var = self.w * (self.x1 - mean) ** 2 + (1 - self.w) * (self.x2 - mean) ** 2
        return mean, var

    def oracle(self, nodes: int = 1000) -> QuadratureRule:
        """The exact two-atom rule (``nodes`` is not read)."""
        return QuadratureRule([[self.x1], [self.x2]], [self.w, 1 - self.w])


@dataclass(frozen=True)
class ProductLaw:
    """Independent one-dimensional laws, one per coordinate."""

    laws: tuple

    def __post_init__(self):
        if not self.laws:
            raise ConfigError("product law needs at least one coordinate")
        if any(getattr(law, "dimension", None) != 1 for law in self.laws):
            raise ConfigError("product law factors must be one-dimensional")

    @property
    def dimension(self) -> int:
        return len(self.laws)

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.concatenate([law.transform(u[:, j:j + 1])
                               for j, law in enumerate(self.laws)], axis=1)

    def oracle(self, nodes: int = 1000) -> QuadratureRule:
        """Tensor-product rule of the factors' rules; the node count
        multiplies across coordinates, so at the default 100 nodes per
        coordinate ``QuadratureRule.product`` rejects more than three."""
        per = max(nodes // 10, 40) if len(self.laws) > 1 else nodes
        return QuadratureRule.product([law.oracle(per) for law in self.laws])


@dataclass(frozen=True)
class SamplerConfig:
    """A law plus the 64-bit seed of its deterministic stream."""

    law: object
    seed: int = 0


def sample(config: SamplerConfig, n: int) -> Sample:
    """Draw an n x m sample; entry (i, j) consumes counter i * m + j of the
    uniform stream keyed by config.seed, then maps through the coordinate
    law's inverse CDF (``law.transform`` of the (n, m) block)."""
    if n < 1:
        raise ConfigError("sample size must be >= 1")
    m = config.law.dimension
    return Sample(config.law.transform(
        counter_uniform(config.seed, 0, n * m).reshape(n, m)))


def parse_law(text: str):
    """Parse a law string: ``normal:mean,std``, ``uniform:a,b``,
    ``two_point:x1,x2,w``; '*' joins coordinates into a product law."""
    parts = [p.strip() for p in text.split("*")]
    laws = []
    for part in parts:
        kind, _, argstr = part.partition(":")
        kind = kind.strip().lower()
        law = {"normal": Normal, "uniform": Uniform, "two_point": TwoPoint}.get(kind)
        if law is None:
            raise ConfigError(f"unknown law {kind!r}")
        try:
            args = [float(v) for v in argstr.split(",")] if argstr else []
            laws.append(law(*args))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad law arguments in {part!r}: {exc}") from exc
    return laws[0] if len(laws) == 1 else ProductLaw(tuple(laws))


# ---------------------------------------------------------------------------
# Replications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reference:
    """Reference normal for summaries: mean and variance of the estimator."""

    mean: float
    variance: float


@dataclass(frozen=True)
class ReplicationTable:
    """Seeded replication outcomes plus the config echo; summaries come
    from ``summarize_distribution``."""

    estimates: np.ndarray          # (R, d)
    config: dict

    @property
    def replications(self) -> int:
        return self.estimates.shape[0]

    def to_csv(self) -> str:
        """Estimates CSV: header replication,value[,coord...]; floats carry
        17 significant digits."""
        d = self.estimates.shape[1]
        header = "replication,value" + "".join(f",coord{i}" for i in range(1, d))
        lines = [header]
        for r in range(self.estimates.shape[0]):
            row = ",".join(format_float(v) for v in self.estimates[r])
            lines.append(f"{r},{row}")
        return "\n".join(lines) + "\n"


def run_replications(estimator: Callable[[Sample], object],
                     config: SamplerConfig, n: int, replications: int,
                     *, seed: int | None = None,
                     workers: int = 1,
                     label: dict | None = None) -> ReplicationTable:
    """Run seeded replications of an estimator.

    Replication r draws a fresh sample from the stream keyed by
    hash64(seed, r) and applies ``estimator``; rows are assembled in
    replication order, so the table is identical for any worker count.
    """
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    base_seed = config.seed if seed is None else int(seed)

    def one(r: int) -> np.ndarray:
        cfg = replace(config, seed=derive_seed(base_seed, r))
        s = sample(cfg, n)
        try:
            est = estimator(s)
        except EvaluationError as exc:
            raise EvaluationError(f"replication {r} failed: {exc}") from exc
        return np.asarray(est, dtype=float).reshape(-1)

    if workers <= 1:
        rows = [one(r) for r in range(replications)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(replications)))
    estimates = np.stack(rows, axis=0)

    echo = {"n": int(n), "replications": int(replications), "seed": int(base_seed),
            "law": repr(config.law)}
    if label:
        echo.update(label)
    return ReplicationTable(estimates, echo)


# ---------------------------------------------------------------------------
# Distribution summaries
# ---------------------------------------------------------------------------

def ks_distance(values: np.ndarray, mean: float, variance: float) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance against
    N(mean, variance)."""
    if variance <= 0:
        raise ConfigError("reference variance must be positive for a KS distance")
    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    from scipy.special import ndtr
    f = ndtr((x - mean) / np.sqrt(variance))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


_MIN_BINS, _MAX_BINS = 10, 100


def freedman_diaconis_bins(values: np.ndarray) -> int:
    """Freedman-Diaconis bin count clamped to [10, 100]."""
    v = np.asarray(values, dtype=float)
    q75, q25 = np.percentile(v, [75, 25])
    iqr = q75 - q25
    span = v.max() - v.min()
    if iqr <= 0 or span <= 0:
        return _MIN_BINS
    width = 2.0 * iqr * v.shape[0] ** (-1.0 / 3.0)
    return int(np.clip(np.ceil(span / width), _MIN_BINS, _MAX_BINS))


@dataclass(frozen=True)
class Histogram:
    bin_left: np.ndarray
    bin_right: np.ndarray
    density: np.ndarray
    reference_density: np.ndarray

    def to_csv(self) -> str:
        """Histogram CSV; floats carry 17 significant digits."""
        lines = ["bin_left,bin_right,density,reference_density"]
        for row in zip(self.bin_left, self.bin_right, self.density,
                       self.reference_density):
            lines.append(",".join(format_float(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    bias: float
    std: float
    ks: float | None
    degenerate: bool
    reference: Reference
    histogram: Histogram | None


def summarize_distribution(table: ReplicationTable, reference: Reference,
                           bins: int | None = None, *,
                           coord: int = 0) -> DistributionSummary:
    """Density histogram over [min, max], the reference normal density at
    bin centers, bias/std, and the KS distance against the reference."""
    if bins is not None and bins < 1:
        raise ConfigError("histogram bins must be >= 1")
    if table.replications < 2:
        raise ConfigError("summaries need at least two replications")
    vals = table.estimates[:, coord]
    mean = float(vals.mean())
    std = float(vals.std(ddof=1))
    bias = mean - reference.mean
    if std == 0.0 or reference.variance <= 0:
        return DistributionSummary(mean, bias, std, None, True, reference, None)

    nbins = bins if bins is not None else freedman_diaconis_bins(vals)
    density, edges = np.histogram(vals, bins=nbins,
                                  range=(vals.min(), vals.max()), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    sd = np.sqrt(reference.variance)
    ref_density = np.exp(-0.5 * ((centers - reference.mean) / sd) ** 2) \
        / (sd * np.sqrt(2 * np.pi))
    hist = Histogram(edges[:-1], edges[1:], density, ref_density)
    ks = ks_distance(vals, reference.mean, reference.variance)
    return DistributionSummary(mean, bias, std, ks, False, reference, hist)


# ---------------------------------------------------------------------------
# Serialization helpers (17 significant digits everywhere)
# ---------------------------------------------------------------------------

def format_float(x) -> str:
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Minimal JSON emitter that renders floats with 17 significant digits."""

    def enc(v, depth: int) -> str:
        sp = "  " * depth
        spi = "  " * (depth + 1)
        if isinstance(v, dict):
            items = [f'{spi}"{k}": {enc(val, depth + 1)}' for k, val in v.items()]
            return "{\n" + ",\n".join(items) + f"\n{sp}}}"
        if isinstance(v, (list, tuple, np.ndarray)):
            seq = list(np.asarray(v).tolist()) if isinstance(v, np.ndarray) else list(v)
            return "[" + ", ".join(enc(x, depth + 1) for x in seq) + "]"
        if isinstance(v, (bool, np.bool_)) or v is None:
            return "null" if v is None else ("true" if v else "false")
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'

    return enc(obj, 0) + "\n"


def summary_json(summary: DistributionSummary, config: dict) -> dict:
    """Summary document: {mean, bias, std, ks, reference, config}."""
    return {
        "mean": summary.mean,
        "bias": summary.bias,
        "std": summary.std,
        "ks": summary.ks,
        "degenerate": summary.degenerate,
        "reference": {"mean": summary.reference.mean,
                      "variance": summary.reference.variance},
        "config": config,
    }

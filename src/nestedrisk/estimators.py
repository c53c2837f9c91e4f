"""Plug-in estimators: empirical, kernel-smoothed, and mixtures per layer.

The empirical estimator replaces every expectation in the composition by a
sample mean over the same sample. The mixed estimator convolves the
empirical measure with a scaled kernel at a chosen subset J of layers: the
layer-j mean becomes (1/n) sum_i integral f_j(eta, X_i + z) dmu_h(z), where
mu_h is the kernel density scaled by the bandwidth h_n. For layers tagged as
power-max forms with a unit-slope gap in a one-dimensional sample, the
uniform-kernel convolution has a closed form and the other kernels, at small
integer powers, sum the quadrature over the sorted gaps; everything else goes
through quadrature against the kernel on shifted sample rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gamma as gamma_fn

import numpy as np

from .core import (CompositeSpec, EtaChain, QuadratureRule, _chain,
                   _eval_layer, _layer_mean)
from .errors import ConfigError, EvaluationError

_KERNEL_FAMILIES = ("uniform", "gaussian", "epanechnikov")


def _abs_moment_1d(family: str, q: float) -> float:
    """E|Y|^q, q >= 1, for the unscaled one-dimensional kernel density of
    a family that ``KernelSpec`` accepts."""
    if family == "uniform":          # density 1/2 on [-1, 1]
        return 1.0 / (q + 1.0)
    if family == "epanechnikov":     # density (3/4)(1 - y^2) on [-1, 1]
        return 3.0 / ((q + 1.0) * (q + 3.0))
    return 2.0 ** (q / 2.0) * gamma_fn((q + 1.0) / 2.0) / np.sqrt(np.pi)  # gaussian


@lru_cache(maxsize=32)
def _kernel_nodes_1d(family: str, count: int):
    """Nodes/weights integrating g against the kernel density in one dim.

    The rules are symmetric (z -> -z keeps the weights) and cached, so the
    arrays are returned read-only.
    """
    if count < 3:
        raise ConfigError("convolution requires at least 3 nodes")
    if family == "gaussian":
        z, w = np.polynomial.hermite_e.hermegauss(count)
        w = w / np.sqrt(2 * np.pi)
    else:
        z, w = np.polynomial.legendre.leggauss(count)
        w = w * 0.5 if family == "uniform" else w * 0.75 * (1.0 - z * z)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel density with precomputed absolute moments.

    ``m1`` and ``mp`` are E|Y| and E|Y|^p (Euclidean norm for dimension > 1),
    the quantities entering the strong-identity condition.
    """

    family: str
    dimension: int = 1
    moment_order: float = 1.0
    m1: float = field(init=False)
    mp: float = field(init=False)

    def __post_init__(self):
        if self.family not in _KERNEL_FAMILIES:
            raise ConfigError(f"kernel family must be one of {_KERNEL_FAMILIES}")
        if self.dimension < 1:
            raise ConfigError("kernel dimension must be >= 1")
        if self.moment_order < 1:
            raise ConfigError("kernel moment order must be >= 1")
        object.__setattr__(self, "m1", self._norm_moment(1.0))
        object.__setattr__(self, "mp", self._norm_moment(self.moment_order))

    def _norm_moment(self, q: float, nodes_per_dim: int = 64) -> float:
        if self.dimension == 1:
            return _abs_moment_1d(self.family, q)
        rule = self.convolution_rule(nodes_per_dim)
        return float(rule.weights @ np.linalg.norm(rule.nodes, axis=1) ** q)

    def convolution_rule(self, nodes_per_dim: int) -> QuadratureRule:
        """Tensor nodes/weights for integrating against the kernel density."""
        z, w = _kernel_nodes_1d(self.family, nodes_per_dim)
        rule = QuadratureRule(z[:, None], w)
        return rule if self.dimension == 1 else QuadratureRule.product([rule] * self.dimension)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Bandwidth rule h_n: silverman (1.06 sigma n^{-1/5}) or power (a n^{-gamma})."""

    rule: str
    scale: float = 1.0
    exponent: float = 0.5

    def __post_init__(self):
        if self.rule not in ("silverman", "power"):
            raise ConfigError("bandwidth rule must be 'silverman' or 'power'")
        if self.scale <= 0:
            raise ConfigError("bandwidth scale must be positive")
        if self.rule == "power" and self.exponent <= 0:
            raise ConfigError("power-rule exponent must be positive")


def bandwidth(schedule: BandwidthSchedule, n: int, sigma_hat: float = 1.0) -> float:
    """Evaluate the schedule at sample size n.

    Silverman with sigma_hat = 0 is rejected: the bandwidth degenerates to
    zero and the caller should fall back to the empirical estimator.
    """
    if n < 1:
        raise ConfigError("sample size must be >= 1")
    if schedule.rule == "silverman":
        if sigma_hat <= 0:
            raise EvaluationError(
                "silverman bandwidth is degenerate (sigma_hat = 0); "
                "use the empirical estimator for this sample")
        return 1.06 * sigma_hat * n ** (-0.2)
    return schedule.scale * n ** (-schedule.exponent)


@dataclass(frozen=True)
class SmoothingPlan:
    """Which layers to smooth, with what kernel, and what bandwidth rule."""

    J: frozenset[int]
    kernel: KernelSpec
    schedule: BandwidthSchedule
    convolution_nodes: int = 64

    def __post_init__(self):
        object.__setattr__(self, "J", frozenset(int(j) for j in self.J))
        if any(j < 1 for j in self.J):
            raise ConfigError("smoothing layer indices must be >= 1")
        if self.convolution_nodes < 3:
            raise ConfigError("convolution requires at least 3 quadrature nodes")


@dataclass(frozen=True)
class Sample:
    """An n x m matrix of observations with finite entries.

    A Sample assumes its data do not change after construction: the
    entries are checked once, here, and the ascending order of the columns
    is sorted on first use and kept on the instance, read-only. That one
    order feeds ``optimize.default_bracket`` and the sorted-tail solve.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or data.shape[0] < 1:
            raise ConfigError("sample must be a nonempty n x m matrix")
        if not np.all(np.isfinite(data)):
            raise ConfigError("sample contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def _sorted(self) -> np.ndarray:
        """The columns sorted ascending (read-only), sorted on the first
        call. A per-instance field rather than functools.cached_property,
        whose lock is per class on Python <= 3.11 and would serialize the
        sorts of threaded replications."""
        order = self.__dict__.get("_order")
        if order is None:
            order = np.sort(self.data, axis=0)
            order.flags.writeable = False
            object.__setattr__(self, "_order", order)
        return order

    def std_scale(self) -> float:
        """Scalar dispersion estimate: sqrt of mean per-coordinate variance
        (n-1 denominator); equals the sample standard deviation for m = 1."""
        if self.n < 2:
            return 0.0
        return float(np.sqrt(np.mean(np.var(self.data, axis=0, ddof=1))))


def estimate_empirical(spec: CompositeSpec, sample: Sample) -> EtaChain:
    """Fully empirical plug-in estimate: the chain of per-layer sample
    means, whose ``value`` is eta_1 hat.

    Computes the per-layer sample means innermost first; because inner sums
    do not depend on the outer summation index, this equals the fully nested
    empirical sums evaluated directly.
    """
    return _chain(spec, sample.data)


# Largest power the sorted branch expands binomially; the smoothed second
# moment of a p <= 4 layer needs 2p.
_SORTED_MAX_POWER = 8
# An offset whose expansion terms outweigh its sum by more than this factor
# loses digits to cancellation and is summed directly instead.
_CANCELLATION_LIMIT = 64.0


def _powermax_uniform_mean(gap: np.ndarray, p: float, h: float,
                           n: int | None = None) -> float:
    """Mean over the sample of the uniform-kernel convolution of
    (max(0, gap + z))^p, z ~ U(-h, h): the tail-power closed form.

    ``n`` is the sample size when ``gap`` holds only the rows with
    gap > -h (the others contribute zero); it defaults to len(gap). Any
    p > -1 is accepted, and d/dgap of the mean at p is p times the mean
    at p - 1.
    """
    up = np.maximum(0.0, gap + h) ** (p + 1.0)
    dn = np.maximum(0.0, gap - h) ** (p + 1.0)
    count = gap.shape[0] if n is None else n
    return float(np.sum(up - dn) / (2.0 * count * (p + 1.0) * h))


def _powermax_tail_sums(gap: np.ndarray, p: int, offsets: np.ndarray) -> np.ndarray:
    """sum_i (max(0, gap_i - t))^p for every offset t.

    Sorts the gaps once; the distinct counts of gaps above the q offsets
    cut the largest gaps into at most q segments, whose sums of g^1..g^p
    accumulate into sums over the c largest gaps for each count c. Each
    offset then costs a binary search and the binomial expansion of
    (g - t)^p over the gaps above t: O(n log n + q log n) time and O(p n)
    memory. Sums of |g|^r bound the expansion's terms; an offset where they
    outweigh the sum beyond _CANCELLATION_LIMIT (gaps bunched just above t,
    far from 0) is summed directly over its gaps.
    """
    ascending = np.sort(gap)
    g = ascending[::-1]
    count = g.shape[0] - np.searchsorted(ascending, offsets, side="right")  # gaps > t
    cuts, slot = np.unique(count, return_inverse=True)
    # column c of powers holds g^1..g^p of the c-th largest gap and column 0
    # is zero, so segment s covers columns cuts[s-1] + 1 .. cuts[s]
    powers = np.empty((p, cuts[-1] + 1))
    powers[0, 0] = 0.0
    powers[0, 1:] = g[:cuts[-1]]
    for r in range(1, p):
        powers[r] = powers[r - 1] * powers[0]
    starts = np.concatenate(([0], cuts[:-1] + 1))
    # top[r, s] and top_abs[r, s] sum g^r and |g|^r over the cuts[s] largest gaps
    top = np.empty((p + 1, cuts.shape[0]))
    top[0] = cuts
    np.cumsum(np.add.reduceat(powers, starts, axis=1), axis=1, out=top[1:])
    top_abs = top.copy()
    np.cumsum(np.add.reduceat(np.abs(powers[::2]), starts, axis=1), axis=1,
              out=top_abs[1::2])
    r = np.arange(p + 1)[:, None]
    coef = np.array([[comb(p, k)] for k in range(p + 1)]) * (-offsets) ** (p - r)
    sums = np.sum(coef * top[:, slot], axis=0)
    bound = np.sum(np.abs(coef) * top_abs[:, slot], axis=0)
    for k in np.flatnonzero(bound > _CANCELLATION_LIMIT * sums):
        sums[k] = np.sum((g[:count[k]] - offsets[k]) ** p)
    return sums


def _check_tag(j: int, value: float, tagged: float, where: str, form: str) -> None:
    """Raise ConfigError naming layer j when its evaluator's value differs
    from the value its PowerMaxForm tag gives (beyond 1e-12 relative)."""
    if value != tagged and not abs(value - tagged) <= 1e-12 * abs(tagged):
        raise ConfigError(f"layer {j} returned {value:.17g} {where}, but its "
                          f"PowerMaxForm tag gives {form} = {tagged:.17g}")


def _powermax_smoothed_mean(spec: CompositeSpec, j: int, eta: np.ndarray | None,
                            sample: Sample, plan: SmoothingPlan,
                            h: float) -> float | None:
    """Kernel-smoothed sample mean of layer j, tagged (max(0, gap))^power by
    its ``PowerMaxForm``, or None when the layer must go through quadrature
    on shifted rows.

    Needs a unit-slope gap in a one-dimensional sample. The uniform
    kernel has a closed form for any power; the other kernels sum the same
    quadrature over the sorted gaps for integer powers 1.._SORTED_MAX_POWER.
    Their rules are symmetric, so (gap + h z) may be read as (gap - h z)
    whatever the sign of the slope. The tag stands in for the layer's
    evaluator, so the evaluator is run once, at the row of the largest gap,
    and a value other than the tag's (beyond 1e-12 relative) or an output of
    another shape raises ConfigError naming the layer. A non-finite result
    names the first sample row whose own smoothed value is non-finite.
    """
    pm = spec.layer(j).powermax
    power = pm.power
    if not pm.unit_slope or sample.m != 1:
        return None
    uniform = plan.kernel.family == "uniform"
    if not uniform and not (float(power).is_integer()
                            and 1 <= power <= _SORTED_MAX_POWER):
        return None
    gap = np.asarray(pm.gap(eta, sample.data), dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        i = int(np.argmax(gap))
        _check_tag(j, _eval_layer(spec, j, eta, sample.data[i:i + 1])[0, 0],
                   np.maximum(0.0, gap[i]) ** power, f"at sample row {i}",
                   f"(max(0, gap))^{power:g}")
        if uniform:
            mean = _powermax_uniform_mean(gap, power, h)
        else:
            z, w = _kernel_nodes_1d(plan.kernel.family, plan.convolution_nodes)
            mean = float(w @ _powermax_tail_sums(gap, int(power), h * z)) / gap.shape[0]
        if np.isfinite(mean):
            return mean
        # per-row values, computed only to name the failing row
        if uniform:
            rows = (np.maximum(0.0, gap + h) ** (power + 1.0)
                    - np.maximum(0.0, gap - h) ** (power + 1.0))
        else:
            rows = np.maximum(0.0, gap[:, None] - h * z[None, :]) ** power @ w
    bad = np.flatnonzero(~np.isfinite(rows))
    raise EvaluationError("non-finite smoothed layer mean", layer=j,
                          sample_index=int(bad[0]) if bad.size else None)


def uniform_kernel_powermax(sample: Sample, u: float, p: float, h: float) -> float:
    """Closed-form uniform-kernel smoothed mean of (max(0, X - u))^p.

    Equals (1/(2n(p+1)h)) sum_i [ (max(0, h + X_i - u))^{p+1}
    - (max(0, -h + X_i - u))^{p+1} ], the antiderivative of the tail power
    integrated over the kernel window.
    """
    if sample.m != 1:
        raise ConfigError("uniform_kernel_powermax requires a one-dimensional sample")
    if h <= 0:
        raise ConfigError("bandwidth h must be positive")
    if p <= 1:
        raise ConfigError("power p must exceed 1")
    return _powermax_uniform_mean(sample.data[:, 0] - u, p, h)


def _smoothed_layer_mean(spec: CompositeSpec, j: int, eta: np.ndarray | None,
                         sample: Sample, plan: SmoothingPlan, h: float) -> np.ndarray:
    if spec.layer(j).powermax is not None:
        mean = _powermax_smoothed_mean(spec, j, eta, sample, plan, h)
        if mean is not None:
            return np.array([mean])
    rule = plan.kernel.convolution_rule(plan.convolution_nodes)
    offsets = rule.nodes * h                      # (q, m)
    x = sample.data                               # (n, m)
    n, q = x.shape[0], offsets.shape[0]
    shifted = (x[:, None, :] + offsets[None, :, :]).reshape(n * q, sample.m)
    vals = _eval_layer(spec, j, eta, shifted).reshape(n, q, -1)
    return _layer_mean(np.einsum("q,nqd->nd", rule.weights, vals), j)


def _check_plan(spec: CompositeSpec, sample: Sample, plan: SmoothingPlan) -> None:
    """Reject a plan whose kernel dimension is not the sample's, or whose J
    names a layer beyond k+1."""
    if plan.kernel.dimension != sample.m:
        raise ConfigError(
            f"kernel dimension {plan.kernel.dimension} does not match sample "
            f"dimension {sample.m}")
    if any(j > spec.k + 1 for j in plan.J):
        raise ConfigError("smoothing set J references a layer beyond k+1")


def _smoother(sample: Sample, plan: SmoothingPlan):
    """The ``smooth`` argument of ``core._chain`` for a plan: the smoothed
    mean at the layers in J, at the sample's bandwidth."""
    h = bandwidth(plan.schedule, sample.n, sample.std_scale())
    return lambda spec, j, eta: (_smoothed_layer_mean(spec, j, eta, sample, plan, h)
                                 if j in plan.J else None)


def estimate_mixed(spec: CompositeSpec, sample: Sample,
                   plan: SmoothingPlan) -> EtaChain:
    """Mixed plug-in estimate: the chain of smoothed means at layers in
    plan.J, empirical means elsewhere. With empty J the result is exactly
    estimate_empirical."""
    smooth = None
    if plan.J:
        _check_plan(spec, sample, plan)
        smooth = _smoother(sample, plan)
    return _chain(spec, sample.data, smooth=smooth)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of the strong-approximate-identity check for a schedule.

    ``exponent_identity`` is the growth exponent e in
    sqrt(n) * max(h_n m1, h_n^p mp) ~ n^e; the check passes iff e < 0.
    ``exponent_s2b`` is the exponent of n h_n^2.
    """

    passes: bool
    s2b_ok: bool
    rule: str
    gamma: float
    exponent_identity: float
    exponent_s2b: float
    detail: str


def check_strong_identity(schedule: BandwidthSchedule, kernel: KernelSpec,
                          p: float) -> IdentityCheck:
    """Decide whether the kernel/bandwidth pair is a strong approximate
    identity of order p.

    For h_n = a n^{-gamma}: sqrt(n) h_n m1 ~ n^{1/2-gamma} and
    sqrt(n) h_n^p mp ~ n^{1/2-p*gamma}; with p >= 1 the binding exponent is
    1/2 - gamma, so the check passes exactly when gamma > 1/2. The same
    threshold governs n h_n^2 -> 0. Silverman has gamma = 1/5 and fails with
    growth exponent n^{0.3}.
    """
    if p < 1:
        raise ConfigError("order p must be >= 1")
    if not (np.isfinite(kernel.m1) and np.isfinite(kernel._norm_moment(p))):
        raise ConfigError("kernel moments m1, mp must be finite")
    gamma = 0.2 if schedule.rule == "silverman" else schedule.exponent
    e_id = max(0.5 - gamma, 0.5 - p * gamma)
    e_s2b = 1.0 - 2.0 * gamma
    passes = e_id < 0
    s2b_ok = e_s2b < 0
    if passes:
        detail = f"sqrt(n) moment bound decays like n^{e_id:g}"
    else:
        detail = f"sqrt(n) moment bound grows like n^{e_id:g}"
    if schedule.rule == "silverman":
        detail += " (silverman: gamma = 1/5 < 1/2)"
    return IdentityCheck(passes, s2b_ok, schedule.rule, gamma, e_id, e_s2b, detail)

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nestedrisk as nr
from nestedrisk import estimators
from nestedrisk.estimators import (_kernel_nodes_1d, _powermax_tail_sums,
                                   _powermax_uniform_mean)

from naive import mean_spec, nested_empirical, smoothed_row_mean


def msd(kappa=0.5, p=2.0):
    return nr.make_mean_semideviation(nr.MeasureParams(kappa=kappa, p=p))


def uniform_plan(layers={2}, schedule=None, nodes=64):
    return nr.SmoothingPlan(frozenset(layers), nr.KernelSpec("uniform", 1, 2.0),
                            schedule or nr.BandwidthSchedule("silverman"),
                            convolution_nodes=nodes)


# --- estimate_empirical -------------------------------------------------------

def test_empirical_constant_sample():
    s = nr.Sample(np.full(50, 3.0))
    assert nr.estimate_empirical(msd(), s).value[0] == pytest.approx(3.0, abs=1e-14)


def test_empirical_two_point():
    s = nr.Sample(np.array([0.0, 2.0]))
    est = nr.estimate_empirical(msd(), s)
    assert est.value[0] == pytest.approx(1.3535533905932737, abs=1e-14)
    assert isinstance(est, nr.EtaChain) and est.value is est.eta[-1]


def test_empirical_k0_mean():
    s = nr.Sample(np.array([1.0, 2.0, 3.0]))
    assert nr.estimate_empirical(mean_spec(), s).value[0] == pytest.approx(2.0)


def test_empirical_matches_nested_sums_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(10, 2, size=7)
    spec = msd(0.4, 2.0)
    est = nr.estimate_empirical(spec, nr.Sample(x))
    assert est.value[0] == nested_empirical(spec, x)[0]


def test_empirical_reports_nonfinite_with_indices():
    from nestedrisk.core import CompositeSpec, LayerFn

    def f1(x):
        return np.where(x[:, 0] == 2.0, np.nan, x[:, 0])

    spec = CompositeSpec(1, (1,), (LayerFn(f1),))
    with pytest.raises(nr.EvaluationError) as err:
        nr.estimate_empirical(spec, nr.Sample(np.arange(5.0)))
    assert err.value.layer == 1 and err.value.sample_index == 2


def test_empirical_mean_overflow_names_the_layer():
    # every row of 5e306 is finite, but their sum overflows
    spec = nr.make_higher_order_family(nr.MeasureParams(c=2.0, p=1.0))(0.0)
    with np.errstate(over="ignore"), pytest.raises(nr.EvaluationError) as err:
        nr.estimate_empirical(spec, nr.Sample(np.full(200, 5e306)))
    assert (err.value.layer, err.value.sample_index) == (1, None)


@pytest.mark.filterwarnings("error")
def test_nonfinite_layer_mean_names_the_layer_under_warnings_as_errors():
    # numpy warns on a sum of +inf and -inf rows and on a sum that overflows;
    # raised as an error, that warning must still end in the named error
    from nestedrisk.core import CompositeSpec, LayerFn

    def f1(x):
        return np.where(x[:, 0] > 0, np.inf, -np.inf)

    signed_inf = CompositeSpec(1, (1,), (LayerFn(f1),))
    x = np.array([1.0, -1.0])
    for run in (lambda: nr.estimate_empirical(signed_inf, nr.Sample(x)),
                lambda: nr.eval_exact_chain(signed_inf,
                                            nr.QuadratureRule(x[:, None], [0.5, 0.5]))):
        with pytest.raises(nr.EvaluationError) as err:
            run()
        assert (err.value.layer, err.value.sample_index) == (1, 0)
    overflow = nr.make_higher_order_family(nr.MeasureParams(c=2.0, p=1.0))(0.0)
    with pytest.raises(nr.EvaluationError) as err:
        nr.estimate_empirical(overflow, nr.Sample(np.full(200, 5e306)))
    assert (err.value.layer, err.value.sample_index) == (1, None)


def test_dimension_mismatch_rejected():
    s = nr.Sample(np.zeros((4, 2)))
    with pytest.raises(nr.ConfigError):
        nr.estimate_empirical(msd(), s)


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=40)
    perm = rng.permutation(40)
    spec = msd()
    a = nr.estimate_empirical(spec, nr.Sample(x)).value[0]
    b = nr.estimate_empirical(spec, nr.Sample(x[perm])).value[0]
    assert a == pytest.approx(b, rel=1e-12)
    plan = uniform_plan()
    am = nr.estimate_mixed(spec, nr.Sample(x), plan).value[0]
    bm = nr.estimate_mixed(spec, nr.Sample(x[perm]), plan).value[0]
    assert am == pytest.approx(bm, rel=1e-12)


# --- estimate_mixed -----------------------------------------------------------

def test_mixed_empty_smoothing_set_bit_identical():
    rng = np.random.default_rng(1)
    s = nr.Sample(rng.normal(10, 2, size=64))
    spec = msd()
    plain = nr.estimate_empirical(spec, s)
    mixed = nr.estimate_mixed(spec, s, uniform_plan(layers=set()))
    assert np.array_equal(plain.value, mixed.value)
    assert all(np.array_equal(a, b)
               for a, b in zip(plain.eta, mixed.eta))


def test_mixed_small_bandwidth_limit_matches_empirical():
    s = nr.Sample(np.array([0.0, 2.0]))
    spec = msd()
    target = nr.estimate_empirical(spec, s).value[0]
    sched = nr.BandwidthSchedule("power", scale=1e-8, exponent=1e-12)
    got = nr.estimate_mixed(spec, s, uniform_plan(schedule=sched)).value[0]
    assert got == pytest.approx(target, abs=1e-6)


def test_mixed_small_bandwidth_error_shrinks_monotonically():
    rng = np.random.default_rng(9)
    s = nr.Sample(rng.normal(1.0, 0.5, size=32))
    spec = msd()
    target = nr.estimate_empirical(spec, s).value[0]
    errs = []
    for h in (1e-2, 1e-4, 1e-6):
        sched = nr.BandwidthSchedule("power", scale=h, exponent=1e-12)
        errs.append(abs(nr.estimate_mixed(spec, s, uniform_plan(schedule=sched)).value[0]
                        - target))
    assert errs[0] >= errs[1] >= errs[2]


def test_mixed_single_point_smoothed_inner_mean_is_one_sixth():
    # analytic oracle: integral over (0,1) of y^2/2 dy = 1/6
    fam = nr.make_higher_order_family(nr.MeasureParams(c=2.0, p=2.0))
    u = 0.7
    spec = fam(u)
    s = nr.Sample(np.array([u]))
    sched = nr.BandwidthSchedule("power", scale=1.0, exponent=1e-12)
    est = nr.estimate_mixed(spec, s, uniform_plan(schedule=sched))
    inner = est.eta[0][0]
    assert inner == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_mixed_gaussian_kernel_quadrature_path():
    rng = np.random.default_rng(12)
    s = nr.Sample(rng.normal(10, 2, size=50))
    spec = msd()
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0),
                            nr.BandwidthSchedule("power", 0.3, 0.2))
    est = nr.estimate_mixed(spec, s, plan)
    assert np.isfinite(est.value[0])
    # smoothing a convex tail power cannot reduce the inner mean
    emp = nr.estimate_empirical(spec, s)
    assert est.eta[1][0] >= emp.eta[1][0] - 1e-12


def test_mixed_portfolio_smooths_shifted_rows_like_bruteforce():
    # a two-asset gap is not a unit-slope gap in one dimension, so the
    # tagged layer 2 is convolved on shifted rows against the tensor kernel
    u = np.array([0.3, 0.7])
    spec = nr.make_portfolio_semideviation(nr.MeasureParams(kappa=0.5, p=2.0), 2)(u)
    law = nr.parse_law(f"normal:10,{np.sqrt(3.0)}*normal:20,{np.sqrt(5.0)}")
    s = nr.sample(nr.SamplerConfig(law, 4), 30)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 2, 2.0),
                            nr.BandwidthSchedule("power", 1.0, 0.3),
                            convolution_nodes=8)
    got = nr.estimate_mixed(spec, s, plan).eta

    h = nr.bandwidth(plan.schedule, s.n, s.std_scale())
    z, w = np.polynomial.hermite_e.hermegauss(8)
    w = w / np.sqrt(2.0 * np.pi)
    offsets = h * np.array([[a, b] for a in z for b in z])
    weights = np.array([wa * wb for wa in w for wb in w])
    eta3 = np.mean(s.data @ u)
    eta2 = smoothed_row_mean(lambda row: max(0.0, eta3 - row @ u) ** 2.0,
                             s.data, offsets, weights)[0]
    eta1 = np.mean(-(s.data @ u)) + 0.5 * np.sqrt(eta2)
    np.testing.assert_allclose([g[0] for g in got], [eta3, eta2, eta1], rtol=1e-12)


@pytest.mark.parametrize("family", ["uniform", "gaussian", "epanechnikov"])
def test_higher_order_p1_layer_smooths_its_own_evaluator(family):
    # the single p = 1 layer is u + c (x - u)_+, not a bare tail power, so
    # every kernel must convolve the evaluator itself
    c, u = 4.0, 11.0
    spec = nr.make_higher_order_family(nr.MeasureParams(c=c, p=1.0))(u)
    s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, np.sqrt(3.0)), 1), 200)
    plan = nr.SmoothingPlan(frozenset({1}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    rule = plan.kernel.convolution_rule(plan.convolution_nodes)
    h = nr.bandwidth(plan.schedule, s.n, s.std_scale())
    shifted = s.data[:, 0][:, None] + h * rule.nodes[:, 0][None, :]
    quad = np.mean((u + c * np.maximum(0.0, shifted - u)) @ rule.weights)
    got = nr.estimate_mixed(spec, s, plan).value[0]
    assert got == pytest.approx(quad, rel=1e-12)
    assert got > u


def test_convolution_node_underflow_rejected():
    with pytest.raises(nr.ConfigError):
        uniform_plan(nodes=2)
    with pytest.raises(nr.ConfigError):
        _kernel_nodes_1d("uniform", 2)


# --- power-max fast paths ---------------------------------------------------------

def _untagged(spec):
    """The same spec without power-max tags: every smoothed layer goes
    through quadrature on shifted rows."""
    return replace(spec, layers=tuple(replace(lay, powermax=None)
                                      for lay in spec.layers))


def _tail_sample(kind, n, rng):
    if kind == "normal":
        return rng.normal(10.0, np.sqrt(3.0), size=n)
    if kind == "shifted":
        return rng.normal(size=n) + 1e4
    if kind == "heavy":
        return rng.standard_t(1.5, size=n)
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(float)
    return np.full(n, 3.0)


@pytest.mark.parametrize("family", ["uniform", "gaussian", "epanechnikov"])
@pytest.mark.parametrize("count", [3, 64, 65])
def test_kernel_rules_symmetric_cached_and_read_only(family, count):
    # the power-max fast paths read (gap + h z) as (gap - h z), which needs
    # z -> -z to keep the weights
    z, w = _kernel_nodes_1d(family, count)
    assert np.array_equal(z, -z[::-1]) and np.array_equal(w, w[::-1])
    assert _kernel_nodes_1d(family, count)[0] is z
    assert not z.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("kind", ["normal", "shifted", "heavy", "ties", "constant"])
@pytest.mark.parametrize("family", ["gaussian", "epanechnikov"])
@given(p=st.sampled_from([2, 3, 4]), n=st.sampled_from([1, 2, 30, 2000]),
       measure=st.sampled_from(["semideviation", "higher_order"]),
       scale=st.sampled_from([0.05, 0.5, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_sorted_powermax_branch_equals_quadrature(family, kind, p, n, measure,
                                                  scale, seed):
    x = _tail_sample(kind, n, np.random.default_rng(seed))
    if measure == "semideviation":      # gap eta - x, slope -1
        spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=float(p)))
    else:                               # gap x - u, slope +1
        fam = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=float(p)))
        spec = fam(float(np.quantile(x, 0.7)))
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("power", scale, 0.2))
    fast = nr.estimate_mixed(spec, s, plan)
    slow = nr.estimate_mixed(_untagged(spec), s, plan)
    at = spec.k - 1                     # position of layer 2 in the chain
    inner, inner_q = fast.eta[at][0], slow.eta[at][0]

    # direct quadrature over the gaps themselves
    h = nr.bandwidth(plan.schedule, n)
    z, w = _kernel_nodes_1d(family, plan.convolution_nodes)
    eta_in = fast.input_for(2) if spec.k > 1 else None
    gap = spec.layer(2).powermax.gap(eta_in, s.data)
    direct = np.mean(np.maximum(0.0, gap[:, None] - h * z[None, :]) ** p @ w)
    assert abs(inner - direct) <= 1e-12 * direct

    # the quadrature path rounds x + h z before taking the gap; to first
    # order that moves its mean by at most p * delta / mean^(1/p) relative
    delta = 4 * np.finfo(float).eps * (2 * np.abs(x).max() + h * z.max())
    rel = 1e-12 + 2 * p * delta / inner_q ** (1.0 / p)
    assert abs(inner - inner_q) <= rel * inner_q
    assert abs(fast.value[0] - slow.value[0]) <= rel * abs(slow.value[0])


@pytest.mark.parametrize("p", [4, 8])
@pytest.mark.parametrize("widths", [3, 6, 9])
def test_sorted_powermax_branch_far_tail_relative_accuracy(p, widths):
    # u several bandwidths beyond the sample maximum: the few gaps above each
    # offset sit just above it, where the binomial expansion alone cancels
    x = np.random.default_rng(1).normal(size=200)
    sched = nr.BandwidthSchedule("power", 0.5, 0.2)
    h = nr.bandwidth(sched, x.shape[0])
    u = float(x.max() + widths * h)
    spec = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=float(p)))(u)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0), sched)
    inner = nr.estimate_mixed(spec, nr.Sample(x), plan).eta[0][0]
    z, w = _kernel_nodes_1d("gaussian", plan.convolution_nodes)
    direct = np.mean(np.maximum(0.0, (x - u)[:, None] - h * z[None, :]) ** p @ w)
    assert 0.0 < direct < 1e-8
    assert abs(inner - direct) <= 1e-12 * direct


@pytest.mark.parametrize("family, p, scale", [
    ("uniform", 200.0, 1e3),          # closed form
    ("gaussian", 4.0, 1e80),          # sorted branch
    ("epanechnikov", 4.0, 1e80),      # sorted branch
])
def test_powermax_fast_paths_name_layer_and_sample_row(family, p, scale):
    # rows 1 and 3 overflow; row 1 comes first in sample order but not in
    # gap order
    x = np.array([0.5, 2.0 * scale, 0.0, scale])
    spec = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=p))(0.0)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("power", 0.1, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nr.EvaluationError) as err:
            nr.estimate_mixed(spec, nr.Sample(x), plan)
    assert (err.value.layer, err.value.sample_index) == (2, 1)
    with np.errstate(over="ignore"), pytest.raises(nr.EvaluationError) as emp:
        nr.estimate_empirical(spec, nr.Sample(x))
    assert (emp.value.layer, emp.value.sample_index) == (2, 1)


def test_quadrature_path_names_sample_row_not_shifted_row():
    # p = 200 is beyond the sorted branch, so the gaussian kernel evaluates
    # the layer on n x 64 shifted rows
    x = np.array([0.5, 2e3, 0.0, 1e3])
    spec = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=200.0))(0.0)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0),
                            nr.BandwidthSchedule("power", 0.1, 0.5))
    with np.errstate(over="ignore"), pytest.raises(nr.EvaluationError) as err:
        nr.estimate_mixed(spec, nr.Sample(x), plan)
    assert (err.value.layer, err.value.sample_index) == (2, 1)


TAG_MISMATCH = {
    "two-columns": "layer 2 returned dimension 2, but layer 1 expects eta of dimension 1",
    "tag-power-3": (r"layer 2 returned 4.40.* at sample row 2, but its PowerMaxForm "
                    r"tag gives \(max\(0, gap\)\)\^3"),
}


@pytest.mark.parametrize("family", ["uniform", "gaussian"])
@pytest.mark.parametrize("case", sorted(TAG_MISMATCH))
def test_powermax_tag_is_checked_against_its_layer(family, case):
    # a tagged layer's smoothed mean comes from its PowerMaxForm tag, so the
    # layer's evaluator, run at the row of the largest gap, must agree with
    # the tag: both specs gave a number from estimate_mixed without the check
    spec = msd()
    inner = spec.layer(2)
    if case == "two-columns":
        layer = replace(inner, evaluator=lambda eta, x: np.stack(
            [inner.evaluator(eta, x)] * 2, axis=1))
    else:
        layer = replace(inner, powermax=replace(inner.powermax, power=3.0))
    bad = replace(spec, layers=(spec.layer(1), layer, spec.layer(3)))
    s = nr.Sample(np.array([9.0, 10.5, 8.0, 12.0, 11.0]))
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    assert np.isfinite(nr.estimate_mixed(spec, s, plan).value[0])
    with pytest.raises(nr.ConfigError, match=TAG_MISMATCH[case]):
        nr.estimate_mixed(bad, s, plan)


# --- the uniform-kernel closed form, _powermax_uniform_mean(X - u, p, h) ---------

def test_powermax_single_point_at_u():
    assert _powermax_uniform_mean(np.array([0.0]), 2.0, 1.0) == pytest.approx(
        1 / 6, abs=1e-15)


def test_powermax_all_below_window():
    assert _powermax_uniform_mean(np.array([-3.0, -2.5, -4.0]), 2.0, 1.0) == 0.0


def test_powermax_hand_value():
    # ((5.1)^3 - (4.9)^3) / (2*(p+1)*h) with n=1, p=2, h=0.1
    assert _powermax_uniform_mean(np.array([5.0]), 2.0, 0.1) == pytest.approx(
        25.003333333333252, rel=1e-12)


def _split_convolution_quadrature(x, u, p, h, nodes=1000):
    """Oracle: integrate (max(0, x + z - u))^p against U(-h, h) by
    Gauss-Legendre, splitting each sample's window at its kink."""
    zn, zw = np.polynomial.legendre.leggauss(nodes // 2)
    total = 0.0
    for xi in x:
        kink = u - xi  # z at which xi + z = u
        a, b = -h, h
        pieces = []
        if a < kink < b:
            pieces = [(a, kink), (kink, b)]
        else:
            pieces = [(a, b)]
        acc = 0.0
        for lo, hi in pieces:
            z = 0.5 * (hi - lo) * zn + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * zw
            acc += np.sum(w * np.maximum(0.0, xi + z - u) ** p) / (2 * h)
        total += acc
    return total / len(x)


def test_powermax_matches_split_quadrature():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = rng.integers(1, 6)
        x = rng.normal(0.0, 2.0, size=n)
        u = rng.normal(0.0, 2.0)
        h = 10 ** rng.uniform(-3, 0.3)
        p = rng.uniform(1.01, 3.0)
        closed = _powermax_uniform_mean(x - u, p, h)
        quad = _split_convolution_quadrature(x, u, p, h)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


# --- bandwidth ------------------------------------------------------------------

def test_bandwidth_values():
    assert nr.bandwidth(nr.BandwidthSchedule("silverman"), 1, 1.0) == pytest.approx(1.06)
    assert nr.bandwidth(nr.BandwidthSchedule("power", 1.0, 0.6), 100) == pytest.approx(
        0.06309573444801933, rel=1e-14)
    # direct arithmetic: 1.06 * 3 * 200^(-1/5)
    assert nr.bandwidth(nr.BandwidthSchedule("silverman"), 200, 3.0) == pytest.approx(
        1.1021003006166827, rel=1e-14)


def test_bandwidth_monotone_in_n():
    sched = nr.BandwidthSchedule("power", 2.0, 0.51)
    hs = [nr.bandwidth(sched, n) for n in (1, 2, 10, 100, 10_000)]
    assert all(a >= b for a, b in zip(hs, hs[1:]))
    assert all(h > 0 for h in hs)


def test_silverman_degenerate_sigma_rejected():
    with pytest.raises(nr.EvaluationError):
        nr.bandwidth(nr.BandwidthSchedule("silverman"), 10, 0.0)
    # a constant sample routed through estimate_mixed hits the same guard
    s = nr.Sample(np.full(8, 2.0))
    with pytest.raises(nr.EvaluationError):
        nr.estimate_mixed(msd(), s, uniform_plan())


# --- kernels ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ["uniform", "gaussian", "epanechnikov"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_density_and_moment_invariants(family, dim):
    kernel = nr.KernelSpec(family, dim, moment_order=2.0)
    rule = kernel.convolution_rule(96)
    # density integrates to one
    total = float(np.sum(rule.weights))
    assert total == pytest.approx(1.0, abs=1e-8)
    # symmetry: first moment vector vanishes
    first = rule.weights @ rule.nodes
    np.testing.assert_allclose(first, np.zeros(dim), atol=1e-10)
    # stored p-th absolute moment matches quadrature
    mp_quad = float(rule.weights @ np.linalg.norm(rule.nodes, axis=1) ** 2.0)
    assert kernel.mp == pytest.approx(mp_quad, abs=1e-6)


def test_kernel_moment_closed_forms():
    k = nr.KernelSpec("uniform", 1, 2.0)
    assert k.m1 == pytest.approx(0.5) and k.mp == pytest.approx(1 / 3)
    k = nr.KernelSpec("epanechnikov", 1, 2.0)
    assert k.m1 == pytest.approx(3 / 8) and k.mp == pytest.approx(1 / 5)
    k = nr.KernelSpec("gaussian", 1, 2.0)
    assert k.m1 == pytest.approx(np.sqrt(2 / np.pi)) and k.mp == pytest.approx(1.0)


# --- check_strong_identity ----------------------------------------------------------

def test_identity_check_pass_and_fail_exponents():
    ok = nr.check_strong_identity(nr.BandwidthSchedule("power", 1.0, 0.6))
    assert ok.passes
    assert ok.exponent_identity == pytest.approx(-0.1)
    bad = nr.check_strong_identity(nr.BandwidthSchedule("power", 1.0, 0.2))
    assert not bad.passes
    assert bad.exponent_identity == pytest.approx(0.3)
    silver = nr.check_strong_identity(nr.BandwidthSchedule("silverman"))
    assert not silver.passes and silver.exponent_identity == pytest.approx(0.3)


def test_identity_check_degenerate_huge_gamma_passes():
    check = nr.check_strong_identity(nr.BandwidthSchedule("power", 1.0, 50.0))
    assert check.passes


# --- consistency ---------------------------------------------------------------------

def test_estimator_consistency_rate_on_normal_law():
    # median |rho_hat - rho| over 200 seeded replications should shrink by
    # at least 2.5x per decade of n (root-n rate gives ~3.16x)
    spec = msd()
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    exact = nr.eval_exact_chain(spec, oracle).value[0]
    law = nr.Normal(10.0, np.sqrt(3.0))
    medians = []
    for n in (100, 1000, 10_000):
        tab = nr.run_replications(
            lambda s: nr.estimate_empirical(spec, s).value,
            nr.SamplerConfig(law, 0), n, 200, seed=1234)
        medians.append(np.median(np.abs(tab.estimates[:, 0] - exact)))
    assert medians[0] / medians[1] >= 2.5
    assert medians[1] / medians[2] >= 2.5


# --- _powermax_tail_sums segment sums ---------------------------------------------

def _direct_tail_sums(gap, p, offsets):
    return np.array([np.sum(np.maximum(0.0, gap - t) ** p) for t in offsets])


@pytest.mark.parametrize("case", ["all_above", "all_below", "offset_on_gap",
                                  "repeated", "single"])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_tail_sums_segment_edge_cases(case, p):
    gap = np.random.default_rng(3).normal(size=40)
    if case == "all_above":           # every count is 0
        offsets = gap.max() + np.array([0.0, 0.5, 2.0])
    elif case == "all_below":         # every count is n
        offsets = gap.min() - np.array([3.0, 0.5, 1e-9])
    elif case == "offset_on_gap":     # side="right": the gap itself is not above t
        offsets = np.sort(gap)[[0, 7, 20, 39]]
    elif case == "repeated":          # equal offsets give equal counts
        offsets = np.array([-0.4, 0.1, 0.1, 0.1, 1.2, -0.4])
    else:                             # n = 1
        gap = np.array([0.7])
        offsets = np.array([-1.0, 0.0, 0.7, 0.69, 2.0])
    got = _powermax_tail_sums(gap, p, offsets)
    want = _direct_tail_sums(gap, p, offsets)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if case == "all_above":
        assert np.all(got == 0.0)


def test_tail_sums_cancellation_fallback_fires_at_p8(monkeypatch):
    # gaps bunched just above offsets far from 0: the binomial terms
    # outweigh the sum, so only the direct-sum fallback keeps the digits
    gap = 50.0 + np.random.default_rng(4).uniform(0.0, 1e-2, size=300)
    offsets = 50.0 + np.array([-1e-3, 2e-3, 5e-3, 9e-3])
    want = _direct_tail_sums(gap, 8, offsets)
    np.testing.assert_allclose(_powermax_tail_sums(gap, 8, offsets), want,
                               rtol=1e-12, atol=0.0)
    # without the limit (a negative expansion still falls back) the
    # expansion alone is wrong in every digit at some offsets
    monkeypatch.setattr(estimators, "_CANCELLATION_LIMIT", np.inf)
    expanded = _powermax_tail_sums(gap, 8, offsets)
    assert np.any(np.abs(expanded - want) > want)

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nestedrisk as nr
from nestedrisk.asymptotics import (_jacobian_means, _limit_cov, _sigma,
                                    exact_limit_variance)
from nestedrisk.core import CompositeSpec, LayerFn, _eval_layer
from nestedrisk._rng import derive_seed

from naive import linear_spec, mean_spec, stacked_covariance


def msd(kappa=0.5, p=2.0):
    return nr.make_mean_semideviation(nr.MeasureParams(kappa=kappa, p=p))


# --- _sigma: the stacked-evaluation covariance ----------------------------------

def test_sigma_constant_sample_is_zero():
    s = nr.Sample(np.full(10, 4.0))
    spec = msd()
    est = nr.estimate_empirical(spec, s)
    np.testing.assert_allclose(_sigma(spec, s.data, est), 0.0, atol=1e-14)


def test_sigma_k0_population_variance():
    s = nr.Sample(np.array([1.0, 2.0, 3.0]))
    spec = mean_spec()
    est = nr.estimate_empirical(spec, s)
    assert _sigma(spec, s.data, est)[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_sigma_matches_bruteforce_stacking():
    rng = np.random.default_rng(21)
    x = rng.normal(10, 2, size=5)
    spec = msd(0.7, 2.0)
    s = nr.Sample(x)
    est = nr.estimate_empirical(spec, s)
    naive = stacked_covariance(spec, x, est)
    np.testing.assert_allclose(_sigma(spec, s.data, est), naive,
                               rtol=1e-12, atol=1e-14)


def test_sigma_block_layout_and_symmetry():
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    spec = msd()
    s = nr.Sample(x)
    est = nr.estimate_empirical(spec, s)
    full = _sigma(spec, s.data, est)
    assert full.shape == (3, 3)
    np.testing.assert_allclose(full, full.T, atol=1e-12)
    assert np.linalg.eigvalsh(full)[0] >= -1e-9 * np.trace(full)
    # block (1, 2): the 1/n covariance of the layer-1 and layer-2 values
    f1 = _eval_layer(spec, 1, est.input_for(1), s.data)[:, 0]
    f2 = _eval_layer(spec, 2, est.input_for(2), s.data)[:, 0]
    np.testing.assert_allclose(full[0:1, 1:2],
                               [[np.cov(f1, f2, bias=True)[0, 1]]], rtol=1e-12)


def test_sigma_needs_two_observations():
    s = nr.Sample(np.array([1.0]))
    spec = mean_spec()
    est = nr.estimate_empirical(spec, s)
    with pytest.raises(nr.ConfigError, match="two observations"):
        nr.asymptotic_report(spec, s, est)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigma_overflow_raises_naming_the_layer():
    # at scale 1e100 the layer-2 values (eta - x)_+^2 reach 1e200 and their
    # Gram product overflows; eigvalsh would fail to converge on the result
    x = np.random.default_rng(8).normal(0.0, 1e100, size=200)
    s = nr.Sample(x)
    spec = msd()
    est = nr.estimate_empirical(spec, s)
    with pytest.raises(nr.EvaluationError) as info:
        nr.asymptotic_report(spec, s, est, level=0.95)
    assert info.value.layer == 2


def test_sigma_layer_major_matches_bruteforce_on_two_column_stack():
    # two mean-semideviation components over a 2-column sample: dims (2, 2, 2)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(60, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]]) + [3.0, -1.0]
    spec = nr.stack_specs([msd(0.5, 2.0), msd(0.8, 3.0)])
    assert spec.dims == (2, 2, 2)
    s = nr.Sample(x)
    est = nr.estimate_empirical(spec, s)
    full = _sigma(spec, s.data, est)
    naive = stacked_covariance(spec, x, est)
    np.testing.assert_allclose(full, naive, rtol=1e-12, atol=1e-14)
    # block (2, 3): the layer-2 coordinates 2:4 against the layer-3 ones 4:6
    np.testing.assert_allclose(full[2:4, 4:6], naive[2:4, 4:6], rtol=1e-12,
                               atol=1e-14)


def test_sigma_and_jacobians_of_three_asset_portfolio():
    kappa, p = 0.6, 2.0
    u = np.array([0.5, 0.3, 0.2])
    spec = nr.make_portfolio_semideviation(nr.MeasureParams(kappa=kappa, p=p), 3)(u)
    x = np.random.default_rng(23).normal(size=(80, 3)) + [0.1, 0.0, -0.2]
    s = nr.Sample(x)
    est = nr.estimate_empirical(spec, s)
    full = _sigma(spec, s.data, est)
    np.testing.assert_allclose(full, stacked_covariance(spec, x, est),
                               rtol=1e-12, atol=1e-14)
    # expected Jacobians written out: d f1 / d eta2 and d f2 / d eta3
    eta3 = est.input_for(2)[0]
    eta2 = est.input_for(1)[0]
    j1 = kappa / p * eta2 ** (1.0 / p - 1.0)
    j2 = np.mean(p * np.maximum(0.0, eta3 - x @ u) ** (p - 1.0))
    jmeans = _jacobian_means(spec, est, s.data)
    assert jmeans[0][0, 0] == pytest.approx(j1, rel=1e-12)
    assert jmeans[1][0, 0] == pytest.approx(j2, rel=1e-12)
    rep = nr.asymptotic_report(spec, s, est, level=0.9)
    ct = np.array([[1.0, j1, j1 * j2]])
    np.testing.assert_allclose(rep.limit_cov, ct @ full @ ct.T, rtol=1e-12)


def test_sigma_eigenvalue_clip_branch_matches_bruteforce(monkeypatch):
    # the mean-semideviation Sigma is singular (layer 1 is affine in layer 3),
    # so roundoff often leaves a tiny negative eigenvalue, clipped to zero;
    # its sign is roundoff, so ten samples make sure the branch runs
    clipped = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        clipped.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    spec = msd(0.7, 2.0)
    for seed in range(10):
        x = np.random.default_rng(seed).normal(10.0, 2.0, size=50)
        s = nr.Sample(x)
        est = nr.estimate_empirical(spec, s)
        full = _sigma(spec, s.data, est)
        naive = stacked_covariance(spec, x, est)
        np.testing.assert_allclose(full, naive, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(full, full.T)
    monkeypatch.undo()
    assert clipped and set(clipped) == {(3, 3)}


# --- _jacobian_means: the expected layer Jacobians ---------------------------------

def test_chain_identity_layers():
    eye = np.eye(2)
    spec = linear_spec([eye, eye], m=1)
    rng = np.random.default_rng(3)
    s = nr.Sample(rng.normal(size=9))
    est = nr.estimate_empirical(spec, s)
    for jmean in _jacobian_means(spec, est, s.data):
        np.testing.assert_allclose(jmean, eye, atol=1e-13)


def test_chain_linear_layers_exact_products():
    rng = np.random.default_rng(4)
    a1, a2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    spec = linear_spec([a1, a2], m=1)
    s = nr.Sample(rng.normal(size=6))
    est = nr.estimate_empirical(spec, s)
    j1, j2 = _jacobian_means(spec, est, s.data)
    np.testing.assert_allclose(j1, a1, rtol=1e-14)
    np.testing.assert_allclose(j2, a2, rtol=1e-14)
    # stacked layout C^T = (I, C_1^T, C_2^T) with C_r^T = C_{r-1}^T E[J_r],
    # matching the Sigma block layout
    ct = np.concatenate([np.eye(2), a1, a1 @ a2], axis=1)
    want = ct @ _sigma(spec, s.data, est) @ ct.T
    np.testing.assert_allclose(_limit_cov(spec, s.data, est), want,
                               rtol=1e-12, atol=1e-14)


def test_chain_mean_semideviation_outer_jacobian_formula():
    rng = np.random.default_rng(5)
    s = nr.Sample(rng.normal(10, np.sqrt(3.0), size=400))
    kappa, p = 0.5, 2.0
    spec = msd(kappa, p)
    est = nr.estimate_empirical(spec, s)
    j1 = _jacobian_means(spec, est, s.data)[0][0, 0]
    eta2 = est.input_for(1)[0]
    assert j1 == pytest.approx(kappa / p * eta2 ** (1 / p - 1), rel=1e-12)
    # finite-difference cross-check of the declared outer Jacobian
    h = 1e-6 * max(1.0, eta2)
    up = np.mean(s.data[:, 0] + kappa * (eta2 + h) ** (1 / p))
    dn = np.mean(s.data[:, 0] + kappa * (eta2 - h) ** (1 / p))
    assert j1 == pytest.approx((up - dn) / (2 * h), rel=1e-5)


def test_chain_fd_fallback_when_jacobian_missing():
    def f1(eta, x):
        return eta[0] ** 2 + 0.0 * x[:, 0]

    def f2(x):
        return x[:, 0]

    spec = CompositeSpec(1, (1, 1), (LayerFn(f1), LayerFn(f2)))
    s = nr.Sample(np.array([1.0, 3.0]))
    est = nr.estimate_empirical(spec, s)
    jmean = _jacobian_means(spec, est, s.data)[0]
    assert jmean[0, 0] == pytest.approx(2 * 2.0, rel=1e-8)


# --- the limit covariance C^T Sigma_g C ------------------------------------------------

def test_limit_variance_k0_is_sample_variance():
    s = nr.Sample(np.array([1.0, 2.0, 3.0]))
    spec = mean_spec()
    est = nr.estimate_empirical(spec, s)
    cov = nr.asymptotic_report(spec, s, est).limit_cov
    assert cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_contrast_on_two_independent_identical_components():
    # two identical components of independent identical coordinates: the
    # limit covariance is block diagonal, so the variance of the (1, -1)
    # contrast is twice the single-component limit variance
    law = nr.TwoPoint(0.0, 2.0)
    v = exact_limit_variance(msd(), law.oracle())[0, 0]
    cov = exact_limit_variance(nr.stack_specs([msd(), msd()]),
                               nr.ProductLaw((law, law)).oracle())
    w = np.array([1.0, -1.0])
    assert w @ cov @ w == pytest.approx(2 * v, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: nr.confidence_interval(np.array([1.0, 2.0]), np.eye(3), 10, 0.95),
    lambda: nr.confidence_interval(np.array([1.0]), np.eye(1), 0, 0.95),
    lambda: nr.confidence_interval(np.array([1.0]), np.eye(1), -3, 0.95),
    lambda: exact_limit_variance(msd(), None),
], ids=["interval-size", "interval-n-zero", "interval-n-negative", "no-oracle"])
def test_mismatched_inputs_raise_config_error(call):
    with pytest.raises(nr.ConfigError):
        call()


# --- confidence_interval --------------------------------------------------------------

def test_interval_zero_variance():
    s = nr.Sample(np.full(5, 2.0))
    spec = mean_spec()
    est = nr.estimate_empirical(spec, s)
    rep = nr.asymptotic_report(spec, s, est, level=0.95)
    lo, hi = rep.intervals[0]
    assert lo == hi == pytest.approx(2.0)


def test_interval_half_widths():
    spec = mean_spec()
    s = nr.Sample(np.array([0.0, 1.0]))
    est = nr.estimate_empirical(spec, s)
    cov = np.array([[4.0]])
    lo, hi = nr.confidence_interval(est.value, cov, 100, 0.95)[0]
    assert (hi - lo) / 2 == pytest.approx(1.959963984540054 * 0.2, rel=1e-9)
    lo, hi = nr.confidence_interval(est.value, cov, 100, 0.5)[0]
    assert (hi - lo) / 2 == pytest.approx(0.6744897501960817 * 0.2, rel=1e-9)


def test_interval_level_validation():
    spec = mean_spec()
    s = nr.Sample(np.array([0.0, 1.0]))
    est = nr.estimate_empirical(spec, s)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(nr.ConfigError):
            nr.confidence_interval(est.value, np.array([[1.0]]), 10, bad)


def test_exact_limit_variance_matches_plugin_at_scale():
    spec = msd()
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    exact = exact_limit_variance(spec, oracle)[0, 0]
    s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, np.sqrt(3.0)), 11), 200_000)
    est = nr.estimate_empirical(spec, s)
    rep = nr.asymptotic_report(spec, s, est)
    assert rep.limit_cov[0, 0] == pytest.approx(exact, rel=0.02)


def _ho(c, p, u):
    return nr.make_higher_order_family(nr.MeasureParams(c=c, p=p))(u)


def _n3():
    return nr.Normal(10.0, np.sqrt(3.0)).oracle()


# values recorded before the layer-major rewrite of the stacked evaluations
@pytest.mark.parametrize("make, want", [
    (lambda: (msd(0.5, 2.0), _n3()), [[3.2300175853619737]]),
    (lambda: (msd(1.0, 3.0), _n3()), [[5.07799539086295]]),
    (lambda: (msd(0.5, 2.0), nr.Uniform(0.0, 4.0).oracle()), [[1.583290811898619]]),
    (lambda: (_ho(4.0, 3.0, 11.0), _n3()), [[52.37587346327594]]),
    (lambda: (nr.stack_specs([msd(0.5, 2.0), _ho(4.0, 2.0, 11.0)]),
              nr.ProductLaw((nr.Normal(10.0, np.sqrt(3.0)),
                             nr.Normal(20.0, np.sqrt(5.0)))).oracle(2000)),
     [[3.2300175853678614, 0.0], [0.0, 77.67453956925885]]),
], ids=["msd-normal", "msd-p3-normal", "msd-uniform", "higher-order-p3", "stack"])
def test_exact_limit_variance_pinned_values(make, want):
    spec, oracle = make()
    # the off-diagonal of independent components is roundoff (about 3e-11)
    np.testing.assert_allclose(exact_limit_variance(spec, oracle), want,
                               rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("mu", [1e4, 1e6])
def test_exact_limit_variance_is_translation_invariant(mu):
    # mean-semideviation's limit variance does not depend on the location;
    # a second moment minus the squared mean would cancel it away at 1e6
    want = exact_limit_variance(msd(0.5, 2.0), nr.Normal(0.0, np.sqrt(3.0)).oracle())
    got = exact_limit_variance(msd(0.5, 2.0), nr.Normal(mu, np.sqrt(3.0)).oracle())
    np.testing.assert_allclose(got, want, rtol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_constant_sample_raises_at_layer_one():
    # a constant sample has no lower semideviation, so the outer root
    # eta^(1/p) has an infinite derivative at the plug-in chain point
    s = nr.Sample(np.full(10, 4.0))
    spec = msd()
    est = nr.estimate_empirical(spec, s)
    with pytest.raises(nr.EvaluationError) as info:
        nr.asymptotic_report(spec, s, est, level=0.95)
    assert info.value.layer == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_limit_variance_degenerate_tail_raises():
    # u = 200 lies far beyond N(10, 3): E[(X - u)_+^2] = 0 and the gradient
    # of u + c * eta^(1/2) is singular
    spec = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))(200.0)
    with pytest.raises(nr.EvaluationError) as info:
        exact_limit_variance(spec, nr.Normal(10.0, np.sqrt(3.0)).oracle())
    assert info.value.layer == 1


def test_plugin_paths_reject_a_sample_of_another_dimension():
    # the covariance and the expected Jacobians check the sample against
    # the spec, as the chain does, instead of reading its first column
    spec = _ho(20.0, 2.0, 15.0)
    law = nr.parse_law(f"normal:10,{np.sqrt(3.0)}*normal:20,{np.sqrt(5.0)}")
    s = nr.sample(nr.SamplerConfig(law, 7), 200)
    est = nr.estimate_empirical(spec, nr.Sample(s.data[:, 0]))
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        _sigma(spec, s.data, est)
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        _jacobian_means(spec, est, s.data)
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        nr.asymptotic_report(spec, s, est)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_limit_variance_overflow_raises_naming_the_layer():
    # at p = 100 on N(0, 10) the layer-2 variance E[(eta - X)_+^200]
    # overflows; the plug-in covariance of a sample fails the same way
    spec = msd(0.5, 100.0)
    with pytest.raises(nr.EvaluationError) as info:
        exact_limit_variance(spec, nr.Normal(0.0, 10.0).oracle())
    assert info.value.layer == 2
    s = nr.sample(nr.SamplerConfig(nr.Normal(0.0, 10.0), 1), 200)
    with pytest.raises(nr.EvaluationError) as info:
        nr.asymptotic_report(spec, s, nr.estimate_empirical(spec, s))
    assert info.value.layer == 2


@given(kind=st.sampled_from(["msd", "ho", "portfolio", "stack"]),
       n=st.integers(50, 1123), p=st.sampled_from([1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_equal_weight_rule_equals_the_sample(kind, n, p, seed):
    # the sample is the law whose rule puts weight 1/n on each row, so the
    # exact paths over that rule reproduce the plug-in ones
    m = {"portfolio": 3, "stack": 2}.get(kind, 1)
    x = np.random.default_rng(seed).normal(10.0, np.sqrt(3.0), (n, m))
    s = nr.Sample(x)
    spec = {"msd": lambda: msd(0.5, p),
            "ho": lambda: _ho(20.0, p, float(np.quantile(x, 0.9))),
            "portfolio": lambda: nr.make_portfolio_semideviation(
                nr.MeasureParams(kappa=0.6, p=p), 3)(np.array([0.5, 0.3, 0.2])),
            "stack": lambda: nr.stack_specs([msd(0.5, p), msd(0.8, 3.0)])}[kind]()
    oracle = nr.QuadratureRule(s.data, np.full(n, 1.0 / n))
    est = nr.estimate_empirical(spec, s)
    np.testing.assert_allclose(est.value, nr.eval_exact_chain(spec, oracle).value,
                               rtol=1e-12)
    got = nr.asymptotic_report(spec, s, est).limit_cov
    want = exact_limit_variance(spec, oracle)
    # a stack's off-diagonal may be roundoff-sized, so the whole matrix is
    # compared on its own scale and the variances each on theirs
    np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# --- Monte Carlo validation ------------------------------------------------------------

def test_k0_limit_variance_matches_replication_variance():
    # variance of sqrt(n)(rho_hat - rho) over 2000 replications at n=200
    # within 10% of the averaged plug-in limit variance
    spec = mean_spec()
    law = nr.Normal(0.0, 1.0)
    R, n = 2000, 200
    errs = np.empty(R)
    vs = np.empty(R)
    for r in range(R):
        s = nr.sample(nr.SamplerConfig(law, derive_seed(31, r)), n)
        est = nr.estimate_empirical(spec, s)
        errs[r] = np.sqrt(n) * est.value[0]
        vs[r] = nr.asymptotic_report(spec, s, est).limit_cov[0, 0]
    assert abs(errs.var(ddof=1) / vs.mean() - 1.0) < 0.10


def test_mean_semideviation_clt_ks():
    # standardized errors at n=200 over 1000 replications: KS vs N(0,1) < 0.06
    spec = msd()
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    exact = nr.eval_exact_chain(spec, oracle).value[0]
    law = nr.Normal(10.0, np.sqrt(3.0))
    R, n = 1000, 200
    z = np.empty(R)
    for r in range(R):
        s = nr.sample(nr.SamplerConfig(law, derive_seed(77, r)), n)
        est = nr.estimate_empirical(spec, s)
        rep = nr.asymptotic_report(spec, s, est)
        z[r] = np.sqrt(n) * (est.value[0] - exact) / np.sqrt(rep.limit_cov[0, 0])
    assert nr.ks_distance(z, 0.0, 1.0) < 0.06


def test_psd_preserved_under_congruence():
    rng = np.random.default_rng(14)
    s = nr.Sample(rng.normal(10, 1.5, size=60))
    spec = msd()
    est = nr.estimate_empirical(spec, s)
    rep = nr.asymptotic_report(spec, s, est)
    assert np.linalg.eigvalsh(np.atleast_2d(rep.limit_cov))[0] >= -1e-12

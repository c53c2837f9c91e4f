import warnings
from dataclasses import replace

import numpy as np
import pytest

import nestedrisk as nr
from nestedrisk.core import CompositeSpec, LayerFn, _eval_layer

from naive import linear_spec, mean_spec, nested_empirical


def _two_column_inner_spec():
    # f2 returns dimension 2 but f1 expects eta of dimension 1; f1 reads
    # eta[0] only, so without a shape check every path returns a number
    def f1(eta, x):
        return x[:, 0] + eta[0]

    def f2(x):
        return np.stack([x[:, 0], x[:, 0]], axis=1)

    return CompositeSpec(1, (1, 1), (LayerFn(f1), LayerFn(f2)))


def _one_row_outer_spec():
    # f1 returns one row whatever the number of points
    return CompositeSpec(1, (1, 1), (LayerFn(lambda eta, x: np.atleast_2d(eta)),
                                     LayerFn(lambda x: x[:, 0])))


def _shifted_rows(spec):
    # the innermost layer declares no power-max form, so smoothing it
    # evaluates it on the kernel-shifted sample rows
    return nr.SmoothingPlan({spec.k + 1}, nr.KernelSpec("gaussian"),
                            nr.BandwidthSchedule("power", 1.0, 0.51))


_PATHS = {
    "empirical": lambda spec: nr.estimate_empirical(spec, nr.Sample(np.arange(5.0))),
    "exact-chain": lambda spec: nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 2.0).oracle()),
    "exact-variance": lambda spec: nr.exact_limit_variance(
        spec, nr.TwoPoint(0.0, 2.0).oracle()),
    "mixed-shifted-rows": lambda spec: nr.estimate_mixed(
        spec, nr.Sample(np.arange(5.0)), _shifted_rows(spec)),
}


@pytest.mark.parametrize("path", list(_PATHS))
@pytest.mark.parametrize("spec, message", [
    (_two_column_inner_spec,
     "layer 2 returned dimension 2, but layer 1 expects eta of dimension 1"),
    (_one_row_outer_spec, r"layer 1 returned shape \(1, 1\) for \d+ points"),
], ids=["two-column-inner", "one-row-outer"])
def test_layer_output_of_another_shape_raises_naming_the_layer(spec, message, path):
    with pytest.raises(nr.ConfigError, match=message):
        _PATHS[path](spec())


@pytest.mark.parametrize("path", list(_PATHS))
def test_factory_and_k0_specs_pass_the_layer_check(path):
    for spec in (nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0)),
                 mean_spec()):
        out = _PATHS[path](spec)
        assert np.all(np.isfinite(getattr(out, "value", out)))


def test_exact_chain_point_mass():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    oracle = nr.QuadratureRule([[3.0]], [1.0])
    chain = nr.eval_exact_chain(spec, oracle)
    assert chain.value[0] == pytest.approx(3.0, abs=1e-14)


def test_exact_chain_two_point():
    # hand evaluation over the two atoms: E=1, inner=0.5, 1 + 0.5*sqrt(0.5)
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    chain = nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 2.0).oracle())
    assert chain.value[0] == pytest.approx(1.3535533905932737, abs=1e-14)


def test_exact_chain_higher_order_objective_at_fixed_u():
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    chain = nr.eval_exact_chain(fam(14.5048), oracle)
    assert chain.value[0] == pytest.approx(15.5163, abs=1e-3)


def test_exact_chain_reports_nonfinite_layer():
    def f1(x):
        out = x[:, 0].copy()
        out[:] = np.inf
        return out

    spec = CompositeSpec(1, (1,), (LayerFn(f1),))
    with pytest.raises(nr.EvaluationError) as err:
        nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 1.0).oracle())
    assert err.value.layer == 1


def test_exact_chain_rejects_an_oracle_of_another_dimension():
    # a two-dimensional product rule under a one-dimensional spec is
    # rejected, not read through its first column
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    oracle = nr.ProductLaw((nr.Normal(10.0, np.sqrt(3.0)),
                            nr.Normal(20.0, np.sqrt(5.0)))).oracle(1000)
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        nr.eval_exact_chain(fam(15.0), oracle)
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        nr.exact_limit_variance(fam(15.0), oracle)
    one = nr.Normal(10.0, np.sqrt(3.0)).oracle(100)
    chain = nr.eval_exact_chain(fam(15.0), one)
    with pytest.raises(nr.ConfigError, match="dimension 2"):
        nr.propagate_direction(fam(15.0), chain, oracle,
                               (np.zeros(1), np.ones(1)))


def test_k0_chain_is_plain_mean():
    oracle = nr.QuadratureRule([[1.0], [2.0], [6.0]], [0.25, 0.25, 0.5])
    chain = nr.eval_exact_chain(mean_spec(), oracle)
    assert chain.value[0] == pytest.approx(0.25 * 1 + 0.25 * 2 + 0.5 * 6, abs=1e-15)


def test_sequential_nesting_equivalence_on_discrete_oracle():
    # exact chain with the empirical law as P equals the nested sums
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.3, p=2.5))
    x = np.array([0.4, 1.7, 2.2, 3.9, 0.9])
    oracle = nr.QuadratureRule(x[:, None], np.full(5, 0.2))
    chain = nr.eval_exact_chain(spec, oracle)
    assert chain.value[0] == pytest.approx(nested_empirical(spec, x)[0], rel=1e-13)


# --- propagate_direction -----------------------------------------------------

def test_propagate_k0_base_case():
    spec = mean_spec()
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    xi = nr.propagate_direction(spec, chain, oracle, (np.array([2.5]),))
    assert xi[0] == pytest.approx(2.5, abs=1e-15)


def test_propagate_linear_layers_matches_matrix_expansion():
    rng = np.random.default_rng(5)
    a1 = rng.normal(size=(2, 2))
    a2 = rng.normal(size=(2, 2))
    spec = linear_spec([a1, a2], m=1)
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    d1, d2, d3 = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
    xi = nr.propagate_direction(spec, chain, oracle, (d1, d2, d3))
    # brute-force expansion of the recursion: xi1 = d1 + A1 d2 + A1 A2 d3
    expected = d1 + a1 @ d2 + a1 @ (a2 @ d3)
    np.testing.assert_allclose(xi, expected, rtol=1e-12)


def test_propagate_linear_in_direction():
    rng = np.random.default_rng(11)
    a1, a2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    spec = linear_spec([a1, a2], m=1)
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    d = tuple(rng.normal(size=2) for _ in range(3))
    e = tuple(rng.normal(size=2) for _ in range(3))
    alpha, beta = 1.7, -0.4
    mix = tuple(alpha * di + beta * ei for di, ei in zip(d, e))
    lhs = nr.propagate_direction(spec, chain, oracle, mix)
    rhs = (alpha * nr.propagate_direction(spec, chain, oracle, d)
           + beta * nr.propagate_direction(spec, chain, oracle, e))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_propagate_rejects_malformed_directions():
    spec = linear_spec([np.eye(2), np.eye(2)], m=1)
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    two, three = np.ones(2), np.ones(3)
    for d, match in [((two, two), "3 entries"),
                     ((two, two, three), r"d_\{k\+1\}"),
                     ((two, three, two), "entry 2")]:
        with pytest.raises(nr.ConfigError, match=match):
            nr.propagate_direction(spec, chain, oracle, d)


def _bumped(spec, j, eps):
    # layer j's output shifted by the constant eps in every coordinate
    layer = spec.layer(j)
    shifted = replace(layer, evaluator=lambda *args: layer.evaluator(*args) + eps,
                      powermax=None)
    return replace(spec, layers=spec.layers[:j - 1] + (shifted,) + spec.layers[j:])


_MSD = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
_PROPAGATION_CASES = {
    "msd": (_MSD, nr.Normal(10.0, np.sqrt(3.0))),
    # the two-level component is padded with an identity layer outermost
    "padded": (nr.stack_specs([_MSD, nr.make_higher_order_family(
        nr.MeasureParams(c=20.0, p=2.0))(22.0)]),
        nr.ProductLaw((nr.Normal(10.0, np.sqrt(3.0)), nr.Normal(20.0, np.sqrt(5.0))))),
}


@pytest.mark.parametrize("case, j", [(case, j) for case in _PROPAGATION_CASES
                                     for j in (1, 2, 3)],
                         ids=[f"{case}-d{j}" for case in _PROPAGATION_CASES
                              for j in (1, 2, 3)])
def test_propagate_unit_direction_matches_finite_difference(case, j):
    # shifting layer j by a constant eps moves the value by about
    # C_{j-1}^T eps, block j of the chain matrix (the identity for j = 1);
    # compare that with central differences of the exact chain
    spec, law = _PROPAGATION_CASES[case]
    oracle = law.oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    direction = [np.zeros(d) for d in spec.dims]
    direction[j - 1] = np.ones(spec.dims[j - 1])
    xi = nr.propagate_direction(spec, chain, oracle, direction)
    eps = 1e-6
    fd = (nr.eval_exact_chain(_bumped(spec, j, eps), oracle).value
          - nr.eval_exact_chain(_bumped(spec, j, -eps), oracle).value) / (2.0 * eps)
    np.testing.assert_allclose(xi, fd, rtol=1e-6)


def test_propagate_over_a_sample_rule_estimates_the_exact_direction():
    # the sample's empirical measure, a rule with weights 1/n, estimates
    # the exact propagation of the innermost direction
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    chain = nr.eval_exact_chain(_MSD, oracle)
    direction = (np.zeros(1), np.zeros(1), np.ones(1))
    xi = nr.propagate_direction(_MSD, chain, oracle, direction)
    s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, np.sqrt(3.0)), 3), 4000)
    sample_rule = nr.QuadratureRule(s.data, np.full(s.n, 1.0 / s.n))
    xi_n = nr.propagate_direction(_MSD, chain, sample_rule, direction)
    assert xi[0] == pytest.approx(xi_n[0], rel=0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_singular_gradient_raises_naming_the_layer():
    # u = 200 lies far beyond N(10, 3): E[(X - u)_+^2] = 0 and the gradient
    # of u + c * eta^(1/2) is singular, as exact_limit_variance reports
    spec = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))(200.0)
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    with pytest.raises(nr.EvaluationError) as err:
        nr.propagate_direction(spec, chain, oracle,
                               (np.zeros(1), np.ones(1)))
    assert err.value.layer == 1


def test_propagate_without_declared_jacobian_uses_finite_differences():
    # f1 = eta + x declares no jacobian_eta, so its expected Jacobian is the
    # central difference, 1 up to roundoff for a layer affine in eta
    def f1(eta, x):
        return eta[0] + x[:, 0]

    def f2(x):
        return x[:, 0]

    spec = CompositeSpec(1, (1, 1), (LayerFn(f1), LayerFn(f2)))
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    xi = nr.propagate_direction(spec, chain, oracle, (np.zeros(1), np.ones(1)))
    assert xi[0] == pytest.approx(1.0, rel=1e-9)
    # stacked, the spec's layer 1 still declares none, so the stacked
    # layer takes central differences too, one unit per component
    stacked = nr.stack_specs([spec, spec])
    pair = nr.ProductLaw((nr.TwoPoint(0.0, 1.0),) * 2).oracle()
    xi = nr.propagate_direction(stacked, nr.eval_exact_chain(stacked, pair), pair,
                                (np.zeros(2), np.ones(2)))
    np.testing.assert_allclose(xi, [1.0, 1.0], rtol=1e-9)


# --- Jacobian consistency ----------------------------------------------------

# eta ranges per layer with a declared Jacobian: a root's argument stays
# positive, a semideviation's mean ranges over both signs
_MSD_BOXES = {1: (np.array([1e-2]), np.array([50.0])),
              2: (np.array([-25.0]), np.array([25.0]))}


@pytest.mark.parametrize("factory", [
    lambda: (nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0)), _MSD_BOXES),
    lambda: (nr.make_mean_semideviation(nr.MeasureParams(kappa=0.9, p=3.0)), _MSD_BOXES),
    lambda: (nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))(14.5),
             {1: (np.array([1e-3]), np.array([10.0]))}),
])
def test_declared_jacobians_match_central_differences(factory):
    spec, boxes = factory()
    rng = np.random.default_rng(42)
    x = rng.normal(10.0, 2.0, size=(100, spec.m))
    assert sorted(boxes) == [j for j in range(1, spec.k + 1)
                             if spec.layer(j).jacobian_eta is not None]
    for j, (lo, hi) in boxes.items():
        layer = spec.layer(j)
        for _ in range(100):
            eta = lo + (hi - lo) * rng.random(len(np.atleast_1d(lo)))
            declared = layer.jacobian_eta(eta, x)
            h = np.maximum(1e-6, 1e-6 * np.abs(eta))
            fd = np.empty_like(np.broadcast_to(declared, (100, 1, len(eta))).copy())
            for c in range(len(eta)):
                ep, em = eta.copy(), eta.copy()
                ep[c] += h[c]
                em[c] -= h[c]
                fd[:, :, c] = (_eval_layer(spec, j, ep, x)
                               - _eval_layer(spec, j, em, x)) / (2 * h[c])
            np.testing.assert_allclose(
                np.broadcast_to(declared, fd.shape), fd, rtol=1e-5, atol=1e-9)


def test_composite_spec_invariants():
    layer = LayerFn(lambda x: x[:, 0])
    spec = CompositeSpec(2, (3, 1), (layer, layer))
    assert (spec.k, spec.m0) == (1, 3)
    with pytest.raises(nr.ConfigError, match="dims"):
        CompositeSpec(1, (), ())              # no output dimension
    with pytest.raises(nr.ConfigError, match="dims"):
        CompositeSpec(1, (1, 0), (layer, layer))   # zero dimension
    with pytest.raises(nr.ConfigError, match="sample dimension"):
        CompositeSpec(0, (1,), (layer,))      # bad sample dim
    with pytest.raises(nr.ConfigError, match="expected 2 layers, got 3"):
        CompositeSpec(1, (1, 1), (layer,) * 3)  # one layer per dimension


_PRODUCT = nr.ProductLaw((nr.Normal(-4.0, 2.5), nr.Uniform(-1.0, 3.0)))


@pytest.mark.parametrize("law, j", [
    (nr.Normal(10.0, np.sqrt(3.0)), 0), (nr.Uniform(-1.0, 3.0), 0),
    (nr.TwoPoint(0.0, 2.0, 0.3), 0), (_PRODUCT, 0), (_PRODUCT, 1),
], ids=["normal", "uniform", "two-point", "product-coord0", "product-coord1"])
def test_law_oracle_agrees_with_law_moments(law, j):
    # exact values integrate against the law that harness.sample draws from
    rule = law.oracle()
    ex, ex2 = rule.weights @ rule.nodes[:, j], rule.weights @ rule.nodes[:, j] ** 2
    mean, var = (law.laws[j] if isinstance(law, nr.ProductLaw) else law).moments()
    assert ex == pytest.approx(mean, rel=1e-9)
    assert ex2 - ex ** 2 == pytest.approx(var, rel=1e-9)


@pytest.mark.parametrize("weights", [[1.0, 1.0], [-0.5, 1.5], [np.nan, 1.0],
                                     [np.inf, -np.inf]])
def test_quadrature_rule_rejects_weights_that_are_not_a_law(weights):
    # a rule is the oracle: weights summing to 2 would double every mean
    with pytest.raises(nr.ConfigError):
        nr.QuadratureRule([[0.0], [2.0]], weights)


def _raises(eta, x):
    raise ValueError("no value here")


def _three_levels(u):
    return nr.make_mean_semideviation(nr.MeasureParams())


def _three_level_problem():
    # the optimal-value variance is defined for two-level families only
    return nr.ScalarProblem(_three_levels, (0.0, 1.0),
                            oracle=nr.TwoPoint(0.0, 2.0).oracle())


@pytest.mark.parametrize("build", [
    lambda: CompositeSpec(1, (), ()),
    lambda: CompositeSpec(1, (1, 1), (LayerFn(_raises),)),
    lambda: nr.QuadratureRule([[0.0], [1.0], [2.0]], [0.5, 0.5]),
    lambda: nr.ProductLaw(()),
    lambda: nr.sample(nr.SamplerConfig(nr.Normal(0.0, 1.0)), 0),
    lambda: nr.ProductLaw((nr.Normal(0.0, 1.0),) * 4).oracle(),
    lambda: nr.KernelSpec("gaussian", 5),
    lambda: nr.KernelSpec("triangular"),
    lambda: nr.BandwidthSchedule("scott"),
    lambda: nr.BandwidthSchedule("silverman", 5.0),
    lambda: nr.BandwidthSchedule("silverman", exponent=0.3),
    lambda: nr.bandwidth(nr.BandwidthSchedule("power"), 0),
    lambda: nr.Sample(np.empty((0, 1))),
    lambda: nr.Sample([1.0, np.nan]),
    lambda: nr.KernelSpec("gaussian", 1, 400.0),
    lambda: nr.KernelSpec("gaussian", 2, 400.0),
    lambda: nr.ks_distance(np.array([0.0, 1.0]), 0.0, 0.0),
    lambda: nr.stack_specs([]),
    lambda: nr.SystemicSpec((0.5, 0.5)).aggregate([1.0]),
    lambda: nr.ScalarProblem(_three_levels, (0.0, 1.0), "bootstrap"),
    lambda: nr.optimal_value_clt_variance(_three_level_problem(), None, 0.5),
    lambda: nr.optimal_value_limit_covariance(
        [_three_level_problem()], [0.5], nr.Sample(np.arange(3.0))),
], ids=["empty-dims", "layer-count", "rule-lengths", "empty-product-law",
        "empty-sample", "product-law-oracle-100^4-nodes",
        "gaussian-kernel-64^5-nodes", "kernel-family", "bandwidth-rule",
        "silverman-scale", "silverman-exponent",
        "bandwidth-n-0", "sample-without-rows", "sample-nan",
        "gaussian-moment-order-400", "gaussian-2d-moment-order-400",
        "ks-zero-variance", "stack-no-components", "systemic-value-length",
        "objective-source", "variance-three-levels", "joint-three-levels"])
def test_malformed_inputs_raise_config_error(build):
    # the error comes first: no numpy warning (say, a moment's overflow) ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nr.ConfigError):
            build()


def test_a_layer_that_raises_raises_where_it_is_evaluated():
    # no probe evaluates layers ahead of the estimate; the layer's own error
    # comes out of the first path that runs it
    spec = CompositeSpec(1, (1, 1), (LayerFn(_raises), LayerFn(lambda x: x[:, 0])))
    with pytest.raises(ValueError, match="no value here"):
        nr.estimate_empirical(spec, nr.Sample(np.arange(3.0)))

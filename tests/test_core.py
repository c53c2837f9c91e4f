import numpy as np
import pytest

import nestedrisk as nr
from nestedrisk.core import CompositeSpec, DimSignature, LayerFn, _eval_layer

from naive import linear_spec, mean_spec, nested_empirical


def test_validate_factory_spec_ok():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    result = nr.validate_spec(spec)
    assert result.ok and not result.mismatches


def test_validate_reports_mismatched_pair():
    # f2 returns dimension 2 but f1 expects eta of dimension 1
    def f1(eta, x):
        return x[:, 0] + eta[0]

    def f2(x):
        return np.stack([x[:, 0], x[:, 0]], axis=1)

    spec = CompositeSpec(DimSignature(1, 1, (1, 1)),
                         (LayerFn(1, f1), LayerFn(2, f2)))
    result = nr.validate_spec(spec)
    assert not result.ok
    assert any(m.pair == (1, 2) and m.expected == 1 and m.actual == 2
               for m in result.mismatches)


def test_validate_degenerate_k0():
    assert nr.validate_spec(mean_spec()).ok


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

    spec = CompositeSpec(DimSignature(1, 0, (1,)), (LayerFn(1, f1),))
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


def test_propagate_inner_unit_direction_matches_finite_difference():
    # perturbing the innermost layer by a constant eps shifts the value by
    # roughly E[J1] E[J2] eps; compare against that finite-difference oracle
    params = nr.MeasureParams(kappa=0.5, p=2.0)
    spec = nr.make_mean_semideviation(params)
    oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    zero = np.zeros(1)
    xi = nr.propagate_direction(
        spec, chain, oracle, (zero, zero, np.array([1.0])))

    eps = 1e-6
    shifted = nr.make_mean_semideviation(params)
    bumped = CompositeSpec(
        shifted.signature,
        shifted.layers[:2] + (LayerFn(3, lambda x: x[:, 0] + eps),),
        "bumped")
    fd = (nr.eval_exact_chain(bumped, oracle).value[0] - chain.value[0]) / eps
    assert xi[0] == pytest.approx(fd, rel=1e-5)

    # the sample's empirical measure, a rule with weights 1/n, estimates it
    s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, np.sqrt(3.0)), 3), 4000)
    sample_rule = nr.QuadratureRule(s.data, np.full(s.n, 1.0 / s.n))
    xi_n = nr.propagate_direction(spec, chain, sample_rule,
                                  (zero, zero, np.array([1.0])))
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

    spec = CompositeSpec(DimSignature(1, 1, (1, 1)),
                         (LayerFn(1, f1), LayerFn(2, f2)))
    oracle = nr.TwoPoint(0.0, 1.0).oracle()
    chain = nr.eval_exact_chain(spec, oracle)
    xi = nr.propagate_direction(spec, chain, oracle, (np.zeros(1), np.ones(1)))
    assert xi[0] == pytest.approx(1.0, rel=1e-9)


# --- Jacobian consistency ----------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda: nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0)),
    lambda: nr.make_mean_semideviation(nr.MeasureParams(kappa=0.9, p=3.0)),
    lambda: nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))(14.5),
])
def test_declared_jacobians_match_central_differences(factory):
    spec = factory()
    rng = np.random.default_rng(42)
    x = rng.normal(10.0, 2.0, size=(100, spec.m))
    for j in range(1, spec.k + 1):
        layer = spec.layer(j)
        if layer.jacobian_eta is None:
            continue
        lo, hi = layer.eta_box if layer.eta_box is not None \
            else (np.full(spec.signature.dims[j], 0.1),
                  np.full(spec.signature.dims[j], 10.0))
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


def test_dim_signature_invariants():
    with pytest.raises(nr.ConfigError):
        DimSignature(1, 2, (1, 1))   # wrong length
    with pytest.raises(nr.ConfigError):
        DimSignature(1, 1, (1, 0))   # zero dimension
    with pytest.raises(nr.ConfigError):
        DimSignature(0, 0, (1,))     # bad sample dim


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


def _raises_at_probe(eta, x):
    raise ValueError("no value at the probe")


@pytest.mark.parametrize("build", [
    lambda: DimSignature(1, -1, ()),
    lambda: CompositeSpec(DimSignature(1, 1, (1, 1)), (LayerFn(1, _raises_at_probe),)),
    lambda: nr.QuadratureRule([[0.0], [1.0], [2.0]], [0.5, 0.5]),
    lambda: nr.ProductLaw(()),
    lambda: nr.sample(nr.SamplerConfig(nr.Normal(0.0, 1.0)), 0),
], ids=["negative-depth", "layer-count", "rule-lengths", "empty-product-law",
        "empty-sample"])
def test_malformed_inputs_raise_config_error(build):
    with pytest.raises(nr.ConfigError):
        build()


def test_validate_reports_a_layer_that_raises_at_the_probe():
    spec = CompositeSpec(DimSignature(1, 1, (1, 1)),
                         (LayerFn(1, _raises_at_probe), LayerFn(2, lambda x: x[:, 0])))
    result = nr.validate_spec(spec)
    assert not result.ok
    (bad,) = result.mismatches
    assert bad.pair == (0, 1) and bad.actual == -1
    assert "no value at the probe" in bad.message

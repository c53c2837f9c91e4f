import json

import numpy as np
import pytest

import nestedrisk as nr
from nestedrisk.asymptotics import exact_limit_variance


SQ3 = np.sqrt(3.0)
SQ5 = np.sqrt(5.0)


# --- mean-semideviation factory --------------------------------------------------

def test_kappa_zero_reduces_to_expectation():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.0, p=2.0))
    for oracle, mean in [(nr.TwoPoint(0.0, 2.0).oracle(), 1.0),
                         (nr.Normal(7.0, 2.0).oracle(), 7.0),
                         (nr.Uniform(0.0, 4.0).oracle(), 2.0)]:
        assert nr.eval_exact_chain(spec, oracle).value[0] == pytest.approx(
            mean, abs=1e-9)


def test_two_point_value():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    value = nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 2.0).oracle()).value[0]
    assert value == pytest.approx(1.3535533905932737, abs=1e-14)


def test_half_normal_second_moment():
    # kappa=1, p=2 on N(0,1): sqrt(E[max(0,-X)^2]) = sqrt(1/2)
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=1.0, p=2.0))
    value = nr.eval_exact_chain(spec, nr.Normal(0.0, 1.0).oracle()).value[0]
    assert value == pytest.approx(0.7071067811865476, abs=1e-8)


def test_mean_semideviation_rejects_p_equal_one():
    with pytest.raises(nr.ConfigError):
        nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=1.0))


def test_params_validation():
    with pytest.raises(nr.ConfigError):
        nr.MeasureParams(kappa=1.5)
    with pytest.raises(nr.ConfigError):
        nr.MeasureParams(p=0.5)
    with pytest.raises(nr.ConfigError):
        nr.MeasureParams(c=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: nr.HigherOrderFamily(0.5, 2.0), "higher-order scale c must exceed 1"),
    (lambda: nr.HigherOrderFamily(np.nan, 2.0), "higher-order scale c must exceed 1"),
    (lambda: nr.HigherOrderFamily(20.0, 0.5), "order p must be >= 1"),
    (lambda: nr.PortfolioFamily(1.5, 2.0, 1), "kappa must lie in [0, 1]"),
    (lambda: nr.PortfolioFamily(0.5, 1.0, 1), "portfolio factory requires p > 1"),
    (lambda: nr.PortfolioFamily(0.5, 2.0, 0), "portfolio dimension must be >= 1"),
], ids=["ho-c-below-1", "ho-c-nan", "ho-p-below-1", "portfolio-kappa",
        "portfolio-p-1", "portfolio-m-0"])
def test_families_built_directly_check_their_parameters(build, message):
    # c <= 1 puts the optimum at the bracket end, p < 1 is no norm, and at
    # p = 1 the portfolio's layer-2 Jacobian reads 0.0**0 = 1 on every row
    with pytest.raises(nr.ConfigError) as info:
        build()
    assert str(info.value) == message


# --- coherence properties on discrete laws ----------------------------------------

def _discrete(xs, ws=None):
    xs = np.asarray(xs, dtype=float)
    ws = np.full(len(xs), 1.0 / len(xs)) if ws is None else np.asarray(ws)
    return nr.QuadratureRule(xs[:, None], ws)


def test_translation_property():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.7, p=2.0))
    xs = np.array([0.2, 1.4, 3.3, -0.7])
    base = nr.eval_exact_chain(spec, _discrete(xs)).value[0]
    for a in (-2.0, 0.5, 10.0):
        shifted = nr.eval_exact_chain(spec, _discrete(xs + a)).value[0]
        assert shifted == pytest.approx(base + a, abs=1e-12)


def test_positive_homogeneity():
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.7, p=2.0))
    xs = np.array([0.2, 1.4, 3.3, -0.7])
    base = nr.eval_exact_chain(spec, _discrete(xs)).value[0]
    for lam in (0.25, 2.0, 13.0):
        scaled = nr.eval_exact_chain(spec, _discrete(lam * xs)).value[0]
        assert scaled == pytest.approx(lam * base, abs=1e-12)


def test_kappa_monotonicity():
    xs = np.array([0.0, 1.0, 5.0, 2.5])
    values = [
        nr.eval_exact_chain(
            nr.make_mean_semideviation(nr.MeasureParams(kappa=k, p=2.0)),
            _discrete(xs)).value[0]
        for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


@pytest.mark.xfail(strict=True, reason=(
    "make_mean_semideviation penalizes the lower deviation (eta - x)_+, so "
    "rho[X] = 3.95 > rho[0] = 0 here; the upper semideviation of a loss, "
    "which SystemicSpec.aggregate and PortfolioFamily use, gives -0.5025"))
def test_mean_semideviation_is_monotone():
    # X <= 0 almost surely, so a monotone measure has rho[X] <= rho[0] = 0
    # (Ogryczak & Ruszczynski 1999, for kappa in [0, 1])
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    below = nr.eval_exact_chain(spec, nr.TwoPoint(-100.0, 0.0, 0.01).oracle()).value[0]
    zero = nr.eval_exact_chain(spec, _discrete([0.0])).value[0]
    assert zero == 0.0
    assert below <= zero


# --- higher-order family ------------------------------------------------------------

def test_higher_order_point_mass():
    fam = nr.make_higher_order_family(nr.MeasureParams(c=3.0, p=2.0))
    oracle = nr.QuadratureRule([[4.0]], [1.0])
    assert nr.eval_exact_chain(fam(4.0), oracle).value[0] == pytest.approx(4.0)


def test_higher_order_uniform_objective():
    # analytic: inner = (1-u)^3/3, objective u + 2 sqrt((1-u)^3/3); at u=2/3
    # the value is 8/9
    fam = nr.make_higher_order_family(nr.MeasureParams(c=2.0, p=2.0))
    oracle = nr.Uniform(0.0, 1.0).oracle()
    assert nr.eval_exact_chain(fam(2.0 / 3.0), oracle).value[0] == pytest.approx(
        8.0 / 9.0, abs=1e-9)


def test_higher_order_objective_midpoint_convexity():
    fam = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=2.0))
    oracle = _discrete([0.1, 2.0, 3.7, 5.2, 1.1])

    def obj(u):
        return nr.eval_exact_chain(fam(u), oracle).value[0]

    grid = np.linspace(-1.0, 7.0, 41)
    for a, b in zip(grid[:-2], grid[2:]):
        assert obj(0.5 * (a + b)) <= 0.5 * (obj(a) + obj(b)) + 1e-12


def test_higher_order_p1_routes_to_single_layer():
    fam = nr.make_higher_order_family(nr.MeasureParams(c=4.0, p=1.0))
    spec = fam(1.0)
    assert spec.k == 0
    # u + c E[(X-u)_+] on the two-point law {0, 2}: 1 + 4*0.5*1 = 3
    val = nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 2.0).oracle()).value[0]
    assert val == pytest.approx(1.0 + 4.0 * 0.5 * 1.0)


# --- portfolio family ---------------------------------------------------------------

def test_portfolio_zero_allocation():
    fam = nr.make_portfolio_semideviation(nr.MeasureParams(kappa=0.5, p=2.0), 2)
    spec = fam(np.zeros(2))
    s = nr.Sample(np.random.default_rng(0).normal(size=(20, 2)))
    assert nr.estimate_empirical(spec, s).value[0] == pytest.approx(0.0, abs=1e-14)


def test_portfolio_scalar_reduction_sign_convention():
    # portfolio with u = (-1) on X equals the scalar factory on the law of -X
    # plus 2 E[X]: the semideviation terms agree exactly, the mean flips sign
    kappa, p = 0.5, 2.0
    fam = nr.make_portfolio_semideviation(nr.MeasureParams(kappa=kappa, p=p), 1)
    port = nr.eval_exact_chain(fam(np.array([-1.0])),
                               nr.TwoPoint(0.0, 2.0).oracle()).value[0]
    scalar = nr.make_mean_semideviation(nr.MeasureParams(kappa=kappa, p=p))
    neg = nr.eval_exact_chain(scalar, nr.TwoPoint(0.0, -2.0).oracle()).value[0]
    assert port == pytest.approx(neg + 2 * 1.0, abs=1e-12)


def test_portfolio_equal_weights_matches_aggregated_normal():
    # u'X for equal weights on two independent N(10, var 3) coordinates is
    # N(10, var 1.5); compare against the scalar chain on that law
    kappa, p = 0.5, 2.0
    fam = nr.make_portfolio_semideviation(nr.MeasureParams(kappa=kappa, p=p), 2)
    u = np.array([0.5, 0.5])
    oracle2 = nr.ProductLaw((nr.Normal(10.0, SQ3), nr.Normal(10.0, SQ3))).oracle(4000)
    port = nr.eval_exact_chain(fam(u), oracle2).value[0]
    agg = nr.Normal(10.0, np.sqrt(1.5)).oracle()
    scalar = nr.make_mean_semideviation(nr.MeasureParams(kappa=kappa, p=p))
    expected = nr.eval_exact_chain(scalar, agg).value[0] - 2 * 10.0
    assert port == pytest.approx(expected, abs=1e-6)


# --- systemic aggregation ------------------------------------------------------------

def _sys_spec(kappa=0.5, p=2.0, ell=2):
    """Equal weights over ell components; kappa = 0 is the linear outer."""
    return nr.SystemicSpec((1.0 / ell,) * ell, kappa, p)


def test_systemic_value_symmetric_input():
    assert _sys_spec().aggregate([3.3, 3.3]) == pytest.approx(3.3, abs=1e-14)


def test_systemic_value_matches_reported_configuration():
    # weighted mean 21.3189 plus 0.5 * sqrt(0.5 * 5.8026^2) = 23.37045...
    val = _sys_spec(0.5, 2.0).aggregate([15.5163, 27.1215])
    assert val == pytest.approx(23.3704, abs=2e-4)


def test_systemic_linear_outer_dot_product():
    spec = nr.SystemicSpec((0.25, 0.75))
    assert spec.aggregate([1.0, 3.0]) == pytest.approx(2.5, abs=1e-15)


def test_systemic_aggregate_of_a_batch_is_the_aggregate_of_each_row():
    spec = _sys_spec(0.5, 3.0)
    rho = np.array([[1.7, 9.2], [4.0, 4.0], [9.2, 1.7]])
    assert spec.aggregate(rho).tolist() == [spec.aggregate(r) for r in rho]
    with pytest.raises(nr.ConfigError, match="wrong length"):
        spec.aggregate(np.ones((3, 3)))


@pytest.mark.parametrize("weights", [(-0.5, 1.5), (0.5, 0.6), (np.nan, 1.0)],
                         ids=["negative", "sum-1.1", "nan"])
def test_systemic_spec_rejects_weights_that_are_not_a_law(weights):
    with pytest.raises(nr.ConfigError):
        nr.SystemicSpec(weights)


def test_systemic_kappa_zero_equals_linear():
    rho = [1.7, 9.2]
    lin = nr.SystemicSpec((0.5, 0.5))
    assert _sys_spec(kappa=0.0).aggregate(rho) == lin.aggregate(rho)


# --- identity padding / stacked specs -------------------------------------------------

def test_identity_padding_neutrality():
    # stacking a depth-2 and a depth-1 component pads the shallow one; its
    # estimate and limit variance must not change
    msd_spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    ho_spec = fam(14.5048)

    stacked = nr.stack_specs([msd_spec, ho_spec])
    assert stacked.k == 2
    assert stacked.m == 2

    rng = np.random.default_rng(17)
    x = np.stack([rng.normal(10, SQ3, 300), rng.normal(10, SQ3, 300)], axis=1)
    joint = nr.Sample(x)
    est = nr.estimate_empirical(stacked, joint)
    est_a = nr.estimate_empirical(msd_spec, nr.Sample(x[:, 0]))
    est_b = nr.estimate_empirical(ho_spec, nr.Sample(x[:, 1]))
    assert est.value[0] == pytest.approx(est_a.value[0], rel=1e-13)
    assert est.value[1] == pytest.approx(est_b.value[0], rel=1e-13)

    rep = nr.asymptotic_report(stacked, joint, est)
    rep_a = nr.asymptotic_report(msd_spec, nr.Sample(x[:, 0]), est_a)
    rep_b = nr.asymptotic_report(ho_spec, nr.Sample(x[:, 1]), est_b)
    assert rep.limit_cov[0, 0] == pytest.approx(rep_a.limit_cov[0, 0], rel=1e-10)
    assert rep.limit_cov[1, 1] == pytest.approx(rep_b.limit_cov[0, 0], rel=1e-10)


def test_stacked_exact_limit_covariance_block_diagonal_for_independent():
    msd_spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    stacked = nr.stack_specs([msd_spec, msd_spec])
    oracle = nr.ProductLaw((nr.Normal(10.0, SQ3), nr.Normal(10.0, SQ3))).oracle(3000)
    cov = exact_limit_variance(stacked, oracle)
    assert cov.shape == (2, 2)
    assert cov[0, 0] == pytest.approx(cov[1, 1], rel=1e-10)
    assert abs(cov[0, 1]) < 1e-8 * cov[0, 0]


# --- systemic_limit ---------------------------------------------------------------------

def test_systemic_limit_linear_standard_normal():
    spec = nr.SystemicSpec((1.0, 0.0))
    lim = nr.systemic_limit(spec, np.eye(2), np.array([1.0, 1.0]), 100_000, seed=5)
    assert abs(lim.variance - 1.0) < 0.05
    assert abs(lim.quantiles[50]) < 0.02


def test_systemic_limit_degenerate_covariance():
    spec = _sys_spec()
    lim = nr.systemic_limit(spec, np.zeros((2, 2)), np.array([1.0, 2.0]), 1000, seed=4)
    assert all(q == pytest.approx(0.0, abs=1e-12) for q in lim.quantiles.values())


def test_systemic_limit_matches_delta_method_gradient():
    # the reported two-component configuration: at rho = (15.5163, 27.1215)
    # only component 2 deviates above the mean, so the aggregation is
    # differentiable there with gradient (0.5 -+ kappa/(2 sqrt(2)))
    rho = np.array([15.5163, 27.1215])
    kappa = 0.5
    grad = np.array([0.5 - kappa * 0.25 / np.sqrt(0.5),
                     0.5 + kappa * 0.25 / np.sqrt(0.5)])
    cov = np.diag([16.032 ** 2, 20.6972 ** 2])
    expected = float(grad @ cov @ grad)

    spec = _sys_spec(kappa, 2.0)
    lim = nr.systemic_limit(spec, cov, rho, 200_000, seed=9)
    assert abs(lim.variance / expected - 1.0) < 0.05


@pytest.mark.parametrize("kappa, cov, samples, value", [
    (0.5, np.eye(2), 0, [1.0, 2.0]),
    (0.5, np.eye(3), 100, [1.0, 2.0]),
    (0.5, np.eye(2), 100, [1.0, 2.0, 3.0]),
    # the linear outer never reads the risk vector, but it must be one
    (0.0, np.eye(2), 100, None),
], ids=["no-samples", "wrong-shape", "wrong-value-length", "linear-without-value"])
def test_systemic_limit_rejects_bad_inputs(kappa, cov, samples, value):
    with pytest.raises(nr.ConfigError):
        nr.systemic_limit(_sys_spec(kappa), cov, value, samples, seed=1)


def test_systemic_limit_rejects_non_psd():
    spec = _sys_spec()
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(nr.EvaluationError):
        nr.systemic_limit(spec, bad, np.array([1.0, 2.0]), 100, seed=1)


# --- JSON round trip ----------------------------------------------------------------------

def test_measure_json_round_trip():
    doc = {"kind": "systemic", "weights": [0.5, 0.5],
           "outer": {"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0},
           "components": [{"kind": "higher_order", "c": 20.0, "p": 2.0},
                          {"kind": "higher_order", "c": 20.0, "p": 2.0}]}
    cfg = nr.parse_measure(doc)
    again = nr.parse_measure(cfg.to_json())
    assert again.to_json() == cfg.to_json()


_MSD = {"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0}
_HO = {"kind": "higher_order", "c": 20.0, "p": 2.0}


@pytest.mark.parametrize("doc, echo", [
    ({"kind": "mean_semideviation", "p": 3}, {**_MSD, "p": 3.0}),
    ({"kind": "higher_order", "c": 5}, {**_HO, "c": 5.0}),
    ({"kind": "portfolio_semideviation", "m": 2, "u": [1, 0]},
     {"kind": "portfolio_semideviation", "kappa": 0.5, "p": 2.0, "m": 2,
      "u": [1.0, 0.0]}),
    ({"kind": "portfolio_semideviation", "kappa": 0.3},
     {"kind": "portfolio_semideviation", "kappa": 0.3, "p": 2.0, "m": 1}),
    ({"kind": "systemic", "components": [_HO, {"kind": "mean_semideviation"}]},
     {"kind": "systemic", "weights": [0.5, 0.5], "outer": {"kind": "linear"},
      "components": [_HO, _MSD]}),
    ({"kind": "systemic", "weights": [0.25, 0.75],
      "outer": {"kind": "mean_semideviation", "kappa": 0.5, "p": 3},
      "components": [_HO, _HO]},
     {"kind": "systemic", "weights": [0.25, 0.75],
      "outer": {"kind": "mean_semideviation", "kappa": 0.5, "p": 3.0},
      "components": [_HO, _HO]}),
    ({"kind": "systemic", "outer": {"kind": "mean_semideviation", "p": 3.0},
      "components": [_HO]},
     {"kind": "systemic", "weights": [1.0], "outer": {"kind": "linear"},
      "components": [_HO]}),
], ids=["msd", "higher-order", "portfolio-u", "portfolio-no-u",
        "systemic-linear", "systemic-msd", "systemic-msd-kappa-0"])
def test_measure_json_echo_of_every_kind(doc, echo):
    # the echo fills every default in, as floats where the kind reads one,
    # in the key order the CLI prints; parsing it again gives it back
    cfg = nr.parse_measure(doc)
    assert json.dumps(cfg.to_json()) == json.dumps(echo)
    assert nr.parse_measure(cfg.to_json()).to_json() == cfg.to_json()
    cfg.to_json()["kind"] = "changed"
    assert cfg.to_json() == echo


def test_measure_json_kinds_build():
    assert nr.parse_measure({"kind": "mean_semideviation"}).built.k == 2
    fam = nr.parse_measure({"kind": "higher_order", "c": 5.0, "p": 2.0}).built
    assert fam(1.0).k == 1
    spec = nr.parse_measure({"kind": "portfolio_semideviation", "m": 2,
                             "u": [0.5, 0.5]}).built
    assert spec.m == 2


def test_measure_json_errors():
    with pytest.raises(nr.ConfigError):
        nr.parse_measure({"kind": "nope"})
    with pytest.raises(nr.ConfigError):
        nr.parse_measure({"no_kind": 1})
    with pytest.raises(nr.ConfigError):
        nr.parse_measure({"kind": "systemic", "components": []})
    with pytest.raises(nr.ConfigError):
        nr.parse_measure('{"kind": "higher_order", "c": 0.5}')


@pytest.mark.parametrize("doc, message", [
    ({"kind": "systemic", "outer": {"kind": "max"},
      "components": [{"kind": "higher_order"}]},
     "outer kind must be 'linear' or 'mean_semideviation'"),
    ({"kind": "mean_semideviation", "kappa": 2}, "kappa must lie in [0, 1]"),
    ({"kind": "mean_semideviation", "kappa": "a"},
     "invalid measure parameters: could not convert string to float: 'a'"),
    ({"kind": "systemic", "components": [{"kind": "mean_semideviation",
                                          "kappa": "a"}]},
     "invalid measure parameters: could not convert string to float: 'a'"),
    # a key that the document's kind does not read, checked before any
    # value is converted
    ({"kind": "higher_order", "C": 5.0}, "measure kind 'higher_order' does not read 'C'"),
    ({"kind": "systemic", "wieghts": [0.9, 0.1], "components": [_HO, _HO]},
     "measure kind 'systemic' does not read 'wieghts'"),
    ({"kind": "systemic", "outer": {"kind": "linear", "kappa": 0.5},
      "components": [_HO]}, "outer kind 'linear' does not read 'kappa'"),
    ({"kind": "systemic", "outer": {"p": 3.0}, "components": [_HO]},
     "outer kind 'linear' does not read 'p'"),
    ({"kind": "higher_order", "c": "a", "alpha": 0.05},
     "measure kind 'higher_order' does not read 'alpha'"),
    ({"kind": "systemic", "components": [{**_HO, "kappa": 0.5}]},
     "measure kind 'higher_order' does not read 'kappa'"),
    # json.loads reads NaN, and no order or scale check may let it through
    ('{"kind": "mean_semideviation", "p": NaN}', "order p must be >= 1"),
    ('{"kind": "higher_order", "c": NaN}', "higher-order scale c must exceed 1"),
    ('{"kind": "systemic", "outer": {"kind": "mean_semideviation", "kappa": 0.5,'
     ' "p": NaN}, "components": [{"kind": "higher_order"}]}',
     "outer order p must be >= 1"),
], ids=["outer-kind", "kappa-range", "kappa-text", "component-kappa-text",
        "key-capital-c", "key-misspelled-weights", "key-linear-outer-kappa",
        "key-default-outer-p", "key-before-conversion", "key-of-a-component",
        "nan-p", "nan-c", "nan-outer-p"])
def test_measure_errors_keep_the_library_message(doc, message):
    # a ConfigError of the measure's own checks passes through as it is;
    # only a value that fails to convert is wrapped, and only once
    with pytest.raises(nr.ConfigError) as info:
        nr.parse_measure(doc)
    assert str(info.value) == message


def test_outer_mean_semideviation_at_kappa_0_echoes_as_linear():
    # kappa = 0 is the linear scalarization; one outer type holds both
    doc = {"kind": "systemic", "outer": {"kind": "mean_semideviation", "kappa": 0.0},
           "components": [_HO]}
    assert nr.parse_measure(doc).to_json()["outer"] == {"kind": "linear"}
    msd = {"kind": "mean_semideviation", "kappa": 0.5, "p": 3.0}
    doc["outer"] = msd
    assert nr.parse_measure(doc).to_json()["outer"] == msd


def test_missing_measure_file_is_a_config_error(tmp_path):
    path = tmp_path / "nofile.json"
    with pytest.raises(nr.ConfigError, match="nofile.json"):
        nr.parse_measure(str(path))

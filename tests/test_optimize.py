from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nestedrisk as nr

from naive import golden_section, smoothed_row_mean


SQ3 = np.sqrt(3.0)


def ho_family(c=20.0, p=2.0):
    return nr.make_higher_order_family(nr.MeasureParams(c=c, p=p))


def exact_problem(mean, std, c=20.0, p=2.0, bracket=None):
    orc = nr.Normal(mean, std).oracle()
    br = bracket or (mean - 6 * std, mean + 12 * std)
    return nr.ScalarProblem(ho_family(c, p), br, "exact-oracle", oracle=orc)


# --- minimize_scalar -------------------------------------------------------------

def test_point_mass_kink_minimum():
    fam = ho_family(c=3.0, p=2.0)
    orc = nr.QuadratureRule([[5.0]], [1.0])
    prob = nr.ScalarProblem(fam, (0.0, 10.0), "exact-oracle", oracle=orc)
    rep = nr.minimize_scalar(prob, tol=1e-10)
    assert rep.u_hat == pytest.approx(5.0, abs=1e-6)
    assert rep.theta == pytest.approx(5.0, abs=1e-9)


def test_uniform_law_analytic_optimum():
    # first-order condition: (1-u)^(1/2) = 1/sqrt(3) so u = 2/3, theta = 8/9
    fam = ho_family(c=2.0, p=2.0)
    orc = nr.Uniform(0.0, 1.0).oracle()
    prob = nr.ScalarProblem(fam, (0.0, 1.0), "exact-oracle", oracle=orc)
    rep = nr.minimize_scalar(prob)
    assert rep.u_hat == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert rep.theta == pytest.approx(8.0 / 9.0, abs=1e-8)


def test_normal_law_reported_optimum():
    rep = nr.minimize_scalar(exact_problem(10.0, SQ3))
    assert rep.u_hat == pytest.approx(14.5048, abs=1e-3)
    assert rep.theta == pytest.approx(15.5163, abs=1e-3)
    assert not rep.boundary and not rep.flat


def test_solver_never_above_grid_minimum():
    prob = exact_problem(10.0, SQ3)
    rep = nr.minimize_scalar(prob)
    fn = prob.objective()
    grid = np.linspace(*prob.bracket, 1000)
    vals = np.array([fn(u) for u in grid])
    assert vals.min() >= rep.theta - 1e-12 * max(1.0, abs(rep.theta))


def test_boundary_optimum_flagged():
    # increasing objective on the bracket: minimum at the left endpoint
    fam = ho_family(c=2.0, p=2.0)
    orc = nr.QuadratureRule([[0.0]], [1.0])
    prob = nr.ScalarProblem(fam, (2.0, 8.0), "exact-oracle", oracle=orc)
    rep = nr.minimize_scalar(prob)
    assert rep.boundary
    assert rep.u_hat == pytest.approx(2.0, abs=1e-4)


def test_probe_grid_point_replaces_a_local_minimum():
    # the solver assumes a convex objective; on (u^2 - 1)^2 + 0.3 u it stops
    # in the local minimum near u = 0.96, and the flat-check grid's point
    # near the global minimum at u = -1.04 is returned in its place
    from nestedrisk.core import CompositeSpec, LayerFn

    def family(u):
        value = (u * u - 1.0) ** 2 + 0.3 * u
        return CompositeSpec(1, (1,), (LayerFn(lambda x: np.full(x.shape[0], value)),))

    prob = nr.ScalarProblem(family, (-1.5, 2.5), "exact-oracle",
                            oracle=nr.QuadratureRule([[0.0]], [1.0]))
    local = nr.minimize_scalar(prob, flat_check_grid=0)
    assert local.u_hat == pytest.approx(0.96, abs=0.01)
    rep = nr.minimize_scalar(prob)
    grid = np.linspace(-1.5, 2.5, 128)
    assert rep.u_hat == grid[np.argmin([prob.objective()(u) for u in grid])]
    assert rep.u_hat == pytest.approx(-1.04, abs=0.02) and rep.theta < local.theta


def test_nonfinite_objective_raises():
    def bad_family(u):
        from nestedrisk.core import CompositeSpec, LayerFn
        return CompositeSpec(1, (1,), (LayerFn(lambda x: np.full(x.shape[0], np.inf)),))

    prob = nr.ScalarProblem(bad_family, (0.0, 1.0), "exact-oracle",
                            oracle=nr.TwoPoint(0.0, 1.0).oracle())
    with pytest.raises(nr.EvaluationError):
        nr.minimize_scalar(prob)


def test_problem_validation():
    fam = ho_family()
    with pytest.raises(nr.ConfigError):
        nr.ScalarProblem(fam, (1.0, 1.0), "exact-oracle",
                         oracle=nr.TwoPoint(0.0, 1.0).oracle())
    with pytest.raises(nr.ConfigError):
        nr.ScalarProblem(fam, (0.0, 1.0), "exact-oracle")
    with pytest.raises(nr.ConfigError):
        nr.ScalarProblem(fam, (0.0, 1.0), "empirical-sample")
    with pytest.raises(nr.ConfigError):
        nr.ScalarProblem(fam, (0.0, 1.0), "mixed-plan",
                         sample=nr.Sample(np.array([1.0])))


@pytest.mark.parametrize("J, kernel, dim", [({3}, "uniform", 1), ({2}, "uniform", 2),
                                            ({2}, "gaussian", 2)],
                         ids=["J-beyond-k+1", "uniform-dim-2", "gaussian-dim-2"])
def test_mixed_problem_rejects_plans_that_estimate_mixed_rejects(J, kernel, dim):
    s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, SQ3), 1), 200)
    plan = nr.SmoothingPlan(frozenset(J), nr.KernelSpec(kernel, dim, 2.0),
                            nr.BandwidthSchedule("silverman"))
    fam = ho_family(c=4.0)
    with pytest.raises(nr.ConfigError):
        nr.estimate_mixed(fam(12.0), s, plan)
    prob = nr.ScalarProblem(fam, nr.default_bracket(s, 4.0), "mixed-plan",
                            sample=s, plan=plan)
    with pytest.raises(nr.ConfigError):
        nr.minimize_scalar(prob, flat_check_grid=0)


def test_problems_reject_points_of_another_dimension():
    # a one-dimensional family over a two-dimensional oracle or sample is
    # rejected, not solved on the first column
    fam = ho_family()
    law = nr.parse_law(f"normal:10,{SQ3}*normal:20,{np.sqrt(5.0)}")
    s = nr.sample(nr.SamplerConfig(law, 7), 200)
    problems = [nr.ScalarProblem(fam, (0.0, 40.0), "exact-oracle",
                                 oracle=law.oracle(200)),
                nr.ScalarProblem(fam, (0.0, 40.0), "empirical-sample", sample=s)]
    for prob in problems:
        with pytest.raises(nr.ConfigError, match="dimension 2"):
            nr.minimize_scalar(prob)


# --- optimal_value_clt_variance ------------------------------------------------------

def test_variance_zero_for_point_mass_sample():
    fam = ho_family(c=3.0, p=2.0)
    s = nr.Sample(np.full(20, 5.0))
    prob = nr.ScalarProblem(fam, (0.0, 10.0), "empirical-sample", sample=s)
    v = nr.optimal_value_clt_variance(prob, s, 3.0)
    assert v == pytest.approx(0.0, abs=1e-20)


def test_variance_exact_reference_values():
    probX = exact_problem(10.0, SQ3)
    repX = nr.minimize_scalar(probX)
    vX = nr.optimal_value_clt_variance(probX, None, repX.u_hat)
    assert np.sqrt(vX) == pytest.approx(16.032, abs=0.05)

    probY = exact_problem(20.0, np.sqrt(5.0))
    repY = nr.minimize_scalar(probY)
    vY = nr.optimal_value_clt_variance(probY, None, repY.u_hat)
    assert np.sqrt(vY) == pytest.approx(20.6972, abs=0.05)


@pytest.mark.parametrize("family, u, expected", [
    ("uniform", 11.0, 22.959886168343775),
    ("uniform", 12.5, 11.330515241259954),
    ("gaussian", 11.0, 25.847971378030845),
    ("gaussian", 12.5, 14.264953343883077),
])
def test_smoothed_variance_pinned_values(family, u, expected):
    # values of the plug-in variance recorded when the gaussian plan still
    # convolved both inner moments on shifted rows
    x = np.random.default_rng(5).normal(10.0, SQ3, 200)
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    prob = nr.ScalarProblem(ho_family(c=4.0), nr.default_bracket(s, 4.0),
                            "mixed-plan", sample=s, plan=plan)
    v = nr.optimal_value_clt_variance(prob, s, u)
    assert v == pytest.approx(expected, rel=1e-12)


def test_gaussian_mixed_plan_variance_on_shifted_rows_matches_bruteforce():
    # at p = 2.25 neither the inner layer nor its square (power 4.5) is an
    # integer power, so the gaussian kernel convolves both moments on
    # shifted rows
    c, p, u = 4.0, 2.25, 11.0
    s = nr.Sample(np.random.default_rng(5).normal(10.0, SQ3, 40))
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    prob = nr.ScalarProblem(ho_family(c, p), nr.default_bracket(s, c),
                            "mixed-plan", sample=s, plan=plan)
    got = nr.optimal_value_clt_variance(prob, s, u)

    h = nr.bandwidth(plan.schedule, s.n, s.std_scale())
    z, w = np.polynomial.hermite_e.hermegauss(64)
    offsets, weights = h * z[:, None], w / np.sqrt(2.0 * np.pi)

    def tail(row):
        return max(0.0, row[0] - u) ** p

    mean = smoothed_row_mean(tail, s.data, offsets, weights)[0]
    second = smoothed_row_mean(lambda row: tail(row) ** 2, s.data, offsets,
                               weights)[0]
    grad = (c / p) * mean ** (1.0 / p - 1.0)
    assert got == pytest.approx(grad ** 2 * (second - mean ** 2), rel=1e-10)


def test_mixed_plan_variance_follows_the_smoothing_set():
    # J={1} smooths only the outer layer, which does not depend on x: the
    # objective is the empirical one, and so must be its variance
    x = np.random.default_rng(5).normal(10.0, SQ3, 200)
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({1}), nr.KernelSpec("gaussian", 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    bracket = nr.default_bracket(s, 4.0)
    mixed = nr.ScalarProblem(ho_family(c=4.0), bracket, "mixed-plan",
                             sample=s, plan=plan)
    emp = nr.ScalarProblem(ho_family(c=4.0), bracket, "empirical-sample", sample=s)
    assert mixed.objective()(11.0) == pytest.approx(emp.objective()(11.0), rel=1e-12)
    v_emp = nr.optimal_value_clt_variance(emp, s, 11.0)
    assert v_emp == pytest.approx(21.5235, abs=1e-4)
    assert nr.optimal_value_clt_variance(mixed, s, 11.0) == pytest.approx(v_emp,
                                                                           rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_variance_degenerate_tail_raises():
    fam = ho_family()
    s = nr.Sample(np.array([1.0, 2.0, 3.0]))
    prob = nr.ScalarProblem(fam, (0.0, 10.0), "empirical-sample", sample=s)
    with pytest.raises(nr.EvaluationError):
        nr.optimal_value_clt_variance(prob, s, 9.0)  # all points below u


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", ["exact", "mixed-plan", "joint"])
def test_degenerate_tail_raises_at_layer_one(source):
    # u = 200 lies beyond every observation and every kernel window, so the
    # inner mean is zero and the gradient of u + c * eta^(1/2) is singular
    prob = exact_problem(10.0, SQ3)
    s = nr.Sample(np.random.default_rng(8).normal(10.0, SQ3, 200))
    with pytest.raises(nr.EvaluationError) as info:
        if source == "exact":
            nr.optimal_value_clt_variance(prob, None, 200.0)
        elif source == "mixed-plan":
            plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                                    nr.BandwidthSchedule("silverman"))
            mixed = nr.ScalarProblem(ho_family(), (0.0, 300.0), "mixed-plan",
                                     sample=s, plan=plan)
            nr.optimal_value_clt_variance(mixed, s, 200.0)
        else:
            joint = nr.Sample(np.stack([s.data[:, 0], s.data[:, 0] + 1.0], axis=1))
            nr.optimal_value_limit_covariance([prob, prob], [12.0, 200.0],
                                              samples=joint)
    assert info.value.layer == 1


def test_joint_covariance_block_diagonal_and_joint():
    probX = exact_problem(10.0, SQ3)
    probY = exact_problem(20.0, np.sqrt(5.0))
    uX = nr.minimize_scalar(probX).u_hat
    uY = nr.minimize_scalar(probY).u_hat
    cov = nr.optimal_value_limit_covariance([probX, probY], [uX, uY])
    assert cov[0, 1] == 0.0
    assert np.sqrt(cov[0, 0]) == pytest.approx(16.032, abs=0.05)

    # joint-sample version on independent columns has a small off-diagonal
    rng = np.random.default_rng(3)
    joint = nr.Sample(np.stack([rng.normal(10, SQ3, 4000),
                                rng.normal(20, np.sqrt(5.0), 4000)], axis=1))
    cov2 = nr.optimal_value_limit_covariance([probX, probY], [uX, uY],
                                             samples=joint)
    assert abs(cov2[0, 1]) < 0.25 * np.sqrt(cov2[0, 0] * cov2[1, 1])


def test_joint_covariance_needs_one_u_hat_and_one_sample_per_problem():
    # three problems and two minimizers or two samples: no component is
    # silently dropped
    prob = exact_problem(10.0, SQ3)
    s = nr.Sample(np.random.default_rng(6).normal(10.0, SQ3, 200))
    with pytest.raises(nr.ConfigError, match="one u_hat per problem"):
        nr.optimal_value_limit_covariance([prob] * 3, [12.0] * 2)
    with pytest.raises(nr.ConfigError, match="one sample per problem"):
        nr.optimal_value_limit_covariance([prob] * 3, [12.0] * 3, samples=[s, s])


def test_joint_covariance_matches_gradient_congruence():
    # on dependent columns the joint covariance is outer(g, g) * Cov[f2],
    # with g_i = (c/p) eta_i^(1/p - 1) and eta_i = mean((X_i - u_i)_+^p)
    c, p = 20.0, 2.0
    rng = np.random.default_rng(4)
    a = rng.normal(10, SQ3, 3000)
    x = np.stack([a, 0.6 * a + rng.normal(14, 2.0, 3000)], axis=1)
    u = np.array([12.0, 22.0])
    f2 = np.maximum(0.0, x - u) ** p
    eta = f2.mean(axis=0)
    g = (c / p) * eta ** (1.0 / p - 1.0)
    dev = f2 - eta
    expected = np.outer(g, g) * (dev.T @ dev / x.shape[0])
    prob = exact_problem(10.0, SQ3, c=c, p=p)
    cov = nr.optimal_value_limit_covariance([prob, prob], u, samples=nr.Sample(x))
    np.testing.assert_allclose(cov, expected, rtol=1e-12)
    assert cov[0, 1] > 0.1 * np.sqrt(cov[0, 0] * cov[1, 1])


# --- the sorted-tail Newton path ----------------------------------------------------

UNIFORM = nr.KernelSpec("uniform", 1, 2.0)
SCHEDULES = {"silverman": nr.BandwidthSchedule("silverman"),
             "power": nr.BandwidthSchedule("power", 1.0, 0.51)}


class CountingFamily:
    """A family wrapper that counts ``family(u)`` builds; like any wrapper
    it leaves the specs, and so the solver's dispatch, unchanged."""

    def __init__(self, family):
        self.family = family
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return self.family(u)


def without_tail_objective(family):
    """The same family with the tail_objective declaration stripped from
    its specs, which sends minimize_scalar to Brent's method."""
    def stripped(u):
        spec = family(u)
        if spec.k != 1:
            return spec
        inner = spec.layer(2)
        pm = replace(inner.powermax, tail_objective=None)
        return replace(spec, layers=(spec.layer(1), replace(inner, powermax=pm)))
    return stripped


def newton_and_brent(family, bracket, s, plan, **kwargs):
    counted = CountingFamily(family)
    newton = nr.minimize_scalar(nr.ScalarProblem(counted, bracket, "mixed-plan",
                                                 sample=s, plan=plan), **kwargs)
    brent = nr.minimize_scalar(nr.ScalarProblem(without_tail_objective(family),
                                                bracket, "mixed-plan", sample=s,
                                                plan=plan), **kwargs)
    # the Newton path builds no spec beyond the probes and the flat grid
    assert counted.calls <= 2 + kwargs.get("flat_check_grid", 128)
    return newton, brent


def assert_agrees_with_brent(newton, brent, bracket):
    assert newton.boundary == brent.boundary
    if brent.boundary:
        # Newton returns the end itself; Brent's method may stop within tol
        # of it, where the objective is not lower
        assert newton.u_hat in bracket
        assert newton.theta <= brent.theta
    else:
        assert newton.theta == pytest.approx(brent.theta, rel=1e-9)


# The general path these tests compare with is Brent's method, which
# test_minimize_scalar_matches_golden_section checks against golden-section
# search. J={1,2} smooths the constant outer layer on n * 64 shifted rows,
# so it stops at n=5000
CASES = ([(n, p, rule, "2") for n in (2, 30, 200, 5000, 20000)
          for p in (1.5, 2.0, 3.0, 5.0) for rule in SCHEDULES]
         + [(n, p, rule, "12") for n, rule in ((2, "power"), (30, "silverman"),
                                               (200, "power"), (5000, "silverman"))
            for p in (1.5, 2.0, 3.0, 5.0)])


@pytest.mark.parametrize("n, p, rule, J", CASES)
def test_sorted_tail_newton_matches_golden_section(n, p, rule, J):
    x = np.random.default_rng(n + int(10 * p)).normal(10.0, SQ3, n)
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset(int(j) for j in J), UNIFORM, SCHEDULES[rule])
    bracket = nr.default_bracket(s, 20.0)
    newton, brent = newton_and_brent(ho_family(20.0, p), bracket, s, plan,
                                     flat_check_grid=0)
    assert_agrees_with_brent(newton, brent, bracket)


@pytest.mark.parametrize("data", ["ties", "shifted"])
def test_sorted_tail_newton_on_ties_and_shifted_data(data):
    rng = np.random.default_rng(21)
    if data == "ties":
        x = np.repeat(np.round(rng.normal(10.0, SQ3, 50), 1), 4)
    else:
        x = rng.normal(10.0, SQ3, 200) + 1e4
    s = nr.Sample(x)
    for rule in SCHEDULES:
        plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES[rule])
        bracket = nr.default_bracket(s, 20.0)
        newton, brent = newton_and_brent(ho_family(), bracket, s, plan,
                                         flat_check_grid=0)
        assert not brent.boundary
        assert_agrees_with_brent(newton, brent, bracket)


def test_sorted_tail_newton_returns_the_bracket_end_at_boundary_optima():
    x = np.random.default_rng(22).normal(10.0, SQ3, 200)
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES["power"])
    interior = nr.minimize_scalar(nr.ScalarProblem(
        ho_family(), nr.default_bracket(s, 20.0), "mixed-plan", sample=s,
        plan=plan), flat_check_grid=0)
    for bracket, end in (((x.min() - 1.0, x.min() - 0.5), 1),
                         ((interior.u_hat + 0.5, interior.u_hat + 3.0), 0)):
        newton, brent = newton_and_brent(ho_family(), bracket, s, plan,
                                         flat_check_grid=0)
        assert brent.boundary
        assert newton.u_hat == bracket[end]
        assert_agrees_with_brent(newton, brent, bracket)


@given(n=st.integers(2, 400), p=st.floats(1.2, 6.0), c=st.floats(1.5, 60.0),
       loc=st.floats(-50.0, 50.0), scale=st.floats(0.1, 10.0),
       rule=st.sampled_from(sorted(SCHEDULES)), seed=st.integers(0, 2 ** 31))
def test_sorted_tail_newton_matches_golden_section_property(n, p, c, loc, scale,
                                                            rule, seed):
    s = nr.Sample(loc + scale * np.random.default_rng(seed).standard_t(5, n))
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES[rule])
    bracket = nr.default_bracket(s, c)
    newton, brent = newton_and_brent(ho_family(c, p), bracket, s, plan,
                                     flat_check_grid=0)
    assert_agrees_with_brent(newton, brent, bracket)


def test_flat_check_grid_evaluates_the_public_objective_after_newton():
    x = np.random.default_rng(23).normal(10.0, SQ3, 200)
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES["silverman"])
    bracket = nr.default_bracket(s, 20.0)
    newton, brent = newton_and_brent(ho_family(), bracket, s, plan)
    assert not newton.flat and not brent.flat
    assert_agrees_with_brent(newton, brent, bracket)
    fn = nr.ScalarProblem(ho_family(), bracket, "mixed-plan", sample=s,
                          plan=plan).objective()
    assert min(fn(u) for u in np.linspace(*bracket, 128)) >= newton.theta


@pytest.mark.parametrize("case", ["gaussian", "J1", "empirical", "exact"])
def test_undispatched_problems_ignore_the_declaration(case):
    x = np.random.default_rng(24).normal(10.0, SQ3, 200)
    s = nr.Sample(x)
    kernel = nr.KernelSpec("gaussian" if case == "gaussian" else "uniform", 1, 2.0)
    plan = nr.SmoothingPlan(frozenset({1} if case == "J1" else {2}), kernel,
                            SCHEDULES["silverman"])
    fam = ho_family()
    reports, builds = [], []
    for family in (CountingFamily(fam), CountingFamily(without_tail_objective(fam))):
        if case == "exact":
            prob = nr.ScalarProblem(family, (10 - 6 * SQ3, 10 + 12 * SQ3),
                                    "exact-oracle", oracle=nr.Normal(10.0, SQ3).oracle())
        elif case == "empirical":
            prob = nr.ScalarProblem(family, nr.default_bracket(s, 20.0),
                                    "empirical-sample", sample=s)
        else:
            prob = nr.ScalarProblem(family, nr.default_bracket(s, 20.0),
                                    "mixed-plan", sample=s, plan=plan)
        reports.append(nr.minimize_scalar(prob, flat_check_grid=16))
        builds.append(family.calls)
    assert reports[0] == reports[1]
    # Brent's method builds the same specs for both; the Newton path would
    # build none beyond its two probes and the flat grid
    assert builds[0] == builds[1] > 2 + 16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sorted_tail_newton_error_paths():
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES["silverman"])
    # tail powers of 1e3-scale gaps overflow at p = 120, on either path
    s = nr.Sample(1e3 * np.random.default_rng(25).normal(0.0, 1.0, 200))
    steep = ho_family(20.0, 120.0)
    for family in (steep, without_tail_objective(steep)):
        prob = nr.ScalarProblem(family, nr.default_bracket(s, 20.0), "mixed-plan",
                                sample=s, plan=plan)
        with pytest.raises(nr.EvaluationError) as info:
            nr.minimize_scalar(prob, flat_check_grid=0)
        assert info.value.layer == 2
    # a constant sample has no silverman bandwidth
    const = nr.ScalarProblem(ho_family(), (0.0, 10.0), "mixed-plan",
                             sample=nr.Sample(np.full(50, 3.0)), plan=plan)
    with pytest.raises(nr.EvaluationError, match="silverman"):
        nr.minimize_scalar(const)


def mislabelled_family(c_layer1=10.0, p_layer2=2.0):
    """A higher-order family tagged c=20, p=2 whose layer 1 computes
    u + c_layer1 eta^(1/2) and whose layer 2 computes (max(0, x - u))^p_layer2."""
    fam = ho_family(20.0, 2.0)

    def family(u):
        spec = fam(u)

        def f1(eta, x):
            return np.full(x.shape[0], u + c_layer1 * eta[0] ** 0.5)

        def f2(x):
            return np.maximum(0.0, x[:, 0] - u) ** p_layer2
        return replace(spec, layers=(replace(spec.layer(1), evaluator=f1),
                                     replace(spec.layer(2), evaluator=f2)))
    return family


@pytest.mark.parametrize("c_layer1, p_layer2, layer", [(10.0, 2.0, 1), (20.0, 3.0, 2)])
def test_sorted_tail_checks_the_declaration_against_both_layers(c_layer1, p_layer2,
                                                                layer):
    # the Newton path reads c and p from the tag, so without the check the
    # family with c=10 in layer 1 was solved as the c=20 problem it declares
    s = nr.Sample(np.random.default_rng(26).normal(10.0, SQ3, 2000))
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES["power"])
    bracket = nr.default_bracket(s, 20.0)
    prob = nr.ScalarProblem(mislabelled_family(c_layer1, p_layer2), bracket,
                            "mixed-plan", sample=s, plan=plan)
    with pytest.raises(nr.ConfigError, match=f"^layer {layer} returned .* PowerMaxForm tag"):
        nr.minimize_scalar(prob, flat_check_grid=0)


# --- Brent's method ---------------------------------------------------------------

def brent_problem(kind, n, family):
    """A higher-order problem (c=20, p=2) that minimize_scalar solves by
    Brent's method: over the exact oracle, or over an n-point sample,
    empirical or with the inner layer smoothed by a gaussian or
    epanechnikov kernel at h = n^(-0.51)."""
    if kind == "exact":
        return nr.ScalarProblem(family, (10 - 6 * SQ3, 10 + 12 * SQ3), "exact-oracle",
                                oracle=nr.Normal(10.0, SQ3).oracle())
    s = nr.Sample(np.random.default_rng(n).normal(10.0, SQ3, n))
    if kind == "empirical":
        return nr.ScalarProblem(family, nr.default_bracket(s, 20.0),
                                "empirical-sample", sample=s)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(kind, 1, 2.0),
                            SCHEDULES["power"])
    return nr.ScalarProblem(family, nr.default_bracket(s, 20.0), "mixed-plan",
                            sample=s, plan=plan)


@pytest.mark.parametrize("kind, n", [("exact", 0)] + [
    (kind, n) for kind in ("empirical", "gaussian", "epanechnikov")
    for n in (30, 200, 5000, 20000)])
def test_minimize_scalar_matches_golden_section(kind, n):
    # the empirical objectives at n in {30, 200} (c > sqrt(n)) have their
    # optimum on the kink at max X, where Brent's method takes golden steps
    prob = brent_problem(kind, n, ho_family())
    rep = nr.minimize_scalar(prob, flat_check_grid=0)
    _, theta = golden_section(prob.objective(), *prob.bracket, 1e-12)
    assert rep.theta == pytest.approx(theta, rel=1e-9)


@pytest.mark.parametrize("mean, var", [(10.0, 3.0), (20.0, 5.0)])
def test_exact_solve_is_within_tol_of_the_root_of_the_derivative(mean, var):
    # F'(u) = 1 - c E[(X - u)_+] / ||(X - u)_+||_2 over the oracle's nodes,
    # bisected to rounding; golden-section search stopped 3.2e-8 and 1.5e-7
    # from it, which moved the exact limit variance at u_hat by 7.7e-9 and
    # 2.7e-8 relative
    c = 20.0
    prob = exact_problem(mean, np.sqrt(var), c=c, p=2.0)
    x, w = prob.oracle.nodes[:, 0], prob.oracle.weights

    def slope(u):
        gap = np.maximum(0.0, x - u)
        return 1.0 - c * (w @ gap) / np.sqrt(w @ gap ** 2)

    lo, hi = mean, mean + 6.0 * np.sqrt(var)
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    assert nr.minimize_scalar(prob).u_hat == pytest.approx(lo, abs=1e-8)


def test_empirical_solve_at_n20000_builds_at_most_30_specs():
    # golden-section search built 52, whatever the objective's shape
    family = CountingFamily(ho_family())
    nr.minimize_scalar(brent_problem("empirical", 20000, family), flat_check_grid=0)
    assert family.calls <= 30


# --- sample-based behavior -----------------------------------------------------------

def test_default_bracket_contains_tail_optimum():
    rng = np.random.default_rng(6)
    s = nr.Sample(rng.normal(10, SQ3, 500))
    lo, hi = nr.default_bracket(s, 20.0)
    assert lo <= s.data.min() and hi > s.data.max() + 10.0


def percentile_bracket(x, c):
    """default_bracket as numpy computes it: quartiles from np.percentile."""
    q75, q25 = np.percentile(x, [75, 25])
    return float(x.min()), float(x.max() + c * max(q75 - q25, 1e-12))


def test_default_bracket_equals_the_percentile_bracket_bit_for_bit():
    rng = np.random.default_rng(27)
    samples = [rng.normal(10.0, SQ3, n) for n in range(1, 2001)]
    samples += [np.repeat(np.round(rng.normal(10.0, SQ3, 25), 1), 8),  # ties
                np.full(40, 3.0), rng.normal(10.0, SQ3, 20000)]
    for x in samples:
        for c in (20.0, 0.3):
            assert nr.default_bracket(nr.Sample(x), c) == percentile_bracket(x, c)


def test_sample_order_is_sorted_once_and_read_only():
    x = np.random.default_rng(28).normal(10.0, SQ3, (50, 2))
    s = nr.Sample(x)
    order = s._sorted()
    assert s._sorted() is order
    assert not order.flags.writeable
    np.testing.assert_array_equal(order, np.sort(x, axis=0))
    with pytest.raises(ValueError):
        order[0, 0] = 0.0


def optimal_values(x):
    """Empirical and uniform-kernel (silverman, J={2}) optimal values of the
    higher-order measure (c=20, p=2) on the sample x."""
    s = nr.Sample(x)
    plan = nr.SmoothingPlan(frozenset({2}), UNIFORM, SCHEDULES["silverman"])
    bracket = nr.default_bracket(s, 20.0)
    return [nr.minimize_scalar(nr.ScalarProblem(ho_family(), bracket, source,
                                                sample=s, plan=pl),
                               flat_check_grid=0).theta
            for source, pl in (("empirical-sample", None), ("mixed-plan", plan))]


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("shift, scale", [(-7.5, 1.0), (250.0, 1.0), (0.0, 3.0),
                                          (0.0, 40.0)])
def test_optimal_values_are_translation_equivariant_and_homogeneous(n, shift, scale):
    # theta(X + a) = theta(X) + a and theta(lambda X) = lambda theta(X): the
    # silverman bandwidth moves with the scale, and the bracket with both.
    # At n=200, c > sqrt(n) puts the empirical optimum at max X
    x = np.random.default_rng(n).normal(10.0, SQ3, n)
    base = optimal_values(x)
    if n == 200:
        assert base[0] == pytest.approx(x.max(), rel=1e-9)
    moved = optimal_values(scale * x + shift)
    for b, m in zip(base, moved):
        assert m == pytest.approx(scale * b + shift, rel=1e-9)


def test_smoothed_objective_dominates_empirical_for_p_at_least_two():
    # uniform-kernel smoothing of a convex tail power adds a nonnegative
    # convexity correction at every u
    rng = np.random.default_rng(13)
    fam = ho_family(c=5.0, p=2.0)
    for _ in range(5):
        x = rng.normal(0, 1, size=rng.integers(3, 40))
        s = nr.Sample(x)
        plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                                nr.BandwidthSchedule("power", 0.7, 0.3))
        emp = nr.ScalarProblem(fam, (-3, 5), "empirical-sample", sample=s).objective()
        smo = nr.ScalarProblem(fam, (-3, 5), "mixed-plan", sample=s,
                               plan=plan).objective()
        for u in np.linspace(-3, 5, 33):
            assert smo(u) >= emp(u) - 1e-12


def test_empirical_degenerates_to_sample_max_when_c_exceeds_root_n():
    # for c > sqrt(n) the empirical objective decreases up to the largest
    # observation, so the optimal value equals max(X); this is why the
    # reference asymptotics are out of reach at small n for large c
    rng = np.random.default_rng(10)
    x = rng.normal(10, SQ3, size=100)   # c=20 > 10 = sqrt(n)
    s = nr.Sample(x)
    prob = nr.ScalarProblem(ho_family(20.0, 2.0), nr.default_bracket(s, 20.0),
                            "empirical-sample", sample=s)
    rep = nr.minimize_scalar(prob, flat_check_grid=0)
    assert rep.theta == pytest.approx(x.max(), abs=1e-5)


def test_empirical_optimal_value_consistency_rate():
    # median |theta_n - theta| over 200 replications shrinks by >= 2.5x per
    # decade of n
    fam = ho_family()
    theta = nr.minimize_scalar(exact_problem(10.0, SQ3)).theta
    law = nr.Normal(10.0, SQ3)

    def estimator(s):
        prob = nr.ScalarProblem(fam, nr.default_bracket(s, 20.0),
                                "empirical-sample", sample=s)
        return nr.minimize_scalar(prob, flat_check_grid=0).theta

    medians = []
    for n in (100, 1000, 10_000):
        tab = nr.run_replications(estimator, nr.SamplerConfig(law, 0), n, 200,
                                  seed=321)
        medians.append(np.median(np.abs(tab.estimates[:, 0] - theta)))
    assert medians[0] / medians[1] >= 2.5
    assert medians[1] / medians[2] >= 2.5


@pytest.mark.xfail(strict=False, reason=(
    "at n=200 with c=20 the optimal-value estimators are pre-asymptotic "
    "(the empirical one equals the sample maximum since c > sqrt(n)); the "
    "normal reference at the stated tolerance is only reached at much "
    "larger n -- see the companion test below and demos/03"))
def test_optimal_value_clt_at_n200_nominal_config():
    fam = ho_family()
    theta = nr.minimize_scalar(exact_problem(10.0, SQ3)).theta
    v = nr.optimal_value_clt_variance(exact_problem(10.0, SQ3), None, 14.5048)
    law = nr.Normal(10.0, SQ3)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                            nr.BandwidthSchedule("silverman"))

    def estimator(s):
        prob = nr.ScalarProblem(fam, nr.default_bracket(s, 20.0),
                                "mixed-plan", sample=s, plan=plan)
        return nr.minimize_scalar(prob, flat_check_grid=0).theta

    tab = nr.run_replications(estimator, nr.SamplerConfig(law, 0), 200, 1000,
                              seed=11)
    z = np.sqrt(200) * (tab.estimates[:, 0] - theta) / np.sqrt(v)
    assert nr.ks_distance(z, 0.0, 1.0) < 0.08


def test_optimal_value_clt_emerges_at_large_n():
    # at n=20000, where c <= sqrt(n) and the bandwidth h_n = n^(-0.51) is a
    # strong approximate identity (sqrt(n) h_n -> 0), the kernel-smoothed
    # optimal value is within KS 0.08 of its normal limit
    c, p = 20.0, 2.0
    fam = ho_family(c, p)
    prob = exact_problem(10.0, SQ3, c, p)
    theta = nr.minimize_scalar(prob).theta
    v = nr.optimal_value_clt_variance(prob, None, nr.minimize_scalar(prob).u_hat)
    law = nr.Normal(10.0, SQ3)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, p),
                            nr.BandwidthSchedule("power", 1.0, 0.51))

    def estimator(s):
        pb = nr.ScalarProblem(fam, nr.default_bracket(s, 20.0),
                              "mixed-plan", sample=s, plan=plan)
        return nr.minimize_scalar(pb, flat_check_grid=0).theta

    n, R = 20_000, 600
    assert c <= np.sqrt(n)
    assert nr.check_strong_identity(plan.schedule, plan.kernel, p).passes
    tab = nr.run_replications(estimator, nr.SamplerConfig(law, 0), n, R, seed=15)
    z = np.sqrt(n) * (tab.estimates[:, 0] - theta) / np.sqrt(v)
    assert nr.ks_distance(z, 0.0, 1.0) < 0.08

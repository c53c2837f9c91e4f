"""Systemic risk: aggregating component risks and its limit distribution.

Two agents carry losses X1 ~ normal(10, variance 3) and X2 ~ normal(20,
variance 5), each measured by the higher-order tail measure (c=20, p=2).
The systemic value applies an outer mean-semideviation (kappa=0.5, p=2) on
the finite component space with weights (0.5, 0.5):

    rho_sys = <c, rho> + kappa * (sum_i c_i max(0, rho_i - <c, rho>)^p)^(1/p)

The exact value is 23.3704. The estimator error is asymptotically the
directional derivative of the aggregation applied to the joint normal limit
of the component estimators.
"""

import numpy as np

import nestedrisk as nr

C, P = 20.0, 2.0
fam = nr.make_higher_order_family(nr.MeasureParams(c=C, p=P))
lawX, lawY = nr.Normal(10.0, np.sqrt(3.0)), nr.Normal(20.0, np.sqrt(5.0))

pX = nr.ScalarProblem(fam, (0.0, 31.0), "exact-oracle", oracle=lawX.oracle())
pY = nr.ScalarProblem(fam, (6.0, 47.0), "exact-oracle", oracle=lawY.oracle())
repX, repY = nr.minimize_scalar(pX), nr.minimize_scalar(pY)
rho = np.array([repX.theta, repY.theta])

outer = nr.OuterAggregation("mean_semideviation", kappa=0.5, p=2.0)
spec = nr.SystemicSpec((fam(repX.u_hat), fam(repY.u_hat)), (0.5, 0.5), outer)
exact = nr.systemic_value(rho, spec)
print(f"component risks: {rho[0]:.4f}, {rho[1]:.4f}")
print(f"systemic value: {exact:.4f}")

# linear aggregation for contrast
lin = nr.SystemicSpec(spec.components, spec.weights, nr.OuterAggregation("linear"))
print(f"linear aggregation would give: {nr.systemic_value(rho, lin):.4f}")

# --- the sampled limit distribution ---------------------------------------------

vX = nr.optimal_value_clt_variance(pX, None, repX.u_hat)
vY = nr.optimal_value_clt_variance(pY, None, repY.u_hat)
limit_cov = np.diag([vX, vY])  # independent components
report = nr.AsymptoticReport.from_limit_cov(limit_cov, 200, value=rho)
lim = nr.systemic_limit(spec, report, samples=100_000, seed=1)
print(f"\nsampled limit of sqrt(n)(estimate - exact): variance {lim.variance:.1f}")
print("  quantiles:", {k: round(v, 2) for k, v in lim.quantiles.items()})

# at this component vector only agent 2 deviates above the weighted mean,
# so the aggregation is differentiable and the delta method applies
kappa = 0.5
grad = np.array([0.5 - kappa * 0.25 / np.sqrt(0.5),
                 0.5 + kappa * 0.25 / np.sqrt(0.5)])
print(f"  analytic delta-method variance: {float(grad @ limit_cov @ grad):.1f}")

# --- simulated systemic estimator at n=200 -----------------------------------------

# uniform kernel; the power schedule h_n = 20.6 n^(-0.51) keeps the strong
# identity condition (gamma > 1/2) and its scale balances smoothing bias
# against the small-sample tail bias at this n
plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                        nr.BandwidthSchedule("power", 20.6, 0.51))


def sys_estimator(s):
    vals = []
    for i in range(2):
        col = nr.Sample(s.data[:, i])
        pb = nr.ScalarProblem(fam, nr.default_bracket(col, C), "mixed-plan",
                              sample=col, plan=plan)
        vals.append(nr.minimize_scalar(pb, flat_check_grid=0).theta)
    return nr.systemic_value(vals, spec)


n, R = 200, 1000
joint = nr.ProductLaw((lawX, lawY))
table = nr.run_replications(sys_estimator, nr.SamplerConfig(joint, 0), n, R,
                            seed=53)
summary = nr.summarize_distribution(table, nr.Reference(exact, lim.variance / n))
se = summary.std / np.sqrt(R)
print(f"\nsimulated systemic estimator at n={n}, R={R}:")
print(f"  mean = {summary.mean:.4f} vs exact {exact:.4f} "
      f"(off by {abs(summary.mean - exact) / se:.1f} MC standard errors)")
print(f"  replication sd = {summary.std:.4f}")

# the identity-padded stacked spec underlying the vector-valued limit theory
stacked = nr.stack_specs([fam(repX.u_hat),
                          nr.make_mean_semideviation(nr.MeasureParams(0.5, 2.0))])
print(f"\nstacking a depth-1 and a depth-2 component pads with identities: "
      f"k = {stacked.signature.k}, dims = {stacked.signature.dims}")

"""Comparing two risks: the difference estimator and its normal reference.

Two independent positions, X ~ normal(10, variance 3) and Y ~ normal(20,
variance 5), are measured with the same higher-order tail measure (c=20,
p=2). The exact difference is rho(X) - rho(Y) = -11.6052, and the
delta-method limit of the difference estimator is normal with variance
(16.032^2 + 20.6972^2)/n for independent samples of size n.
"""

import numpy as np

import nestedrisk as nr

C, P = 20.0, 2.0
fam = nr.make_higher_order_family(nr.MeasureParams(c=C, p=P))
lawX, lawY = nr.Normal(10.0, np.sqrt(3.0)), nr.Normal(20.0, np.sqrt(5.0))

# --- exact values and the contrast variance ------------------------------------

pX = nr.ScalarProblem(fam, (0.0, 31.0), "exact-oracle", oracle=lawX.oracle())
pY = nr.ScalarProblem(fam, (6.0, 47.0), "exact-oracle", oracle=lawY.oracle())
repX, repY = nr.minimize_scalar(pX), nr.minimize_scalar(pY)
vX = nr.optimal_value_clt_variance(pX, None, repX.u_hat)
vY = nr.optimal_value_clt_variance(pY, None, repY.u_hat)
print(f"rho(X) = {repX.theta:.4f}, rho(Y) = {repY.theta:.4f}, "
      f"difference = {repX.theta - repY.theta:.4f}")
print(f"limit sds: {np.sqrt(vX):.4f} and {np.sqrt(vY):.4f}; the (1,-1) "
      f"contrast variance is their sum: {vX + vY:.2f}")

# the same contrast through the limit-covariance API
cov = nr.optimal_value_limit_covariance([pX, pY], [repX.u_hat, repY.u_hat])
w = np.array([1.0, -1.0])
print(f"contrast via block-diagonal covariance: {float(w @ cov @ w):.2f}")

# --- simulated difference at n=200 ----------------------------------------------

plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                        nr.BandwidthSchedule("silverman"))


def diff_estimator(s):
    out = []
    for i in range(2):
        col = nr.Sample(s.data[:, i])
        pb = nr.ScalarProblem(fam, nr.default_bracket(col, C), "mixed-plan",
                              sample=col, plan=plan)
        out.append(nr.minimize_scalar(pb, flat_check_grid=0).theta)
    return out[0] - out[1]


n, R = 200, 1000
joint = nr.ProductLaw((lawX, lawY))
reference = nr.Reference(repX.theta - repY.theta, (vX + vY) / n)
table = nr.run_replications(diff_estimator, nr.SamplerConfig(joint, 0), n, R,
                            seed=20240)
summary = nr.summarize_distribution(table, reference, bins=20)
print(f"\nsimulated difference at n={n}, R={R} (uniform kernel, silverman):")
print(f"  mean = {summary.mean:.4f} (reference {reference.mean:.4f}), "
      f"bias = {summary.bias:+.4f}")
print(f"  std  = {summary.std:.4f} (reference {np.sqrt(reference.variance):.4f})")
print(f"  KS distance vs the normal reference = {summary.ks:.4f}")
print("\nat this n the estimator distribution is still narrower than the")
print("limit (each optimal value is driven by a handful of tail points);")
print("the KS distance drops below 0.08 only for much larger samples, as in")
print("demos/03_optimal_value_study.py.")

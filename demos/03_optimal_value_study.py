"""The higher-order tail measure and the distribution of its optimal value.

rho[X] = min_u { u + c * (E[(X - u)_+^p])^(1/p) } with c = 20, p = 2 on
X ~ normal(10, variance 3). The exact optimum sits deep in the tail
(u_hat = 14.5048, value 15.5163), which makes small-sample estimation hard:
whenever c > sqrt(n) the *empirical* objective decreases all the way up to
the largest observation, so the empirical optimal value is exactly max(X).
Kernel smoothing interpolates the tail and repairs the degeneracy, which is
the reason to smooth in the first place; the normal limit with standard
deviation 16.032/sqrt(n) only takes over at much larger n.
"""

import numpy as np

import nestedrisk as nr

C, P = 20.0, 2.0
VAR = 3.0
fam = nr.make_higher_order_family(nr.MeasureParams(c=C, p=P))
law = nr.Normal(10.0, np.sqrt(VAR))

# --- exact solve and the limit variance -------------------------------------------

prob = nr.ScalarProblem(fam, (10 - 6 * np.sqrt(VAR), 10 + 12 * np.sqrt(VAR)),
                        "exact-oracle", oracle=law.oracle())
rep = nr.minimize_scalar(prob)
v = nr.optimal_value_clt_variance(prob, None, rep.u_hat)
print(f"exact: u_hat={rep.u_hat:.4f}, value={rep.theta:.4f}, "
      f"limit sd * sqrt(n) = {np.sqrt(v):.4f}")

# --- small-sample studies: empirical vs uniform-kernel smoothed --------------------


def estimator(plan):
    def run(s):
        bracket = nr.default_bracket(s, C)
        if plan is None:
            pb = nr.ScalarProblem(fam, bracket, "empirical-sample", sample=s)
        else:
            pb = nr.ScalarProblem(fam, bracket, "mixed-plan", sample=s, plan=plan)
        return nr.minimize_scalar(pb, flat_check_grid=0).theta
    return run


silverman = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                             nr.BandwidthSchedule("silverman"))

print(f"\nsmall-sample bias (R=1000 replications, reference {rep.theta:.4f}):")
print(f"{'n':>6} {'bias empirical':>15} {'bias kernel':>12} "
      f"{'sd empirical':>13} {'sd kernel':>10} {'sd limit':>9}")
for n in (30, 50, 100, 200):
    te = nr.run_replications(estimator(None), nr.SamplerConfig(law, 0), n, 1000,
                             seed=100 + n)
    tk = nr.run_replications(estimator(silverman), nr.SamplerConfig(law, 0),
                             n, 1000, seed=100 + n)
    e, k = te.estimates[:, 0], tk.estimates[:, 0]
    print(f"{n:6d} {e.mean() - rep.theta:+15.4f} {k.mean() - rep.theta:+12.4f} "
          f"{e.std(ddof=1):13.4f} {k.std(ddof=1):10.4f} "
          f"{np.sqrt(v / n):9.4f}")
print("(the kernel estimator is visibly less biased at every n; both are "
      "narrower than the limit sd at these sample sizes)")

# --- convergence to the normal limit ------------------------------------------------

# the composite CLT needs a strong approximate identity: h_n = n^(-0.51)
# passes the check (sqrt(n) h_n -> 0), silverman's n^(-1/5) does not; and
# for c > sqrt(n) the estimator is still in its sample-maximum regime
power = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                         nr.BandwidthSchedule("power", 1.0, 0.51))
identity = nr.check_strong_identity(power.schedule)
print("\nKS distance of sqrt(n)(theta_n - theta)/sd_limit vs N(0,1) "
      "(kernel estimator, h_n = n^(-0.51), R=300;\n"
      "sampling floor at R=300 is about 0.05):")
print(f"{'n':>9} {'KS':>7} {'identity':>9} {'c <= sqrt(n)':>13}")
for n in (2_000, 20_000, 100_000):
    tab = nr.run_replications(estimator(power), nr.SamplerConfig(law, 0),
                              n, 300, seed=9000)
    z = np.sqrt(n) * (tab.estimates[:, 0] - rep.theta) / np.sqrt(v)
    print(f"{n:9d} {nr.ks_distance(z, 0.0, 1.0):7.4f} "
          f"{'passes' if identity.passes else 'fails':>9} "
          f"{str(C <= np.sqrt(n)):>13}")

# --- histogram data (the plotting-free equivalent of a density overlay) -------------

n = 200
tab = nr.run_replications(estimator(silverman), nr.SamplerConfig(law, 0), n,
                          1000, seed=77)
summary = nr.summarize_distribution(tab, nr.Reference(rep.theta, v / n), bins=24)
print(f"\nhistogram at n={n} (density vs normal overlay):")
print(f"  mean={summary.mean:.4f}, bias={summary.bias:+.4f}, "
      f"std={summary.std:.4f}, KS={summary.ks:.4f}")
print("  bin_center   density   reference")
hist = summary.histogram
for left, right, d, rd in list(zip(hist.bin_left, hist.bin_right,
                                   hist.density, hist.reference_density))[::4]:
    print(f"  {(left + right) / 2:10.3f} {d:9.4f} {rd:11.4f}")

"""Plug-in estimation: empirical vs kernel-smoothed, and bandwidth rules.

The empirical estimator replaces every expectation with a sample mean. The
mixed estimator convolves the empirical measure with a scaled kernel at
chosen layers; for tail-power layers under the uniform kernel the
convolution has a closed form. Bandwidth schedules decide whether the
smoothed estimator keeps the root-n central limit behavior: the strong
approximate identity condition requires sqrt(n) * h_n -> 0.
"""

import numpy as np

import nestedrisk as nr

spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
law = nr.Normal(10.0, np.sqrt(3.0))
s = nr.sample(nr.SamplerConfig(law, seed=42), 200)

# --- empirical vs smoothed -----------------------------------------------------

emp = nr.estimate_empirical(spec, s)
print(f"empirical estimate (n=200): {emp.value[0]:.6f}")

for family in ("uniform", "gaussian", "epanechnikov"):
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec(family, 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    mixed = nr.estimate_mixed(spec, s, plan)
    print(f"  {family:13s} kernel, silverman: {mixed.value[0]:.6f}")

# the smoothed inner mean of a convex tail power always dominates the
# empirical one (Jensen); shrinking the bandwidth recovers it
print("\nbandwidth -> 0 recovers the empirical estimate:")
for h in (1.0, 1e-2, 1e-4, 1e-6):
    sched = nr.BandwidthSchedule("power", scale=h, exponent=1e-12)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0), sched)
    err = abs(nr.estimate_mixed(spec, s, plan).value[0] - emp.value[0])
    print(f"  h={h:8.0e}: |smoothed - empirical| = {err:.2e}")

# --- the closed form ------------------------------------------------------------

# uniform-kernel smoothing of (max(0, X - u))^p integrates in closed form:
# the smoothed inner mean of the higher-order measure at u = 0, on the one
# point X = 5, with h = 0.1 * n^(-1/2) = 0.1
ho = nr.make_higher_order_family(nr.MeasureParams(p=2.0))
plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                        nr.BandwidthSchedule("power", 0.1, 0.5))
closed = nr.estimate_mixed(ho(0.0), nr.Sample([5.0]), plan).input_for(1)[0]
print(f"\nclosed form at X=5, u=0, h=0.1, p=2: {closed:.8f} "
      f"(hand: {(5.1**3 - 4.9**3) / 0.6:.8f})")

# --- bandwidth schedules and the identity check -----------------------------------

print("\nschedule validity (strong approximate identity, order p=2):")
rows = [("silverman", nr.BandwidthSchedule("silverman")),
        ("power a=1, gamma=0.4", nr.BandwidthSchedule("power", 1.0, 0.4)),
        ("power a=1, gamma=0.51", nr.BandwidthSchedule("power", 1.0, 0.51)),
        ("power a=1, gamma=0.6", nr.BandwidthSchedule("power", 1.0, 0.6))]
# n h^2 grows like n^(2e), with e the identity's exponent, so it tends to 0
# exactly when the check passes
for name, sched in rows:
    chk = nr.check_strong_identity(sched)
    print(f"  {name:22s}: identity {'PASS' if chk.passes else 'FAIL'} "
          f"(exponent n^{chk.exponent_identity:+.2f}), "
          f"n*h^2 -> 0: {'yes' if chk.passes else 'no'}")

print("\nkernel moments (dimension 1): "
      + ", ".join(f"{f}: m1={nr.KernelSpec(f, 1, 2.0).m1:.4f}, "
                  f"m2={nr.KernelSpec(f, 1, 2.0).mp:.4f}"
                  for f in ("uniform", "gaussian", "epanechnikov")))

# --- consistency ------------------------------------------------------------------

print("\nroot-n consistency (median |error| over 200 replications):")
oracle = law.oracle()
exact = nr.eval_exact_chain(spec, oracle).value[0]
for n in (100, 1000, 10_000):
    tab = nr.run_replications(lambda smp: nr.estimate_empirical(spec, smp).value,
                              nr.SamplerConfig(law, 0), n, 200, seed=1234)
    med = np.median(np.abs(tab.estimates[:, 0] - exact))
    print(f"  n={n:6d}: median error {med:.5f}")

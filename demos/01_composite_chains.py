"""Building composite functionals and evaluating them exactly.

A composite risk functional nests expectations: the mean-semideviation of
order p, for example, is E[X] + kappa * (E[(E[X] - X)_+^p])^(1/p), a chain
of three layers. This script builds the chain, evaluates it against known
laws, and propagates perturbation directions through the composition.
"""

import numpy as np

import nestedrisk as nr

# --- build the measure and inspect its structure -----------------------------

params = nr.MeasureParams(kappa=0.5, p=2.0)
spec = nr.make_mean_semideviation(params)
print(f"spec: {spec.label}")
print(f"  layers: {len(spec.layers)}, dims: {spec.signature.dims}, "
      f"sample dim: {spec.signature.m}")
print(f"  validation: {nr.validate_spec(spec).ok}")

# --- exact evaluation against several laws ------------------------------------

# a two-atom law lets us check the arithmetic by hand:
# E[X] = 1, inner mean = 0.5 * (1 - 0)^2 = 0.5, value = 1 + 0.5 * sqrt(0.5)
chain = nr.eval_exact_chain(spec, nr.TwoPoint(0.0, 2.0).oracle())
print("\ntwo-point law {0, 2}:")
print(f"  chain (innermost first): {[float(e[0]) for e in chain.eta]}")
print(f"  value = {chain.value[0]:.10f}  (hand: {1 + 0.5 * np.sqrt(0.5):.10f})")

# a normal law with mean 10 and variance 3 (the laws in the simulation
# studies are parameterized by variance)
oracle = nr.Normal(10.0, np.sqrt(3.0)).oracle()
chain_n = nr.eval_exact_chain(spec, oracle)
print("\nnormal(mean 10, variance 3):")
print(f"  value = {chain_n.value[0]:.6f}  "
      f"(closed form: {10 + 0.5 * np.sqrt(1.5):.6f})")

# coherence sanity: translation equivariance and positive homogeneity
xs = np.array([0.2, 1.4, 3.3, -0.7])
base = nr.eval_exact_chain(spec, nr.QuadratureRule(xs[:, None],
                                                    np.full(4, 0.25))).value[0]
shifted = nr.eval_exact_chain(spec, nr.QuadratureRule((xs + 5)[:, None],
                                                       np.full(4, 0.25))).value[0]
print(f"\ntranslation: rho[X+5] - rho[X] = {shifted - base:.12f} (should be 5)")

# --- direction propagation -----------------------------------------------------

# perturbing the innermost layer by a unit direction propagates through the
# expected Jacobians of the outer layers
zero = np.zeros(1)
xi = nr.propagate_direction(spec, chain_n, oracle, (zero, zero, np.array([1.0])))
print(f"\nunit perturbation of the innermost layer: xi_1 = {xi[0]:.6f}")

eps = 1e-6
from nestedrisk.core import CompositeSpec, LayerFn
bumped = CompositeSpec(spec.signature,
                       spec.layers[:2] + (LayerFn(3, lambda x: x[:, 0] + eps),),
                       "bumped")
fd = (nr.eval_exact_chain(bumped, oracle).value[0] - chain_n.value[0]) / eps
print(f"finite-difference check:                  {fd:.6f}")

# the same object appears as the last chain matrix C_k^T; a sample
# estimates it over its empirical measure, the rule with weights 1/n
s = nr.sample(nr.SamplerConfig(nr.Normal(10.0, np.sqrt(3.0)), 0), 50_000)
est = nr.estimate_empirical(spec, s)
c2 = nr.propagate_direction(spec, est.chain,
                            nr.QuadratureRule(s.data, np.full(s.n, 1.0 / s.n)),
                            (zero, zero, np.array([1.0])))
print(f"sample chain-matrix estimate C_2^T:       "
      f"{c2[0]:.6f} (n = 50000)")

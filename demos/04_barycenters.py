"""Empirical r-barycenters of a solved ensemble.

The r-barycenter minimizes the weighted mean of ||Y_n - Z||_{L^q}^r over
candidate fields Z.  For r = q = 2 it is the weighted pointwise mean in
closed form; for other orders it is found by monotone descent started
from that mean, so its objective can only improve on the mean's.

Run from the repository root:  python3 demos/04_barycenters.py
"""

import numpy as np

from nsuq.mesh import GridSpec
from nsuq.physics import AdmissibleBounds, ForcingSpec
from nsuq.random_data import (
    DistributionSpec,
    RandomFieldSpec,
    RandomMode,
    ScalarTransform,
    sample_latent,
)
from nsuq.solver import SchemeConfig, solve
from nsuq.stats import Ensemble, empirical_field_mean, r_barycenter

bounds = AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5, g_sup=1.0)
spec = DistributionSpec(
    K=1, d=1, period=1.0, gamma=2.0, bounds=bounds,
    mu=ScalarTransform("const", 0.05),
    eta=ScalarTransform("const", 0.0),
    a=ScalarTransform("uniform", 0.6, 1.4, latent_index=0),
    rho0=RandomFieldSpec(1.0, (RandomMode((1,), "sin", 0.02, 0.16, 0),)),
    u0=(RandomFieldSpec(0.0, (RandomMode((1,), "cos", 0.05),)),),
    g_base=ForcingSpec.zero(1),
    g_scale=ScalarTransform("const", 0.0),
)

grid = GridSpec(1, 32)
scheme = SchemeConfig(cfl=0.4, T=0.1)
N = 12
latents = sample_latent(5, N, spec.K)
records = [spec.realize(om) for om in latents]
ensemble = Ensemble(latents, [solve(d, grid, scheme) for d in records], np.full(N, 1.0 / N), "weak")

[(t, mean_rho)] = empirical_field_mean(ensemble, "density")
print(f"solved {N} members to T={t}; empirical mean density range "
      f"[{mean_rho.values.min():.4f}, {mean_rho.values.max():.4f}]")

print(f"\n{'r':>4} {'q':>4} {'objective':>12} {'iters':>6} {'residual':>10} {'|Z-mean|max':>12}")
for r, q in ((2.0, 2.0), (1.5, 2.0), (2.0, 4.0), (3.0, 2.0)):
    res = r_barycenter(ensemble, "density", r=r, q=q)
    gap = np.abs(res.minimizer.values - mean_rho.values).max()
    print(f"{r:>4} {q:>4} {res.objective:>12.5e} {res.iterations:>6} "
          f"{res.first_order_residual:>10.2e} {gap:>12.4e}")

print("\nthe r=q=2 barycenter coincides with the pointwise mean; other orders "
      "bend toward or away from outliers while staying close to it here")

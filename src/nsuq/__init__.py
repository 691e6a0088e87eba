"""Barotropic compressible Navier-Stokes on the torus with uncertain data.

Library layers:

- `mesh`: periodic grids, discrete fields, trajectories, their sampler and
  space-time distances, norms, grid transfer.
- `physics`: pressure law, energy, data records, admissibility, data distances.
- `solver`: semi-implicit finite-volume scheme with residual contract.
- `random_data`: latent-cube distributions, Monte-Carlo streams, collocation.
- `stats`: boundedness in probability, empirical means, r-barycenters,
  convergence-in-probability diagnostics.
- `experiments`: config-driven weak/strong/convergence studies (also the
  `nsuq` command line).
"""

__version__ = "0.1.0"

from . import mesh, physics, solver, random_data, stats, experiments  # noqa: F401,E402

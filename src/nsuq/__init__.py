"""Barotropic compressible Navier-Stokes on the torus with uncertain data.

Library layers, each importing only those listed before it:

- `mesh`: periodic grids, discrete fields, trajectories, their sampler and
  space-time distances, norms, grid transfer.
- `physics`: pressure law, energy, data records, admissibility, data distances.
- `random_data`: latent-cube distributions, Monte-Carlo streams, collocation.
- `solver`: semi-implicit finite-volume scheme with residual contract.
- `stats`: solved ensembles (latent points, solve reports, weights),
  boundedness in probability, empirical means, r-barycenters,
  convergence-in-probability diagnostics.
- `experiments`: config-driven weak/strong/convergence studies.
- `cli`: the `nsuq` command line.
"""

__version__ = "0.1.0"

from . import mesh, physics, random_data, solver, stats, experiments  # noqa: F401,E402

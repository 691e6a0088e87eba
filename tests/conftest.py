"""Shared builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from nsuq.mesh import GridSpec, Trajectory, _keep_windows, _keeps_state
from nsuq.physics import (
    AdmissibleBounds,
    DataRecord,
    ForcingSpec,
    FourierField,
    FourierMode,
)
from nsuq.random_data import (
    DistributionSpec,
    RandomFieldSpec,
    RandomMode,
    ScalarTransform,
)
from nsuq.solver import SolveReport
from nsuq.stats import Ensemble


# `pytest -m deep --hypothesis-profile deep` runs the property tests decorated with
# `deep_or(n)` (the solver contract, the batched sampling and distance paths, the CLI
# config fuzz) with 400 examples instead of their tier-1 n
settings.register_profile("deep", max_examples=400)


def deep_or(n: int):
    """Mark a property test `deep`, and give it the deep profile's settings when that
    profile is loaded, else n examples; no deadline."""
    if settings.get_current_profile_name() == "deep":
        chosen = settings(settings.get_profile("deep"), deadline=None)
    else:
        chosen = settings(max_examples=n, deadline=None)
    return lambda test: pytest.mark.deep(chosen(test))


@pytest.fixture
def bounds():
    return AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5, g_sup=1.0)


def make_record(d=1, rho_mean=1.0, rho_amp=0.1, u_amp=0.0, u_base=0.0,
                mu=0.05, eta=0.0, a=1.0, gamma=2.0, period=1.0, g=None):
    """Smooth single-mode data record for solver tests."""
    rho_modes = (FourierMode((1,) + (0,) * (d - 1), "sin", rho_amp),) if rho_amp else ()
    u0 = []
    for c in range(d):
        modes = (FourierMode((1,) + (0,) * (d - 1), "cos", u_amp),) if u_amp else ()
        u0.append(FourierField(d, period, u_base if c == 0 else 0.0, modes))
    return DataRecord(
        rho0=FourierField(d, period, rho_mean, rho_modes),
        u0=tuple(u0),
        mu=mu,
        eta=eta,
        a=a,
        gamma=gamma,
        g=g if g is not None else ForcingSpec.zero(d, period),
    )


def make_spec(bounds, K=1, d=1, gamma=2.0, mu=("uniform", 0.02, 0.08, 0),
              a=("const", 1.0), rho_slope=0.0, rho_latent=None, u_amp=0.05):
    """Small admissible distribution spec; scalar pieces given as tuples."""

    def tr(doc):
        if doc[0] == "const":
            return ScalarTransform("const", doc[1])
        if doc[0] == "trunc_normal":
            return ScalarTransform("trunc_normal", doc[1], doc[2],
                                   mean=0.5 * (doc[1] + doc[2]), sd=0.25 * (doc[2] - doc[1]),
                                   latent_index=doc[3])
        return ScalarTransform(doc[0], doc[1], doc[2], latent_index=doc[3])

    rho_modes = ()
    if rho_slope or rho_latent is not None:
        rho_modes = (RandomMode((1,) + (0,) * (d - 1), "sin", 0.05, rho_slope, rho_latent),)
    u0 = tuple(
        RandomFieldSpec(0.0, (RandomMode((1,) + (0,) * (d - 1), "cos", u_amp),) if u_amp else ())
        for _ in range(d)
    )
    return DistributionSpec(
        K=K, d=d, period=1.0, gamma=gamma, bounds=bounds,
        mu=tr(mu), eta=ScalarTransform("const", 0.0), a=tr(a),
        rho0=RandomFieldSpec(1.0, rho_modes), u0=u0,
        g_base=ForcingSpec.zero(d), g_scale=ScalarTransform("const", 0.0),
    )


def fake_report(grid, rho_vals, u_vals, linf_max=None, status="completed",
                T=1.0, energy=1.0):
    """Two-state constant-in-time trajectory with a prescribed max norm."""
    rho, u = np.array(rho_vals, dtype=float), np.array(u_vals, dtype=float)
    traj = Trajectory(grid, [rho, rho], [u, u], [0.0, T], [0, 1])
    if linf_max is None:
        linf_max = max(np.abs(rho).max(), np.abs(u).max())
    return SolveReport(
        trajectory=traj,
        linf_history=np.array([linf_max, linf_max]),
        energy_history=np.array([energy, energy]),
        status=status,
    )


def fake_ensemble(entries, mode="weak", weights=None, grid=None, d=1, n=8):
    """Synthetic ensemble; entries are dicts {rho, u, linf, status, latent}."""
    grid = grid or GridSpec(d, n)
    latents, reports = [], []
    for i, e in enumerate(entries):
        rho_vals = np.full(grid.shape, e.get("rho", 1.0)) if np.isscalar(e.get("rho", 1.0)) \
            else np.asarray(e["rho"])
        u_spec = e.get("u", 0.0)
        if np.isscalar(u_spec):
            u_vals = np.full(grid.shape + (grid.d,), u_spec)
        else:
            u_vals = np.asarray(u_spec)
        rep = fake_report(grid, rho_vals, u_vals, linf_max=e.get("linf"),
                          status=e.get("status", "completed"),
                          energy=e.get("energy", 1.0))
        latents.append(e.get("latent", [i / max(len(entries), 1)]))
        reports.append(rep)
    if weights is None:
        weights = np.full(len(entries), 1.0 / len(entries))
    return Ensemble(latents=latents, reports=reports, weights=weights, mode=mode)


def thinned(traj, keep):
    """`traj` with only the states that `solve(keep=keep)` keeps: each state j that the
    one per-state rule `mesh._keeps_state` keeps; the states share `traj`'s arrays."""
    windows, t = _keep_windows(keep), traj.times.tolist()
    at = {s: k for k, s in enumerate(traj.steps.tolist())}
    ks = [at[j] for j in range(len(t)) if _keeps_state(windows, t, j)]
    return Trajectory(traj.grid, [traj.rho[k] for k in ks], [traj.u[k] for k in ks],
                      traj.times, traj.steps[ks])


def random_member(rng, grid, T, thin=False):
    """(trajectory, sample times) on `grid` ending at T: random steps, a random
    subset of them kept when `thin`, and 5 times the kept states can serve,
    exact hits, points between kept neighbours and the final time among them."""
    times = np.unique(np.concatenate([[0.0, T], rng.uniform(0.0, T, rng.integers(1, 7))]))
    keep = np.ones(len(times), dtype=bool)
    if thin:
        keep[1:-1] = rng.random(len(times) - 2) < 0.6
    steps = np.flatnonzero(keep)
    rho = [1.0 + 0.5 * rng.random(grid.shape) for _ in steps]
    u = [rng.standard_normal(grid.shape + (grid.d,)) for _ in steps]
    traj = Trajectory(grid, rho, u, times, steps)
    pairs = [(times[j], times[j + 1]) for j in steps[:-1] if keep[j + 1]]
    candidates = [*times[steps], T, T + 1e-13 * T]
    candidates += [a + (b - a) * rng.random() for a, b in pairs]
    return traj, rng.choice(candidates, 5)

"""Seeded generator of the benchmark's experiment configs.

Each workload is a pure function of (seed, shrink) that returns the JSON
document handed to `nsuq run-weak` / `run-strong`; the CLI receives only
that file.  The seed selects one of `VARIANTS` parameter sets (seed modulo
VARIANTS), so that the correctness gate can hold reference statistics for
every seed the benchmark can be given.  Variants differ in the Monte-Carlo
stream, the forcing phase and one small density mode; the parameters that
set the step count (viscosity range, leading density and velocity modes)
are fixed, so the work done depends on the seed by about one percent.

`shrink=True` gives the cut-down ladders the self-test runs.
"""

from __future__ import annotations

import math
import random

VARIANTS = 16

BOUNDS = {"rho_lower": 0.5, "mu_lower": 0.01, "a_lower": 0.5, "a_upper": 1.5, "g_sup": 1.0}


def _const(value: float) -> dict:
    return {"dist": "const", "lo": value}


def _uniform(lo: float, hi: float, latent: int) -> dict:
    return {"dist": "uniform", "lo": lo, "hi": hi, "latent_index": latent}


def _mode(wavevec, kind: str, const: float, slope: float = 0.0, latent=None) -> dict:
    return {"wavevec": list(wavevec), "kind": kind, "coef_const": const,
            "coef_slope": slope, "latent_index": latent}


def _forcing(d: int, amplitude: float, phase: float) -> dict:
    k = [1] + [0] * (d - 1)
    return {"d": d, "period": 1.0, "horizon": 1.0, "terms": [
        {"wavevec": k, "kind": "sin", "amplitude": [amplitude] + [0.0] * (d - 1),
         "omega": 2 * math.pi, "phase": phase, "poly": [1.0]},
    ]}


def _distribution(d: int, K: int, mu: dict, a: dict, rho_modes: list, u_amp: float,
                  eta: float, g_amp: float, g_phase: float) -> dict:
    k1 = [1] + [0] * (d - 1)
    u0 = [{"base": 0.0, "modes": [_mode(k1, "cos", u_amp)] if c == 0 else []} for c in range(d)]
    return {
        "K": K, "d": d, "period": 1.0, "gamma": 2.0, "bounds": BOUNDS,
        "mu": mu, "eta": _const(eta), "a": a,
        "rho0": {"base": 1.0, "modes": rho_modes}, "u0": u0,
        "g_base": _forcing(d, g_amp, g_phase), "g_scale": _const(1.0),
        "field_order": 1.0,
    }


def _config(mode: str, ladder, T: float, distribution: dict, stats: dict, seed: int,
            threads: int) -> dict:
    return {
        "mode": mode,
        "ladder": [{"N": N, "n_cells": n} for N, n in ladder],
        "scheme": {"cfl": 0.4, "T": T, "theta_implicit": True, "linf_ceiling": 1e4,
                   "picard_tol": 1e-10, "picard_max_iter": 100},
        "distribution": distribution,
        "stats": stats,
        "seed": seed,
        "threads": threads,
        "failure_budget": 0.1,
        "point_rule": "center",
        "convergence": None,
    }


# Exceedance thresholds sit below 0.8 or above 1.6.  Every member's
# space-time max norm stays inside [0.95, 1.3] for all variants (density
# 1 +- 0.2 at most, velocities of order 0.1), so the exceedance fractions
# are exact 0/1 sums that a numerical change of the solver cannot flip.


def weak_1d_mc(rng: random.Random, variant: int, shrink: bool) -> dict:
    """Monte-Carlo ladder, d=1, K=2 (mu and a random), common random numbers.

    Why: the solver is bound by per-call overhead here (at most 64 cells,
    about 1.5 ms per step), and the viscous h^2 bound sets dt on the fine
    levels, so a change to the step count shows here first.  Statistics
    take a few percent.  One worker: on the 2-core machine this benchmark
    was tuned on, two GIL-bound threads made the run time spread 16% from
    one repetition to the next (8% with one), too much for the bound.
    """
    dist = _distribution(
        d=1, K=2,
        mu=_uniform(0.0475, 0.0525, 0), a=_uniform(0.8, 1.2, 1),
        rho_modes=[_mode([1], "sin", 0.1), _mode([2], "cos", rng.uniform(0.02, 0.03))],
        u_amp=0.08, eta=0.0,
        g_amp=0.5, g_phase=rng.uniform(0.0, 2 * math.pi),
    )
    stats = {
        "M_grid": [0.5, 0.8, 1.6, 5.0],
        "eps_grid": [1e-4, 1e-3, 1e-2],
        "barycenters": [[2.0, 2.0, "density"]],
        "functionals": [
            {"kind": "tanh_mean_density", "name": "mass"},
            {"kind": "clamp_fourier", "name": "rho_sin1", "wavevec": [1], "part": "sin",
             "field": "rho", "scale": 5.0},
        ],
        "n_report_times": 3,
        "diagnostic_q": 2.0,
    }
    ladder = [(2, 16), (4, 32)] if shrink else [(4, 16), (8, 32), (16, 64)]
    return _config("weak", ladder, 0.05, dist, stats, 1000 + variant, threads=1)


def strong_2d_colloc(rng: random.Random, variant: int, shrink: bool) -> dict:
    """Collocation ladder, d=2, K=1 (mu random), one worker.

    Why: 2-D stencils and CG dominate the time, and keeping every step of
    every member dominates memory, so stencil work shows in wall_s and
    trajectory storage in peak_rss_mb.  With one worker, a change to
    member parallelism should change nothing here.
    """
    dist = _distribution(
        d=2, K=1,
        mu=_uniform(0.045, 0.055, 0), a=_const(1.0),
        rho_modes=[_mode([1, 0], "sin", 0.1), _mode([0, 1], "cos", 0.05),
                   _mode([1, 1], "cos", rng.uniform(0.01, 0.02))],
        u_amp=0.08, eta=0.01,
        g_amp=0.5, g_phase=rng.uniform(0.0, 2 * math.pi),
    )
    stats = {
        "M_grid": [0.5, 0.8, 1.6, 5.0],
        "eps_grid": [1e-3],
        "barycenters": [[2.0, 2.0, "density"]],
        "functionals": [{"kind": "tanh_mean_density", "name": "mass"}],
        "n_report_times": 2,
        "diagnostic_q": 2.0,
    }
    ladder = [(1, 8), (2, 16)] if shrink else [(2, 16), (2, 32), (4, 64)]
    return _config("strong", ladder, 0.02, dist, stats, 2000 + variant, threads=1)


def strong_1d_stats(rng: random.Random, variant: int, shrink: bool) -> dict:
    """Collocation ladder, d=1, K=2, with a heavy statistics request.

    Why: the stored trajectories are used the other way round, with reads
    (Trajectory.sample, trajectory_lq_distance, iterative barycenters,
    tanh_neg_sobolev over every step) far outnumbering writes.  A storage
    change that saves memory on strong-2d-colloc but slows sampling shows
    here, and a solver-only speed-up moves this workload less than half
    as much.
    """
    dist = _distribution(
        d=1, K=2,
        mu=_uniform(0.045, 0.055, 0), a=_const(1.0),
        rho_modes=[_mode([1], "sin", 0.07, 0.04, 1), _mode([3], "cos", rng.uniform(0.01, 0.02))],
        u_amp=0.08, eta=0.0,
        g_amp=0.5, g_phase=rng.uniform(0.0, 2 * math.pi),
    )
    stats = {
        "M_grid": [0.25, 0.5, 0.6, 0.7, 0.75, 0.8, 1.6, 1.8, 2.0, 2.5,
                   3.0, 4.0, 5.0, 10.0, 20.0, 50.0],
        "eps_grid": [1e-5, 1e-4, 1e-3, 1e-2],
        "barycenters": [[2.0, 2.0, "density"], [1.5, 2.0, "density"],
                        [3.0, 1.5, "density"], [2.0, 3.0, "momentum"]],
        "functionals": [
            {"kind": "tanh_mean_density", "name": "mass"},
            {"kind": "clamp_fourier", "name": "mom_cos1", "wavevec": [1], "part": "cos",
             "field": "momentum", "scale": 5.0, "time": "final"},
            {"kind": "tanh_neg_sobolev", "name": "neg_sobolev", "scale": 2.0},
        ],
        "n_report_times": 9,
        "diagnostic_q": 2.0,
    }
    ladder = [(2, 8), (4, 8)] if shrink else [(2, 8), (4, 8), (8, 16), (12, 16)]
    return _config("strong", ladder, 0.01, dist, stats, 3000 + variant, threads=1)


# name -> (CLI subcommand, config generator); each generator's docstring says why
WORKLOADS = {
    "weak-1d-mc": ("run-weak", weak_1d_mc),
    "strong-2d-colloc": ("run-strong", strong_2d_colloc),
    "strong-1d-stats": ("run-strong", strong_1d_stats),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build_config(name: str, seed: int, shrink: bool = False) -> dict:
    """The config document for one workload and seed."""
    _, gen = WORKLOADS[name]
    variant = variant_of(seed)
    return gen(random.Random(f"{name}/{variant}"), variant, shrink)


def expected_shape(config: dict) -> list:
    """(N, n_cells, members) per ladder level, as the gate expects them."""
    K = config["distribution"]["K"]
    out = []
    for lvl in config["ladder"]:
        N = lvl["N"]
        out.append((N, lvl["n_cells"], N if config["mode"] == "weak" else N**K))
    return out

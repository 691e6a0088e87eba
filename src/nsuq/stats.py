"""Ensemble post-processing: the statistics the convergence theory is about.

Boundedness-in-probability reports are plain counting/weighting formulas
over the per-member max norms.  Empirical means and r-barycenters are
computed over the completed members with their weight mass renormalized;
the weight of unresolved (aborted) members is surfaced separately rather
than silently dropped.  Aborted members are treated conservatively as
exceeding every threshold in the boundedness and diagnostic reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (
    GridSpec,
    ScalarField,
    VectorField,
    Trajectory,
    _lq,
    _mag,
    check_number,
    neg_sobolev_norm,
    trajectory_lq_distance,
    transfer,
)
from .random_data import Ensemble
from .solver import COMPLETED

__all__ = [
    "BoundednessReport",
    "boundedness_in_probability",
    "empirical_functional_mean",
    "empirical_field_mean",
    "BarycenterResult",
    "r_barycenter",
    "PairedSample",
    "PairedEnsemble",
    "pair_by_index",
    "DiagnosticReport",
    "diagnostic_from_distances",
    "convergence_in_probability_diagnostic",
    "energy_moment_bound",
    "make_functional",
]


# ---------------------------------------------------------------------------
# boundedness in probability


@dataclass
class BoundednessReport:
    thresholds: np.ndarray
    exceedance: np.ndarray
    mode: str

    def rows(self) -> list:
        return [(float(m), float(e)) for m, e in zip(self.thresholds, self.exceedance)]


def _effective_maxes(ensemble: Ensemble) -> np.ndarray:
    # an aborted run has an unknown true sup: count it above every threshold
    return np.array(
        [
            m.report.max_linf if m.report.status == COMPLETED else np.inf
            for m in ensemble.members
        ]
    )


def boundedness_in_probability(ensemble: Ensemble, M_grid) -> BoundednessReport:
    """Exceedance probability of the space-time max norm per threshold.

    Weak mode: counting fraction #{max > M} / N.  Strong mode: sum of the
    cell weights of the exceeding members.
    """
    M_grid = np.asarray(M_grid, dtype=float)
    if M_grid.ndim != 1 or len(M_grid) == 0:
        raise ValueError("M_grid must be a nonempty 1-D array")
    maxes = _effective_maxes(ensemble)
    exceed = np.empty(len(M_grid))
    for j, M in enumerate(M_grid):
        mask = maxes > M
        if ensemble.mode == "weak":
            exceed[j] = np.count_nonzero(mask) / len(ensemble)
        else:
            exceed[j] = float(ensemble.weights[mask].sum())
    return BoundednessReport(thresholds=M_grid, exceedance=exceed, mode=ensemble.mode)


# ---------------------------------------------------------------------------
# empirical means


def _resolved(ensemble: Ensemble):
    mask = ensemble.completed_mask
    if not mask.any():
        raise ValueError("no completed members in the ensemble")
    members = [m for m, ok in zip(ensemble.members, mask) if ok]
    w = ensemble.weights[mask]
    return members, w / w.sum()


def empirical_functional_mean(ensemble: Ensemble, F) -> float:
    """Weighted mean of F over completed members (weights renormalized)."""
    members, w = _resolved(ensemble)
    return float(sum(wi * F(m.report.trajectory) for wi, m in zip(w, members)))


def _member_field_values(member, which: str, t: float, grid: GridSpec):
    rho, u = member.report.trajectory.sample(t)
    src = member.report.trajectory.grid
    if which == "density":
        return transfer(rho, src, grid)
    if which == "momentum":
        return transfer(rho[..., None] * u, src, grid)
    raise ValueError(f"unknown field selector {which!r}")


def _common_grid(members) -> GridSpec:
    grids = {m.report.trajectory.grid for m in members}
    return min(grids, key=lambda g: g.n)


def empirical_field_mean(ensemble: Ensemble, which: str = "density",
                         times=None) -> list:
    """Weighted pointwise mean of density or momentum fields per time level.

    Members on finer grids are restricted onto the coarsest member grid.
    Returns a list of (time, field) pairs.
    """
    members, w = _resolved(ensemble)
    grid = _common_grid(members)
    if times is None:
        times = [min(m.report.trajectory.final_time for m in members)]
    out = []
    for t in times:
        acc = None
        for wi, m in zip(w, members):
            vals = wi * _member_field_values(m, which, t, grid)
            acc = vals if acc is None else acc + vals
        cls = ScalarField if which == "density" else VectorField
        out.append((float(t), cls(grid, acc)))
    return out


# ---------------------------------------------------------------------------
# r-barycenters


@dataclass
class BarycenterResult:
    minimizer: object  # ScalarField | VectorField
    r: float
    q: float
    time: float
    objective: float
    iterations: int
    first_order_residual: float
    converged: bool


def _bary_objective(Z, Ys, w, r, q, vol, vector):
    return float(sum(wi * _lq(_mag(Z - Y, vector), q, vol) ** r for wi, Y in zip(w, Ys)))


def _bary_grad(Z, Ys, w, r, q, vol, vector):
    """Functional gradient density of the weighted sum of ||Z - Y||_q^r."""
    g = np.zeros_like(Z)
    for wi, Y in zip(w, Ys):
        D = Z - Y
        mag = _mag(D, vector)
        norm = _lq(mag, q, vol)
        if norm == 0.0:
            continue  # r > 1: the term's gradient vanishes at coincidence
        safe = np.where(mag > 0, mag, 1.0)
        fac = np.where(mag > 0, safe ** (q - 2.0), 0.0)
        term = fac[..., None] * D if vector else fac * D
        g += wi * r * norm ** (r - q) * term
    return g


def r_barycenter(ensemble: Ensemble, which: str = "density", r: float = 2.0,
                 q: float = 2.0, time: float | None = None, tol: float = 1e-8,
                 max_iter: int = 500, method: str = "auto") -> BarycenterResult:
    """Minimizer of the weighted mean of ||Y_n - Z||_{L^q}^r over fields Z.

    r = q = 2 is the weighted pointwise mean in closed form.  Otherwise the
    objective is minimized by gradient descent (Barzilai-Borwein steps with
    an Armijo backtracking safeguard) initialized at the pointwise mean, so
    the returned objective never exceeds the mean's.  method="iterative"
    forces the descent path even when the closed form applies.
    """
    if r <= 1:
        raise ValueError("barycenter order r must exceed 1")
    if not 1 <= q < math.inf:
        # the L^q kernel is the finite-q formula; at q = inf it reads 1 for any data
        raise ValueError("ambient exponent q must be finite and >= 1")
    if method not in ("auto", "iterative"):
        raise ValueError("method must be auto or iterative")
    members, w = _resolved(ensemble)
    grid = _common_grid(members)
    if time is None:
        time = min(m.report.trajectory.final_time for m in members)
    vector = which == "momentum"
    Ys = [_member_field_values(m, which, time, grid) for m in members]
    vol = grid.cell_volume
    cls = VectorField if vector else ScalarField

    mean = sum(wi * Y for wi, Y in zip(w, Ys))
    if r == 2.0 and q == 2.0 and method == "auto":
        res = float(np.abs(_bary_grad(mean, Ys, w, r, q, vol, vector)).max())
        return BarycenterResult(
            minimizer=cls(grid, mean), r=r, q=q, time=float(time),
            objective=_bary_objective(mean, Ys, w, r, q, vol, vector),
            iterations=0, first_order_residual=res, converged=res <= tol,
        )

    Z = mean.copy()
    obj = _bary_objective(Z, Ys, w, r, q, vol, vector)
    g = _bary_grad(Z, Ys, w, r, q, vol, vector)
    res = float(np.abs(g).max())
    spread = max((_lq(_mag(Z - Y, vector), q, vol) for Y in Ys), default=0.0)
    t_step = 0.5 * spread / res if res > 0 else 0.0
    iterations = 0
    while res > tol and iterations < max_iter:
        gnorm2 = float(np.sum(g**2) * vol)
        t_try = t_step
        accepted = False
        for _ in range(60):
            Z_new = Z - t_try * g
            obj_new = _bary_objective(Z_new, Ys, w, r, q, vol, vector)
            if obj_new <= obj - 1e-4 * t_try * gnorm2:
                accepted = True
                break
            t_try *= 0.5
        if not accepted:
            break  # stalled at the current iterate
        iterations += 1
        g_new = _bary_grad(Z_new, Ys, w, r, q, vol, vector)
        dz = Z_new - Z
        dg = g_new - g
        denom = float(np.sum(dz * dg) * vol)
        if denom > 0:
            t_step = float(np.sum(dz * dz) * vol) / denom  # BB1
        else:
            t_step = 2.0 * t_try
        Z, obj, g = Z_new, obj_new, g_new
        res = float(np.abs(g).max())
    return BarycenterResult(
        minimizer=cls(grid, Z), r=r, q=q, time=float(time), objective=obj,
        iterations=iterations, first_order_residual=res, converged=res <= tol,
    )


# ---------------------------------------------------------------------------
# convergence-in-probability diagnostic (common random numbers across levels)


@dataclass
class PairedSample:
    latent: np.ndarray
    weight: float
    traj_a: Trajectory | None
    traj_b: Trajectory | None

    @property
    def resolved(self) -> bool:
        return self.traj_a is not None and self.traj_b is not None


@dataclass
class PairedEnsemble:
    samples: list

    def __post_init__(self):
        if not self.samples:
            raise ValueError("need at least one paired sample")
        total = sum(s.weight for s in self.samples)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("pair weights must sum to one")


def pair_by_index(ens_a: Ensemble, ens_b: Ensemble) -> PairedEnsemble:
    """Pair the shared prefix of two ensembles member by member.

    Requires the common-random-number discipline: latent point n must be
    identical in both ensembles.
    """
    n = min(len(ens_a), len(ens_b))
    samples = []
    for i in range(n):
        ma, mb = ens_a.members[i], ens_b.members[i]
        if not np.array_equal(ma.latent, mb.latent):
            raise ValueError(f"mismatched latent pairing at member {i}")
        ta = ma.report.trajectory if ma.report.status == COMPLETED else None
        tb = mb.report.trajectory if mb.report.status == COMPLETED else None
        samples.append(PairedSample(ma.latent, 1.0 / n, ta, tb))
    return PairedEnsemble(samples)


@dataclass
class DiagnosticReport:
    eps_grid: np.ndarray
    fractions: np.ndarray
    distances: np.ndarray

    def rows(self) -> list:
        return [(float(e), float(f)) for e, f in zip(self.eps_grid, self.fractions)]


def diagnostic_from_distances(distances, weights, eps_grid) -> DiagnosticReport:
    """Weighted fraction of paired members with distance above each epsilon.

    An unresolved pair carries distance inf and so exceeds every threshold.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    dists = np.asarray(distances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    fractions = np.array([float(weights[dists > eps].sum()) for eps in eps_grid])
    return DiagnosticReport(eps_grid=eps_grid, fractions=fractions, distances=dists)


def convergence_in_probability_diagnostic(pairs: PairedEnsemble, eps_grid, q: float = 2.0,
                                          which: str = "both") -> DiagnosticReport:
    """Weighted fraction of paired members with L^q distance above each epsilon.

    Unresolved pairs (an aborted solve on either level) count as exceeding
    every threshold.
    """
    dists = np.array([
        trajectory_lq_distance(s.traj_a, s.traj_b, q=q, which=which)
        if s.resolved else np.inf
        for s in pairs.samples
    ])
    return diagnostic_from_distances(dists, [s.weight for s in pairs.samples], eps_grid)


# ---------------------------------------------------------------------------
# energy moments


# uniform times at which energy_moment_bound reads the energy histories
N_ENERGY_TIMES = 33


def energy_moment_bound(ensemble: Ensemble) -> float:
    """sup over time of the weighted mean total energy (completed members)."""
    members, w = _resolved(ensemble)
    T = min(m.report.trajectory.final_time for m in members)
    times = np.linspace(0.0, T, N_ENERGY_TIMES)
    acc = np.zeros(N_ENERGY_TIMES)
    for wi, m in zip(w, members):
        acc += wi * np.interp(times, m.report.trajectory.times, m.report.energy_history)
    return float(acc.max())


# ---------------------------------------------------------------------------
# a small library of bounded continuous test functionals


def _fourier_coef(values: np.ndarray, grid: GridSpec, wavevec, part: str) -> float:
    xs = grid.cell_centers()
    phase = sum((2 * np.pi * k / grid.period) * x for k, x in zip(wavevec, xs))
    basis = np.cos(phase) if part == "cos" else np.sin(phase)
    scale = 1.0 if all(k == 0 for k in wavevec) else 2.0
    return float(scale * np.mean(values * basis))


# kind -> the parameters it reads besides kind and name, with their defaults
_FUNCTIONAL_PARAMS = {
    "tanh_mean_density": {"scale": 1.0, "center": 0.0},
    "clamp_fourier": {"wavevec": None, "part": "cos", "field": "rho", "lo": -1.0, "hi": 1.0,
                      "scale": 1.0, "time": "final"},
    "tanh_neg_sobolev": {"m": None, "scale": 1.0},
}


def make_functional(doc: dict):
    """Build a named bounded functional of a trajectory from a config document.

    Kinds: tanh_mean_density, clamp_fourier (cos/sin coefficient of rho or
    the momentum magnitude at a chosen time), tanh_neg_sobolev.  An unknown
    key or a bad parameter raises ValueError; the checks against the
    dimension and the final time are left to the experiment config.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _FUNCTIONAL_PARAMS:
        raise ValueError(f"unknown functional kind {kind!r}")
    stray = set(doc) - {"kind", "name", *_FUNCTIONAL_PARAMS[kind]}
    if stray:
        raise ValueError(f"functional {kind} takes no keys {sorted(stray)}")
    p = {"name": kind, **_FUNCTIONAL_PARAMS[kind], **doc}
    name = p["name"]
    if not isinstance(name, str):
        raise ValueError("functional name must be a string")
    for k in ("scale", "center", "lo", "hi"):
        if k in p:
            check_number(p[k], f"functional {name}: {k}")
    if kind == "tanh_mean_density":
        scale, center = p["scale"], p["center"]

        def F(traj: Trajectory) -> float:
            rho, _ = traj.sample(traj.final_time)
            return math.tanh(scale * (float(rho.mean()) - center))

        return name, F
    if kind == "clamp_fourier":
        if not isinstance(p["wavevec"], (list, tuple)):
            raise ValueError(f"functional {name}: wavevec must be a list of integers")
        for k in p["wavevec"]:
            check_number(k, f"functional {name}: wavevec entry", integer=True)
        if p["part"] not in ("cos", "sin") or p["field"] not in ("rho", "momentum"):
            raise ValueError(f"functional {name}: part must be cos or sin, "
                             "field rho or momentum")
        if not p["lo"] <= p["hi"]:
            raise ValueError(f"functional {name}: need lo <= hi")
        at = p["time"]
        if at not in ("final", "initial"):
            check_number(at, f"functional {name}: time (final, initial or a number)", ge=0)
        wavevec, part, field, lo, hi, scale = (tuple(p["wavevec"]), p["part"], p["field"],
                                               p["lo"], p["hi"], p["scale"])

        def F(traj: Trajectory) -> float:
            t = traj.final_time if at == "final" else (0.0 if at == "initial" else float(at))
            rho, u = traj.sample(t)
            vals = rho if field == "rho" else np.sqrt(np.sum((rho[..., None] * u) ** 2, axis=-1))
            c = _fourier_coef(vals, traj.grid, wavevec, part)
            return float(np.clip(scale * c, lo, hi))

        return name, F
    m, scale = p["m"], p["scale"]
    if m is not None:
        check_number(m, f"functional {name}: m")

    def F(traj: Trajectory) -> float:
        order = m if m is not None else traj.grid.d + 2
        return math.tanh(scale * neg_sobolev_norm(traj, order))

    return name, F

"""Solved ensembles and the statistics the convergence theory is about.

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
    _mag,
    check_number,
    neg_sobolev_norm,
    sample_members,
    trajectory_lq_distance,
)
from .physics import _spatial_profile
from .solver import COMPLETED

__all__ = [
    "Ensemble",
    "BoundednessReport",
    "boundedness_in_probability",
    "empirical_functional_mean",
    "empirical_field_mean",
    "SampledEnsemble",
    "BarycenterResult",
    "r_barycenter",
    "pair_by_index",
    "DiagnosticReport",
    "diagnostic_from_distances",
    "convergence_in_probability_diagnostic",
    "energy_moment_bound",
    "make_functional",
]


# ---------------------------------------------------------------------------
# solved ensembles


@dataclass
class Ensemble:
    """A solved level: member i is the latent point `latents[i]`, a row of the
    (N, K) array, solved as `reports[i]`, a `SolveReport`, at weight
    `weights[i]`; the weights are 1/N (weak) or cell volumes (strong)."""

    latents: np.ndarray
    reports: list
    weights: np.ndarray
    mode: str

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.mode not in ("weak", "strong"):
            raise ValueError("mode must be weak or strong")
        if not len(self.latents) == len(self.reports) == len(self.weights) or not len(self):
            raise ValueError("need one latent point, one report and one weight per member, "
                             "and at least one member")
        if not ((self.weights > 0).all() and abs(self.weights.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be positive and sum to one")

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def completed_mask(self) -> np.ndarray:
        return np.array([r.status == COMPLETED for r in self.reports])

    @property
    def unresolved_mass(self) -> float:
        """Weight mass of members whose solve did not complete."""
        return float(self.weights[~self.completed_mask].sum())

    @property
    def trajectories(self) -> list:
        """The one trajectory list of a level: None where a solve did not complete."""
        return [r.trajectory if r.status == COMPLETED else None for r in self.reports]


# ---------------------------------------------------------------------------
# boundedness in probability


@dataclass
class BoundednessReport:
    thresholds: np.ndarray
    exceedance: np.ndarray


def _effective_maxes(ensemble: Ensemble) -> np.ndarray:
    # an aborted run has an unknown true sup: count it above every threshold
    return np.array([r.max_linf if ok else np.inf
                     for r, ok in zip(ensemble.reports, ensemble.completed_mask)])


def boundedness_in_probability(ensemble: Ensemble, M_grid) -> BoundednessReport:
    """Exceedance probability of the space-time max norm per threshold.

    Weak mode: counting fraction #{max > M} / N.  Strong mode: sum of the
    cell weights of the exceeding members.
    """
    M_grid = np.asarray(M_grid, dtype=float)
    if M_grid.ndim != 1 or len(M_grid) == 0 or np.isnan(M_grid).any():
        raise ValueError("M_grid must be a nonempty 1-D array of numbers")
    maxes = _effective_maxes(ensemble)
    exceed = np.empty(len(M_grid))
    for j, M in enumerate(M_grid):
        mask = maxes > M
        if ensemble.mode == "weak":
            exceed[j] = np.count_nonzero(mask) / len(ensemble)
        else:
            exceed[j] = float(ensemble.weights[mask].sum())
    return BoundednessReport(thresholds=M_grid, exceedance=exceed)


# ---------------------------------------------------------------------------
# empirical means


def _resolved(ensemble: Ensemble) -> tuple:
    """(trajs, w, T): the completed members' trajectories, in order, their
    renormalized weights and the earliest final time."""
    mask = ensemble.completed_mask
    if not mask.any():
        raise ValueError("no completed members in the ensemble")
    trajs = [tr for tr in ensemble.trajectories if tr is not None]
    w = ensemble.weights[mask]
    return trajs, w / w.sum(), min(tr.final_time for tr in trajs)


class SampledEnsemble(Ensemble):
    """An ensemble whose completed members are sampled once, by one `sample_members`
    pass, at `times`, at the earliest final time (the barycenters' default) and
    at every time a state functional of `functionals` reads that all members reach.

    `rho` and `u` are the (members, len(self.times), *grid.shape[, d]) stacks of
    the completed members, in order.  The statistics below read a time from
    these stacks when it was sampled, and sample any other time afresh.
    """

    def __init__(self, ensemble: Ensemble, times=(), functionals=()):
        super().__init__(ensemble.latents, ensemble.reports, ensemble.weights, ensemble.mode)
        trajs, _, T = _resolved(self)
        self.grid = trajs[0].grid
        reads = [*times, T, *(F.time_of(tr) for F in functionals
                              if isinstance(F, _StateFunctional) for tr in trajs)]
        self.times = np.array([t for t in dict.fromkeys(map(float, reads)) if t <= T])
        self._column = {t: c for c, t in enumerate(self.times)}
        self.rho, self.u = sample_members(trajs, self.times, self.grid)

    def _columns(self, times):
        """The slice of the stacks' time axis that holds `times`, or None
        unless they were sampled as consecutive columns."""
        cols = [self._column.get(float(t)) for t in times]
        if None in cols or np.any(np.diff(cols) != 1):
            return None
        return slice(cols[0], cols[0] + len(cols)) if cols else slice(0, 0)

    def _state_value(self, F: "_StateFunctional", i: int, traj: Trajectory) -> float:
        """F of completed member i (trajectory `traj`), read from the stacks when
        its time was sampled."""
        c = self._column.get(float(F.time_of(traj)))
        return F(traj) if c is None else F.value(self.rho[i, c], self.u[i, c], self.grid)


def empirical_functional_mean(ensemble: Ensemble, F) -> float:
    """Weighted mean of F over completed members (weights renormalized)."""
    trajs, w, _ = _resolved(ensemble)
    if isinstance(ensemble, SampledEnsemble) and isinstance(F, _StateFunctional):
        values = [ensemble._state_value(F, i, tr) for i, tr in enumerate(trajs)]
    else:
        values = [F(tr) for tr in trajs]
    return float(sum(wi * v for wi, v in zip(w, values)))


def _member_stack(ensemble: Ensemble, which: str, times) -> tuple:
    """(grid, w, times, Y) of the completed members, with their renormalized
    weights w and Y[i] member i's density or momentum at each of `times`
    (None: the earliest final time).

    A `SampledEnsemble` gives Y from its stacks when it sampled `times` as
    consecutive columns;
    otherwise one `sample_members` pass samples them.  Y has shape
    (members, len(times), *grid.shape[, d]).  The members must share one
    grid; a mixed-grid ensemble raises ValueError.
    """
    if which not in ("density", "momentum"):
        raise ValueError(f"unknown field selector {which!r}")
    trajs, w, T = _resolved(ensemble)
    grid = trajs[0].grid
    times = np.asarray([T] if times is None else times, dtype=float)
    cols = ensemble._columns(times) if isinstance(ensemble, SampledEnsemble) else None
    if cols is None:
        rho, u = sample_members(trajs, times, grid)
    else:
        rho, u = ensemble.rho[:, cols], ensemble.u[:, cols]
    return grid, w, times, rho if which == "density" else rho[..., None] * u


def _weighted_sum(w, Y) -> np.ndarray:
    """sum_i w[i] * Y[i] over the leading member axis of an array of two or more
    dimensions: numpy adds the members in order, starting from +0.0, like a
    Python sum.  (Over a 1-D array it sums pairwise, so sums of per-member
    scalars stay Python sums.)
    """
    w = np.asarray(w, dtype=float).reshape((-1,) + (1,) * (Y.ndim - 1))
    return np.add.reduce(w * Y, axis=0)


def empirical_field_mean(ensemble: Ensemble, which: str = "density",
                         times=None) -> list:
    """Weighted pointwise mean of density or momentum fields per time level.

    The completed members must share one grid (ValueError otherwise); `times`
    defaults to the earliest final time.  Returns a list of (time, field) pairs.
    """
    grid, w, times, Y = _member_stack(ensemble, which, times)
    cls = ScalarField if which == "density" else VectorField
    return [(float(t), cls(grid, mean)) for t, mean in zip(times, _weighted_sum(w, Y))]


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


def _bary_objective(Z, Y, w, r, q, vol, vector) -> tuple:
    """(objective, member norms, Z - Y, its magnitude) of sum_i w_i ||Z - Y_i||_q^r.

    One pass over the member stack Y; the norms and their powers are Python
    floats, as in a loop.  `_bary_grad` turns the last three into the
    gradient, so a rejected line-search trial costs the objective only.
    """
    D = Z - Y
    mag = _mag(D, vector)
    sums = np.sum((mag**q).reshape(len(Y), -1), axis=1) * vol  # rows sum like whole fields
    norms = [float(s ** (1.0 / q)) for s in sums]
    obj = float(sum(wi * n**r for wi, n in zip(w, norms)))
    return obj, norms, D, mag


def _bary_grad(w, r, q, vector, norms, D, mag) -> np.ndarray:
    """Gradient density of the objective from `_bary_objective`'s norms, D and mag."""
    # r > 1: a term's gradient vanishes at coincidence (norm 0)
    coef = [wi * r * n ** (r - q) if n > 0.0 else 0.0 for wi, n in zip(w, norms)]
    safe = np.where(mag > 0, mag, 1.0)
    fac = np.where(mag > 0, safe ** (q - 2.0), 0.0)
    return _weighted_sum(coef, fac[..., None] * D if vector else fac * D)


# r_barycenter's stopping rule: the gradient's max norm, and the step count
_BARY_TOL, _BARY_MAX_ITER = 1e-8, 500


def r_barycenter(ensemble: Ensemble, which: str = "density", r: float = 2.0,
                 q: float = 2.0, time: float | None = None) -> BarycenterResult:
    """Minimizer of the weighted mean of ||Y_n - Z||_{L^q}^r over fields Z.

    r = q = 2 is the weighted pointwise mean in closed form.  Otherwise the
    objective is minimized by gradient descent (Barzilai-Borwein steps with
    an Armijo backtracking safeguard) initialized at the pointwise mean, so
    the returned objective never exceeds the mean's; it stops once the
    gradient's max norm is within 1e-8, or after 500 steps.  The completed
    members must share one grid; each objective is one pass over their
    (members, *shape[, d]) stack, and the gradient is formed only at
    accepted points, from that pass's differences.
    """
    check_number(r, "barycenter order r", gt=1)
    # the L^q kernel is the finite-q formula; at q = inf it reads 1 for any data
    check_number(q, "ambient exponent q", ge=1)
    grid, w, (time,), Y = _member_stack(ensemble, which, None if time is None else [time])
    Y = Y[:, 0]
    vector = which == "momentum"
    vol = grid.cell_volume
    cls = VectorField if vector else ScalarField

    Z = _weighted_sum(w, Y)  # the pointwise mean: the answer at r = q = 2, else the start
    obj, norms, D, mag = _bary_objective(Z, Y, w, r, q, vol, vector)
    g = _bary_grad(w, r, q, vector, norms, D, mag)
    res = float(np.abs(g).max())
    if r == 2.0 and q == 2.0:
        return BarycenterResult(
            minimizer=cls(grid, Z), r=r, q=q, time=float(time), objective=obj,
            iterations=0, first_order_residual=res, converged=res <= _BARY_TOL,
        )

    t_step = 0.5 * max(norms) / res if res > 0 else 0.0  # half the spread over the slope
    iterations = 0
    while res > _BARY_TOL and iterations < _BARY_MAX_ITER:
        gnorm2 = float(np.sum(g**2) * vol)
        t_try = t_step
        accepted = False
        for _ in range(60):
            Z_new = Z - t_try * g
            obj_new, norms, D, mag = _bary_objective(Z_new, Y, w, r, q, vol, vector)
            if obj_new <= obj - 1e-4 * t_try * gnorm2:
                accepted = True
                break
            t_try *= 0.5
        if not accepted:
            break  # stalled at the current iterate
        iterations += 1
        g_new = _bary_grad(w, r, q, vector, norms, D, mag)
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
        iterations=iterations, first_order_residual=res, converged=res <= _BARY_TOL,
    )


# ---------------------------------------------------------------------------
# convergence-in-probability diagnostic (common random numbers across levels)


def pair_by_index(ens_a: Ensemble, ens_b: Ensemble) -> tuple:
    """(ta, tb, w): the shared prefix of two ensembles paired member by member,
    as their `trajectories` lists (None for a solve that did not complete), at
    weights 1/n.

    Requires the common-random-number discipline: latent point n must be
    identical in both ensembles.
    """
    n = min(len(ens_a), len(ens_b))
    for i in range(n):
        if not np.array_equal(ens_a.latents[i], ens_b.latents[i]):
            raise ValueError(f"mismatched latent pairing at member {i}")
    return ens_a.trajectories[:n], ens_b.trajectories[:n], np.full(n, 1.0 / n)


@dataclass
class DiagnosticReport:
    eps_grid: np.ndarray
    fractions: np.ndarray
    distances: np.ndarray


def diagnostic_from_distances(distances, weights, eps_grid) -> DiagnosticReport:
    """Weighted fraction of paired members with distance above each epsilon.

    An unresolved pair carries distance inf and so exceeds every threshold.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.isnan(eps_grid).any():
        raise ValueError("eps_grid must hold numbers")
    dists = np.asarray(distances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    fractions = np.array([float(weights[dists > eps].sum()) for eps in eps_grid])
    return DiagnosticReport(eps_grid=eps_grid, fractions=fractions, distances=dists)


def convergence_in_probability_diagnostic(pairs: tuple, eps_grid, q: float = 2.0,
                                          which: str = "both") -> DiagnosticReport:
    """Weighted fraction of paired members with L^q distance above each epsilon.

    `pairs` is (ta, tb, w) as `pair_by_index` gives it: pair j compares
    trajectories ta[j] and tb[j] at weight w[j].  Unresolved pairs (None on
    either level) count as exceeding every threshold.
    """
    ta, tb, w = pairs
    if not len(w):
        raise ValueError("need at least one paired sample")
    if not abs(sum(w) - 1.0) <= 1e-9:
        raise ValueError("pair weights must sum to one")
    dists = np.array([
        trajectory_lq_distance(a, b, q=q, which=which)
        if a is not None and b is not None else np.inf
        for a, b in zip(ta, tb)
    ])
    return diagnostic_from_distances(dists, w, eps_grid)


# ---------------------------------------------------------------------------
# energy moments


# uniform times at which energy_moment_bound reads the energy histories
N_ENERGY_TIMES = 33


def energy_moment_bound(ensemble: Ensemble) -> float:
    """sup over time of the weighted mean total energy (completed members)."""
    _, w, T = _resolved(ensemble)
    times = np.linspace(0.0, T, N_ENERGY_TIMES)
    E = np.array([np.interp(times, r.trajectory.times, r.energy_history)
                  for r, ok in zip(ensemble.reports, ensemble.completed_mask) if ok])
    return float(_weighted_sum(w, E).max())


# ---------------------------------------------------------------------------
# a small library of bounded continuous test functionals


def _fourier_coef(values: np.ndarray, grid: GridSpec, wavevec, part: str) -> float:
    scale = 1.0 if all(k == 0 for k in wavevec) else 2.0
    return float(scale * np.mean(values * _spatial_profile(wavevec, part, grid.period, grid)))


# kind -> the parameters it reads besides kind and name, with their defaults
_FUNCTIONAL_PARAMS = {
    "tanh_mean_density": {"scale": 1.0, "center": 0.0},
    "clamp_fourier": {"wavevec": None, "part": "cos", "field": "rho", "lo": -1.0, "hi": 1.0,
                      "scale": 1.0, "time": "final"},
    "tanh_neg_sobolev": {"m": None, "scale": 1.0},
}


@dataclass(frozen=True)
class _StateFunctional:
    """A functional of the state a trajectory reaches at one time: `value(rho,
    u, grid)` of its state at `time_of(traj)`, so that a `SampledEnsemble`
    can serve that state from its stacks."""

    time_of: object
    value: object

    def __call__(self, traj: Trajectory) -> float:
        rho, u = traj.sample(self.time_of(traj))
        return self.value(rho, u, traj.grid)


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

        def mean_density(rho, u, grid) -> float:
            return math.tanh(scale * (float(rho.mean()) - center))

        return name, _StateFunctional(lambda traj: traj.final_time, mean_density)
    if kind == "clamp_fourier":
        if not isinstance(p["wavevec"], (list, tuple)):
            raise ValueError(f"functional {name}: wavevec must be a list of integers")
        for k in p["wavevec"]:
            check_number(k, f"functional {name}: wavevec entry", integer=True)
        if p["part"] not in ("cos", "sin") or p["field"] not in ("rho", "momentum"):
            raise ValueError(f"functional {name}: part must be cos or sin, "
                             "field rho or momentum")
        check_number(p["hi"], f"functional {name}: hi", ge=p["lo"])
        at = p["time"]
        if at not in ("final", "initial"):
            check_number(at, f"functional {name}: time (final, initial or a number)", ge=0)
        wavevec, part, field, lo, hi, scale = (tuple(p["wavevec"]), p["part"], p["field"],
                                               p["lo"], p["hi"], p["scale"])

        def time_of(traj: Trajectory) -> float:
            return traj.final_time if at == "final" else (0.0 if at == "initial" else float(at))

        def clamped_coef(rho, u, grid) -> float:
            vals = rho if field == "rho" else _mag(rho[..., None] * u, vector=True)
            c = _fourier_coef(vals, grid, wavevec, part)
            return float(np.clip(scale * c, lo, hi))

        return name, _StateFunctional(time_of, clamped_coef)
    m, scale = p["m"], p["scale"]
    if m is not None:
        check_number(m, f"functional {name}: m")

    def F(traj: Trajectory) -> float:
        order = m if m is not None else traj.grid.d + 2
        return math.tanh(scale * neg_sobolev_norm(traj, order))

    return name, F

"""Finite-volume time stepper for the barotropic viscous flow on the torus.

The update is semi-implicit: donor-cell upwind convection with explicit
momentum fluxes, while the mass-flux velocity, the pressure gradient, the
viscous terms, and the forcing are taken at the new time level.  The
coupled step is solved by Picard iteration, with one matrix-free,
Jacobi-preconditioned conjugate gradient solve for the velocity per sweep.
The first sweep starts from a second-order prediction of the step: the
velocity extrapolated through the last three states, and the density its
face velocities carry.  Each later solve starts from the previous sweep's
velocity, and the viscous term of each sweep's velocity serves both its
momentum defect and the next solve's initial residual.  The iteration
stops when the algebraic defect of the full update drops below
`picard_tol`, so a produced state pair always satisfies the published
residual contract; the prediction changes where it starts, not that test.

Treating the acoustic part implicitly keeps the discrete total energy
non-increasing for unforced runs, on top of the upwind and viscous
dissipation; the convective explicit part keeps Picard a contraction
under the advective CFL condition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .mesh import GridSpec, StepSampler, Trajectory, _mag, check_number, trajectory_lq_distance
from .physics import DataRecord, FourierField, FourierMode, ForcingSpec, ForcingTerm, \
    pressure, total_energy

__all__ = [
    "SchemeConfig",
    "SolveReport",
    "SolverError",
    "VacuumError",
    "NoConvergenceError",
    "COMPLETED",
    "ABORTED_LINF",
    "ABORTED_VACUUM",
    "NO_CONVERGENCE",
    "cfl_dt",
    "step",
    "scheme_residual",
    "solve",
    "gronwall_energy_bound",
    "TravelingWaveCase",
    "ConvergenceRow",
    "manufactured_convergence",
    "self_convergence",
]

COMPLETED = "completed"
ABORTED_LINF = "aborted_linf"
ABORTED_VACUUM = "aborted_vacuum"
NO_CONVERGENCE = "no_convergence"


class SolverError(RuntimeError):
    pass


class VacuumError(SolverError):
    pass


class NoConvergenceError(SolverError):
    pass


@dataclass(frozen=True)
class SchemeConfig:
    cfl: float = 0.4
    T: float = 0.25
    linf_ceiling: float = 1e4
    picard_tol: float = 1e-10
    picard_max_iter: int = 100

    def __post_init__(self):
        check_number(self.cfl, "cfl", gt=0, le=1)
        check_number(self.T, "final time T", gt=0)
        check_number(self.linf_ceiling, "linf_ceiling", gt=0, inf=True)
        check_number(self.picard_tol, "picard_tol", gt=0)
        check_number(self.picard_max_iter, "picard_max_iter", integer=True, ge=1)

    @classmethod
    def from_dict(cls, doc: dict) -> "SchemeConfig":
        doc = dict(doc)
        # saved configs name the scheme variant; the semi-implicit one is the only one
        if doc.pop("theta_implicit", True) is not True:
            raise ValueError("theta_implicit must be true (the scheme is semi-implicit)")
        return cls(**doc)


@dataclass
class SolveReport:
    trajectory: Trajectory
    linf_history: np.ndarray = field(repr=False)
    energy_history: np.ndarray = field(repr=False)
    status: str = COMPLETED
    samples: list | None = field(default=None, repr=False)  # grid -> (rho, u) per sample entry

    @property
    def max_linf(self) -> float:
        return float(np.max(self.linf_history))

    @property
    def steps(self) -> int:
        return len(self.trajectory) - 1

    def to_summary(self) -> dict:
        return {
            "status": self.status,
            "steps": self.steps,
            "final_time": self.trajectory.final_time,
            "final_energy": float(self.energy_history[-1]),
            "max_linf": self.max_linf,
        }


# ---------------------------------------------------------------------------
# periodic difference stencils (cell-centered, flux form)


@functools.cache
def _shift_index(n: int, k: int) -> np.ndarray:
    # source cell of each cell in a periodic shift by k on n cells; shared, so read-only
    idx = (np.arange(n) - k) % n
    idx.flags.writeable = False
    return idx


def _shift(v: np.ndarray, k: int, ax: int) -> np.ndarray:
    """Periodic shift along ax, out[i] = v[i - k] mod n: numpy's roll by k, one `take`."""
    return v.take(_shift_index(v.shape[ax], k), axis=ax)


def _face_avg(v: np.ndarray, ax: int) -> np.ndarray:
    # value at face i+1/2 between cells i and i+1
    return (v + _shift(v, -1, ax)) * 0.5


def _upwind(c: np.ndarray, w: np.ndarray, ax: int) -> np.ndarray:
    # donor at face i+1/2: cell i where w > 0, else cell i+1; at w = 0 the flux w * donor is 0
    return np.where(w > 0, c, _shift(c, -1, ax))


def _div_faces(flux: np.ndarray, ax: int, h: float) -> np.ndarray:
    return (flux - _shift(flux, 1, ax)) / h


def _grad_c(v: np.ndarray, ax: int, h: float) -> np.ndarray:
    return (_shift(v, -1, ax) - _shift(v, 1, ax)) / (2 * h)


def _lap(v: np.ndarray, h: float, d: int) -> np.ndarray:
    """Centered second differences of v along its first d axes, summed onto the first's."""
    two_v, h2 = v * 2, h**2
    for ax in range(d):
        term = _shift(v, -1, ax)
        term -= two_v
        term += _shift(v, 1, ax)
        term /= h2
        out = np.add(out, term, out=out) if ax else term
    return out


def _faces(u: np.ndarray, grid: GridSpec) -> list:
    """Face velocities: component ax averaged onto the faces i+1/2 along axis ax."""
    return [_face_avg(u[..., ax], ax) for ax in range(grid.d)]


def _grad(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered gradient of the scalar p, its components written along a new last axis."""
    out = np.empty(p.shape + (grid.d,))
    for ax in range(grid.d):
        out[..., ax] = _grad_c(p, ax, grid.h)
    return out


def _flux_div(c: np.ndarray, faces: list, grid: GridSpec) -> np.ndarray:
    """Divergence of the upwind flux of c for given face velocities (telescoping), summed
    onto the first axis's term; face velocities broadcast over c's trailing axes, if any."""
    tail = (1,) * (c.ndim - grid.d)
    for ax, w in enumerate(faces):
        w = w.reshape(w.shape + tail)
        term = _div_faces(w * _upwind(c, w, ax), ax, grid.h)
        out = np.add(out, term, out=out) if ax else term
    return out


def _apply_viscous(u: np.ndarray, mu: float, eta: float, grid: GridSpec) -> np.ndarray:
    """div S(grad u) with centered stencils; for d=1 the reduced (mu+eta) u_xx."""
    h, d = grid.h, grid.d
    out = _lap(u, h, d)
    out *= mu + eta if d == 1 else mu
    if d > 1:
        out += _grad(sum(_grad_c(u[..., ax], ax, h) for ax in range(d)), grid) * eta
    return out


def _momentum_operator(u: np.ndarray, rho: np.ndarray, dt: float, mu: float, eta: float,
                       grid: GridSpec) -> np.ndarray:
    """A(rho) u = (diag(rho) - dt div S) u, the matrix of the momentum update."""
    visc = _apply_viscous(u, mu, eta, grid)
    visc *= dt
    return np.subtract(rho[..., None] * u, visc, out=visc)


def _cg_done(r: np.ndarray, tol: float) -> bool:
    """True once the residual max is within tol; raises on a non-finite residual,
    which no further sweep can repair (NaN compares False against any tol)."""
    err = float(np.abs(r).max())
    if err <= tol:
        return True
    if not math.isfinite(err):
        raise NoConvergenceError("momentum linear solve hit a non-finite residual")
    return False


def _dot(a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> float:
    # np.sum(a * b): the same pairwise add.reduce, with the product written into tmp
    return float(np.add.reduce(np.multiply(a, b, out=tmp), axis=None))


def _momentum_diagonal(rho: np.ndarray, dt: float, mu: float, eta: float,
                       grid: GridSpec) -> np.ndarray:
    """rho + dt c, the diagonal of A(rho), with c the constant diagonal of -div S:
    2 (mu + eta) / h^2 in 1-D, 2 d mu / h^2 + eta / (2 h^2) in 2-D.  Exact for
    n >= 3; at n = 2 the 2-D grad-div stencil folds onto itself and its own
    diagonal is 0, so this over-estimates it, and stays positive."""
    h, d = grid.h, grid.d
    c = 2 * (mu + eta) / h**2 if d == 1 else 2 * d * mu / h**2 + eta / (2 * h**2)
    return rho + dt * c


def _solve_momentum_system(rho: np.ndarray, b: np.ndarray, dt: float, mu: float,
                           eta: float, grid: GridSpec, guess: np.ndarray, visc: np.ndarray,
                           tol: float, max_iter: int = 800) -> np.ndarray:
    """Solve (diag(rho) - dt div S) u = b by Jacobi-preconditioned conjugate gradients.

    visc = dt * _apply_viscous(guess) is the viscous part of the initial
    residual, which the caller has already formed.  The operator is
    symmetric positive definite (the viscous stencils are negative
    semidefinite), and the preconditioner divides by its diagonal
    (`_momentum_diagonal`): one division per iteration, no FFT.  With the
    warm starts `step` and `solve` give it, this takes 2.6 iterations per
    solve on average on the 1-D n=64 level of the weak-1d-mc benchmark and
    2.4 on the 2-D n=64 level of strong-2d-colloc (seed 1), at 1.6 and 1.2
    solves per step over all levels.  The stop is the residual's max norm within tol.
    """
    x = guess.copy()
    r = b - (rho[..., None] * x - visc)
    if _cg_done(r, tol):
        return x
    diag = _momentum_diagonal(rho, dt, mu, eta, grid)[..., None]
    p = r / diag
    z = np.empty_like(r)
    tmp = np.empty_like(r)  # scratch for every product in the loop
    rz = _dot(r, p, tmp)
    for _ in range(max_iter):
        ap = _momentum_operator(p, rho, dt, mu, eta, grid)
        alpha = rz / _dot(p, ap, tmp)
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        if _cg_done(r, tol):
            return x
        np.divide(r, diag, out=z)
        rz_new = _dot(r, z, tmp)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergenceError("momentum linear solve did not converge")


# ---------------------------------------------------------------------------
# CFL and the residual of the algebraic update


def cfl_dt(rho: np.ndarray, u: np.ndarray, data: DataRecord, grid: GridSpec,
           cfl: float = 1.0) -> float:
    """Stable step at density rho and velocity u (arrays on `grid`):
    cfl * min( dx/(|u|max + cmax), dx^2 rho_min / (2 d (2 mu + eta)) )."""
    check_number(cfl, "cfl", gt=0)
    h = grid.h
    umax = float(_mag(u, vector=True).max())
    cmax = math.sqrt(data.a * data.gamma * float(rho.max()) ** (data.gamma - 1.0))
    advective = h / (umax + cmax)
    viscous = h**2 * float(rho.min()) / (2 * grid.d * (2 * data.mu + data.eta))
    return cfl * min(advective, viscous)


def scheme_residual(data: DataRecord, states: tuple, dt: float) -> float:
    """Max-norm defect (R_rho, R_m) of the algebraic update at a pair of consecutive states.

    Pairs produced by `step` satisfy residual <= cfg.picard_tol: its
    stopping test measures the same defect from inside the iteration.
    """
    check_number(dt, "dt", gt=0)
    old, new = states
    grid = old.grid
    if new.grid != grid:
        raise ValueError("states must share one grid")
    rho_k, u_k = old.rho.values, old.u.values
    rho_n, u_n = new.rho.values, new.u.values
    m_k = rho_k[..., None] * u_k
    r_rho = rho_n - rho_k + dt * _flux_div(rho_k, _faces(u_n, grid), grid)
    r_m = (
        rho_n[..., None] * u_n - m_k
        + dt * _flux_div(m_k, _faces(u_k, grid), grid)
        + dt * _grad(pressure(rho_n, data.a, data.gamma), grid)
        - dt * _apply_viscous(u_n, data.mu, data.eta, grid)
        - dt * rho_n[..., None] * data.g.evaluate(new.time, grid)
    )
    return float(max(np.abs(r_rho).max(), np.abs(r_m).max()))


# ---------------------------------------------------------------------------
# the time step


def step(rho_k: np.ndarray, u_k: np.ndarray, t: float, data: DataRecord, dt: float,
         grid: GridSpec, cfg: SchemeConfig, guess: np.ndarray | None = None) -> tuple:
    """Advance the arrays (rho, u) at time t by dt; returns the new (rho, u) arrays.

    `guess` (default u_k) is the predicted new velocity: the first sweep's
    density is rho_k carried by its face velocities, and its CG starts from
    it.  `solve` passes the velocity extrapolated through the last three
    states, which is within O(dt^3) of the step's fixed point, so most steps
    are accepted after one sweep.  The guess moves the result only within
    the tolerances; acceptance tests the true defects.
    Raises VacuumError / NoConvergenceError.  Each Picard sweep solves for u
    at the current density iterate, then forms the density the next sweep
    would use; the sweep's defect is the density change and the momentum
    residual A(rho) u - b.  A sweep passes the vacuum check first and is
    accepted only with both defects finite and within picard_tol, so an
    accepted step is finite and positive.
    """
    check_number(dt, "dt", gt=0)
    m_k = rho_k[..., None] * u_k
    t_new = t + dt

    explicit = m_k - _flux_div(m_k, _faces(u_k, grid), grid) * dt
    g_new = data.g.evaluate(t_new, grid)
    lin_tol = 0.05 * cfg.picard_tol
    u = u_k if guess is None else guess
    visc = _apply_viscous(u, data.mu, data.eta, grid) * dt
    rho = rho_k - _flux_div(rho_k, _faces(u, grid), grid) * dt
    for _ in range(cfg.picard_max_iter):
        if rho.min() <= 0:
            raise VacuumError(f"vacuum at t={t_new}")
        # rho > 0 now, and the record has checked a and gamma: no `pressure` checks
        b = explicit - _grad(data.a * rho**data.gamma, grid) * dt + rho[..., None] * dt * g_new
        u = _solve_momentum_system(rho, b, dt, data.mu, data.eta, grid, u, visc, lin_tol)
        rho_next = rho_k - _flux_div(rho_k, _faces(u, grid), grid) * dt
        visc = _apply_viscous(u, data.mu, data.eta, grid) * dt  # for r_m and the next CG start
        r_m = (rho[..., None] * u - visc) - b
        # NaN fails both comparisons, so a non-finite sweep is never accepted
        if np.abs(rho - rho_next).max() <= cfg.picard_tol and np.abs(r_m).max() <= cfg.picard_tol:
            return rho, u
        rho = rho_next
    raise NoConvergenceError(
        f"Picard iteration did not reach tol {cfg.picard_tol} in {cfg.picard_max_iter} sweeps"
    )


def _extrapolate(past: list, t_new: float) -> np.ndarray:
    """Value at t_new of the polynomial through the (t, u) pairs of `past`.

    Lagrange weights, so the times may be unequally spaced: one pair gives
    u itself, two the linear extrapolation, three the quadratic one.
    """
    return sum(
        math.prod((t_new - tm) / (tj - tm) for m, (tm, _) in enumerate(past) if m != j) * uj
        for j, (tj, uj) in enumerate(past)
    )


def _linf(rho: np.ndarray, u: np.ndarray) -> float:
    """Max over cells and components of (|rho|, |u|)."""
    return float(max(np.abs(rho).max(), np.abs(u).max()))


# every non-finite outcome (an energy or sound speed that overflows at large gamma)
# becomes a member status, or a null energy in the report, rather than a warning
@np.errstate(over="ignore", invalid="ignore")
def solve(data: DataRecord, grid: GridSpec, cfg: SchemeConfig, keep=True,
          samples=()) -> SolveReport:
    """Integrate from the record's initial data to cfg.T, or until an abort.

    The loop passes plain (rho, u) arrays to `cfl_dt`, `step` and
    `total_energy`, and the trajectory keeps the kept states' arrays as they
    are: the `Trajectory` constructor checks and freezes each one, with no
    copy and no `FluidState`.  The initial state comes from
    `DataRecord.initial_state`, which checks the initial data.  Each
    step's guess is the velocity extrapolated through the last three
    accepted states (`_extrapolate`): u_k on the first step, linear on the
    second.  The last step is clamped to end at t = cfg.T exactly.

    Aborts are reported as data, not failures: the linf ceiling feeds the
    boundedness-in-probability statistics downstream.  A step that cannot
    be sized (dt overflows, or is not positive and finite) ends the run as
    NO_CONVERGENCE.

    `keep=False` keeps only the first and the last state (an abort's last
    included); every step's time, linf and energy are recorded either way.

    `samples` lists (times, grids) entries: each samples the member at its
    times, increasing within [0, cfg.T], onto its grids, this one or nested
    coarser ones, while it steps (`mesh.StepSampler`), whatever `keep` drops.
    The report's `samples` holds one grid -> (rho, u) stacks mapping per entry,
    and is None unless the solve completed.  A `keep` that is not a bool, or
    sample times out of order or range (NaN included), raise ValueError.
    """
    if type(keep) is not bool:
        raise ValueError(f"keep must be a bool, got {keep!r}")
    samplers = []
    for at, grids in samples:
        at = np.asarray(at, dtype=float)
        if at.ndim != 1 or not (np.all(np.diff(at) > 0) and np.all((at >= 0) & (at <= cfg.T))):
            raise ValueError(f"sample times must increase within [0, {cfg.T}], got {at}")
        samplers.append(StepSampler(grid, at, grids))
    s0 = data.initial_state(grid)
    rho, u, t = s0.rho.values, s0.u.values, s0.time
    kept = {0: (rho, u)}  # step -> (rho, u): the kept states and the newest one
    times = [t]
    linf = [_linf(rho, u)]
    energy = [total_energy(rho, u, grid, data.a, data.gamma)]
    status = COMPLETED
    past = []  # (t, u) of the last three accepted states, newest first

    if linf[0] > cfg.linf_ceiling:
        status = ABORTED_LINF
    else:
        while cfg.T - t > 1e-12 * cfg.T:
            try:
                dt = cfl_dt(rho, u, data, grid, cfg.cfl)
            except OverflowError:  # a float power of the sound speed, at large gamma
                dt = math.nan
            if not 0 < dt < math.inf:
                status = NO_CONVERGENCE
                break
            last = t + dt >= cfg.T * (1 - 1e-12)
            if last:
                dt = cfg.T - t
            past = [(t, u)] + past[:2]
            guess = _extrapolate(past, t + dt)
            try:
                new = step(rho, u, t, data, dt, grid, cfg, guess)
            except VacuumError:
                status = ABORTED_VACUUM
                break
            except NoConvergenceError:
                status = NO_CONVERGENCE
                break
            t_new = cfg.T if last else t + dt
            for sampler in samplers:
                sampler.take(t, (rho, u), t_new, new)
            (rho, u), t = new, t_new
            times.append(t)
            kept[len(times) - 1] = rho, u
            if not keep and len(times) > 2:
                del kept[len(times) - 2]
            linf.append(_linf(rho, u))
            energy.append(total_energy(rho, u, grid, data.a, data.gamma))
            if linf[-1] > cfg.linf_ceiling:
                status = ABORTED_LINF
                break

    return SolveReport(
        trajectory=Trajectory(grid, *zip(*kept.values()), times, list(kept)),
        linf_history=np.array(linf),
        energy_history=np.array(energy),
        status=status,
        samples=[s.finish(t, (rho, u)) for s in samplers] if status == COMPLETED else None,
    )


def gronwall_energy_bound(e0: float, mass0: float, g_sup: float, times: np.ndarray) -> np.ndarray:
    """Discrete Gronwall majorant for the total energy under a sup-bounded forcing.

    From the energy balance, dE <= g_sup * int rho |u| <= g_sup (mass0/2 + E)
    per unit time (Young's inequality; mass is conserved), absorbed
    implicitly:  E_{k+1} <= (E_k + dt g_sup mass0 / 2) / (1 - dt g_sup).
    """
    times = np.asarray(times, dtype=float)
    bounds = np.empty(len(times))
    bounds[0] = e0
    for k, dt in enumerate(np.diff(times)):
        if not dt * g_sup < 1:
            raise ValueError("time step too large for the Gronwall recursion")
        bounds[k + 1] = (bounds[k] + dt * g_sup * mass0 / 2) / (1 - dt * g_sup)
    return bounds


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class TravelingWaveCase:
    """1-D density wave rho = 1 + A sin(2 pi (x - c t)/L) riding on a constant velocity.

    The pair satisfies the continuity equation exactly; the momentum
    equation is closed by the single-mode traveling forcing
    g = (4 pi a A / L) cos(2 pi (x - c t)/L), which is exact for gamma = 2.
    """

    amplitude: float = 0.1
    speed: float = 0.5
    a_coef: float = 1.0
    mu: float = 0.05
    eta: float = 0.0
    period: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        # ranges are checked by the data record this case builds
        for f in fields(self):
            check_number(getattr(self, f.name), f.name)

    @property
    def gamma(self) -> float:
        return 2.0

    def data_record(self) -> DataRecord:
        L, A, c = self.period, self.amplitude, self.speed
        amp = 4 * math.pi * self.a_coef * A / L
        omega = 2 * math.pi * c / L
        g = ForcingSpec(
            d=1,
            period=L,
            terms=(
                ForcingTerm((1,), "cos", (amp,), omega=omega, phase=0.0),
                ForcingTerm((1,), "sin", (amp,), omega=omega, phase=-math.pi / 2),
            ),
            horizon=self.horizon,
        )
        return DataRecord(
            rho0=FourierField(1, L, 1.0, (FourierMode((1,), "sin", A),)),
            u0=(FourierField.constant(c, 1, L),),
            mu=self.mu,
            eta=self.eta,
            a=self.a_coef,
            gamma=self.gamma,
            g=g,
        )

    def exact_rho(self, t: float, x: np.ndarray) -> np.ndarray:
        return 1.0 + self.amplitude * np.sin(2 * np.pi * (x - self.speed * t) / self.period)

    def exact_u(self) -> float:
        return self.speed


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    error_l1: float
    order: float | None = None


def _l1_error_vs_exact(traj: Trajectory, case: TravelingWaveCase) -> float:
    """Space-time L1 error of (rho, u) against the exact wave, trapezoid in time."""
    grid = traj.grid
    x = grid.cell_centers()[0]
    vol = grid.cell_volume
    per_t = np.empty(len(traj.steps))  # a thinned trajectory fails in np.trapezoid
    for i, (rho, u, t) in enumerate(zip(traj.rho, traj.u, traj.times[traj.steps])):
        drho = np.abs(rho - case.exact_rho(t, x))
        du = np.abs(u[..., 0] - case.exact_u())
        per_t[i] = np.sum(drho + du) * vol
    return float(np.trapezoid(per_t, traj.times))


def _refinement(data: DataRecord, grid_sizes: list, cfg: SchemeConfig, error,
                run: str) -> list:
    """Solve `data` on each of `grid_sizes` and tabulate error(trajectory), with the
    observed order log2(e_h/e_{h/2}) (None on the first row, or where either error
    is <= 0).  A solve that does not complete raises SolverError naming `run`."""
    rows = []
    for n in grid_sizes:
        grid = GridSpec(data.d, n, data.period)
        report = solve(data, grid, cfg)
        if report.status != COMPLETED:
            raise SolverError(f"{run} run aborted with status {report.status}")
        err = error(report.trajectory)
        prev = rows[-1].error_l1 if rows else None
        order = None if prev is None or prev <= 0 or err <= 0 else math.log2(prev / err)
        rows.append(ConvergenceRow(n=n, h=grid.h, error_l1=err, order=order))
    return rows


def manufactured_convergence(case: TravelingWaveCase, grid_sizes: list,
                             cfg: SchemeConfig) -> list:
    """Refinement study against the exact traveling wave."""
    return _refinement(case.data_record(), grid_sizes, cfg,
                       lambda traj: _l1_error_vs_exact(traj, case), "manufactured")


def self_convergence(data: DataRecord, grid_sizes: list, ref_n: int, cfg: SchemeConfig) -> list:
    """Errors against a fine-grid reference solve of the same data (L1 space-time)."""
    if any(ref_n % n != 0 or n >= ref_n for n in grid_sizes):
        raise ValueError("study grids must be strictly coarser divisors of the reference")
    ref = solve(data, GridSpec(data.d, ref_n, data.period), cfg)
    if ref.status != COMPLETED:
        raise SolverError(f"reference run aborted with status {ref.status}")
    return _refinement(data, grid_sizes, cfg, lambda traj: trajectory_lq_distance(
        traj, ref.trajectory, q=1.0, which="both"), "study")

"""Uniform periodic grids on the flat torus and the discrete fields living on them.

Everything downstream (solver, ensembles, statistics) measures distances with
the norms defined here: midpoint-quadrature L^q norms, the max norm, and the
Fourier-weighted negative Sobolev norm used as the separable metric for
solution ensembles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "FluidState",
    "Trajectory",
    "lq_norm",
    "neg_sobolev_norm",
    "transfer",
    "save_field",
    "load_field",
    "N_DISTANCE_TIMES",
    "distance_times",
    "stack_lq_distance",
    "trajectory_lq_distance",
]


def check_number(x, name: str, *, integer=False, gt=None, ge=None, le=None, inf=False):
    """x, if it is a number in range; else ValueError.  Every config number passes here.

    A bool is never a number.  An integer field takes only an int; a real
    field an int or a float, numpy floating scalars included.  NaN never
    passes, and +-inf only where `inf` is set.
    """
    ok = type(x) is int or (not integer and isinstance(x, (float, np.floating)))
    ok = ok and not math.isnan(x) and (inf or not math.isinf(x))
    ok = ok and (gt is None or x > gt) and (ge is None or x >= ge) and (le is None or x <= le)
    if not ok:
        kind = "an integer" if integer else "a number" if inf else "a finite number"
        limits = [f"{op} {v}" for op, v in ((">", gt), (">=", ge), ("<=", le)) if v is not None]
        raise ValueError(f"{name} must be {' and '.join([kind, *limits])}, got {x!r}")
    return x


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n^d cells on the d-torus of side `period`."""

    d: int
    n: int
    period: float = 1.0

    def __post_init__(self):
        check_number(self.d, "dimension", integer=True, ge=1, le=2)
        check_number(self.n, "cells per axis", integer=True, ge=2)
        check_number(self.period, "period", gt=0)

    @property
    def h(self) -> float:
        return self.period / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_cells(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def cell_centers(self) -> tuple:
        """Meshgrid of cell-center coordinates, one array per axis (ij indexing)."""
        return _cached_centers(self)


@functools.lru_cache(maxsize=128)
def _cached_centers(grid: GridSpec) -> tuple:
    ax = grid.axis_centers()
    out = (ax,) if grid.d == 1 else tuple(np.meshgrid(ax, ax, indexing="ij"))
    for arr in out:
        arr.setflags(write=False)
    return out


def _check_values(grid: GridSpec, values: np.ndarray, expected: tuple) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != expected:
        raise ValueError(f"values shape {values.shape} does not match grid {expected}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    out = values.copy()
    out.setflags(write=False)  # fields are immutable after construction
    return out


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, self.grid.shape))

    def __reduce__(self):  # numpy unpickles arrays writeable; the constructor freezes a copy
        return type(self), (self.grid, self.values)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def integral(self) -> float:
        """Midpoint-rule integral over the torus."""
        return float(self.values.sum() * self.grid.cell_volume)


@dataclass(frozen=True)
class VectorField:
    grid: GridSpec
    values: np.ndarray = field(repr=False)  # shape grid.shape + (d,)

    def __post_init__(self):
        expected = self.grid.shape + (self.grid.d,)
        object.__setattr__(self, "values", _check_values(self.grid, self.values, expected))

    def __reduce__(self):  # as ScalarField's
        return type(self), (self.grid, self.values)

    @classmethod
    def constant(cls, grid: GridSpec, vec) -> "VectorField":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        vals = np.broadcast_to(vec, grid.shape + (grid.d,))
        return cls(grid, np.array(vals))


Field = ScalarField | VectorField


@dataclass(frozen=True)
class FluidState:
    """Density/velocity pair at a fixed time; density strictly positive."""

    rho: ScalarField
    u: VectorField
    time: float

    def __post_init__(self):
        if self.rho.grid != self.u.grid:
            raise ValueError("rho and u must live on the same grid")
        if self.rho.values.min() <= 0:
            raise ValueError("density must be strictly positive")
        if self.time < 0:
            raise ValueError("time must be nonnegative")

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid


class Trajectory:
    """Time history of fluid states on a fixed grid, t0 = 0.

    `times` holds every step time; `states` holds the kept states, a subset
    of the steps that includes the first and the last (all of them when
    `times` is None).  Sampling between two steps needs both states.
    """

    def __init__(self, states: list, times=None):
        if not states:
            raise ValueError("trajectory needs at least one state")
        grid = states[0].grid
        kept = np.array([s.time for s in states], dtype=float)
        times = kept if times is None else np.asarray(times, dtype=float)
        if times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        for s in states:
            if s.grid != grid:
                raise ValueError("all states must share one grid")
        self._slot = None  # step -> index into states, -1 where dropped; None keeps all
        if not np.array_equal(kept, times):
            steps = np.minimum(np.searchsorted(times, kept), len(times) - 1)
            if not np.array_equal(times[steps], kept) or np.any(np.diff(steps) <= 0):
                raise ValueError("kept states must sit at distinct steps, in order")
            if steps[0] != 0 or steps[-1] != len(times) - 1:
                raise ValueError("kept states must include the first and the last step")
            self._slot = np.full(len(times), -1)
            self._slot[steps] = np.arange(len(steps))
        self.grid = grid
        self.times = times
        self.states = list(states)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    @property
    def thinned(self) -> bool:
        """True when some step's state was dropped."""
        return self._slot is not None

    def sample(self, t: float) -> tuple:
        """(rho values, u values) at time t: `sample_stack([t], self.grid)` at index 0."""
        rho, u = self.sample_stack([t], self.grid)
        return rho[0], u[0]

    def sample_stack(self, times, grid: GridSpec) -> tuple:
        """(rho, u) at each of `times`, moved onto the nested `grid`.

        Returns new arrays of shape (len(times), *grid.shape) and
        (len(times), *grid.shape, d); slice i interpolates linearly between the
        stored steps around times[i].  One `searchsorted` locates every time.
        """
        times = np.asarray(times, dtype=float)
        T = self.final_time
        outside = (times < 0) | (times > T + 1e-12 * max(1.0, T))
        if outside.any():
            raise ValueError(f"t={times[outside][0]} outside stored range [0, {T}]")
        times = np.minimum(times, T)
        steps = np.searchsorted(self.times, times, side="right") - 1
        steps = np.clip(steps, 0, len(self.times) - 1)
        # filled slice by slice, so no stack on a finer grid than `grid` is ever built
        rho = np.empty(times.shape + grid.shape)
        u = np.empty(rho.shape + (grid.d,))
        for i, (j, t) in enumerate(zip(steps, times)):
            r, v = self._state_at(int(j), t)
            rho[i], u[i] = transfer(r, self.grid, grid), transfer(v, self.grid, grid)
        return rho, u

    def _state(self, j: int, t: float) -> FluidState:
        if self._slot is None:
            return self.states[j]
        k = self._slot[j]
        if k < 0:
            raise ValueError(f"sampling t={t} needs step {j} (t={self.times[j]}), "
                             "whose state was not kept")
        return self.states[k]

    def _state_at(self, j: int, t: float) -> tuple:
        """(rho, u) at time t in [times[j], times[j + 1]]: the stored (read-only)
        state at an exact hit or the last step, else (1 - w) s0 + w s1."""
        s0 = self._state(j, t)
        if j == len(self.times) - 1 or self.times[j] == t:
            return s0.rho.values, s0.u.values
        t0, t1 = self.times[j], self.times[j + 1]
        w = (t - t0) / (t1 - t0)
        s1 = self._state(j + 1, t)
        rho = (1 - w) * s0.rho.values + w * s1.rho.values
        u = (1 - w) * s0.u.values + w * s1.u.values
        return rho, u


# ---------------------------------------------------------------------------
# norms


def _mag(values: np.ndarray, vector: bool) -> np.ndarray:
    """Pointwise Euclidean magnitude of vector values (last axis), or |values|."""
    return np.sqrt(np.sum(values**2, axis=-1)) if vector else np.abs(values)


def _lq(mag: np.ndarray, q: float, vol: float) -> float:
    """Midpoint-quadrature L^q norm (finite q) of pointwise magnitudes on cells of volume `vol`."""
    return float((np.sum(mag**q) * vol) ** (1.0 / q))


def lq_norm(f: Field, q: float) -> float:
    """Midpoint-quadrature L^q norm on the torus; q = inf gives the max norm.

    Vector fields are reduced to their pointwise Euclidean magnitude first.
    """
    a = _mag(f.values, isinstance(f, VectorField))
    if q == np.inf:
        return float(a.max())
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    return _lq(a, q, f.grid.cell_volume)


def _spatial_neg_sobolev_sq(values: np.ndarray, grid: GridSpec, m: int) -> float:
    # forward DFT normalized by cell count so the k=0 coefficient is the mean
    axes = tuple(range(grid.d))
    fhat = np.fft.fftn(values, axes=axes) / grid.num_cells
    kint = np.fft.fftfreq(grid.n) * grid.n  # integer mode numbers
    if grid.d == 1:
        ksq = (2 * np.pi * kint / grid.period) ** 2
    else:
        kx, ky = np.meshgrid(kint, kint, indexing="ij")
        ksq = (2 * np.pi / grid.period) ** 2 * (kx**2 + ky**2)
    weight = (1.0 + ksq) ** (-float(m))
    if values.ndim == grid.d:  # scalar
        return float(np.sum(np.abs(fhat) ** 2 * weight))
    return float(sum(np.sum(np.abs(fhat[..., c]) ** 2 * weight) for c in range(values.shape[-1])))


def neg_sobolev_norm(obj, m: int) -> float:
    """Negative Sobolev norm via the discrete Fourier transform.

    For a field: ||f||^2 = sum_k |fhat_k|^2 (1 + |2 pi k / period|^2)^(-m).
    For a trajectory: L^2-in-time of the spatial norms by the trapezoid rule
    over the stored steps, applied to the (rho, u) pair jointly.
    Requires m > d + 1 so that bounded fields embed compactly.
    """
    grid = obj.grid
    if m <= grid.d + 1:
        raise ValueError(f"need m > d+1 = {grid.d + 1}, got {m}")
    if isinstance(obj, Trajectory):
        if obj.thinned:
            raise ValueError("the negative Sobolev norm of a trajectory needs every step's state")
        sq = np.array(
            [
                _spatial_neg_sobolev_sq(s.rho.values, grid, m)
                + _spatial_neg_sobolev_sq(s.u.values, grid, m)
                for s in obj.states
            ]
        )
        if len(obj) == 1:
            return float(np.sqrt(sq[0]))
        return float(np.sqrt(np.trapezoid(sq, obj.times)))
    return float(np.sqrt(_spatial_neg_sobolev_sq(obj.values, grid, m)))


# ---------------------------------------------------------------------------
# grid transfer (nested uniform grids only)


def transfer(values: np.ndarray, src: GridSpec, target: GridSpec) -> np.ndarray:
    """Cell values moved from `src` onto a nested `target` grid.

    Cell averages onto a coarser grid, copies onto a finer one, and the
    values themselves (not a copy) on the same grid.
    """
    if target.d != src.d or target.period != src.period:
        raise ValueError("grids must share dimension and period")
    if target.n == src.n:
        return values
    if src.n % target.n == 0:
        r = src.n // target.n
        # split each spatial axis into (coarse cell, fine cell within it) and average the latter
        v = values.reshape((target.n, r) * src.d + values.shape[src.d:])
        # np.mean's sum-then-divide, without its per-call overhead
        return np.add.reduce(v, axis=tuple(range(1, 2 * src.d, 2))) / r**src.d
    if target.n % src.n == 0:
        for ax in range(src.d):
            values = np.repeat(values, target.n // src.n, axis=ax)
        return values
    raise ValueError(f"grids not nested: {src.n} vs {target.n}")


# ---------------------------------------------------------------------------
# serialization: CSV with a one-line header, row-major cells


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_field(f: Field, path) -> None:
    """Write a field as CSV: header `d,n,period,ncomp`, then one value per line.

    Values are flattened in row-major (C) order; for vector fields the
    component index is the fastest-varying one.
    """
    ncomp = f.grid.d if isinstance(f, VectorField) else 1
    with open(path, "w") as fh:
        fh.write(f"{f.grid.d},{f.grid.n},{_fmt(f.grid.period)},{ncomp}\n")
        for x in f.values.ravel(order="C"):
            fh.write(_fmt(x) + "\n")


def load_field(path) -> Field:
    with open(path) as fh:
        d, n, period, ncomp = fh.readline().strip().split(",")
        d, n, ncomp = int(d), int(n), int(ncomp)
        grid = GridSpec(d, n, float(period))
        vals = np.array([float(line) for line in fh if line.strip()])
    if ncomp == 1:
        return ScalarField(grid, vals.reshape(grid.shape))
    return VectorField(grid, vals.reshape(grid.shape + (ncomp,)))


# ---------------------------------------------------------------------------
# space-time distances between trajectories


# uniform sample times of every space-time distance; the runners keep the
# states around them (experiments._observation_windows)
N_DISTANCE_TIMES = 17


def distance_times(a: Trajectory, b: Trajectory) -> np.ndarray:
    """The `N_DISTANCE_TIMES` uniform sample times of a distance between `a` and `b`."""
    if abs(a.final_time - b.final_time) > 1e-9 * max(1.0, a.final_time):
        raise ValueError("trajectories must share the final time")
    return np.linspace(0.0, min(a.final_time, b.final_time), N_DISTANCE_TIMES)


def stack_lq_distance(a: tuple, b: tuple, times: np.ndarray, grid: GridSpec,
                      q: float = 2.0, which: str = "both") -> float:
    """L^q((0,T) x torus) distance between two stacked samples on `grid`.

    `a` and `b` are `Trajectory.sample_stack(times, grid)` results.  Each
    time slice is reduced over its cells, then the time integral uses the
    trapezoid rule.  `which` selects the compared quantity: "rho",
    "momentum", or "both" (the stacked (rho, u) vector, Euclidean pointwise
    magnitude).
    """
    # the stacks are large, so temporaries are updated in place
    (ra, ua), (rb, ub) = a, b
    if which == "rho":
        mag = np.subtract(ra, rb)
        np.abs(mag, out=mag)
    elif which in ("momentum", "both"):
        if which == "momentum":
            diff = ra[..., None] * ua
            diff -= rb[..., None] * ub
        else:  # the (rho, u) difference, rho first
            diff = np.empty(ua.shape[:-1] + (ua.shape[-1] + 1,))
            np.subtract(ra, rb, out=diff[..., 0])
            np.subtract(ua, ub, out=diff[..., 1:])
        mag = np.sum(np.square(diff, out=diff), axis=-1)
        np.sqrt(mag, out=mag)
    else:
        raise ValueError(f"unknown field selector {which!r}")
    if q == np.inf:
        return float(mag.max())
    if q < 1:
        raise ValueError("q must be >= 1 or inf")
    # one row per time slice, so each slice sums in the order of a whole-field np.sum
    mag = mag.reshape(len(times), grid.num_cells)
    slice_int = np.sum(np.power(mag, q, out=mag), axis=1) * grid.cell_volume
    return float(np.trapezoid(slice_int, times) ** (1.0 / q))


def trajectory_lq_distance(a: Trajectory, b: Trajectory, q: float = 2.0,
                           which: str = "both") -> float:
    """L^q((0,T) x torus) distance between two trajectories.

    Both trajectories are sampled once, at the `N_DISTANCE_TIMES` uniform
    times of `distance_times` (linear interpolation between stored steps);
    the finer grid is restricted onto the coarser one, and the time integral
    uses the trapezoid rule.  Both runners' cross-level distances take the
    same steps (`Trajectory.sample_stack`, `stack_lq_distance`) in one loop,
    sampling each trajectory once per level pair.
    `which` selects the compared quantity: "rho", "momentum", or "both"
    (the stacked (rho, u) vector, Euclidean pointwise magnitude).
    """
    times = distance_times(a, b)
    coarse = a.grid if a.grid.n <= b.grid.n else b.grid
    return stack_lq_distance(a.sample_stack(times, coarse), b.sample_stack(times, coarse),
                             times, coarse, q=q, which=which)

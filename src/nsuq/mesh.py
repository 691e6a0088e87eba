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
    "sample_members",
    "save_field",
    "load_field",
    "N_DISTANCE_TIMES",
    "distance_times",
    "stack_lq_distance",
    "trajectory_lq_distance",
]


def check_number(x, name: str, *, integer=False, gt=None, ge=None, le=None, inf=False):
    """x, if it is a number in range; else ValueError.  Every number the library
    tests passes here: config numbers, and the arguments of its entry points.

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


def _frozen(values, shape: tuple, positive: bool = False, copy: bool = False) -> np.ndarray:
    """`values` checked (shape, finite, and positive where asked) and made read-only.

    Without `copy`, an array that owns its float data is frozen in place, so
    its holder hands it over; anything else is copied first.
    """
    owned = isinstance(values, np.ndarray) and values.dtype == float \
        and values.base is None and values.flags.c_contiguous
    if copy or not owned:
        values = np.array(values, dtype=float, order="C")
    if values.shape != shape:
        raise ValueError(f"values shape {values.shape} does not match grid {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    if positive and values.min() <= 0:
        raise ValueError("density must be strictly positive")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        # fields are immutable after construction: they freeze a copy of the values
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape, copy=True))

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
        object.__setattr__(self, "values", _frozen(self.values, expected, copy=True))

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
        check_number(self.time, "time", ge=0)

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid


def _view(cls, grid: GridSpec, values: np.ndarray):
    """A field around values that are already checked and read-only: no copy, no second check."""
    f = object.__new__(cls)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "values", values)
    return f


# bytes of source-grid states a sampling pass gathers at once; a finer source
# grid or a long time vector is sampled in chunks of rows, so the pass never
# holds a whole fine-grid stack; a runner takes the pair rows of a level's
# members each time those that came back hold this many bytes of states and samples
SAMPLE_CHUNK_BYTES = 1 << 16


def _keep_windows(keep) -> list | None:
    """`keep`, an array of [lo, hi] time windows, as a list of [lo, hi] pairs; None
    (every state kept) stays None, and a window without lo <= hi (NaN included)
    raises ValueError."""
    if keep is None:
        return None
    windows = np.asarray(keep, dtype=float).reshape(-1, 2).tolist()
    if not all(lo <= hi for lo, hi in windows):
        raise ValueError(f"keep windows must have lo <= hi, got {windows}")
    return windows


def _keeps_state(windows: list | None, times, j: int) -> bool:
    """The one keep rule: state j of the step times `times` is kept when it is the
    first or the last, or when a step it bounds, [t_j-1, t_j] or [t_j, t_j+1], meets
    one of `windows` (a `_keep_windows` list), that is when [t_j-1, t_j+1] does;
    every state is kept when `windows` is None."""
    return windows is None or j == 0 or j == len(times) - 1 \
        or any(lo <= times[j + 1] and hi >= times[j - 1] for lo, hi in windows)


class Trajectory:
    """Time history of fluid states on a fixed grid, t0 = 0.

    `times` holds every step time and `steps` the indices of the kept steps, a
    subset that includes the first and the last (every step unless the solve dropped
    them by the one per-state rule `_keeps_state`, which it applies to each state
    once its two steps are known).  The kept states are stored as read-only arrays:
    `rho[k]` of shape grid.shape and `u[k]` of shape grid.shape + (d,) at time
    `times[steps[k]]`, each checked once, for finite values and
    positive density, when the trajectory takes it.  Arrays that own their float
    data are frozen in place and kept, not copied: the caller hands them over.
    Sampling between two steps needs both states; `sample_members` reads them, for
    one trajectory (`sample`) or a whole level at once.  A runner's members keep the
    states their level statistics read; `StepSampler` takes their cross-level
    samples while they step.
    """

    def __init__(self, grid: GridSpec, rho: list, u: list, times, steps):
        times = np.asarray(times, dtype=float)
        steps = np.asarray(steps, dtype=np.intp)
        if not len(steps):
            raise ValueError("trajectory needs at least one state")
        if not len(rho) == len(u) == len(steps):
            raise ValueError("need one density and one velocity per kept step")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("kept states must sit at distinct steps, in order")
        if steps[0] != 0 or steps[-1] != len(times) - 1:
            raise ValueError("kept states must include the first and the last step")
        if times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.grid, self.times, self.steps = grid, times, steps
        self.rho = tuple(_frozen(r, grid.shape, positive=True) for r in rho)
        self.u = tuple(_frozen(v, grid.shape + (grid.d,)) for v in u)

    def __reduce__(self):  # pickles as its arrays; unpickling checks and freezes them again
        return Trajectory, (self.grid, list(self.rho), list(self.u), self.times, self.steps)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    @property
    def states(self) -> list:
        """The kept states as `FluidState`s around the stored arrays, built on each access."""
        return [FluidState(_view(ScalarField, self.grid, r), _view(VectorField, self.grid, v),
                           float(t))
                for r, v, t in zip(self.rho, self.u, self.times[self.steps])]

    def sample(self, t: float) -> tuple:
        """(rho values, u values) at time t: the one-member, one-time `sample_members`."""
        rho, u = sample_members([self], [t], self.grid)
        return rho[0, 0], u[0, 0]

    def _locate(self, times: np.ndarray) -> tuple:
        """(k, w) of each sample time t: t lies in [t_k, t_k+1] of the kept states k
        and k + 1, at weight w of state k + 1 (0 at an exact hit, where state k
        alone is read; otherwise state k + 1 must be the next step's)."""
        T = self.final_time
        end = T + 1e-12 * max(1.0, T)
        if len(times) and not 0 <= times.min() <= times.max() <= end:  # NaN fails too
            outside = times[~((times >= 0) & (times <= end))]
            raise ValueError(f"t={outside[0]} outside stored range [0, {T}]")
        times = np.minimum(times, T)
        kept = self.times[self.steps]
        k = np.searchsorted(kept, times, side="right") - 1
        t0, t1 = kept[k], kept[np.minimum(k + 1, len(kept) - 1)]
        between = times != t0  # never at the last state, since t <= T
        if len(kept) < len(self.times):  # thinned: the next step's state may be missing
            gap = between & (self.steps[np.minimum(k + 1, len(kept) - 1)] != self.steps[k] + 1)
            if gap.any():
                j = self.steps[k[gap][0]] + 1
                raise ValueError(f"sampling t={times[gap][0]} needs step {j} "
                                 f"(t={self.times[j]}), whose state was not kept")
        return k, np.divide(times - t0, t1 - t0, out=np.zeros(len(times)), where=between)


def _interpolate(states: list, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows (1 - w) states[k] + w states[k + 1], gathered into one new stack;
    a row at weight 0 is states[k] itself."""
    s = np.array([states[i] for i in k])
    mid = np.flatnonzero(w)
    if len(mid):
        wm = w[mid].reshape((-1,) + (1,) * (s.ndim - 1))
        s1 = np.array([states[i + 1] for i in k[mid]])
        s1 *= wm  # in place, rounded as (1 - w) * s0 + w * s1
        s0 = s[mid]
        s0 *= 1 - wm
        s0 += s1
        s[mid] = s0
    return s


def sample_members(trajs: list, times, grid: GridSpec) -> tuple:
    """(rho, u) of each trajectory at its sample times, moved onto the nested `grid`,
    the members' own grid or a coarser one.

    `times` is one vector for every member, or one row per member.  Returns
    new arrays of shape (len(trajs), n_times, *grid.shape) and (..., d):
    entry (i, j) interpolates member i linearly between its kept steps
    around its j-th time.  One `searchsorted` per member locates its times;
    then one gather, one vectorised (1 - w) s0 + w s1 and one `transfer`
    over the leading axis serve every (member, time) row at once, in chunks
    of at most SAMPLE_CHUNK_BYTES of source-grid states.  The members must
    share one grid.
    """
    src = trajs[0].grid
    if any(tr.grid != src for tr in trajs):
        raise ValueError("sampled members must share one grid")
    times = np.asarray(times, dtype=float)
    times = np.broadcast_to(times, (len(trajs), times.shape[-1]))
    located = [tr._locate(t) for tr, t in zip(trajs, times)]
    # row (i, j) reads state k of member i: entry offset[i] + k of the level's state list
    offset = np.cumsum([0] + [len(tr.steps) for tr in trajs[:-1]])
    g = np.concatenate([off + k for off, (k, _) in zip(offset, located)])
    w = np.concatenate([w for _, w in located])
    rho = np.empty((len(g),) + grid.shape)
    u = np.empty(rho.shape + (grid.d,))
    chunk = max(1, SAMPLE_CHUNK_BYTES // (src.num_cells * (1 + src.d) * rho.itemsize))
    for field, out in (("rho", rho), ("u", u)):
        states = [a for tr in trajs for a in getattr(tr, field)]
        for lo in range(0, len(g), chunk):
            rows = slice(lo, lo + chunk)
            out[rows] = transfer(_interpolate(states, g[rows], w[rows]), src, grid, lead=1)
    return rho.reshape(times.shape + grid.shape), u.reshape(times.shape + u.shape[1:])


class StepSampler:
    """One member's rows of `sample_members` at `times`, moved onto each of `grids`
    (a grid named twice is sampled once), taken from each step's two states while a
    solve accepts them, so no state is kept for them.  The rows equal, bit for bit,
    those of the member's unthinned trajectory: a time t in [t0, t1) reads the state
    at t0 alone when t = t0, else (1 - w) s0 + w s1 at w = (t - t0) / (t1 - t0),
    `_locate`'s state and weight with `_interpolate`'s arithmetic.
    """

    def __init__(self, src: GridSpec, times, grids):
        self.src, self.times, self.next = src, [float(t) for t in times], 0
        shape = (len(self.times),)
        self.out = {g: (np.empty(shape + g.shape), np.empty(shape + g.shape + (g.d,)))
                    for g in grids}

    def take(self, t0: float, s0: tuple, t1: float, s1: tuple) -> None:
        """The rows of the times in [t0, t1), from the (rho, u) states s0 at t0 and s1 at t1."""
        lo = hi = self.next
        while hi < len(self.times) and self.times[hi] < t1:
            hi += 1
        self.next = hi
        if lo == hi or not self.out:
            return
        w = np.array([(t - t0) / (t1 - t0) for t in self.times[lo:hi]])
        for f, (a, b) in enumerate(zip(s0, s1)):
            wf = w.reshape((-1,) + (1,) * a.ndim)
            rows = np.multiply(a, 1 - wf)
            rows += b * wf
            if self.times[lo] == t0:  # only the first time can be a hit
                rows[0] = a
            for g, out in self.out.items():
                out[f][lo:hi] = transfer(rows, self.src, g, lead=1)

    def finish(self, t: float, s: tuple) -> dict:
        """grid -> (rho, u) stacks, once the solve has ended at t = times[-1] in state s."""
        self.take(t, s, math.inf, s)
        return self.out


# ---------------------------------------------------------------------------
# norms


def _mag(values: np.ndarray, vector: bool) -> np.ndarray:
    """Pointwise Euclidean magnitude of vector values (last axis), or |values|."""
    return np.sqrt((values**2).sum(axis=-1)) if vector else np.abs(values)


def _lq(mag: np.ndarray, q: float, vol: float) -> float:
    """Midpoint-quadrature L^q norm (finite q) of pointwise magnitudes on cells of volume `vol`."""
    return float((np.sum(mag**q) * vol) ** (1.0 / q))


def lq_norm(f: Field, q: float) -> float:
    """Midpoint-quadrature L^q norm on the torus; q = inf gives the max norm.

    Vector fields are reduced to their pointwise Euclidean magnitude first.
    """
    check_number(q, "q", ge=1, inf=True)
    a = _mag(f.values, isinstance(f, VectorField))
    if q == np.inf:
        return float(a.max())
    return _lq(a, q, f.grid.cell_volume)


@functools.lru_cache(maxsize=128)
def _sobolev_weight(grid: GridSpec, m: int) -> np.ndarray:
    """(1 + |2 pi k / period|^2)^(-m) over the grid's integer modes k, in FFT order."""
    kint = np.fft.fftfreq(grid.n) * grid.n  # integer mode numbers
    if grid.d == 1:
        ksq = (2 * np.pi * kint / grid.period) ** 2
    else:
        kx, ky = np.meshgrid(kint, kint, indexing="ij")
        ksq = (2 * np.pi / grid.period) ** 2 * (kx**2 + ky**2)
    weight = (1.0 + ksq) ** (-float(m))
    weight.setflags(write=False)
    return weight


def _neg_sobolev_sq(values: np.ndarray, grid: GridSpec, m: int, lead: int = 0):
    """sum_k |fhat_k|^2 (1 + |2 pi k / period|^2)^(-m) of a field, or an array of
    them for a stack of fields along `lead` leading axes (one batched FFT)."""
    # forward DFT normalized by cell count so the k=0 coefficient is the mean
    fhat = np.fft.fftn(values, axes=tuple(range(lead, lead + grid.d))) / grid.num_cells
    weight = _sobolev_weight(grid, m)
    rows = values.shape[:lead] + (-1,)  # each field sums like a whole-field np.sum

    def total(f):
        return np.sum((np.abs(f) ** 2 * weight).reshape(rows), axis=-1)

    if values.ndim == lead + grid.d:  # scalar
        return total(fhat)
    return sum(total(fhat[..., c]) for c in range(values.shape[-1]))


def neg_sobolev_norm(obj, m: int) -> float:
    """Negative Sobolev norm via the discrete Fourier transform.

    For a field: ||f||^2 = sum_k |fhat_k|^2 (1 + |2 pi k / period|^2)^(-m).
    For a trajectory: L^2-in-time of the spatial norms by the trapezoid rule
    over the stored steps, applied to the (rho, u) pair jointly, with one
    FFT over the stack of its kept states per field.
    Requires m > d + 1 so that bounded fields embed compactly.
    """
    grid = obj.grid
    check_number(m, "m", gt=grid.d + 1)
    if isinstance(obj, Trajectory):
        if len(obj.steps) < len(obj.times):
            raise ValueError("the negative Sobolev norm of a trajectory needs every step's state")
        sq = (_neg_sobolev_sq(np.array(obj.rho), grid, m, lead=1)
              + _neg_sobolev_sq(np.array(obj.u), grid, m, lead=1))
        if len(obj) == 1:
            return float(np.sqrt(sq[0]))
        return float(np.sqrt(np.trapezoid(sq, obj.times)))
    return float(np.sqrt(_neg_sobolev_sq(obj.values, grid, m)))


# ---------------------------------------------------------------------------
# grid transfer (onto nested, coarser uniform grids only)


def transfer(values: np.ndarray, src: GridSpec, target: GridSpec, lead: int = 0) -> np.ndarray:
    """Cell values moved from `src` onto a nested `target` grid no finer than it.

    Cell averages onto a coarser grid, and the values themselves (not a
    copy) on the same grid; a finer or non-nested target raises ValueError.
    The spatial axes follow `lead` leading axes (a stack of fields) and
    precede any trailing component axis.
    """
    if target.d != src.d or target.period != src.period:
        raise ValueError("grids must share dimension and period")
    if target.n == src.n:
        return values
    if src.n % target.n:
        raise ValueError(f"grid {target.n} is not a coarsening of grid {src.n}")
    r = src.n // target.n
    # split each spatial axis into (coarse cell, fine cell within it) and average the latter
    v = values.reshape(values.shape[:lead] + (target.n, r) * src.d + values.shape[lead + src.d:])
    # np.mean's sum-then-divide, without its per-call overhead
    return np.add.reduce(v, axis=tuple(range(lead + 1, lead + 2 * src.d, 2))) / r**src.d


# ---------------------------------------------------------------------------
# serialization: CSV with a one-line header, row-major cells


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_SAVE_CHUNK = 1024  # values formatted per write of save_field


def save_field(f: Field, path) -> None:
    """Write a field as CSV: header `d,n,period,ncomp`, then one value per line.

    Values are flattened in row-major (C) order; for vector fields the
    component index is the fastest-varying one.
    """
    ncomp = f.grid.d if isinstance(f, VectorField) else 1
    flat = f.values.ravel()
    with open(path, "w") as fh:
        fh.write(f"{f.grid.d},{f.grid.n},{_fmt(f.grid.period)},{ncomp}\n")
        # `%.17g` is _fmt's format; a chunk at a time, so no whole field of text is held
        for i in range(0, flat.size, _SAVE_CHUNK):
            chunk = flat[i:i + _SAVE_CHUNK].tolist()
            fh.write(("%.17g\n" * len(chunk)) % tuple(chunk))


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


# uniform sample times of every space-time distance; a runner's solves sample
# their members at them while they step (StepSampler)
N_DISTANCE_TIMES = 17


def distance_times(a: Trajectory, b: Trajectory) -> np.ndarray:
    """The `N_DISTANCE_TIMES` uniform sample times of a distance between `a` and `b`."""
    if abs(a.final_time - b.final_time) > 1e-9 * max(1.0, a.final_time):
        raise ValueError("trajectories must share the final time")
    return np.linspace(0.0, min(a.final_time, b.final_time), N_DISTANCE_TIMES)


def stack_lq_distance(a: tuple, b: tuple, times, grid: GridSpec,
                      q: float = 2.0, which: str = "both") -> np.ndarray:
    """L^q((0,T) x torus) distances between two sampled stacks on `grid`, one per member.

    `a` and `b` are `sample_members` results on `grid` at `times`, one row of
    sample times per member.  Each time slice is reduced over its cells, then
    the time integral uses the trapezoid rule, and each distance's root is
    taken as a scalar.  `which` selects the compared quantity: "rho",
    "momentum", or "both" (the stacked (rho, u) vector, Euclidean pointwise
    magnitude).
    """
    check_number(q, "q", ge=1, inf=True)
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
    times = np.asarray(times, dtype=float)
    if q == np.inf:
        return mag.reshape(len(times), -1).max(axis=-1)
    # one row per time slice, so each slice sums in the order of a whole-field np.sum
    mag = mag.reshape(times.shape + (grid.num_cells,))
    slice_int = np.sum(np.power(mag, q, out=mag), axis=-1) * grid.cell_volume
    # a scalar power per member: numpy's array power rounds differently
    return np.array([x ** (1.0 / q) for x in np.trapezoid(slice_int, times, axis=-1)])


def trajectory_lq_distance(a: Trajectory, b: Trajectory, q: float = 2.0,
                           which: str = "both") -> float:
    """L^q((0,T) x torus) distance between two trajectories.

    Both trajectories are sampled by `sample_members` at the `N_DISTANCE_TIMES`
    uniform times of `distance_times` (linear interpolation between stored steps);
    the finer grid is restricted onto the coarser one, and `stack_lq_distance`
    integrates in time by the trapezoid rule, as it does for the runners' level
    pairs from the samples their solves took (`StepSampler`).  `which` selects the
    compared quantity: "rho", "momentum", or "both" (the stacked (rho, u) vector,
    Euclidean pointwise magnitude).
    """
    coarse = a.grid if a.grid.n <= b.grid.n else b.grid
    times = distance_times(a, b)[None]
    sa, sb = (sample_members([x], times, coarse) for x in (a, b))
    return float(stack_lq_distance(sa, sb, times, coarse, q=q, which=which)[0])

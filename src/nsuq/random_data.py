"""Random data on the latent cube [0,1]^K.

A distribution spec is a measurable map from the cube into the admissible
set: inverse-CDF transforms for the scalar coefficients and affine
latent-to-amplitude maps for the band-limited initial fields and forcing.
The map is affine in every latent coordinate, so admissibility of the
whole image and a Lipschitz constant are certified at construction time,
which is exactly what the collocation (piecewise-constant) approximation
needs for its error control.

Monte-Carlo latent streams are splittable: sample n depends only on
(seed, n), never on how many samples are drawn, so refinement ladders can
share common random numbers member by member.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .mesh import check_number
from .physics import AdmissibleBounds, DataRecord, ForcingSpec, FourierField, FourierMode
from .solver import COMPLETED

__all__ = [
    "ScalarTransform",
    "RandomMode",
    "RandomFieldSpec",
    "DistributionSpec",
    "SpecValidationError",
    "sample_latent",
    "CollocationPartition",
    "build_partition",
    "collocate_data",
    "EnsembleMember",
    "Ensemble",
]

MAX_PARTITION_CELLS = 1 << 20


class SpecValidationError(ValueError):
    """A distribution spec whose image would leave the admissible set."""


_STD_NORMAL = NormalDist()


def _ncdf(z: float) -> float:
    """Standard normal CDF through erfc, so the lower tail keeps its relative accuracy."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _npdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# scalar coefficients


@dataclass(frozen=True)
class ScalarTransform:
    """Inverse-CDF map of one latent coordinate onto [lo, hi].

    dist: "const" (value lo, no latent coordinate), "uniform", or
    "trunc_normal" (mean/sd of the underlying normal before truncation).
    """

    dist: str
    lo: float
    hi: float | None = None
    mean: float | None = None
    sd: float | None = None
    latent_index: int | None = None

    def __post_init__(self):
        check_number(self.lo, "transform lo")
        for key in ("hi", "mean", "sd"):
            if getattr(self, key) is not None:
                check_number(getattr(self, key), f"transform {key}")
        if self.dist == "const":
            if self.latent_index is not None:
                raise ValueError("constant transforms consume no latent coordinate")
            object.__setattr__(self, "hi", self.lo)
        elif self.dist in ("uniform", "trunc_normal"):
            if self.hi is None or not self.lo <= self.hi:
                raise ValueError("need lo <= hi")
            check_number(self.latent_index, f"{self.dist} latent_index", integer=True, ge=0)
        else:
            raise ValueError(f"unknown transform {self.dist!r}")
        if self.dist == "trunc_normal":
            if self.mean is None:
                raise ValueError("trunc_normal needs a mean")
            check_number(self.sd, "trunc_normal sd", gt=0)
            if self.lo < self.hi and not self._mass() > 0:
                raise ValueError("trunc_normal interval carries no probability in double precision")

    def _std_bounds(self) -> tuple:
        return (self.lo - self.mean) / self.sd, (self.hi - self.mean) / self.sd

    def _mass(self) -> float:
        """Phi(b) - Phi(a), reflected into the lower tail when a > 0."""
        a, b = self._std_bounds()
        return _ncdf(b) - _ncdf(a) if a <= 0 else _ncdf(-a) - _ncdf(-b)

    def realize(self, coords: np.ndarray) -> float:
        if self.dist == "const":
            return self.lo
        w = float(coords[self.latent_index])
        if self.dist == "uniform":
            return self.lo + (self.hi - self.lo) * w
        if w == 0.0 or self.lo == self.hi:
            return self.lo
        if w == 1.0:
            return self.hi
        # inverse CDF mean + sd Phi^-1(Phi(a) + w (Phi(b) - Phi(a))), evaluated
        # in the tail the quantile lies in, where Phi keeps its relative accuracy
        a, b = self._std_bounds()
        p = _ncdf(a) + w * (_ncdf(b) - _ncdf(a))
        if p <= 0.5:
            z = _STD_NORMAL.inv_cdf(p)
        else:
            z = -_STD_NORMAL.inv_cdf(_ncdf(-b) + (1.0 - w) * (_ncdf(-a) - _ncdf(-b)))
        # rounding must not leave [lo, hi], on which admissibility was certified
        return min(max(self.mean + self.sd * z, self.lo), self.hi)

    def lipschitz(self) -> float:
        """Sup of the inverse-CDF derivative on [0, 1]."""
        if self.dist == "const":
            return 0.0
        if self.dist == "uniform":
            return self.hi - self.lo
        if self.hi == self.lo:
            return 0.0
        # unimodal density: the minimum over [lo, hi] sits at an endpoint
        a, b = self._std_bounds()
        return self.sd * self._mass() / min(_npdf(a), _npdf(b))

    def to_dict(self) -> dict:
        doc = {"dist": self.dist, "lo": self.lo}
        if self.dist != "const":
            doc.update({"hi": self.hi, "latent_index": self.latent_index})
        if self.dist == "trunc_normal":
            doc.update({"mean": self.mean, "sd": self.sd})
        return doc


# ---------------------------------------------------------------------------
# random band-limited fields


@dataclass(frozen=True)
class RandomMode:
    """One trigonometric mode with amplitude affine in a latent coordinate."""

    wavevec: tuple
    kind: str
    coef_const: float
    coef_slope: float = 0.0
    latent_index: int | None = None

    def __post_init__(self):
        check_number(self.coef_const, "mode coef_const")
        check_number(self.coef_slope, "mode coef_slope")
        if self.latent_index is None and self.coef_slope != 0.0:
            raise ValueError("a sloped mode needs a latent_index")
        if self.latent_index is not None:
            check_number(self.latent_index, "mode latent_index", integer=True, ge=0)
        # a non-integer wavevector would not be periodic on the torus
        for k in self.wavevec:
            check_number(k, "mode wavevector entry", integer=True)
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"mode kind must be cos or sin, got {self.kind!r}")

    def coef(self, coords: np.ndarray) -> float:
        if self.latent_index is None:
            return self.coef_const
        return self.coef_const + self.coef_slope * float(coords[self.latent_index])

    def coef_abs_max(self) -> float:
        # affine on [0,1]: extremes at the endpoints
        return max(abs(self.coef_const), abs(self.coef_const + self.coef_slope))


@dataclass(frozen=True)
class RandomFieldSpec:
    """base + sum of RandomModes; realizes to a FourierField."""

    base: float
    modes: tuple = ()

    def __post_init__(self):
        check_number(self.base, "field base")

    def realize(self, coords: np.ndarray, d: int, period: float) -> FourierField:
        fmodes = tuple(FourierMode(m.wavevec, m.kind, m.coef(coords)) for m in self.modes)
        return FourierField(d, period, self.base, fmodes)

    def worst_inf(self) -> float:
        return self.base - sum(m.coef_abs_max() for m in self.modes)

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomFieldSpec":
        doc = dict(doc)  # an unknown key fails in the constructors
        modes = tuple(RandomMode(**{**m, "wavevec": tuple(m["wavevec"])})
                      for m in doc.get("modes", ()))
        return cls(**{**doc, "modes": modes})


# ---------------------------------------------------------------------------
# the distribution spec

_TRANSFORMS = ("mu", "eta", "a", "g_scale")  # the DistributionSpec fields holding ScalarTransforms


@dataclass(frozen=True)
class DistributionSpec:
    """Measurable map [0,1]^K -> admissible set, affine in each coordinate."""

    K: int
    d: int
    period: float
    gamma: float
    bounds: AdmissibleBounds
    mu: ScalarTransform
    eta: ScalarTransform
    a: ScalarTransform
    rho0: RandomFieldSpec
    u0: tuple  # one RandomFieldSpec per velocity component
    g_base: ForcingSpec
    g_scale: ScalarTransform
    field_order: float = 1.0  # Sobolev weight used in the data-distance surrogate

    def __post_init__(self):
        check_number(self.K, "latent dimension K", integer=True, ge=0)
        check_number(self.d, "dimension d", integer=True, ge=1, le=2)
        check_number(self.period, "period", gt=0)
        check_number(self.gamma, "gamma", gt=1)
        check_number(self.field_order, "field_order")
        if (self.g_base.d, self.g_base.period) != (self.d, self.period):
            raise SpecValidationError("g_base must share the spec's dimension and period")
        if len(self.u0) != self.d:
            raise SpecValidationError("u0 needs one field spec per component")
        for tr in (self.mu, self.eta, self.a, self.g_scale):
            if tr.latent_index is not None and tr.latent_index >= self.K:
                raise SpecValidationError("latent index out of range")
        for fs in (self.rho0, *self.u0):
            for m in fs.modes:
                if m.latent_index is not None and m.latent_index >= self.K:
                    raise SpecValidationError("latent index out of range")
                if len(m.wavevec) != self.d:
                    raise SpecValidationError("mode wavevector dimension mismatch")
        # written so that NaN fails every comparison (the sums can overflow)
        b = self.bounds
        if not self.mu.lo >= b.mu_lower:
            raise SpecValidationError("viscosity transform leaves the admissible set")
        if not self.eta.lo >= 0:
            raise SpecValidationError("bulk viscosity transform goes negative")
        if not b.a_lower <= self.a.lo <= self.a.hi <= b.a_upper:
            raise SpecValidationError("pressure coefficient transform leaves [a_lower, a_upper]")
        if not self.rho0.worst_inf() >= b.rho_lower:
            raise SpecValidationError("initial density can fall below rho_lower")
        if not self.g_scale.lo >= 0:
            raise SpecValidationError("forcing scale must be nonnegative")
        if not self.g_scale.hi * self.g_base.sup_bound() <= b.g_sup:
            raise SpecValidationError("forcing sup bound can exceed g_sup")

    def realize(self, omega: np.ndarray) -> DataRecord:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (self.K,):
            raise ValueError(f"latent point must have {self.K} coordinates")
        if np.any(omega < 0) or np.any(omega > 1):
            raise ValueError("latent point must lie in the unit cube")
        return DataRecord(
            rho0=self.rho0.realize(omega, self.d, self.period),
            u0=tuple(fs.realize(omega, self.d, self.period) for fs in self.u0),
            mu=self.mu.realize(omega),
            eta=self.eta.realize(omega),
            a=self.a.realize(omega),
            gamma=self.gamma,
            g=self.g_base.scaled(self.g_scale.realize(omega)),
        )

    def lipschitz_constant(self) -> float:
        """Lipschitz bound of the map w.r.t. the sup metric on the cube and the
        data-distance surrogate on the image: sum of per-coordinate constants."""
        per_coord = np.zeros(max(self.K, 1))
        for tr in (self.mu, self.eta, self.a):
            if tr.latent_index is not None:
                per_coord[tr.latent_index] += tr.lipschitz()
        if self.g_scale.latent_index is not None:
            per_coord[self.g_scale.latent_index] += (self.g_scale.lipschitz()
                                                     * self.g_base.sup_bound())
        for fs in (self.rho0, *self.u0):
            for m in fs.modes:
                if m.latent_index is not None:  # the data distance of a unit change of m
                    unit = FourierField(self.d, self.period, 0.0,
                                        (FourierMode(m.wavevec, m.kind, 1.0),))
                    per_coord[m.latent_index] += (abs(m.coef_slope)
                                                  * unit.sobolev_norm(self.field_order))
        return float(per_coord.sum())

    def to_dict(self) -> dict:
        # each transform lists only the parameters its distribution reads
        return {**asdict(self), **{key: getattr(self, key).to_dict() for key in _TRANSFORMS}}

    @classmethod
    def from_dict(cls, doc: dict) -> "DistributionSpec":
        doc = dict(doc)  # an unknown key fails in the constructor
        doc["bounds"] = AdmissibleBounds(**doc["bounds"])
        for key in _TRANSFORMS:
            doc[key] = ScalarTransform(**doc[key])
        doc["rho0"] = RandomFieldSpec.from_dict(doc["rho0"])
        doc["u0"] = tuple(RandomFieldSpec.from_dict(u) for u in doc["u0"])
        doc["g_base"] = ForcingSpec.from_dict(doc["g_base"])
        return cls(**doc)


# ---------------------------------------------------------------------------
# Monte-Carlo latent stream


def sample_latent(seed: int, count: int, K: int) -> np.ndarray:
    """count i.i.d. uniform points on [0,1]^K; sample n depends only on (seed, n)."""
    if count < 1:
        raise ValueError("need at least one sample")
    out = np.empty((count, K))
    for n in range(count):
        ss = np.random.SeedSequence(seed, spawn_key=(n,))
        out[n] = np.random.Generator(np.random.PCG64(ss)).random(K)
    return out


# ---------------------------------------------------------------------------
# collocation partitions


def _multi_index(K: int, n: int) -> np.ndarray:
    """Integer multi-indices of the n^K cells, one row per cell in C order."""
    grids = np.meshgrid(*[np.arange(n)] * K, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class CollocationPartition:
    """Uniform tensor partition of the cube, one collocation point per cell."""

    K: int
    n_per_axis: int
    points: np.ndarray

    def __post_init__(self):
        if self.points.shape != (self.num_cells, self.K):
            raise ValueError("points array has wrong shape")
        idx = _multi_index(self.K, self.n_per_axis)
        w = 1.0 / self.n_per_axis
        if not np.all((self.points >= idx * w) & (self.points <= (idx + 1) * w)):
            raise ValueError("every collocation point must lie inside its cell")

    @property
    def num_cells(self) -> int:
        return self.n_per_axis**self.K

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.num_cells, float(self.n_per_axis) ** (-self.K))

    def locate(self, omega: np.ndarray):
        """Flat index (C order) of the cell containing a latent point, or an
        array of them for an (m, K) array of points."""
        omega = np.asarray(omega, dtype=float)
        axes = np.minimum((omega * self.n_per_axis).astype(int), self.n_per_axis - 1)
        return np.ravel_multi_index(tuple(axes.T), (self.n_per_axis,) * self.K)


def build_partition(K: int, n_per_axis: int, rule: str = "center",
                    seed: int | None = None) -> CollocationPartition:
    if K < 1 or n_per_axis < 1:
        raise ValueError("need K >= 1 and n_per_axis >= 1")
    if n_per_axis**K > MAX_PARTITION_CELLS:
        raise ValueError(f"partition would have more than {MAX_PARTITION_CELLS} cells")
    idx = _multi_index(K, n_per_axis).astype(float)
    w = 1.0 / n_per_axis
    if rule == "center":
        pts = (idx + 0.5) * w
    elif rule == "random":
        if seed is None:
            raise ValueError("random-in-cell rule needs a seed")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        pts = (idx + rng.random(idx.shape)) * w
    else:
        raise ValueError(f"unknown collocation rule {rule!r}")
    return CollocationPartition(K=K, n_per_axis=n_per_axis, points=pts)


def collocate_data(spec: DistributionSpec, partition: CollocationPartition) -> list:
    """Per-cell data records; the induced map omega -> data is piecewise constant."""
    if partition.K != spec.K:
        raise ValueError("partition and spec disagree on the latent dimension")
    return [spec.realize(p) for p in partition.points]


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class EnsembleMember:
    latent: np.ndarray
    data: DataRecord
    report: object  # SolveReport


@dataclass
class Ensemble:
    """Weighted collection of solved members; weights are 1/N (weak) or cell volumes (strong)."""

    members: list
    weights: np.ndarray
    mode: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.mode not in ("weak", "strong"):
            raise ValueError("mode must be weak or strong")
        if len(self.members) != len(self.weights) or not len(self.members):
            raise ValueError("need one weight per member and at least one member")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to one")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def completed_mask(self) -> np.ndarray:
        return np.array([m.report.status == COMPLETED for m in self.members])

    @property
    def unresolved_mass(self) -> float:
        """Weight mass of members whose solve did not complete."""
        return float(self.weights[~self.completed_mask].sum())

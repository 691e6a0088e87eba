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
from .physics import AdmissibleBounds, DataRecord, ForcingSpec, FourierField, FourierMode, \
    _admissibility_violation

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
        if not self.g_scale.lo >= 0:
            raise SpecValidationError("forcing scale must be nonnegative")
        # the image's extremes; a sum that overflows to NaN breaks the rule too
        violation = _admissibility_violation(
            self.bounds, self.rho0.worst_inf(), self.mu.lo, self.eta.lo, self.a.lo, self.a.hi,
            self.g_scale.hi * self.g_base.sup_bound())
        if violation:
            raise SpecValidationError(f"the spec's image can break {violation}")

    def realize(self, omega: np.ndarray) -> DataRecord:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (self.K,):
            raise ValueError(f"latent point must have {self.K} coordinates")
        if not ((omega >= 0) & (omega <= 1)).all():
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
#
# NumPy's SeedSequence, PCG64 and Generator.random, computed bit for bit with
# Python integers: the stream is fixed by the integer recurrences below, not by
# NumPy's generator stability policy, and no run imports NumPy's random module
# (whose import also loads OpenSSL, through secrets and hashlib).

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _words(n: int) -> list:
    """n as little-endian 32-bit words, 0 giving [0], as SeedSequence assembles it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed_state(seed: int, spawn_key: tuple) -> list:
    """SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)."""
    entropy, key = _words(seed), [w for k in spawn_key for w in _words(k)]
    if key:  # a spawned sequence pads the seed to the pool size, 4 words
        entropy += [0] * (4 - len(entropy))
    entropy += key
    h = 0x43B0D7E5  # INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32  # MULT_A
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32  # MIX_MULT_L, MIX_MULT_R
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, state = 0x8B51F9DD, []  # INIT_B
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32  # MULT_B
        value = value * h & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seed: int, spawn_key: tuple = ()):
    """The doubles of Generator(PCG64(SeedSequence(seed, spawn_key=spawn_key))).random()."""
    s_hi, s_lo, i_hi, i_lo = _seed_state(seed, spawn_key)
    inc = (i_hi << 64 | i_lo) << 1 & _M128 | 1  # pcg_setseq_128_srandom_r
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    while True:  # one LCG step, then the XSL-RR output
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53


def sample_latent(seed: int, count: int, K: int) -> np.ndarray:
    """count i.i.d. uniform points on [0,1]^K; sample n depends only on (seed, n).

    Row n holds, bit for bit, the K doubles of NumPy's
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(n,)))).random(K)``.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    out = np.empty((count, K))
    for n in range(count):
        out[n] = np.fromiter(_uniforms(seed, (n,)), float, K)
    return out


# ---------------------------------------------------------------------------
# collocation partitions


def _place_values(K: int, n: int) -> np.ndarray:
    """n^(K-1), ..., n, 1: the C-order flat index of a cell is its multi-index @ these.

    (numpy's meshgrid and ravel_multi_index take at most 32 dimensions; K reaches 64.)
    """
    return n ** np.arange(K - 1, -1, -1)


def _multi_index(K: int, n: int) -> np.ndarray:
    """Integer multi-indices of the n^K cells, one row per cell in C order."""
    return np.arange(n**K)[:, None] // _place_values(K, n) % n


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
        if np.any(axes < 0):
            raise ValueError("latent point outside the unit cube")
        return axes @ _place_values(self.K, self.n_per_axis)


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
        # one stream of num_cells * K draws in C order, as Generator.random(idx.shape)
        draws = np.fromiter(_uniforms(seed), float, idx.size).reshape(idx.shape)
        pts = (idx + draws) * w
    else:
        raise ValueError(f"unknown collocation rule {rule!r}")
    return CollocationPartition(K=K, n_per_axis=n_per_axis, points=pts)


def collocate_data(spec: DistributionSpec, partition: CollocationPartition) -> list:
    """Per-cell data records; the induced map omega -> data is piecewise constant."""
    if partition.K != spec.K:
        raise ValueError("partition and spec disagree on the latent dimension")
    return [spec.realize(p) for p in partition.points]


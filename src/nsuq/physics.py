"""Continuum-level building blocks: pressure law and potential, energy,
and the data record (initial fields, viscosities, pressure coefficient,
forcing) together with the deterministic admissibility bounds.

Initial fields and forcings are band-limited trigonometric sums.  Keeping
them analytic rather than grid-bound lets one record be realized on every
grid of a refinement ladder, which is what couples ensemble levels by
common random data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .mesh import GridSpec, ScalarField, VectorField, FluidState, check_number

__all__ = [
    "pressure",
    "pressure_potential",
    "total_energy",
    "FourierMode",
    "FourierField",
    "ForcingTerm",
    "ForcingSpec",
    "DataRecord",
    "AdmissibleBounds",
    "AdmissibilityVerdict",
    "validate_admissible",
    "data_distance",
]


# ---------------------------------------------------------------------------
# equation of state


def pressure(rho, a: float, gamma: float):
    """Isentropic pressure p = a rho^gamma; accepts scalars or arrays.

    Floating dtypes pass through (so extended-precision oracles can
    difference the very function under test); everything else is promoted
    to float64.
    """
    rho = np.asarray(rho)
    if rho.dtype.kind != "f":
        rho = rho.astype(float)
    if not (rho >= 0).all():
        raise ValueError("density must be nonnegative")
    check_number(a, "pressure coefficient a", gt=0)
    check_number(gamma, "adiabatic exponent gamma", gt=1)
    out = a * rho**gamma
    return out[()] if out.ndim == 0 else out


def pressure_potential(rho, a: float, gamma: float):
    """Pressure potential P with P'(rho) rho - P(rho) = p(rho), i.e. a rho^gamma / (gamma - 1)."""
    return pressure(rho, a, gamma) / (gamma - 1.0)


def total_energy(rho: np.ndarray, u: np.ndarray, grid: GridSpec, a: float,
                 gamma: float) -> float:
    """Total energy integral [ rho |u|^2 / 2 + P(rho) ] dx of arrays on `grid`, midpoint rule."""
    if not rho.min() > 0:
        raise ValueError("total energy needs strictly positive density")
    kinetic = 0.5 * rho * (u**2).sum(axis=-1)
    dens = kinetic + pressure_potential(rho, a, gamma)
    return float(dens.sum() * grid.cell_volume)


# ---------------------------------------------------------------------------
# band-limited fields


def _canonical(wavevec: tuple, kind: str, coef: float):
    """Normalize mode sign so (k, kind) is a unique key: first nonzero entry > 0."""
    wv = tuple(int(k) for k in wavevec)
    if kind not in ("cos", "sin"):
        raise ValueError(f"mode kind must be cos or sin, got {kind!r}")
    for k in wv:
        if k > 0:
            break
        if k < 0:
            wv = tuple(-k for k in wv)
            if kind == "sin":
                coef = -coef
            break
    return wv, kind, float(coef)


@dataclass(frozen=True)
class FourierMode:
    wavevec: tuple
    kind: str  # "cos" or "sin"
    coef: float


@dataclass(frozen=True)
class FourierField:
    """Real trigonometric polynomial mean + sum coef * cos/sin(2 pi k.x / period)."""

    d: int
    period: float
    mean: float
    modes: tuple = ()

    def __post_init__(self):
        merged = {}
        mean = float(self.mean)
        for m in self.modes:
            wv, kind, coef = _canonical(m.wavevec, m.kind, m.coef)
            if len(wv) != self.d:
                raise ValueError(f"wavevector {wv} does not match dimension {self.d}")
            if all(k == 0 for k in wv):
                if kind == "cos":
                    mean += coef  # cos(0) = 1 folds into the mean
                continue  # sin(0) = 0
            key = (wv, kind)
            merged[key] = merged.get(key, 0.0) + coef
        modes = tuple(
            FourierMode(wv, kind, c) for (wv, kind), c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "modes", modes)

    @classmethod
    def constant(cls, value: float, d: int, period: float = 1.0) -> "FourierField":
        return cls(d=d, period=period, mean=value)

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        if grid.d != self.d or grid.period != self.period:
            raise ValueError("grid does not match field geometry")
        out = np.full(grid.shape, self.mean)
        for m in self.modes:
            out = out + m.coef * _spatial_profile(m.wavevec, m.kind, self.period, grid)
        return out

    def inf_bound(self) -> float:
        """Rigorous lower bound for the continuum infimum (exact for <= 1 mode)."""
        return self.mean - sum(abs(m.coef) for m in self.modes)

    def sup_bound(self) -> float:
        return self.mean + sum(abs(m.coef) for m in self.modes)

    def sobolev_norm(self, order: float = 1.0) -> float:
        """Exact W^{order,2} norm of the trigonometric polynomial (Parseval)."""
        vol = self.period**self.d
        acc = self.mean**2
        for m in self.modes:
            ksq = sum((2 * np.pi * k / self.period) ** 2 for k in m.wavevec)
            acc += 0.5 * m.coef**2 * (1.0 + ksq) ** order
        return math.sqrt(vol * acc)

    def __sub__(self, other: "FourierField") -> "FourierField":
        if (self.d, self.period) != (other.d, other.period):
            raise ValueError("fields live on different tori")
        modes = self.modes + tuple(replace(m, coef=-m.coef) for m in other.modes)
        return FourierField(self.d, self.period, self.mean - other.mean, modes)


# ---------------------------------------------------------------------------
# forcing: finite spatial Fourier sum, smooth time modulation


def _poly_abs_max(coeffs: tuple, horizon: float) -> float:
    """max |p(t)| on [0, horizon] for polynomial coefficients: p at the ends and at
    the real roots of p' inside (low order, exact via roots)."""
    crit = [0.0, horizon]
    if len(coeffs) > 2:  # a constant or linear envelope is extreme at the ends
        # p' highest power first, as np.roots takes it
        for r in np.roots([k * c for k, c in enumerate(coeffs)][:0:-1]):
            if abs(r.imag) < 1e-12 and 0.0 <= r.real <= horizon:
                crit.append(float(r.real))
    return max(abs(_polyval(coeffs, t)) for t in crit)


def _polyval(coeffs: tuple, t: float) -> float:
    """coeffs[0] + coeffs[1] t + ... by Horner's rule, in the order numpy's polyval
    adds, so the value is np.polynomial.Polynomial(coeffs)(t) bit for bit."""
    acc = float(coeffs[-1]) + t * 0
    for c in coeffs[-2::-1]:
        acc = float(c) + acc * t
    return acc


@functools.lru_cache(maxsize=128)
def _spatial_profile(wavevec: tuple, kind: str, period: float, grid: GridSpec) -> np.ndarray:
    """trig(2 pi k.x / period) on the grid's cells, read-only.  Forcing terms, Fourier
    fields and Fourier functionals all read it; it does not depend on a coefficient,
    amplitude or envelope, so the members of an ensemble share it."""
    phase = sum((2 * np.pi * k / period) * x for k, x in zip(wavevec, grid.cell_centers()))
    out = np.cos(phase) if kind == "cos" else np.sin(phase)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ForcingTerm:
    """amplitude * trig(2 pi k.x / period) * cos(omega t + phase) * poly(t)."""

    wavevec: tuple
    kind: str  # spatial cos/sin
    amplitude: tuple  # one value per velocity component
    omega: float = 0.0
    phase: float = 0.0
    poly: tuple = (1.0,)

    def __post_init__(self):
        # a non-integer wavevector would not be periodic on the torus
        for k in self.wavevec:
            check_number(k, "forcing wavevector entry", integer=True)
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"forcing kind must be cos or sin, got {self.kind!r}")
        for x in (*self.amplitude, self.omega, self.phase, *self.poly):
            check_number(x, "forcing term number")


@dataclass(frozen=True)
class ForcingSpec:
    """Driving force per unit mass; sup-norm bounds are computable by construction."""

    d: int
    period: float
    terms: tuple = ()
    horizon: float = 1.0  # time interval on which sup bounds are certified

    def __post_init__(self):
        check_number(self.d, "forcing dimension d", integer=True, ge=1, le=2)
        check_number(self.period, "forcing period", gt=0)
        check_number(self.horizon, "forcing horizon", gt=0)
        for t in self.terms:
            if len(t.amplitude) != self.d:
                raise ValueError("amplitude must have one entry per velocity component")
            if len(t.wavevec) != self.d:
                raise ValueError("wavevector dimension mismatch")

    @classmethod
    def zero(cls, d: int, period: float = 1.0) -> "ForcingSpec":
        return cls(d=d, period=period, terms=())

    def evaluate(self, t: float, grid: GridSpec) -> np.ndarray:
        """Force per unit mass at time t, shape grid.shape + (d,)."""
        if grid.d != self.d or grid.period != self.period:
            raise ValueError("grid does not match forcing geometry")
        out = np.zeros(grid.shape + (self.d,))
        for term in self.terms:
            spatial = _spatial_profile(term.wavevec, term.kind, self.period, grid)
            envelope = math.cos(term.omega * t + term.phase) * _polyval(term.poly, t)
            for c, amp in enumerate(term.amplitude):
                if amp != 0.0:
                    out[..., c] += amp * envelope * spatial
        return out

    def sup_bound(self) -> float:
        """Upper bound for sup_{t in [0, horizon], x} |g(t, x)| (triangle inequality over terms)."""
        total = 0.0
        for term in self.terms:
            amp = math.sqrt(sum(a * a for a in term.amplitude))
            total += amp * _poly_abs_max(term.poly, self.horizon)
        return total

    def scaled(self, factor: float) -> "ForcingSpec":
        terms = tuple(
            replace(t, amplitude=tuple(factor * a for a in t.amplitude)) for t in self.terms
        )
        return ForcingSpec(self.d, self.period, terms, self.horizon)

    @classmethod
    def from_dict(cls, doc: dict) -> "ForcingSpec":
        doc = dict(doc)  # an unknown key fails in the constructors
        terms = tuple(
            ForcingTerm(**{**t, **{k: tuple(t[k]) for k in ("wavevec", "amplitude", "poly")
                                   if k in t}})
            for t in doc.get("terms", ())
        )
        return cls(**{**doc, "terms": terms})


# ---------------------------------------------------------------------------
# data record and admissibility


@dataclass(frozen=True)
class DataRecord:
    """One point of the data space: initial fields, viscosities, pressure law, forcing.

    gamma is a structural constant of the experiment, carried along for
    convenience but never randomized.
    """

    rho0: FourierField
    u0: tuple  # d FourierField components
    mu: float
    eta: float
    a: float
    gamma: float
    g: ForcingSpec

    def __post_init__(self):
        d = self.rho0.d
        if len(self.u0) != d or any(c.d != d for c in self.u0):
            raise ValueError("u0 must have one component field per dimension")
        if self.g.d != d:
            raise ValueError("forcing dimension mismatch")
        check_number(self.rho0.inf_bound(), "initial density's lower bound", gt=0)
        check_number(self.mu, "shear viscosity mu", gt=0)
        check_number(self.eta, "bulk viscosity eta", ge=0)
        check_number(self.a, "pressure coefficient a", gt=0)
        check_number(self.gamma, "adiabatic exponent gamma", gt=1)

    @property
    def d(self) -> int:
        return self.rho0.d

    @property
    def period(self) -> float:
        return self.rho0.period

    def min_density(self) -> float:
        return self.rho0.inf_bound()

    def initial_state(self, grid: GridSpec) -> FluidState:
        rho0 = ScalarField(grid, self.rho0.evaluate(grid))
        u0 = VectorField(grid, np.stack([c.evaluate(grid) for c in self.u0], axis=-1))
        return FluidState(rho0, u0, 0.0)


@dataclass(frozen=True)
class AdmissibleBounds:
    """Deterministic bounds cutting the closed convex admissible set out of the data space."""

    rho_lower: float
    mu_lower: float
    a_lower: float
    a_upper: float
    g_sup: float

    def __post_init__(self):
        for f in fields(self):
            check_number(getattr(self, f.name), f.name, gt=0)
        check_number(self.a_upper, "a_upper", ge=self.a_lower)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _admissibility_violation(bounds: AdmissibleBounds, rho_inf: float, mu: float, eta: float,
                             a_lo: float, a_hi: float, g_sup: float) -> str | None:
    """The first admissible-set inequality that data with these extremes breaks, or None.

    Each test reads `not x >= bound`, so a NaN breaks it.
    """
    tests = (("density_lower_bound", rho_inf, bounds.rho_lower),
             ("shear_viscosity_lower_bound", mu, bounds.mu_lower),
             ("bulk_viscosity_sign", eta, 0.0),
             ("pressure_coefficient_lower_bound", a_lo, bounds.a_lower),
             ("pressure_coefficient_upper_bound", bounds.a_upper, a_hi),
             ("forcing_sup_bound", bounds.g_sup, g_sup))
    return next((name for name, x, bound in tests if not x >= bound), None)


def validate_admissible(data: DataRecord, bounds: AdmissibleBounds) -> AdmissibilityVerdict:
    """Membership verdict for the admissible set; all inequalities are non-strict.

    The density infimum and the forcing sup use the records' certified
    bounds (exact for constants and single-mode fields, conservative
    otherwise), so acceptance implies true membership.
    """
    violation = _admissibility_violation(bounds, data.min_density(), data.mu, data.eta,
                                         data.a, data.a, data.g.sup_bound())
    return AdmissibilityVerdict(violation is None, violation)


def _forcing_distance(ga: ForcingSpec, gb: ForcingSpec) -> float:
    """Sup-style distance between forcings sharing the same envelope structure."""

    def amplitudes(g: ForcingSpec) -> dict:  # per term key; a key that repeats adds up
        acc = {}
        for t in g.terms:
            key = (t.wavevec, t.kind, t.omega, t.phase, t.poly)
            acc[key] = acc.get(key, 0.0) + np.array(t.amplitude)
        return acc

    amp_a, amp_b = amplitudes(ga), amplitudes(gb)
    terms = {k: amp_a.get(k, 0.0) - amp_b.get(k, 0.0) for k in {**amp_a, **amp_b}}
    horizon = max(ga.horizon, gb.horizon)
    return sum(
        float(np.linalg.norm(amp)) * _poly_abs_max(k[4], horizon) for k, amp in terms.items()
    )


def data_distance(a: DataRecord, b: DataRecord, field_order: float = 1.0) -> float:
    """Surrogate data-space distance: parameter gaps plus Sobolev-weighted field gaps.

    On band-limited fields all Sobolev norms are equivalent, so a fixed low
    order (default 1) is used for the field contributions.
    """
    if (a.d, a.period) != (b.d, b.period):
        raise ValueError("records live on different tori")
    if a.gamma != b.gamma:
        raise ValueError("records have different structural exponents")
    dist = abs(a.mu - b.mu) + abs(a.eta - b.eta) + abs(a.a - b.a)
    dist += (a.rho0 - b.rho0).sobolev_norm(field_order)
    for ca, cb in zip(a.u0, b.u0):
        dist += (ca - cb).sobolev_norm(field_order)
    dist += _forcing_distance(a.g, b.g)
    return dist

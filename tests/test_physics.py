import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsuq.mesh import GridSpec, ScalarField, VectorField, lq_norm
from nsuq.physics import (
    AdmissibleBounds,
    ForcingSpec,
    ForcingTerm,
    FourierField,
    FourierMode,
    _admissibility_violation,
    data_distance,
    pressure,
    pressure_potential,
    total_energy,
    validate_admissible,
)
from conftest import make_record


# ---------------------------------------------------------------------------
# equation of state


@pytest.mark.parametrize(
    "rho,a,gamma,expected",
    [(0.0, 1.0, 2.0, 0.0), (2.0, 1.0, 2.0, 4.0), (1.0, 3.0, 1.4, 3.0)],
)
def test_pressure_values(rho, a, gamma, expected):
    assert pressure(rho, a, gamma) == pytest.approx(expected)


def test_pressure_domain_errors():
    with pytest.raises(ValueError):
        pressure(-0.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        pressure(np.array([1.0, -1.0]), 1.0, 2.0)
    with pytest.raises(ValueError):
        pressure(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        pressure(1.0, 1.0, 1.0)


def test_pressure_monotone_in_rho():
    rhos = np.linspace(0.1, 3.0, 50)
    p = pressure(rhos, 0.7, 1.4)
    assert np.all(np.diff(p) > 0)


@pytest.mark.parametrize(
    "rho,a,gamma,expected",
    [(0.0, 1.0, 2.0, 0.0), (2.0, 1.0, 2.0, 4.0), (1.0, 2.0, 3.0, 1.0)],
)
def test_pressure_potential_values(rho, a, gamma, expected):
    # expected values follow from solving P' rho - P = a rho^gamma
    assert pressure_potential(rho, a, gamma) == pytest.approx(expected)


def test_pressure_potential_gamma_error():
    with pytest.raises(ValueError):
        pressure_potential(1.0, 1.0, 1.0)


def test_eos_identity_finite_difference():
    # P' rho - P = p checked with extended-precision central differences
    ld = np.longdouble
    for rho in np.linspace(0.2, 2.0, 4):
        for a in (0.6, 1.3):
            for gamma in (1.4, 2.0, 3.0):
                r = ld(rho)
                step = ld(1e-6) * r
                deriv = (pressure_potential(r + step, a, gamma)
                         - pressure_potential(r - step, a, gamma)) / (2 * step)
                p = pressure(r, a, gamma)
                resid = abs(deriv * r - pressure_potential(r, a, gamma) - p)
                assert resid <= 1e-10 * (1 + p)


# ---------------------------------------------------------------------------
# energy


def test_total_energy_constant_fields():
    g = GridSpec(1, 16)
    assert total_energy(np.ones(g.shape), np.zeros(g.shape + (1,)), g, 1.0, 2.0) \
        == pytest.approx(1.0)


def test_total_energy_with_velocity_d2():
    g = GridSpec(2, 8)
    u = VectorField.constant(g, [2.0, 0.0]).values
    assert total_energy(np.ones(g.shape), u, g, 1.0, 2.0) == pytest.approx(3.0)


def test_total_energy_velocity_sign_flip():
    g = GridSpec(1, 16)
    rng = np.random.default_rng(2)
    rho = 1.0 + 0.3 * rng.random(16)
    u = rng.standard_normal((16, 1))
    assert total_energy(rho, u, g, 1.2, 1.4) == total_energy(rho, -u, g, 1.2, 1.4)


# ---------------------------------------------------------------------------
# band-limited fields


def test_fourier_field_canonicalization():
    f = FourierField(1, 1.0, 0.0, (FourierMode((-1,), "sin", 1.0), FourierMode((1,), "sin", 1.0)))
    assert f.modes == ()  # sin(-x) folds into -sin(x) and cancels
    f2 = FourierField(1, 1.0, 1.0, (FourierMode((0,), "cos", 0.5), FourierMode((0,), "sin", 3.0)))
    assert f2.mean == 1.5 and f2.modes == ()


def test_fourier_field_evaluate_and_bounds():
    f = FourierField(1, 1.0, 2.0, (FourierMode((1,), "sin", 0.5),))
    g = GridSpec(1, 64)
    x = g.cell_centers()[0]
    assert np.allclose(f.evaluate(g), 2.0 + 0.5 * np.sin(2 * np.pi * x))
    assert f.inf_bound() == pytest.approx(1.5)
    assert f.sup_bound() == pytest.approx(2.5)


@pytest.mark.parametrize("d", [1, 2])
def test_trig_kernel_equals_inline_formula(d):
    # Fourier fields and Fourier functionals read the cached trig profile of forcing
    # terms; every value equals the phase formula written out here
    from nsuq.stats import _fourier_coef

    grid = GridSpec(d, 16, 2.0)
    xs = grid.cell_centers()

    def inline(wavevec, kind):
        phase = sum((2 * np.pi * k / grid.period) * x for k, x in zip(wavevec, xs))
        return np.cos(phase) if kind == "cos" else np.sin(phase)

    wavevecs = [(1,), (-2,), (0,), (3,)] if d == 1 else [(1, -2), (0, 3), (-1, 0), (0, 0)]
    modes = tuple(FourierMode(wv, kind, 0.3 - 0.1 * i)
                  for i, wv in enumerate(wavevecs) for kind in ("cos", "sin"))
    field = FourierField(d, 2.0, 1.2, modes)
    expected = np.full(grid.shape, field.mean)
    for m in field.modes:
        expected = expected + m.coef * inline(m.wavevec, m.kind)
    assert np.array_equal(field.evaluate(grid), expected)
    values = field.evaluate(grid) ** 2
    for wv in wavevecs:
        for kind in ("cos", "sin"):
            scale = 1.0 if all(k == 0 for k in wv) else 2.0
            assert _fourier_coef(values, grid, wv, kind) == \
                float(scale * np.mean(values * inline(wv, kind)))


def test_fourier_field_norms_match_quadrature():
    f = FourierField(1, 1.0, 0.5, (FourierMode((2,), "cos", 0.3),))
    g = GridSpec(1, 256)
    quad = lq_norm(ScalarField(g, f.evaluate(g)), 2.0)
    assert f.sobolev_norm(0.0) == pytest.approx(quad, rel=1e-12)
    d2 = FourierField(2, 2.0, 0.0, (FourierMode((1, 1), "sin", 1.0),))
    g2 = GridSpec(2, 64, period=2.0)
    assert d2.sobolev_norm(0.0) == pytest.approx(lq_norm(ScalarField(g2, d2.evaluate(g2)), 2.0), rel=1e-12)


def test_fourier_field_sub():
    f = FourierField(1, 1.0, 1.0, (FourierMode((1,), "cos", 0.5),))
    h = FourierField(1, 1.0, 0.4, (FourierMode((1,), "cos", 0.2),))
    diff = f - h
    assert diff.mean == pytest.approx(0.6)
    assert diff.modes[0].coef == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# forcing


def test_forcing_evaluate():
    g = GridSpec(1, 32)
    spec = ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (2.0,), omega=np.pi, phase=0.0),))
    x = g.cell_centers()[0]
    out = spec.evaluate(0.5, g)
    assert np.allclose(out[..., 0], 2.0 * np.cos(2 * np.pi * x) * math.cos(np.pi * 0.5))


def _direct_forcing(spec, t, grid):
    """The force built term by term from its definition, with numpy's Polynomial."""
    xs = grid.cell_centers()
    out = np.zeros(grid.shape + (spec.d,))
    for term in spec.terms:
        phase = sum((2 * np.pi * k / spec.period) * x for k, x in zip(term.wavevec, xs))
        spatial = np.cos(phase) if term.kind == "cos" else np.sin(phase)
        envelope = math.cos(term.omega * t + term.phase) * float(
            np.polynomial.Polynomial(list(term.poly))(t)
        )
        for c, amp in enumerate(term.amplitude):
            if amp != 0.0:
                out[..., c] += amp * envelope * spatial
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_forcing_evaluate_equals_direct_formula(d):
    # cached spatial profiles and a Horner envelope leave every value bit-identical
    grid = GridSpec(d, 16, 2.0)
    polys = [(0.7,), (0.3, -1.2), (1.0, 0.5, -2.0), (0.2, -0.4, 1.5, 3.0)]
    for kind, other in (("cos", "sin"), ("sin", "cos")):
        for deg, poly in enumerate(polys):
            terms = (
                ForcingTerm((1,) + (2,) * (d - 1), kind, (0.8,) + (-0.3,) * (d - 1),
                            omega=2.3, phase=0.4, poly=poly),
                ForcingTerm((0,) * (d - 1) + (3,), other, (0.0,) * (d - 1) + (1.1,),
                            omega=-0.7, poly=polys[-1 - deg]),
            )
            spec = ForcingSpec(d, 2.0, terms)
            for t in (0.0, 0.013, 0.25, 0.7, 1.9, 3.3):
                assert np.array_equal(spec.evaluate(t, grid), _direct_forcing(spec, t, grid))


def test_forcing_sup_bound():
    spec = ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (0.7,)),), horizon=2.0)
    assert spec.sup_bound() == pytest.approx(0.7)
    # polynomial envelope t on [0, 2] peaks at 2
    spec2 = ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (1.0,), poly=(0.0, 1.0)),), horizon=2.0)
    assert spec2.sup_bound() == pytest.approx(2.0)
    # interior maximum of t(2-t) on [0, 2] found through the derivative root
    spec3 = ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (1.0,), poly=(0.0, 2.0, -1.0)),),
                        horizon=2.0)
    assert spec3.sup_bound() == pytest.approx(1.0)
    # random envelopes of degree 0 to 5 against numpy.polynomial's roots and values: the
    # bound is the same number up to degree 2; from degree 3 on, np.roots' companion
    # matrix may move a critical point by rounding, which moves the bound by ulps
    rng = np.random.default_rng(11)
    for horizon in (0.5, 1.0, 2.0, 7.5):
        for deg in range(6):
            for _ in range(200):
                poly = tuple(float(c) for c in rng.uniform(-2.0, 2.0, deg + 1))
                spec = ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (1.0,), poly=poly),),
                                   horizon=horizon)
                ref = _reference_poly_abs_max(poly, horizon)
                tol = 0.0 if deg <= 2 else 1e-14
                assert abs(spec.sup_bound() - ref) <= tol * ref, (poly, horizon)


def _reference_poly_abs_max(coeffs, horizon):
    """max |p| on [0, horizon] from numpy.polynomial: p at the ends and at the real
    roots of p' inside."""
    p = np.polynomial.Polynomial(list(coeffs))
    crit = [0.0, horizon]
    if len(coeffs) > 1:
        crit += [float(r.real) for r in p.deriv().roots()
                 if abs(r.imag) < 1e-12 and 0.0 <= r.real <= horizon]
    return float(max(abs(p(t)) for t in crit))


def test_forcing_scaled_and_dict_roundtrip():
    spec = ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (0.5,), omega=1.0, phase=0.1),))
    assert spec.scaled(2.0).sup_bound() == pytest.approx(1.0)
    assert ForcingSpec.from_dict(asdict(spec)) == spec
    assert ForcingSpec.zero(2).sup_bound() == 0.0


# ---------------------------------------------------------------------------
# data records and admissibility


def test_data_record_validation():
    with pytest.raises(ValueError):
        make_record(rho_mean=0.05, rho_amp=0.1)  # density not positive
    with pytest.raises(ValueError):
        make_record(mu=0.0)
    with pytest.raises(ValueError):
        make_record(eta=-0.1)
    with pytest.raises(ValueError):
        make_record(a=0.0)
    with pytest.raises(ValueError):
        make_record(gamma=1.0)


def test_admissible_bounds_validation():
    with pytest.raises(ValueError):
        AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=2.0, a_upper=1.0, g_sup=1.0)
    with pytest.raises(ValueError):
        AdmissibleBounds(rho_lower=0.0, mu_lower=0.01, a_lower=0.5, a_upper=1.0, g_sup=1.0)


def test_validate_admissible_examples(bounds):
    # density infimum at half of the lower bound: reject on the density constraint
    low = make_record(rho_mean=bounds.rho_lower / 2, rho_amp=0.0)
    verdict = validate_admissible(low, bounds)
    assert not verdict and verdict.violation == "density_lower_bound"

    # data exactly on every bound is accepted (closed set)
    g = ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (bounds.g_sup,)),))
    edge = make_record(rho_mean=bounds.rho_lower, rho_amp=0.0, mu=bounds.mu_lower,
                       a=bounds.a_upper, g=g)
    assert validate_admissible(edge, bounds)

    # eta = 0 is allowed
    assert validate_admissible(make_record(eta=0.0), bounds)

    too_strong = make_record(g=ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (2 * bounds.g_sup,)),)))
    assert validate_admissible(too_strong, bounds).violation == "forcing_sup_bound"
    assert validate_admissible(make_record(a=2 * bounds.a_upper), bounds).violation \
        == "pressure_coefficient_upper_bound"
    assert validate_admissible(make_record(a=bounds.a_lower / 2), bounds).violation \
        == "pressure_coefficient_lower_bound"
    assert validate_admissible(make_record(mu=bounds.mu_lower / 2), bounds).violation \
        == "shear_viscosity_lower_bound"

    # a record refuses NaN numbers, but a spec's image extremes can overflow to NaN:
    # a NaN extreme breaks every bound it enters
    edge = dict(rho_inf=bounds.rho_lower, mu=bounds.mu_lower, eta=0.0, a_lo=bounds.a_lower,
                a_hi=bounds.a_upper, g_sup=bounds.g_sup)
    assert _admissibility_violation(bounds, **edge) is None
    for key, violation in (("rho_inf", "density_lower_bound"),
                           ("mu", "shear_viscosity_lower_bound"),
                           ("eta", "bulk_viscosity_sign"),
                           ("a_lo", "pressure_coefficient_lower_bound"),
                           ("a_hi", "pressure_coefficient_upper_bound"),
                           ("g_sup", "forcing_sup_bound")):
        assert _admissibility_violation(bounds, **{**edge, key: math.nan}) == violation, key


@settings(max_examples=60, deadline=None)
@given(
    rho_mean=st.floats(0.3, 1.5),
    mu=st.floats(0.001, 0.1),
    a=st.floats(0.2, 2.0),
    gscale=st.floats(0.0, 2.0),
)
def test_validate_admissible_matches_direct_inequalities(rho_mean, mu, a, gscale):
    bounds = AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5, g_sup=1.0)
    g = ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (gscale,)),))
    rec = make_record(rho_mean=rho_mean, rho_amp=0.0, mu=mu, a=a, g=g)
    direct = (
        rec.min_density() >= bounds.rho_lower
        and rec.mu >= bounds.mu_lower
        and rec.eta >= 0
        and bounds.a_lower <= rec.a <= bounds.a_upper
        and rec.g.sup_bound() <= bounds.g_sup
    )
    assert bool(validate_admissible(rec, bounds)) == direct


def test_data_distance():
    r1 = make_record(rho_amp=0.1, mu=0.05, a=1.0)
    assert data_distance(r1, r1) == 0.0
    r2 = make_record(rho_amp=0.1, mu=0.07, a=1.1)
    assert data_distance(r1, r2) == pytest.approx(0.02 + 0.1)
    r3 = make_record(rho_amp=0.2)
    ksq = (2 * np.pi) ** 2
    assert data_distance(r1, r3) == pytest.approx(np.sqrt(0.5 * 0.1**2 * (1 + ksq)))
    with pytest.raises(ValueError):
        data_distance(r1, make_record(gamma=1.4))

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsuq import stats
from nsuq.mesh import GridSpec, Trajectory, sample_members
from nsuq.solver import SolveReport
from nsuq.stats import (
    Ensemble,
    boundedness_in_probability,
    convergence_in_probability_diagnostic,
    empirical_field_mean,
    empirical_functional_mean,
    energy_moment_bound,
    make_functional,
    pair_by_index,
    r_barycenter,
    read_times,
    SampledEnsemble,
)
from conftest import deep_or, fake_ensemble, random_member


# ---------------------------------------------------------------------------
# boundedness in probability


def test_boundedness_no_exceedance():
    ens = fake_ensemble([{"linf": 1.0}] * 4)
    rep = boundedness_in_probability(ens, [2.0])
    assert rep.exceedance[0] == 0.0


def test_boundedness_weak_counting():
    entries = [{"linf": 5.0}] * 3 + [{"linf": 1.0}] * 7
    rep = boundedness_in_probability(fake_ensemble(entries), [2.0])
    assert rep.exceedance[0] == 0.3


def test_boundedness_strong_weights():
    entries = [{"linf": 5.0}, {"linf": 5.0}, {"linf": 1.0}, {"linf": 1.0}]
    weights = [0.1, 0.25, 0.35, 0.3]
    rep = boundedness_in_probability(fake_ensemble(entries, mode="strong", weights=weights), [2.0])
    assert rep.exceedance[0] == 0.1 + 0.25


def test_boundedness_aborted_members_exceed_everything():
    entries = [{"linf": 1.0}, {"linf": 1.0, "status": "aborted_vacuum"}]
    rep = boundedness_in_probability(fake_ensemble(entries), [0.5, 10.0, 1e6])
    assert list(rep.exceedance) == [1.0, 0.5, 0.5]


def test_boundedness_monotone_in_threshold():
    rng = np.random.default_rng(8)
    entries = [{"linf": float(v)} for v in rng.uniform(0.1, 20.0, size=24)]
    rep = boundedness_in_probability(fake_ensemble(entries), np.linspace(0.0, 25.0, 40))
    assert np.all(np.diff(rep.exceedance) <= 0)
    assert np.all((rep.exceedance >= 0) & (rep.exceedance <= 1))


def test_boundedness_input_validation():
    ens = fake_ensemble([{"linf": 1.0}])
    with pytest.raises(ValueError):
        boundedness_in_probability(ens, [])


# ---------------------------------------------------------------------------
# functional and field means


def test_functional_mean_of_one_is_one():
    ens = fake_ensemble([{"rho": 1.0}, {"rho": 2.0}, {"rho": 3.0, "status": "no_convergence"}])
    assert empirical_functional_mean(ens, lambda traj: 1.0) == 1.0


def test_functional_mean_linearity():
    ens = fake_ensemble([{"rho": 1.0}, {"rho": 2.0}, {"rho": 4.0}])

    def F(traj):
        return float(traj.sample(0.0)[0].mean())

    def G(traj):
        return float(traj.sample(traj.final_time)[0].max())

    lhs = empirical_functional_mean(ens, lambda t: 2.0 * F(t) + 3.0 * G(t))
    rhs = 2.0 * empirical_functional_mean(ens, F) + 3.0 * empirical_functional_mean(ens, G)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_functional_mean_constant_output():
    ens = fake_ensemble([{"rho": 1.5}, {"rho": 1.5}])
    val = empirical_functional_mean(ens, lambda traj: float(traj.sample(0.0)[0][0]))
    assert val == pytest.approx(1.5)


def test_field_mean_single_member():
    rng = np.random.default_rng(0)
    vals = 1.0 + rng.random(8)
    ens = fake_ensemble([{"rho": vals}])
    [(t, fld)] = empirical_field_mean(ens, "density")
    assert np.allclose(fld.values, vals)


def test_field_mean_opposite_momenta_cancel():
    g = GridSpec(1, 8)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((8, 1))
    ens = fake_ensemble([{"rho": 1.0, "u": u}, {"rho": 1.0, "u": -u}], grid=g)
    [(t, fld)] = empirical_field_mean(ens, "momentum")
    assert np.allclose(fld.values, 0.0, atol=1e-15)


def test_field_mean_excludes_aborted():
    ens = fake_ensemble(
        [{"rho": 2.0}, {"rho": 100.0, "status": "aborted_linf", "linf": 1e5}]
    )
    [(t, fld)] = empirical_field_mean(ens, "density")
    assert np.allclose(fld.values, 2.0)


def test_mixed_grid_ensemble_is_rejected():
    reports = [fake_ensemble([{"rho": rho}], n=n).reports[0] for rho, n in ((1.0, 8), (3.0, 16))]
    ens = Ensemble([[0.0], [0.5]], reports, [0.5, 0.5], "weak")
    with pytest.raises(ValueError, match="one grid"):
        empirical_field_mean(ens, "density")
    with pytest.raises(ValueError, match="one grid"):
        r_barycenter(ens, "density")


def test_field_mean_selector_validation():
    ens = fake_ensemble([{"rho": 1.0}])
    with pytest.raises(ValueError):
        empirical_field_mean(ens, "vorticity")


# ---------------------------------------------------------------------------
# r-barycenters


def test_barycenter_r2_q2_is_weighted_mean():
    rng = np.random.default_rng(3)
    fields = [1.0 + rng.random(8) for _ in range(4)]
    w = np.array([0.1, 0.2, 0.3, 0.4])
    ens = fake_ensemble([{"rho": f} for f in fields], weights=w)
    res = r_barycenter(ens, "density", r=2.0, q=2.0)
    expected = sum(wi * f for wi, f in zip(w, fields))
    assert np.abs(res.minimizer.values - expected).max() <= 1e-14
    assert res.iterations == 0
    # objective equals the weighted variance around the mean
    vol = 1.0 / 8
    obj = sum(wi * (np.sum((f - expected) ** 2) * vol) for wi, f in zip(w, fields))
    assert res.objective == pytest.approx(obj, rel=1e-12)


def test_barycenter_two_constant_fields():
    ens = fake_ensemble([{"rho": 1e-9}, {"rho": 1.0}])  # rho must stay positive
    res = r_barycenter(ens, "density", r=2.0, q=2.0)
    assert np.allclose(res.minimizer.values, 0.5, atol=1e-8)
    res15 = r_barycenter(ens, "density", r=1.5, q=2.0)
    assert np.allclose(res15.minimizer.values, 0.5, atol=1e-6)
    assert res15.first_order_residual <= 1e-8


def test_barycenter_objective_never_exceeds_mean_objective():
    rng = np.random.default_rng(7)
    for r, q in ((1.5, 2.0), (2.0, 4.0), (3.0, 2.0)):
        fields = [1.0 + rng.random(8) for _ in range(5)]
        w = rng.random(5)
        w /= w.sum()
        ens = fake_ensemble([{"rho": f} for f in fields], weights=w)
        res = r_barycenter(ens, "density", r=r, q=q)
        mean = sum(wi * f for wi, f in zip(w, fields))
        vol = 1.0 / 8
        mean_obj = sum(
            wi * (np.sum(np.abs(mean - f) ** q) * vol) ** (r / q) for wi, f in zip(w, fields)
        )
        assert res.objective <= mean_obj + 1e-12
        assert res.first_order_residual <= 1e-8


def test_barycenter_law_dependence():
    rng = np.random.default_rng(21)
    fields = [1.0 + rng.random(8) for _ in range(3)]
    ens = fake_ensemble([{"rho": f} for f in fields], weights=[0.25, 0.25, 0.5])
    permuted = fake_ensemble([{"rho": fields[2]}, {"rho": fields[0]}, {"rho": fields[1]}],
                             weights=[0.5, 0.25, 0.25])
    # merging the two copies of field 2 into one member with summed weight
    duplicated = fake_ensemble([{"rho": fields[0]}, {"rho": fields[1]},
                                {"rho": fields[2]}, {"rho": fields[2]}],
                               weights=[0.25, 0.25, 0.25, 0.25])
    a = r_barycenter(ens, "density", r=1.5, q=2.0)
    b = r_barycenter(permuted, "density", r=1.5, q=2.0)
    c = r_barycenter(duplicated, "density", r=1.5, q=2.0)
    assert np.abs(a.minimizer.values - b.minimizer.values).max() <= 1e-7
    assert np.abs(a.minimizer.values - c.minimizer.values).max() <= 1e-7


def test_barycenter_momentum_fields():
    rng = np.random.default_rng(6)
    g = GridSpec(1, 8)
    ens = fake_ensemble(
        [{"rho": 1.0, "u": rng.standard_normal((8, 1))} for _ in range(4)], grid=g
    )
    res = r_barycenter(ens, "momentum", r=2.0, q=4.0)
    assert res.minimizer.values.shape == (8, 1)
    assert res.first_order_residual <= 1e-8


def test_barycenter_domain_errors():
    ens = fake_ensemble([{"rho": 1.0}])
    with pytest.raises(ValueError):
        r_barycenter(ens, r=1.0)
    with pytest.raises(ValueError):
        r_barycenter(ens, q=0.5)
    for q in (np.inf, np.nan):  # the L^q kernel is the finite-q formula
        with pytest.raises(ValueError):
            r_barycenter(ens, q=q)


# ---------------------------------------------------------------------------
# convergence-in-probability diagnostic


def test_pairing_requires_matching_latents():
    a = fake_ensemble([{"latent": [0.1]}, {"latent": [0.9]}])
    b = fake_ensemble([{"latent": [0.1]}, {"latent": [0.8]}])
    with pytest.raises(ValueError):
        pair_by_index(a, b)


def test_diagnostic_identical_levels_zero():
    ens = fake_ensemble([{"rho": 1.0 + 0.1 * k} for k in range(3)])
    pairs = pair_by_index(ens, ens)
    rep = convergence_in_probability_diagnostic(pairs, [0.0, 0.1, 1.0])
    assert np.all(rep.fractions == 0.0)
    assert np.all(rep.distances == 0.0)


def test_diagnostic_deterministic_offset():
    # levels differing by a field of norm 0.1: zero fraction above eps = 0.2
    a = fake_ensemble([{"rho": 1.0, "latent": [0.3]}])
    b = fake_ensemble([{"rho": 1.1, "latent": [0.3]}])
    pairs = pair_by_index(a, b)
    rep = convergence_in_probability_diagnostic(pairs, [0.05, 0.2], which="rho")
    assert rep.distances[0] == pytest.approx(0.1, rel=1e-12)
    assert list(rep.fractions) == [1.0, 0.0]


def test_diagnostic_unresolved_pair_counts_everywhere():
    rep = convergence_in_probability_diagnostic(([None], [None], [1.0]), [1.0, 1e9])
    assert list(rep.fractions) == [1.0, 1.0]
    # an aborted member, taken through pair_by_index, is None in its level's list
    a = fake_ensemble([{"latent": [0.5]}])
    b = fake_ensemble([{"latent": [0.5], "status": "aborted_linf", "linf": 100.0}])
    ta, tb, w = pair_by_index(a, b)
    assert ta[0] is a.reports[0].trajectory and tb == [None]
    rep = convergence_in_probability_diagnostic((ta, tb, w), [1.0, 1e9])
    assert list(rep.fractions) == [1.0, 1.0]


def test_paired_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to one"):
        convergence_in_probability_diagnostic(([None], [None], [0.5]), [1.0])
    with pytest.raises(ValueError, match="at least one"):
        convergence_in_probability_diagnostic(([], [], []), [1.0])


# ---------------------------------------------------------------------------
# energy moments and the functional library


def test_energy_moment_bound_single_member():
    ens = fake_ensemble([{"rho": 1.0, "energy": 2.5}])
    assert energy_moment_bound(ens) == pytest.approx(2.5)


def test_energy_moment_bound_weighted():
    ens = fake_ensemble([{"energy": 1.0}, {"energy": 3.0}], weights=[0.25, 0.75])
    assert energy_moment_bound(ens) == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)


def test_make_functional_kinds():
    ens = fake_ensemble([{"rho": 1.4}])
    traj = ens.reports[0].trajectory
    name, F = make_functional({"kind": "tanh_mean_density", "scale": 2.0, "name": "f1"})
    assert name == "f1"
    assert F(traj) == pytest.approx(math.tanh(2.0 * 1.4))
    _, G = make_functional({"kind": "clamp_fourier", "wavevec": [1], "part": "cos",
                            "lo": -0.5, "hi": 0.5})
    assert -0.5 <= G(traj) <= 0.5
    _, H = make_functional({"kind": "tanh_neg_sobolev", "m": 3})
    assert -1.0 <= H(traj) <= 1.0
    with pytest.raises(ValueError):
        make_functional({"kind": "unknown"})


def test_barycenter_local_optimality_against_perturbations():
    rng = np.random.default_rng(33)
    fields = [1.0 + rng.random(8) for _ in range(5)]
    w = rng.random(5)
    w /= w.sum()
    ens = fake_ensemble([{"rho": f} for f in fields], weights=w)
    vol = 1.0 / 8

    def objective(z, r, q):
        return sum(wi * (np.sum(np.abs(z - f) ** q) * vol) ** (r / q)
                   for wi, f in zip(w, fields))

    for r, q in ((1.5, 2.0), (2.0, 2.0), (3.0, 2.0)):
        res = r_barycenter(ens, "density", r=r, q=q)
        z = res.minimizer.values
        scale = np.abs(z).max()
        # no ensemble member, and no nearby perturbation, does better than
        # the minimizer beyond first-order tolerance
        for f in fields:
            assert res.objective <= objective(f, r, q) + 1e-8
        for _ in range(20):
            bump = z + 1e-3 * scale * rng.standard_normal(z.shape)
            assert res.objective <= objective(bump, r, q) + 1e-8


# ---------------------------------------------------------------------------
# the stacked statistics equal a per-member Python loop exactly


def _three_state_ensemble(d):
    """12 members with distinct states at t = 0, 0.4, 1 on one grid, random weights."""
    rng = np.random.default_rng(5 + d)
    g = GridSpec(d, 8)
    reports = []
    for i in range(12):
        states = [(0.5 + rng.random(g.shape), rng.standard_normal(g.shape + (d,)))
                  for _ in range(3)]
        traj = Trajectory(g, [r for r, _ in states], [v for _, v in states], [0.0, 0.4, 1.0],
                          [0, 1, 2])
        reports.append(SolveReport(traj, np.ones(3), 1.0 + rng.random(3)))
    w = rng.random(12)
    return Ensemble(np.arange(12)[:, None] / 12, reports, w / w.sum(), "strong")


def _loop_fields(reports, which, t):
    fields = []
    for rep in reports:
        rho, u = rep.trajectory.sample(t)
        fields.append(rho if which == "density" else rho[..., None] * u)
    return fields


def _loop_barycenter(Ys, w, r, q, vol, vector, tol=1e-8, max_iter=500):
    """r_barycenter's descent with one Python loop over the members per evaluation."""
    def evaluate(Z):
        obj, g, norms = 0, np.zeros_like(Z), []
        for wi, Y in zip(w, Ys):
            D = Z - Y
            mag = np.sqrt(np.sum(D**2, axis=-1)) if vector else np.abs(D)
            norm = float((np.sum(mag**q) * vol) ** (1.0 / q))
            norms.append(norm)
            obj += wi * norm**r
            if norm > 0:
                safe = np.where(mag > 0, mag, 1.0)
                fac = np.where(mag > 0, safe ** (q - 2.0), 0.0)
                g += wi * r * norm ** (r - q) * (fac[..., None] * D if vector else fac * D)
        return float(obj), g, norms

    Z = sum(wi * Y for wi, Y in zip(w, Ys))
    obj, g, norms = evaluate(Z)
    res = float(np.abs(g).max())
    if r == q == 2.0:
        return Z, obj
    t_step = 0.5 * max(norms) / res if res > 0 else 0.0
    iterations = 0
    while res > tol and iterations < max_iter:
        gnorm2 = float(np.sum(g**2) * vol)
        t_try = t_step
        for _ in range(60):
            Z_new = Z - t_try * g
            obj_new, g_new, _ = evaluate(Z_new)
            if obj_new <= obj - 1e-4 * t_try * gnorm2:
                break
            t_try *= 0.5
        else:
            break
        iterations += 1
        dz, dg = Z_new - Z, g_new - g
        denom = float(np.sum(dz * dg) * vol)
        t_step = float(np.sum(dz * dz) * vol) / denom if denom > 0 else 2.0 * t_try
        Z, obj, g = Z_new, obj_new, g_new
        res = float(np.abs(g).max())
    return Z, obj


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("which", ["density", "momentum"])
@pytest.mark.parametrize("r,q", [(2.0, 2.0), (1.5, 2.0), (3.0, 1.5), (2.0, 3.0)])
def test_stacked_barycenter_equals_member_loop(d, which, r, q):
    ens = _three_state_ensemble(d)
    w = ens.weights / ens.weights.sum()
    Ys = _loop_fields(ens.reports, which, 0.7)
    Z, obj = _loop_barycenter(Ys, w, r, q, GridSpec(d, 8).cell_volume, which == "momentum")
    res = r_barycenter(ens, which, r=r, q=q, time=0.7)
    assert res.objective == obj
    assert np.array_equal(res.minimizer.values, Z)


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_means_equal_member_loop(d):
    ens = _three_state_ensemble(d)
    w = ens.weights / ens.weights.sum()
    times = [0.0, 0.25, 0.4, 1.0]
    for which in ("density", "momentum"):
        for (t, fld), ref_t in zip(empirical_field_mean(ens, which, times=times), times):
            acc = None
            for wi, Y in zip(w, _loop_fields(ens.reports, which, ref_t)):
                acc = wi * Y if acc is None else acc + wi * Y
            assert t == ref_t and np.array_equal(fld.values, acc)
    grid_t = np.linspace(0.0, 1.0, 33)
    acc = np.zeros(33)
    for wi, rep in zip(w, ens.reports):
        acc += wi * np.interp(grid_t, rep.trajectory.times, rep.energy_history)
    assert energy_moment_bound(ens) == float(acc.max())


@deep_or(15)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_sampled_ensemble_equals_member_loop(seed, d):
    # one SampledEnsemble's stacks, the members sampled at `read_times`, serve the
    # means, the barycenters and the state functionals exactly as per-member reads
    # do.  Members end some ulps apart, so the final-time functionals of the later
    # ones read their own final time; an aborted member sits between the completed
    # ones; and a functional's time lies between two report times
    rng = np.random.default_rng(seed)
    grid = GridSpec(d, 8 if d == 1 else 4)
    reports = []
    for i in range(5):
        traj, _ = random_member(rng, grid, 1.0 + int(rng.integers(-2, 3)) * 2.0**-52)
        reports.append(SolveReport(traj, np.ones(len(traj)), np.ones(len(traj)),
                                   "aborted_linf" if i == 2 else "completed"))
    w = rng.random(5)
    ens = Ensemble(np.arange(5)[:, None] / 5, reports, w / w.sum(), "strong")
    done = [rep for rep in reports if rep.status == "completed"]
    wd = ens.weights[ens.completed_mask] / ens.weights[ens.completed_mask].sum()
    T = min(rep.trajectory.final_time for rep in done)
    times = np.linspace(0.0, T, 4)
    functionals = [make_functional(doc)[1] for doc in (
        {"kind": "tanh_mean_density"},
        {"kind": "clamp_fourier", "wavevec": [1] * d, "field": "momentum"},
        {"kind": "clamp_fourier", "wavevec": [1] + [0] * (d - 1), "time": "initial"},
        {"kind": "clamp_fourier", "wavevec": [0] * d, "time": 0.37},
        {"kind": "tanh_neg_sobolev"},
    )]
    reads = read_times(times, T, functionals)
    assert reads.tolist() == sorted({*times.tolist(), 0.37})
    sampled = SampledEnsemble(ens, reads, sample_members([r.trajectory for r in done], reads, grid))
    for F in functionals:
        loop = float(sum(wi * F(rep.trajectory) for wi, rep in zip(wd, done)))
        assert empirical_functional_mean(sampled, F) == loop
    # the means and barycenters read the sampled stacks only
    with mock.patch.object(stats, "sample_members", side_effect=AssertionError("resampled")):
        for which in ("density", "momentum"):
            for (t, fld), ref_t in zip(empirical_field_mean(sampled, which, times=times), times):
                acc = None
                for wi, Y in zip(wd, _loop_fields(done, which, ref_t)):
                    acc = wi * Y if acc is None else acc + wi * Y
                assert t == ref_t and np.array_equal(fld.values, acc)
            for r, q in ((2.0, 2.0), (1.5, 2.0)):
                Z, obj = _loop_barycenter(_loop_fields(done, which, T), wd, r, q,
                                          grid.cell_volume, which == "momentum")
                res = r_barycenter(sampled, which, r=r, q=q)
                assert res.time == T and res.objective == obj
                assert np.array_equal(res.minimizer.values, Z)


def test_weighted_sums_write_no_negative_zero():
    # every weighted sum starts from +0.0, like a Python sum: a cell where every
    # member holds -0.0 is written as 0, not -0
    ens = fake_ensemble([{"u": -0.0}, {"u": -0.0}])
    [(_, mean)] = empirical_field_mean(ens, "momentum")
    for fld in (mean, r_barycenter(ens, "momentum").minimizer):
        assert np.all(fld.values == 0.0) and not np.signbit(fld.values).any()

import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsuq import solver
from nsuq.mesh import N_DISTANCE_TIMES, GridSpec, ScalarField, VectorField, FluidState, \
    distance_times, sample_members
from nsuq.physics import AdmissibleBounds, ForcingSpec, ForcingTerm, pressure
from nsuq.random_data import DistributionSpec, RandomFieldSpec, RandomMode, ScalarTransform
from nsuq.solver import (
    ABORTED_LINF,
    ABORTED_VACUUM,
    COMPLETED,
    NO_CONVERGENCE,
    SchemeConfig,
    TravelingWaveCase,
    VacuumError,
    cfl_dt,
    gronwall_energy_bound,
    manufactured_convergence,
    scheme_residual,
    self_convergence,
    solve,
    step,
)
from conftest import deep_or, ends, make_record


CFG = SchemeConfig(cfl=0.4, T=0.1)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(T=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(picard_tol=0.0)
    # saved configs carry the scheme variant; only the semi-implicit one is accepted
    doc = asdict(SchemeConfig(cfl=0.3, T=0.1))
    assert SchemeConfig.from_dict({**doc, "theta_implicit": True}) == SchemeConfig.from_dict(doc)
    with pytest.raises(ValueError):
        SchemeConfig.from_dict({**doc, "theta_implicit": False})


def test_cfl_dt_formula():
    # u = 0, rho = 1, a = 1, gamma = 2, n = 16, mu = eta = 0.01:
    # dt = cfl * min( dx / sqrt(2), dx^2 / (2 * 0.03) )
    data = make_record(rho_amp=0.0, mu=0.01, eta=0.01)
    grid = GridSpec(1, 16)
    s = data.initial_state(grid)
    rho, u = s.rho.values, s.u.values
    dx = 1.0 / 16
    expected = min(dx / math.sqrt(2.0), dx**2 / (2 * 0.03))
    assert cfl_dt(rho, u, data, grid, cfl=1.0) == pytest.approx(expected, rel=1e-14)
    assert cfl_dt(rho, u, data, grid, cfl=0.25) == pytest.approx(0.25 * expected, rel=1e-14)
    # refining the grid at least halves the step
    fine = data.initial_state(GridSpec(1, 32))
    assert cfl_dt(fine.rho.values, fine.u.values, data, GridSpec(1, 32)) \
        <= 0.5 * cfl_dt(rho, u, data, grid) + 1e-15


def test_equilibrium_is_fixed_point():
    data = make_record(rho_amp=0.0)
    grid = GridSpec(1, 32)
    state = data.initial_state(grid)
    rho, u = step(state.rho.values, state.u.values, 0.0, data, 1e-3, grid, CFG)
    assert np.array_equal(rho, state.rho.values)
    assert np.array_equal(u, state.u.values)


def test_uniform_translation_preserved():
    data = make_record(rho_amp=0.0, u_base=0.7)
    grid = GridSpec(1, 32)
    report = solve(data, grid, SchemeConfig(cfl=0.4, T=0.05))
    final = report.trajectory.states[-1]
    assert report.status == COMPLETED
    assert np.abs(final.rho.values - 1.0).max() <= 1e-12
    assert np.abs(final.u.values - 0.7).max() <= 1e-12


def test_mass_conserved_every_step():
    data = make_record(rho_amp=0.1, u_amp=0.1)
    report = solve(data, GridSpec(1, 64), CFG)
    masses = np.array([s.rho.integral() for s in report.trajectory.states])
    assert np.abs(masses - masses[0]).max() <= 1e-13 * masses[0]


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
def test_scheme_residual_contract(d, n):
    # eta > 0 and a forcing bring the grad-div term and g into both defects
    k = (1,) + (0,) * (d - 1)
    g = ForcingSpec(d, 1.0, (ForcingTerm(k, "sin", (0.5,) * d, omega=2 * math.pi),))
    data = make_record(d=d, rho_amp=0.1, u_amp=0.1, eta=0.02, g=g)
    grid = GridSpec(d, n)
    state = data.initial_state(grid)
    rho, u = state.rho.values, state.u.values
    dt = cfl_dt(rho, u, data, grid, CFG.cfl)
    rho1, u1 = step(rho, u, 0.0, data, dt, grid, CFG)
    new = FluidState(ScalarField(grid, rho1), VectorField(grid, u1), dt)
    assert scheme_residual(data, (state, new), dt) <= CFG.picard_tol

    # perturbing the new density breaks the algebraic system
    bumped = FluidState(ScalarField(grid, new.rho.values + 0.1), new.u, new.time)
    assert scheme_residual(data, (state, bumped), dt) > CFG.picard_tol

    # an equilibrium pair has zero defect for any dt
    eq = make_record(d=d, rho_amp=0.0)
    s0 = eq.initial_state(grid)
    s1 = FluidState(s0.rho, s0.u, 0.37)
    assert scheme_residual(eq, (s0, s1), 0.37) == 0.0


def test_solve_equilibrium_energy_constant():
    data = make_record(rho_amp=0.0)
    report = solve(data, GridSpec(1, 16), CFG)
    assert report.status == COMPLETED
    e = report.energy_history
    assert np.abs(e - e[0]).max() <= 1e-12 * e[0]


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_energy_nonincreasing_without_forcing(d, n):
    data = make_record(d=d, rho_amp=0.08, u_amp=0.1, mu=0.05, eta=0.01, gamma=1.4)
    report = solve(data, GridSpec(d, n), SchemeConfig(cfl=0.4, T=0.05))
    assert report.status == COMPLETED
    e = report.energy_history
    assert np.all(np.diff(e) <= 1e-10 * e[0])


def test_energy_below_gronwall_bound_with_forcing():
    case = TravelingWaveCase(amplitude=0.1, speed=0.5, mu=0.05)
    data = case.data_record()
    report = solve(data, GridSpec(1, 64), SchemeConfig(cfl=0.4, T=0.2))
    assert report.status == COMPLETED
    mass0 = report.trajectory.states[0].rho.integral()
    bound = gronwall_energy_bound(report.energy_history[0], mass0, data.g.sup_bound(),
                                  report.trajectory.times)
    assert np.all(report.energy_history <= bound + 1e-12)


def test_gronwall_bound_guard():
    with pytest.raises(ValueError):
        gronwall_energy_bound(1.0, 1.0, 10.0, np.array([0.0, 0.2]))


def test_linf_ceiling_abort_is_immediate():
    data = make_record(rho_amp=0.0)
    report = solve(data, GridSpec(1, 16), SchemeConfig(cfl=0.4, T=0.1, linf_ceiling=0.5))
    assert report.status == ABORTED_LINF
    assert report.steps == 0
    assert report.max_linf == 1.0
    assert solver._linf(np.full(4, 2.0), np.full((4, 1), -3.0)) == 3.0


def test_linf_ceiling_abort_after_start():
    # the max norm climbs from 1.098 at t = 0 to 1.226 by T under the forcing
    data = make_record(rho_amp=0.1, u_amp=0.3,
                       g=ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (0.8,)),)))
    grid = GridSpec(1, 16)
    free = solve(data, grid, SchemeConfig(cfl=0.4, T=0.2))
    assert free.status == COMPLETED
    ceiling = 0.5 * (free.linf_history[0] + free.max_linf)
    report = solve(data, grid, SchemeConfig(cfl=0.4, T=0.2, linf_ceiling=ceiling))
    assert report.status == ABORTED_LINF
    assert 0 < report.steps < free.steps and report.trajectory.final_time < 0.2
    # the run ends at the first step above the ceiling, and the steps before it are the free run's
    assert report.linf_history[-1] > ceiling >= report.linf_history[:-1].max()
    assert np.array_equal(report.linf_history, free.linf_history[:report.steps + 1])
    thin = solve(data, grid, SchemeConfig(cfl=0.4, T=0.2, linf_ceiling=ceiling), keep=False,
                 samples=[([0.0, 0.1], [grid])])
    assert_ends_of_abort(thin, report)


def assert_ends_of_abort(thin, full):
    """`thin`, an aborted solve with keep=False, keeps exactly the first state and the
    one the abort ends on, bit for bit those of the same abort `full` keeping every
    state, records the same step times and histories, and has no samples."""
    ref = ends(full.trajectory)
    assert len(full.trajectory) > 3
    assert thin.trajectory.steps.tolist() == [0, len(full.trajectory) - 1]
    assert np.array_equal(thin.trajectory.rho[-1], full.trajectory.rho[-1])
    assert np.array_equal(thin.trajectory.u[-1], full.trajectory.u[-1])
    assert np.array_equal(thin.trajectory.times, ref.times)
    assert np.array_equal(thin.trajectory.steps, ref.steps)
    for got, want in ((thin.trajectory.rho, ref.rho), (thin.trajectory.u, ref.u)):
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert thin.status == full.status and thin.samples is None
    assert np.array_equal(thin.linf_history, full.linf_history)
    assert np.array_equal(thin.energy_history, full.energy_history)


def test_vacuum_abort_keeps_the_accepted_states(monkeypatch):
    data, grid = make_record(rho_amp=0.1, u_amp=0.1), GridSpec(1, 16)
    full = solve(data, grid, CFG)
    real_step, calls = solver.step, []

    def step_into_vacuum(*args):  # the fourth step meets vacuum
        calls.append(None)
        if len(calls) == 4:
            raise VacuumError("density left the admissible range")
        return real_step(*args)

    monkeypatch.setattr(solver, "step", step_into_vacuum)
    report = solve(data, grid, CFG)
    assert report.status == ABORTED_VACUUM and full.steps > 4
    assert report.steps == 3
    assert np.array_equal(report.trajectory.times, full.trajectory.times[:4])
    for kept, ref in ((report.trajectory.rho, full.trajectory.rho),
                      (report.trajectory.u, full.trajectory.u)):
        assert len(kept) == 4 and all(np.array_equal(a, b) for a, b in zip(kept, ref))
    assert np.array_equal(report.energy_history, full.energy_history[:4])
    calls.clear()
    thin = solve(data, grid, CFG, keep=False, samples=[([0.0, 0.1], [grid])])
    assert_ends_of_abort(thin, report)


def test_no_convergence_status():
    data = make_record(rho_amp=0.1, u_amp=0.1)
    cfg = SchemeConfig(cfl=0.4, T=0.1, picard_max_iter=1, picard_tol=1e-14)
    report = solve(data, GridSpec(1, 32), cfg)
    assert report.status == NO_CONVERGENCE


def test_unsizable_step_ends_as_no_convergence(monkeypatch):
    # gamma = 1e4 over a density above 1: the sound speed overflows a float
    report = solve(make_record(rho_amp=0.1, gamma=1e4), GridSpec(1, 16), CFG)
    assert report.status == NO_CONVERGENCE and report.steps == 0
    # a dt that is not positive and finite never reaches step
    def no_step(*args):
        raise AssertionError("step called with an unusable dt")

    monkeypatch.setattr(solver, "step", no_step)
    for dt in (0.0, -1e-3, math.nan, math.inf):
        monkeypatch.setattr(solver, "cfl_dt", lambda *args, dt=dt: dt)
        report = solve(make_record(), GridSpec(1, 16), CFG)
        assert report.status == NO_CONVERGENCE and report.steps == 0


def test_solve_keeps_only_first_and_last_state(monkeypatch):
    data = make_record(rho_amp=0.1, u_amp=0.05, mu=0.03)
    grid = GridSpec(1, 32)
    full = solve(data, grid, CFG)
    # the step loop runs on plain arrays: the one FluidState built is the checked
    # initial data, and the trajectory checks each kept state's arrays once
    from nsuq import mesh

    built, checked = [], []
    post_init, frozen = FluidState.__post_init__, mesh._frozen

    def counting(self):
        built.append(self.time)
        post_init(self)

    def checking(values, shape, positive=False, copy=False):
        checked.append((shape, positive))
        return frozen(values, shape, positive, copy)

    monkeypatch.setattr(FluidState, "__post_init__", counting)
    thin = solve(data, grid, CFG, keep=False)
    assert built == [0.0]
    monkeypatch.setattr(mesh, "_frozen", checking)
    thin = solve(data, grid, CFG, keep=False)
    monkeypatch.undo()
    n_kept = len(thin.trajectory.states)
    # the initial data's two fields, then density (positive) and velocity of every kept state
    assert checked == [((32,), False), ((32, 1), False)] \
        + [((32,), True)] * n_kept + [((32, 1), False)] * n_kept
    s0 = thin.trajectory.states[0]
    out = step(s0.rho.values, s0.u.values, 0.0, data, 1e-3, grid, CFG)
    assert isinstance(out, tuple) and len(out) == 2
    assert all(type(a) is np.ndarray for a in out)
    # every step is taken and recorded, whatever is kept
    times = full.trajectory.times
    assert np.array_equal(thin.trajectory.times, times)
    assert np.array_equal(thin.linf_history, full.linf_history)
    assert np.array_equal(thin.energy_history, full.energy_history)
    assert thin.to_summary() == full.to_summary()
    assert len(full.trajectory.states) == len(times)
    # exactly the first and the last state, bit for bit the full solve's
    kept = [s.time for s in thin.trajectory.states]
    assert kept == [times[0], times[-1]] and len(times) > 3
    by_time = {s.time: s for s in full.trajectory.states}
    for s in thin.trajectory.states:
        assert np.array_equal(s.rho.values, by_time[s.time].rho.values)
        assert np.array_equal(s.u.values, by_time[s.time].u.values)
    for t in (0.0, CFG.T):
        for a, b in zip(thin.trajectory.sample(t), full.trajectory.sample(t)):
            assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="not kept"):
        thin.trajectory.sample(0.02)


THIN_DATA, THIN_GRID = make_record(rho_amp=0.1, u_amp=0.05, mu=0.03), GridSpec(1, 32)
THIN_FULL = solve(THIN_DATA, THIN_GRID, CFG)


@deep_or(25)
@given(st.data())
def test_thinning_equals_solving_with_the_windows(data):
    # the one keep rule: the times a solve reads its member at decide nothing it keeps.
    # A trajectory thinned to its ends (conftest.ends), whether it kept every state or
    # was itself solved with keep=False, holds exactly what a solve with keep=False holds,
    # for any read times; and the samples taken while stepping do not depend on keep.
    # Read times are drawn off the grid of step times, on it, and at 0 and T
    times = THIN_FULL.trajectory.times
    at = st.one_of(st.floats(0.0, CFG.T), st.sampled_from(list(times)), st.just(CFG.T))
    reads = st.lists(at, min_size=1, max_size=6).map(lambda ts: sorted(set(ts)))
    windows, extra = data.draw(reads), data.draw(reads)
    grids = [THIN_GRID, GridSpec(1, 16)]
    wide = solve(THIN_DATA, THIN_GRID, CFG, keep=False, samples=[(extra, grids)])
    ref = solve(THIN_DATA, THIN_GRID, CFG, keep=False, samples=[(windows, grids)])
    every = solve(THIN_DATA, THIN_GRID, CFG, keep=True, samples=[(windows, grids)])
    for source in (THIN_FULL, every, wide):
        thin = ends(source.trajectory)
        assert np.array_equal(thin.times, ref.trajectory.times)
        assert np.array_equal(thin.steps, ref.trajectory.steps)
        for got, want in ((thin.rho, ref.trajectory.rho), (thin.u, ref.trajectory.u)):
            assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert len(ref.samples) == len(every.samples) == 1
    assert set(ref.samples[0]) == set(every.samples[0]) == set(grids)
    for g in grids:
        for got, want in zip(ref.samples[0][g], every.samples[0][g]):
            assert np.array_equal(got, want)


def test_vacuum_error_on_oversized_step():
    grid = GridSpec(1, 16)
    data = make_record(rho_amp=0.0, mu=0.05)
    x = grid.cell_centers()[0]
    rho = np.full(grid.shape, 0.05)
    u = (2.0 * np.sin(2 * np.pi * x))[:, None]
    with pytest.raises(VacuumError):
        step(rho, u, 0.0, data, 0.5, grid, SchemeConfig(cfl=1.0, T=1.0))


def test_solve_determinism_bitwise():
    data = make_record(rho_amp=0.1, u_amp=0.05, mu=0.03)
    r1 = solve(data, GridSpec(1, 32), CFG)
    r2 = solve(data, GridSpec(1, 32), CFG)
    assert np.array_equal(r1.energy_history, r2.energy_history)
    assert np.array_equal(r1.linf_history, r2.linf_history)
    for a, b in zip(r1.trajectory.states, r2.trajectory.states):
        assert np.array_equal(a.rho.values, b.rho.values)
        assert np.array_equal(a.u.values, b.u.values)


def test_report_summary_roundtrip():
    data = make_record(rho_amp=0.0)
    report = solve(data, GridSpec(1, 16), CFG)
    doc = report.to_summary()
    assert doc["status"] == COMPLETED
    assert doc["steps"] == report.steps
    assert doc["max_linf"] == report.max_linf


def test_manufactured_convergence_small():
    rows = manufactured_convergence(TravelingWaveCase(), [16, 32, 64],
                                    SchemeConfig(cfl=0.4, T=0.1))
    errs = [r.error_l1 for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert rows[1].order is not None and rows[1].order > 0.8
    assert rows[0].order is None


def test_manufactured_equilibrium_is_exact():
    case = TravelingWaveCase(amplitude=0.0, speed=0.0)
    rows = manufactured_convergence(case, [16, 32], SchemeConfig(cfl=0.4, T=0.05))
    assert all(r.error_l1 <= 1e-12 for r in rows)


def test_self_convergence_decreasing():
    data = make_record(rho_amp=0.1, u_amp=0.1)
    rows = self_convergence(data, [8, 16], 32, SchemeConfig(cfl=0.4, T=0.05))
    assert rows[0].error_l1 > rows[1].error_l1 > 0
    with pytest.raises(ValueError):
        self_convergence(data, [12], 32, CFG)


def test_traveling_wave_satisfies_momentum_balance():
    # the forcing closes the momentum equation: solve stays near the exact wave
    case = TravelingWaveCase(amplitude=0.1, speed=0.5, mu=0.05)
    report = solve(case.data_record(), GridSpec(1, 128), SchemeConfig(cfl=0.4, T=0.05))
    x = report.trajectory.grid.cell_centers()[0]
    final = report.trajectory.states[-1]
    exact = case.exact_rho(final.time, x)
    assert np.abs(final.rho.values - exact).max() < 5e-3


def test_bounded_graph_proxy_converging_data():
    # data converging in the surrogate distance + grids refining: the
    # solutions approach the limit solve monotonically in L1
    from nsuq.mesh import trajectory_lq_distance

    cfg = SchemeConfig(cfl=0.4, T=0.05)
    limit = make_record(rho_amp=0.1, u_amp=0.1, mu=0.05)
    ref = solve(limit, GridSpec(1, 64), cfg)
    dists = []
    for k, n in ((1, 8), (2, 16), (3, 32)):
        data_k = make_record(rho_amp=0.1 + 0.05 / 2**k, u_amp=0.1, mu=0.05 + 0.02 / 2**k)
        rep = solve(data_k, GridSpec(1, n), cfg)
        assert rep.status == COMPLETED
        assert rep.max_linf < 5.0  # uniformly bounded family
        dists.append(trajectory_lq_distance(rep.trajectory, ref.trajectory, q=1.0))
    assert dists[0] > dists[1] > dists[2]


def test_cg_stops_at_non_finite_residual(monkeypatch):
    # NaN compares False against any tolerance: without a finiteness check CG
    # would apply its operator max_iter + 1 times before giving up
    calls = []
    operator = solver._momentum_operator

    def counting(*args):
        calls.append(1)
        return operator(*args)

    monkeypatch.setattr(solver, "_momentum_operator", counting)
    grid = GridSpec(1, 16)
    rho = np.ones(grid.shape)
    b = np.full(grid.shape + (1,), np.nan)
    guess = np.zeros_like(b)
    visc = 1e-3 * solver._apply_viscous(guess, 0.05, 0.0, grid)
    with pytest.raises(solver.NoConvergenceError):
        solver._solve_momentum_system(rho, b, 1e-3, 0.05, 0.0, grid, guess, visc, 1e-12)
    assert len(calls) <= 2


def _assembled_operator(rho, dt, mu, eta, grid):
    """A(rho) as a dense matrix, probed column by column on unit vectors."""
    size = rho.size * grid.d
    cols = np.empty((size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        cols[:, j] = solver._momentum_operator(
            e.reshape(rho.shape + (grid.d,)), rho, dt, mu, eta, grid).ravel()
        e[j] = 0.0
    return cols


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_momentum_diagonal_matches_probed_operator(d, n):
    # the Jacobi preconditioner divides by rho + dt c, the diagonal of A(rho);
    # only the 2-D n=2 grad-div stencil, which folds onto itself, has a smaller one
    _, rho, _ = _random_state(10 * d + n, d, n)
    grid = GridSpec(d, n)
    dt, mu, eta = 0.01, 0.05, 0.02
    diag = solver._momentum_diagonal(rho, dt, mu, eta, grid)
    probed = np.diag(_assembled_operator(rho, dt, mu, eta, grid)).reshape(rho.shape + (d,))
    assert np.all(diag > 0)
    if d == 2 and n == 2:
        assert np.all(diag[..., None] >= probed)
    else:
        assert np.allclose(diag[..., None], probed, rtol=1e-14, atol=0.0)


def test_viscous_applications_per_step(monkeypatch):
    # each sweep applies the viscous operator once per CG iteration plus once for
    # its momentum defect, whose result also starts the next sweep's CG; the warm
    # start and the preconditioner keep CG short, and the extrapolated first sweep
    # makes most steps one sweep.  With plain CG this member took 19.7
    # applications per step, with a first sweep from u_k's faces 11.9, in the
    # same 26 steps.
    calls = []
    viscous = solver._apply_viscous

    def counting(*args):
        calls.append(1)
        return viscous(*args)

    monkeypatch.setattr(solver, "_apply_viscous", counting)
    g = ForcingSpec(2, 1.0, (ForcingTerm((1, 0), "sin", (0.5, 0.0), omega=2 * math.pi),))
    data = make_record(d=2, rho_amp=0.1, u_amp=0.08, mu=0.05, eta=0.01, g=g)
    report = solve(data, GridSpec(2, 32), SchemeConfig(cfl=0.4, T=0.02))
    assert report.status == COMPLETED
    assert report.steps == 26
    assert len(calls) <= 9 * report.steps


def test_picard_sweeps_per_step(monkeypatch):
    # one CG solve per sweep; the first sweep starts from the velocity extrapolated
    # through the last three states and the density it carries, so most steps are
    # accepted after one sweep.  Starting from u_k's faces this member took 2.99.
    calls = []
    momentum = solver._solve_momentum_system

    def counting(*args):
        calls.append(1)
        return momentum(*args)

    monkeypatch.setattr(solver, "_solve_momentum_system", counting)
    g = ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (0.5,), omega=2 * math.pi),))
    data = make_record(d=1, rho_amp=0.1, u_amp=0.08, mu=0.05, g=g)
    report = solve(data, GridSpec(1, 64), SchemeConfig(cfl=0.4, T=0.05))
    assert report.status == COMPLETED
    assert report.steps == 115
    assert len(calls) <= 2.0 * report.steps


def test_solve_hands_step_the_extrapolated_velocity(monkeypatch):
    # with a velocity quadratic in time and unequal steps, the guess is exact from
    # the third step on; before that it is u_k, then the linear extrapolation
    data = make_record(d=1, u_amp=0.08)
    grid = GridSpec(1, 16)
    u0 = data.initial_state(grid).u.values
    c1, c2 = np.random.default_rng(5).standard_normal((2,) + u0.shape)

    def velocity(t):
        return u0 + c1 * t + c2 * t**2

    dts = [0.003, 0.0051, 0.0022, 0.0043, 0.0017]
    calls = []

    def fake_step(rho_k, u_k, t, data, dt, grid, cfg, guess=None):
        calls.append((u_k, t, dt, guess))
        return rho_k, velocity(t + dt)

    monkeypatch.setattr(solver, "cfl_dt", lambda *args: dts[len(calls)])
    monkeypatch.setattr(solver, "step", fake_step)
    report = solve(data, grid, SchemeConfig(T=sum(dts)))
    assert report.status == COMPLETED and len(calls) == len(dts)
    assert np.array_equal(calls[0][3], u0)
    (u_a, t_a, _, _), (u_b, t_b, dt, guess) = calls[:2]
    linear = u_b + (dt / (t_b - t_a)) * (u_b - u_a)
    assert np.allclose(guess, linear, rtol=1e-14, atol=0.0)
    for _, t, dt, guess in calls[2:]:
        exact = velocity(t + dt)
        assert np.abs(guess - exact).max() <= 1e-14 * np.abs(exact).max()


def _roll_reference_kernels():
    # the stencils as written with np.roll, kept here only as the reference
    def face_avg(v, ax):
        return 0.5 * (v + np.roll(v, -1, axis=ax))

    def upwind(c, w, ax):
        right = np.roll(c, -1, axis=ax)
        up = np.where(w > 0, c, right)
        return np.where(w == 0, 0.5 * (c + right), up)

    def div_faces(flux, ax, h):
        return (flux - np.roll(flux, 1, axis=ax)) / h

    def grad_c(v, ax, h):
        return (np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2 * h)

    def lap(v, h, d):
        out = np.zeros_like(v)
        for ax in range(d):
            out += (np.roll(v, -1, axis=ax) - 2 * v + np.roll(v, 1, axis=ax)) / h**2
        return out

    return face_avg, upwind, div_faces, grad_c, lap


def _roll_flux_div(c, faces, h):
    # the upwind flux divergence, zero-started, on the reference kernels
    _, upwind, div_faces, _, _ = _roll_reference_kernels()
    out = np.zeros(c.shape)
    tail = (1,) * (c.ndim - len(faces))
    for ax, w in enumerate(faces):
        w = w.reshape(w.shape + tail)
        out += div_faces(w * upwind(c, w, ax), ax, h)
    return out


@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("tail", [(), (1,), (None,), (None, 2)],
                         ids=["(n,)", "(n,1)", "(n,n)", "(n,n,2)"])
def test_stencils_match_roll_reference(n, tail):
    face_avg, upwind, div_faces, grad_c, lap = _roll_reference_kernels()
    shape = (n,) + tuple(n if t is None else t for t in tail)
    rng = np.random.default_rng(n * 10 + len(shape))
    v = rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.25] = 0.0  # ties: the flux is 0 whichever cell donates
    h = 1.0 / n
    for ax in range(len(shape)):
        for k in (1, -1):
            assert np.array_equal(solver._shift(v, k, ax), np.roll(v, k, axis=ax))
        assert np.array_equal(solver._face_avg(v, ax), face_avg(v, ax))
        # the donor enters only through the flux w * donor (array_equal takes -0 == 0)
        assert np.array_equal(w * solver._upwind(v, w, ax), w * upwind(v, w, ax))
        assert np.array_equal(solver._div_faces(v, ax, h), div_faces(v, ax, h))
        assert np.array_equal(solver._grad_c(v, ax, h), grad_c(v, ax, h))
        # strided input, as the stencils see a velocity component u[..., c]
        col = np.stack([v, w], axis=-1)[..., 1]
        assert np.array_equal(solver._grad_c(col, ax, h), grad_c(col, ax, h))
    for d in range(1, len(shape) + 1):
        assert np.array_equal(solver._lap(v, h, d), lap(v, h, d))
    for d in range(1, min(len(shape), 2) + 1):
        # face velocities on the grid's d axes, broadcast over v's trailing axes
        faces = [(1 - 2 * ax) * w[(slice(None),) * d + (0,) * (len(shape) - d)]
                 for ax in range(d)]
        div = solver._flux_div(v, faces, GridSpec(d, n))
        assert np.array_equal(div, _roll_flux_div(v, faces, h))


def _random_state(seed, d, n):
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    rho = rng.uniform(0.1, 2.0, shape)
    u = rng.standard_normal(shape + (d,))
    return rng, rho, u


def _roll_reference_step(rho_k, u_k, t, data, dt, grid, cfg, guess=None):
    """`step` in its earlier form, on the np.roll kernels: zero-started sums, the
    tie-averaging upwind, np.stack gradients, the validating `pressure`, and a
    preconditioned CG written with np.sum."""
    face_avg, _, _, grad_c, lap = _roll_reference_kernels()
    h, d, mu, eta = grid.h, grid.d, data.mu, data.eta

    def faces(u):
        return [face_avg(u[..., ax], ax) for ax in range(d)]

    def grad(p):
        return np.stack([grad_c(p, ax, h) for ax in range(d)], axis=-1)

    def viscous(u):
        if d == 1:
            return (mu + eta) * lap(u, h, 1)
        div = sum(grad_c(u[..., ax], ax, h) for ax in range(d))
        return mu * lap(u, h, d) + eta * grad(div)

    def cg(rho, b, x, visc, tol):
        x = x.copy()
        r = b - (rho[..., None] * x - visc)
        if np.abs(r).max() <= tol:
            return x
        diag = solver._momentum_diagonal(rho, dt, mu, eta, grid)[..., None]
        p = r / diag
        rz = np.sum(r * p)
        for _ in range(800):
            ap = rho[..., None] * p - dt * viscous(p)
            alpha = rz / np.sum(p * ap)
            x += alpha * p
            r -= alpha * ap
            if np.abs(r).max() <= tol:
                return x
            z = r / diag
            rz_new = np.sum(r * z)
            p = (rz_new / rz) * p + z
            rz = rz_new
        raise solver.NoConvergenceError("reference CG")

    m_k = rho_k[..., None] * u_k
    conv = _roll_flux_div(m_k, faces(u_k), h)
    g_new = data.g.evaluate(t + dt, grid)
    u = u_k if guess is None else guess
    visc = dt * viscous(u)
    rho = rho_k - dt * _roll_flux_div(rho_k, faces(u), h)
    for _ in range(cfg.picard_max_iter):
        if rho.min() <= 0:
            raise VacuumError("reference vacuum")
        b = (m_k - dt * conv - dt * grad(pressure(rho, data.a, data.gamma))
             + dt * rho[..., None] * g_new)
        u = cg(rho, b, u, visc, 0.05 * cfg.picard_tol)
        rho_next = rho_k - dt * _roll_flux_div(rho_k, faces(u), h)
        visc = dt * viscous(u)
        r_m = (rho[..., None] * u - visc) - b
        if np.abs(rho - rho_next).max() <= cfg.picard_tol and np.abs(r_m).max() <= cfg.picard_tol:
            return rho, u
        rho = rho_next
    raise solver.NoConvergenceError("reference Picard")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except solver.SolverError as exc:
        return type(exc)


@deep_or(25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([2, 3, 8, 16]),
       st.floats(1e-3, 0.1), st.sampled_from([0.0, 0.01, 0.5]), st.sampled_from([1.4, 2.0]),
       st.booleans())
def test_step_matches_roll_reference(seed, d, n, mu, eta, gamma, forced):
    # one step from a random state, with and without a guess, and one short solve
    # equal the earlier form of the step bit for bit: the stencil rewrite moves no value
    rng, rho, u = _random_state(seed, d, n)
    g = None
    if forced:
        k = (1,) + (0,) * (d - 1)
        g = ForcingSpec(d, 1.0, (ForcingTerm(k, "sin", (0.5,) + (0.0,) * (d - 1),
                                             omega=2 * math.pi),))
    data = make_record(d=d, rho_amp=0.2, u_amp=0.3, mu=mu, eta=eta, gamma=gamma, g=g)
    grid = GridSpec(d, n)
    cfg = SchemeConfig(cfl=0.4, T=0.02)
    dt = cfl_dt(rho, u, data, grid, cfg.cfl)
    for guess in (None, u + 0.01 * rng.standard_normal(u.shape)):
        args = (rho, u, 0.1, data, dt, grid, cfg, guess)
        got, want = _outcome(step, *args), _outcome(_roll_reference_step, *args)
        if isinstance(want, tuple):
            assert isinstance(got, tuple)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert got is want
    report = solve(data, grid, cfg)
    with mock.patch.object(solver, "step", _roll_reference_step):
        ref = solve(data, grid, cfg)
    assert report.status == ref.status and report.steps == ref.steps
    assert np.array_equal(report.trajectory.times, ref.trajectory.times)
    assert np.array_equal(report.energy_history, ref.energy_history)
    for a, b in zip(report.trajectory.states, ref.trajectory.states):
        assert np.array_equal(a.rho.values, b.rho.values)
        assert np.array_equal(a.u.values, b.u.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(2, 12))
def test_flux_div_telescopes(seed, d, n):
    # the upwind flux divergence sums to zero: the discrete mass conservation
    _, rho, u = _random_state(seed, d, n)
    grid = GridSpec(d, n)
    div = solver._flux_div(rho, solver._faces(u, grid), grid)
    assert abs(div.sum()) <= 1e-13 * max(1.0, np.abs(div).sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(2, 12),
       st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
def test_vector_stencils_match_component_loop(seed, d, n, mu, eta):
    # the stencils act on whole vector fields; the per-component loops they
    # replaced are the reference, and must agree bit for bit
    _, rho, u = _random_state(seed, d, n)
    m = rho[..., None] * u
    grid = GridSpec(d, n)
    h = grid.h
    faces = solver._faces(u, grid)
    loop = np.stack([solver._flux_div(m[..., c], faces, grid) for c in range(d)], axis=-1)
    assert np.array_equal(solver._flux_div(m, faces, grid), loop)
    if d == 2:
        div = sum(solver._grad_c(u[..., ax], ax, h) for ax in range(d))
        loop = np.empty_like(u)
        for c in range(d):
            loop[..., c] = mu * solver._lap(u[..., c], h, d) + eta * solver._grad_c(div, c, h)
        assert np.array_equal(solver._apply_viscous(u, mu, eta, grid), loop)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(2, 12),
       st.floats(1e-4, 1e-1), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
def test_momentum_operator_symmetric_positive(seed, d, n, dt, mu, eta):
    # CG needs A(rho) = diag(rho) - dt div S symmetric positive definite for rho > 0
    rng, rho, v = _random_state(seed, d, n)
    w = rng.standard_normal(v.shape)
    grid = GridSpec(d, n)

    def apply(x):
        return solver._momentum_operator(x, rho, dt, mu, eta, grid)

    av, aw = apply(v), apply(w)
    scale = np.linalg.norm(v) * np.linalg.norm(aw) + np.linalg.norm(av) * np.linalg.norm(w)
    assert abs(np.sum(v * aw) - np.sum(av * w)) <= 1e-13 * scale
    vav = np.sum(v * av)
    assert vav > 0
    # -dt div S is positive semidefinite: A(rho) only adds to the mass form
    assert vav >= (1 - 1e-10) * np.sum(rho[..., None] * v * v)


# ---------------------------------------------------------------------------
# the solver contract on random admissible data


@st.composite
def admissible_problems(draw):
    """(spec, latent point, grid, scheme, forced) with a uniform or trunc_normal mu and a,
    latent density, velocity and forcing amplitudes, d in {1, 2} and a short horizon."""
    d = draw(st.sampled_from([1, 2]))
    k = (1,) + (0,) * (d - 1)
    amp = st.floats(-0.2, 0.2)

    def transform(lo_min, lo_max, max_width, index):
        lo = draw(st.floats(lo_min, lo_max))
        # a width of 0, or one wide enough that the trunc_normal interval carries
        # probability in double precision at every mean and sd drawn below
        hi = lo + draw(st.one_of(st.just(0.0), st.floats(1e-3 * max_width, max_width)))
        if draw(st.booleans()):
            return ScalarTransform("uniform", lo, hi, latent_index=index)
        mean = draw(st.floats(lo - max_width, hi + max_width))
        sd = draw(st.floats(0.1 * max_width, 2.0 * max_width))
        return ScalarTransform("trunc_normal", lo, hi, mean=mean, sd=sd, latent_index=index)

    forced = draw(st.booleans())
    g_base = ForcingSpec.zero(d)
    g_scale = ScalarTransform("const", 0.0)
    if forced:
        term = ForcingTerm(k, "sin", (0.5,) + (0.0,) * (d - 1), omega=2 * math.pi)
        g_base = ForcingSpec(d, 1.0, (term,))
        g_scale = ScalarTransform("uniform", 0.0, 1.0, latent_index=2)
    spec = DistributionSpec(
        K=3, d=d, period=1.0, gamma=draw(st.sampled_from([1.4, 2.0])),
        bounds=AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5,
                                g_sup=1.0),
        mu=transform(0.01, 0.08, 0.05, 0),
        eta=ScalarTransform("const", draw(st.sampled_from([0.0, 0.01]))),
        a=transform(0.5, 1.2, 0.3, 1),
        rho0=RandomFieldSpec(1.0, (RandomMode(k, "sin", draw(amp), draw(amp), 2),)),
        u0=tuple(RandomFieldSpec(0.0, (RandomMode(k, "cos", draw(amp), draw(amp), 2),))
                 for _ in range(d)),
        g_base=g_base, g_scale=g_scale,
    )
    omega = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    grid = GridSpec(d, draw(st.sampled_from([16, 32] if d == 1 else [8, 16])))
    scheme = SchemeConfig(cfl=0.4, T=draw(st.floats(0.02, 0.2)))
    return spec, omega, grid, scheme, forced


# 25 examples in tier-1; CI reruns the three tests below, with the other tests marked
# `deep`, under the "deep" profile (conftest.py)
CONTRACT_SETTINGS = deep_or(25)


@CONTRACT_SETTINGS
@given(admissible_problems())
def test_solver_contract_on_random_admissible_data(problem):
    spec, omega, grid, scheme, forced = problem
    data = spec.realize(omega)
    report = solve(data, grid, scheme)
    assert report.status in (COMPLETED, ABORTED_LINF, ABORTED_VACUUM, NO_CONVERGENCE)
    states = report.trajectory.states
    for old, new in zip(states, states[1:]):
        assert scheme_residual(data, (old, new), new.time - old.time) <= scheme.picard_tol
    if report.status == COMPLETED:
        masses = np.array([s.rho.integral() for s in states])
        assert np.abs(masses - masses[0]).max() <= 1e-12 * masses[0]
        assert all(s.rho.values.min() > 0 for s in states)
    if not forced:
        e = report.energy_history
        assert np.all(np.diff(e) <= 1e-10 * e[0])


@CONTRACT_SETTINGS
@given(admissible_problems(), st.floats(0.0, 1.0))
def test_extrapolated_guess_moves_no_accepted_step(problem, where):
    # the guess sets where the Picard iteration starts, not what it accepts: a step
    # of the solve, retaken from its extrapolated guess and from u_k, meets the
    # residual contract both times, and the two states agree
    spec, omega, grid, scheme, _ = problem
    data = spec.realize(omega)
    calls = []

    def recording(*args):
        out = step(*args)
        calls.append(args)
        return out

    with mock.patch.object(solver, "step", recording):
        solve(data, grid, scheme)
    assume(calls)
    rho_k, u_k, t, _, dt, _, _, guess = calls[int(where * (len(calls) - 1))]
    old = FluidState(ScalarField(grid, rho_k), VectorField(grid, u_k), t)
    new = []
    for g in (guess, None):
        rho, u = step(rho_k, u_k, t, data, dt, grid, scheme, g)
        new.append((rho, u))
        state = FluidState(ScalarField(grid, rho), VectorField(grid, u), t + dt)
        assert scheme_residual(data, (old, state), dt) <= scheme.picard_tol
    (rho_a, u_a), (rho_b, u_b) = new
    assert max(np.abs(rho_a - rho_b).max(), np.abs(u_a - u_b).max()) <= 1e-8


@CONTRACT_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([2, 3, 8, 16]),
       st.floats(1e-4, 1e-1), st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
def test_preconditioned_solve_meets_tolerance(seed, d, n, dt, mu, eta):
    # the preconditioned CG leaves a max residual within tol against the probed
    # matrix, from any warm start, and agrees with a dense solve of that matrix
    rng, rho, guess = _random_state(seed, d, n)
    b = rng.standard_normal(guess.shape)
    grid = GridSpec(d, n)
    tol = 1e-9
    visc = dt * solver._apply_viscous(guess, mu, eta, grid)
    x = solver._solve_momentum_system(rho, b, dt, mu, eta, grid, guess, visc, tol)
    A = _assembled_operator(rho, dt, mu, eta, grid)
    r = A @ x.ravel() - b.ravel()
    assert np.abs(r).max() <= tol
    # |x - x*|_2 <= |r|_2 / lambda_min(A), and lambda_min(A) >= min(rho)
    x_ref = np.linalg.solve(A, b.ravel())
    err = np.linalg.norm(x.ravel() - x_ref)
    assert err <= np.linalg.norm(r) / rho.min() + 1e-12 * np.linalg.norm(x_ref)


@deep_or(25)
@given(admissible_problems(), st.data())
def test_step_samples_equal_sample_members(problem, data):
    # the samples a solve takes while it steps equal, bit for bit, the rows that
    # sample_members reads off the trajectory of the same solve keeping every state,
    # on the member's grid and on coarser ones, whatever states `keep` drops: at the
    # distance times, at times drawn from a first solve's step times (exact hits) and
    # between them, and at both in one solve of two entries.  keep=False keeps that
    # trajectory's first and last states alone, and records every step
    spec, omega, grid, scheme, _ = problem
    rec = spec.realize(omega)
    full = solve(rec, grid, scheme)
    grids = [GridSpec(grid.d, n) for n in (grid.n, grid.n, grid.n // 2, grid.n // 4)]
    keep = data.draw(st.booleans())
    steps = full.trajectory.times.tolist()
    drawn = data.draw(st.lists(st.one_of(st.sampled_from(steps), st.floats(0.0, steps[-1])),
                               min_size=1, max_size=20))
    uniform, drawn = np.linspace(0.0, scheme.T, N_DISTANCE_TIMES), sorted(set(drawn))
    for plan in ([(uniform, grids)], [(drawn, grids)], [(drawn, grids[2:]), (uniform, grids[:3])]):
        report = solve(rec, grid, scheme, keep=keep, samples=plan)
        want = full.trajectory if keep else ends(full.trajectory)
        assert np.array_equal(report.trajectory.times, want.times)
        assert np.array_equal(report.trajectory.steps, want.steps)
        for got, ref in ((report.trajectory.rho, want.rho), (report.trajectory.u, want.u)):
            assert len(got) == len(ref) and all(map(np.array_equal, got, ref))
        assert np.array_equal(report.energy_history, full.energy_history)
        if full.status != COMPLETED:
            assert report.status == full.status and report.samples is None
            continue
        assert len(report.samples) == len(plan)
        for (times, gs), taken in zip(plan, report.samples):
            assert set(taken) == set(gs)
            for g, (rho, u) in taken.items():
                (want_rho,), (want_u,) = sample_members([full.trajectory], times, g)
                assert np.array_equal(rho, want_rho) and np.array_equal(u, want_u)


@settings(max_examples=40, deadline=None)
@given(admissible_problems(), st.floats(1e-3, 1.0))
def test_completed_solve_ends_at_T(problem, frac):
    # the clamped last step ends at T exactly, also in solves of one to three steps,
    # so the distance times of two completed members are the uniform times of [0, T]
    spec, omega, grid, scheme, _ = problem
    scheme = SchemeConfig(cfl=scheme.cfl, T=frac * scheme.T)
    rec = spec.realize(omega)
    a, b = (solve(rec, GridSpec(grid.d, n), scheme) for n in (grid.n, grid.n // 2))
    assume(a.status == b.status == COMPLETED)
    assert a.trajectory.final_time == b.trajectory.final_time == scheme.T
    assert np.array_equal(distance_times(a.trajectory, b.trajectory),
                          np.linspace(0.0, scheme.T, N_DISTANCE_TIMES))


def test_short_solves_end_at_T(monkeypatch):
    # members of one to three steps end at T exactly; so does a last step from a time t
    # where t + (T - t) rounds off T
    data, grid = make_record(rho_amp=0.1, u_amp=0.05), GridSpec(1, 16)
    steps = []
    for T in (1e-4, 0.01, 0.02):
        report = solve(data, grid, SchemeConfig(cfl=0.4, T=T))
        assert report.status == COMPLETED and report.trajectory.final_time == T
        steps.append(report.steps)
    assert steps == [1, 2, 3]
    t1, T = 0.017375543026057788, 0.3
    assert t1 + (T - t1) != T
    dts = iter([t1, 1.0])
    monkeypatch.setattr(solver, "cfl_dt", lambda *args: next(dts))
    report = solve(make_record(rho_amp=0.0), GridSpec(1, 8), SchemeConfig(T=T))  # at rest
    assert report.status == COMPLETED and report.trajectory.times.tolist() == [0.0, t1, T]

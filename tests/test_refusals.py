"""The library refuses bad arguments with an exception, at the call that gets them.

Each case is one check, called directly: a NaN where a number is tested,
and each refusal that the rest of the suite never reaches.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nsuq import random_data
from nsuq.experiments import ExperimentConfig, LadderLevel, run_weak
from nsuq.mesh import (
    FluidState,
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    distance_times,
    lq_norm,
    neg_sobolev_norm,
    stack_lq_distance,
    transfer,
)
from nsuq.physics import (
    AdmissibleBounds,
    ForcingSpec,
    ForcingTerm,
    FourierField,
    FourierMode,
    data_distance,
    pressure,
    total_energy,
)
from nsuq.random_data import (
    CollocationPartition,
    RandomFieldSpec,
    RandomMode,
    ScalarTransform,
    SpecValidationError,
    build_partition,
    sample_latent,
)
from nsuq.solver import (
    NoConvergenceError,
    SchemeConfig,
    SolverError,
    _solve_momentum_system,
    cfl_dt,
    gronwall_energy_bound,
    scheme_residual,
    self_convergence,
    solve,
    step,
)
from nsuq.stats import (
    Ensemble,
    boundedness_in_probability,
    convergence_in_probability_diagnostic,
    diagnostic_from_distances,
    make_functional,
    r_barycenter,
)
from conftest import fake_ensemble, make_record, make_spec

NAN = math.nan
BOUNDS = AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5, g_sup=1.0)
G1, G2 = GridSpec(1, 4), GridSpec(2, 4)


def rho_u(grid=G1):
    return ScalarField.constant(grid, 1.0), VectorField.constant(grid, [0.0] * grid.d)


def state(grid=G1, time=0.0):
    return FluidState(*rho_u(grid), time)


def stacks():
    """One member's sampled (rho, u) stack at two times on G1."""
    return np.ones((1, 2, 4)), np.zeros((1, 2, 4, 1))


def trajectory(T):
    rho, u = np.ones(4), np.zeros((4, 1))
    return Trajectory(G1, [rho, rho], [u, u], [0.0, T], [0, 1])


def step_nan_dt():
    rho, u = rho_u()
    step(rho.values, u.values, 0.0, make_record(), NAN, G1, SchemeConfig())


NAN_CASES = [
    # scalar numbers: records, the pressure law, norms, barycenters, step sizes
    ("record-mu", lambda: make_record(mu=NAN), "shear viscosity mu must be"),
    ("record-eta", lambda: make_record(eta=NAN), "bulk viscosity eta must be"),
    ("record-a", lambda: make_record(a=NAN), "pressure coefficient a must be"),
    ("record-gamma", lambda: make_record(gamma=NAN), "adiabatic exponent gamma must be"),
    ("record-density-mean", lambda: make_record(rho_mean=NAN), "initial density"),
    ("pressure-a", lambda: pressure(1.0, NAN, 2.0), "pressure coefficient a must be"),
    ("pressure-gamma", lambda: pressure(1.0, 1.0, NAN), "adiabatic exponent gamma must be"),
    ("energy-gamma", lambda: total_energy(np.ones(4), np.zeros((4, 1)), G1, 1.0, NAN),
     "adiabatic exponent gamma must be"),
    ("fluid-state-time", lambda: state(time=NAN), "time must be"),
    ("lq-norm-q", lambda: lq_norm(rho_u()[0], NAN), "q must be"),
    ("stack-distance-q", lambda: stack_lq_distance(stacks(), stacks(), [[0.0, 1.0]], G1, q=NAN),
     "q must be"),
    ("neg-sobolev-m", lambda: neg_sobolev_norm(rho_u()[0], NAN), "m must be"),
    ("step-dt", step_nan_dt, "dt must be"),
    ("cfl-dt-cfl", lambda: cfl_dt(*(f.values for f in rho_u()), make_record(), G1, cfl=NAN),
     "cfl must be"),
    ("residual-dt", lambda: scheme_residual(make_record(), (state(), state()), NAN),
     "dt must be"),
    ("keep-window", lambda: solve(make_record(), G1, SchemeConfig(), keep=[[NAN, NAN]]),
     "must have lo <= hi"),
    ("barycenter-r", lambda: r_barycenter(fake_ensemble([{}]), r=NAN), "order r must be"),
    ("barycenter-q", lambda: r_barycenter(fake_ensemble([{}]), q=NAN), "exponent q must be"),
    # array and threshold checks
    ("ensemble-weights",
     lambda: Ensemble([[0.0], [0.5]], fake_ensemble([{}, {}]).reports, [0.5, NAN], "weak"),
     "weights must be positive"),
    ("latent-point", lambda: make_spec(BOUNDS, K=2).realize([NAN, 0.5]), "unit cube"),
    ("boundedness-threshold", lambda: boundedness_in_probability(fake_ensemble([{}]), [NAN]),
     "M_grid must be"),
    ("diagnostic-threshold", lambda: diagnostic_from_distances([1.0], [1.0], [NAN]),
     "eps_grid must"),
    ("diagnostic-weights",
     lambda: convergence_in_probability_diagnostic(([None], [None], [NAN]), [1.0]),
     "weights must sum to one"),
    ("pressure-density", lambda: pressure(np.array([NAN, 1.0]), 1.0, 2.0), "density"),
    ("energy-density", lambda: total_energy(np.array([NAN, 1.0, 1.0, 1.0]), np.zeros((4, 1)),
                                            G1, 1.0, 2.0), "density"),
    ("gronwall-forcing", lambda: gronwall_energy_bound(1.0, 1.0, NAN, [0.0, 0.1]), "time step"),
]


@pytest.mark.parametrize("call,match", [c[1:] for c in NAN_CASES], ids=[c[0] for c in NAN_CASES])
def test_numeric_arguments_refuse_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def momentum_solve_without_iterations():
    rho, b = np.ones(4), np.ones((4, 1))
    _solve_momentum_system(rho, b, 0.1, 0.05, 0.0, G1, np.zeros((4, 1)), np.zeros((4, 1)),
                           1e-12, max_iter=0)


def spec_with(**changes):
    return replace(make_spec(BOUNDS), **changes)


def strong_config():
    return ExperimentConfig(mode="strong", ladder=(LadderLevel(2, 8),),
                            scheme=SchemeConfig(T=0.05), distribution=make_spec(BOUNDS))


REFUSALS = [
    # physics
    ("mode-kind", lambda: FourierField(1, 1.0, 0.0, (FourierMode((1,), "tan", 1.0),)),
     ValueError, "mode kind must be cos or sin"),
    ("mode-dimension", lambda: FourierField(1, 1.0, 0.0, (FourierMode((1, 0), "cos", 1.0),)),
     ValueError, "does not match dimension"),
    ("field-grid", lambda: FourierField.constant(1.0, 1).evaluate(G2),
     ValueError, "grid does not match field geometry"),
    ("field-tori", lambda: FourierField.constant(1.0, 1) - FourierField.constant(1.0, 2),
     ValueError, "fields live on different tori"),
    ("forcing-amplitude", lambda: ForcingSpec(1, 1.0, (ForcingTerm((1,), "cos", (1.0, 1.0)),)),
     ValueError, "one entry per velocity component"),
    ("forcing-wavevector", lambda: ForcingSpec(1, 1.0, (ForcingTerm((1, 0), "cos", (1.0,)),)),
     ValueError, "wavevector dimension mismatch"),
    ("forcing-grid", lambda: ForcingSpec.zero(1).evaluate(0.0, G2),
     ValueError, "grid does not match forcing geometry"),
    ("record-u0", lambda: replace(make_record(), u0=()),
     ValueError, "one component field per dimension"),
    ("record-forcing", lambda: replace(make_record(), g=ForcingSpec.zero(2)),
     ValueError, "forcing dimension mismatch"),
    ("distance-tori", lambda: data_distance(make_record(d=1), make_record(d=2)),
     ValueError, "records live on different tori"),
    # random_data
    ("const-latent", lambda: ScalarTransform("const", 1.0, latent_index=0),
     ValueError, "consume no latent coordinate"),
    ("sloped-mode", lambda: RandomMode((1,), "cos", 0.1, 0.2),
     ValueError, "sloped mode needs a latent_index"),
    ("spec-u0", lambda: spec_with(u0=()), SpecValidationError, "one field spec per component"),
    ("spec-mode-latent",
     lambda: spec_with(rho0=RandomFieldSpec(1.0, (RandomMode((1,), "sin", 0.05, 0.1, 3),))),
     SpecValidationError, "latent index out of range"),
    ("spec-mode-dimension",
     lambda: spec_with(rho0=RandomFieldSpec(1.0, (RandomMode((1, 0), "sin", 0.05),))),
     SpecValidationError, "mode wavevector dimension mismatch"),
    ("spec-forcing-scale", lambda: spec_with(g_scale=ScalarTransform("const", -1.0)),
     SpecValidationError, "forcing scale must be nonnegative"),
    ("seed-words", lambda: random_data._words(-1), ValueError, "non-negative integer"),
    ("latent-count", lambda: sample_latent(0, 0, 1), ValueError, "at least one sample"),
    ("partition-shape", lambda: CollocationPartition(1, 2, np.zeros((3, 1))),
     ValueError, "points array has wrong shape"),
    ("partition-cells", lambda: CollocationPartition(1, 2, np.full((2, 1), 0.9)),
     ValueError, "inside its cell"),
    ("partition-size", lambda: build_partition(0, 2), ValueError, "need K >= 1"),
    ("ensemble-mode", lambda: Ensemble([[0.0]], fake_ensemble([{}]).reports, [1.0], "both"),
     ValueError, "mode must be weak or strong"),
    ("ensemble-empty", lambda: Ensemble([], [], [], "weak"), ValueError, "one weight per member"),
    ("ensemble-lengths",
     lambda: Ensemble([[0.0], [0.5]], fake_ensemble([{}]).reports, [0.5, 0.5], "weak"),
     ValueError, "one latent point, one report and one weight per member"),
    # mesh
    ("state-grids", lambda: FluidState(rho_u(G1)[0], rho_u(GridSpec(1, 8))[1], 0.0),
     ValueError, "same grid"),
    ("transfer-geometry", lambda: transfer(np.ones(4), G1, GridSpec(2, 2)),
     ValueError, "share dimension and period"),
    ("distance-final-time", lambda: distance_times(trajectory(1.0), trajectory(0.5)),
     ValueError, "share the final time"),
    # solver
    ("momentum-iterations", momentum_solve_without_iterations,
     NoConvergenceError, "momentum linear solve did not converge"),
    ("residual-grids", lambda: scheme_residual(make_record(), (state(G1), state(GridSpec(1, 8))),
                                               0.1),
     ValueError, "share one grid"),
    ("cfl-dt-negative", lambda: cfl_dt(*(f.values for f in rho_u()), make_record(), G1, cfl=-1.0),
     ValueError, "cfl must be a finite number and > 0"),
    ("keep-window-order", lambda: solve(make_record(), G1, SchemeConfig(), keep=[[0.04, 0.01]]),
     ValueError, "must have lo <= hi"),
    ("reference-abort",
     lambda: self_convergence(make_record(), [8], 16, SchemeConfig(linf_ceiling=0.5)),
     SolverError, "reference run aborted"),
    # stats
    ("functional-name", lambda: make_functional({"kind": "tanh_mean_density", "name": 3}),
     ValueError, "name must be a string"),
    ("functional-wavevec", lambda: make_functional({"kind": "clamp_fourier", "wavevec": 1}),
     ValueError, "wavevec must be a list of integers"),
    ("no-completed-member", lambda: r_barycenter(fake_ensemble([{"status": "aborted_vacuum"}])),
     ValueError, "no completed members"),
    # experiments
    ("weak-run-mode", lambda: run_weak(strong_config()), ValueError, "mode must be 'weak'"),
]


@pytest.mark.parametrize("call,error,match", [c[1:] for c in REFUSALS],
                         ids=[c[0] for c in REFUSALS])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()

import itertools
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsuq.experiments import MAX_LATENT_DIM
from nsuq.physics import ForcingSpec, ForcingTerm, data_distance, validate_admissible
from nsuq.random_data import (
    DistributionSpec,
    RandomFieldSpec,
    RandomMode,
    ScalarTransform,
    SpecValidationError,
    build_partition,
    collocate_data,
    _uniforms,
    sample_latent,
)
from conftest import deep_or, fake_ensemble, make_spec


# ---------------------------------------------------------------------------
# scalar transforms


def test_uniform_transform_endpoints_and_center():
    tr = ScalarTransform("uniform", 0.02, 0.04, latent_index=0)
    assert tr.realize(np.array([0.0])) == pytest.approx(0.02)
    assert tr.realize(np.array([1.0])) == pytest.approx(0.04)
    assert tr.realize(np.array([0.5])) == pytest.approx(0.03)
    assert tr.lipschitz() == pytest.approx(0.02)


def test_const_transform():
    tr = ScalarTransform("const", 0.7)
    assert tr.realize(np.zeros(0)) == 0.7
    assert tr.lipschitz() == 0.0
    assert tr.lo == tr.hi == 0.7


def test_truncnormal_transform():
    tr = ScalarTransform("trunc_normal", 0.5, 1.5, mean=1.0, sd=0.2, latent_index=0)
    assert tr.realize(np.array([0.0])) == pytest.approx(0.5)
    assert tr.realize(np.array([1.0])) == pytest.approx(1.5)
    # symmetric truncation: the median sits at the mean
    assert tr.realize(np.array([0.5])) == pytest.approx(1.0, abs=1e-10)
    assert tr.lipschitz() > 0


# Truncated-normal quantiles at TN_WS and Lipschitz constants sd (Phi(b) - Phi(a))
# / min(phi(a), phi(b)), from a 50-digit mpmath evaluation with the same float
# inputs; name -> ((lo, hi, mean, sd), quantiles, lipschitz).  (a, b) are the
# standardised bounds.
TN_WS = (1e-9, 0.1, 0.5, 0.9, 1 - 1e-9)
TN_GOLDEN = {
    "symmetric": (  # (a, b) = (-2.5, 2.5)
        (0.5, 1.5, 1.0, 0.2),
        (0.5000000112684124, 0.7492514172659638, 1.0, 1.2507485827340363,
         1.4999999887315878),
        11.268413269281975),
    "upper_tail": (  # (7/3, 5): Phi(a) and Phi(b) round near 1
        (1.2, 2.0, 0.5, 0.3),
        (1.2000000001122921, 1.2117532258881658, 1.274677423483124, 1.4287058031473838,
         1.9999980194892957),
        1980.5434474627696),
    "lower_tail": (  # (-4.5, -1)
        (0.035, 0.07, 0.08, 0.01),
        (0.03500009925605784, 0.05852294605974431, 0.06590402790998544,
         0.06932132172069035, 0.06999999999344335),
        99.25827451608917),
    "deep_lower_tail": (  # (-7.5, -4): an erf-based Phi loses Phi(a) here
        (0.25, 0.6, 1.0, 0.1),
        (0.25909009584463716, 0.5485086062745942, 0.5838895721632174, 0.5975135931361177,
         0.5999999999763347),
        13010300.562926518),
    "narrow": (  # (-2, -1.99)
        (1.0, 1.001, 1.2, 0.1),
        (1.00000000000101, 1.0001009031424741, 1.000502493693061, 1.0009008923904543,
         1.0009999999990098),
        0.0010100500829140521),
    "long_upper_side": (  # (-0.5, 6): the top quantile lies where Phi rounds to 1
        (0.0, 3.25, 0.25, 0.5),
        (9.820087457956835e-10, 0.09421515322434289, 0.44843558687586216,
         0.9910898358825063, 3.2065789858783775),
        56902221.23913534),
}


@pytest.mark.parametrize("name", sorted(TN_GOLDEN))
def test_truncnormal_matches_oracle(name):
    (lo, hi, mean, sd), quantiles, lip = TN_GOLDEN[name]
    tr = ScalarTransform("trunc_normal", lo, hi, mean=mean, sd=sd, latent_index=0)
    for w, q in zip(TN_WS, quantiles):
        assert abs(tr.realize(np.array([w])) - q) <= 1e-11 * (hi - lo), w
    assert tr.lipschitz() == pytest.approx(lip, rel=1e-11)
    # the endpoints of the cube map exactly onto the endpoints of the interval
    assert tr.realize(np.array([0.0])) == lo
    assert tr.realize(np.array([1.0])) == hi


def test_truncnormal_degenerate_interval():
    tr = ScalarTransform("trunc_normal", 0.3, 0.3, mean=1.0, sd=0.1, latent_index=0)
    assert tr.realize(np.array([0.4])) == 0.3
    assert tr.lipschitz() == 0.0


def test_import_leaves_scipy_unloaded():
    code = "import sys, nsuq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_transform_validation():
    with pytest.raises(ValueError):
        ScalarTransform("uniform", 1.0, 0.5, latent_index=0)
    with pytest.raises(ValueError):
        ScalarTransform("uniform", 0.0, 1.0)  # missing latent index
    with pytest.raises(ValueError):
        ScalarTransform("trunc_normal", 0.0, 1.0, latent_index=0)  # missing moments
    with pytest.raises(ValueError):
        ScalarTransform("lognormal", 0.0, 1.0, latent_index=0)
    # a non-finite parameter would pass the ordering checks or realize NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ScalarTransform("const", bad)
        with pytest.raises(ValueError):
            ScalarTransform("uniform", bad, 1.0, latent_index=0)
        with pytest.raises(ValueError):
            ScalarTransform("uniform", 0.0, bad, latent_index=0)
        with pytest.raises(ValueError):
            ScalarTransform("trunc_normal", 0.0, 1.0, mean=bad, sd=0.1, latent_index=0)
        with pytest.raises(ValueError):
            ScalarTransform("trunc_normal", 0.0, 1.0, mean=0.5, sd=bad, latent_index=0)
    # an interval 60 sd above the mean has no mass at double precision
    with pytest.raises(ValueError):
        ScalarTransform("trunc_normal", 6.0, 7.0, mean=0.0, sd=0.1, latent_index=0)


# ---------------------------------------------------------------------------
# latent sampling


def test_sample_latent_deterministic():
    a = sample_latent(123, 10, 3)
    b = sample_latent(123, 10, 3)
    assert np.array_equal(a, b)
    assert a.shape == (10, 3)
    assert np.all((a >= 0) & (a <= 1))


def test_sample_latent_stream_property():
    short = sample_latent(7, 5, 2)
    long = sample_latent(7, 50, 2)
    assert np.array_equal(short, long[:5])


def test_sample_latent_single_point():
    pt = sample_latent(0, 1, 4)
    assert pt.shape == (1, 4)


def _numpy_draws(seed, shape, spawn_key=()):
    """The oracle: NumPy's own SeedSequence -> PCG64 -> Generator.random."""
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss)).random(shape)


def _numpy_partition(seed, K, n):
    idx = np.array(list(itertools.product(range(n), repeat=K)))  # C order
    return (idx + _numpy_draws(seed, idx.shape)) * (1.0 / n)


@pytest.mark.parametrize("K,n_per_axis", [(1, 4), (2, 3), (64, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 5])
def test_latent_stream_matches_numpy(seed, K, n_per_axis):
    lat = sample_latent(seed, 8, K)
    for n in (0, 7):
        assert np.array_equal(lat[n], _numpy_draws(seed, K, (n,)))
    far = np.fromiter(_uniforms(seed, (2**32 + 3,)), float, K)  # a spawn key of two words
    assert np.array_equal(far, _numpy_draws(seed, K, (2**32 + 3,)))
    part = build_partition(K, n_per_axis, rule="random", seed=seed)
    assert np.array_equal(part.points, _numpy_partition(seed, K, n_per_axis))


@deep_or(25)
@given(seed=st.integers(0, 2**96), count=st.integers(1, MAX_LATENT_DIM),
       K=st.integers(1, MAX_LATENT_DIM), n_per_axis=st.integers(1, 4))
def test_latent_stream_matches_numpy_property(seed, count, K, n_per_axis):
    oracle = np.array([_numpy_draws(seed, K, (n,)) for n in range(count)])
    assert np.array_equal(sample_latent(seed, count, K), oracle)
    if n_per_axis**K > 4096:
        n_per_axis = 1
    part = build_partition(K, n_per_axis, rule="random", seed=seed)
    assert np.array_equal(part.points, _numpy_partition(seed, K, n_per_axis))


def test_sample_latent_clt_bound():
    # 3 sigma of the mean of 1e4 uniforms (variance 1/12)
    N = 10_000
    lat = sample_latent(2024, N, 2)
    bound = 3.0 / np.sqrt(12.0 * N)
    assert abs(lat[:, 0].mean() - 0.5) <= bound
    assert abs(lat[:, 1].mean() - 0.5) <= bound


# ---------------------------------------------------------------------------
# distribution specs


def test_spec_validation_errors(bounds):
    with pytest.raises(SpecValidationError):
        make_spec(bounds, mu=("uniform", 0.001, 0.02, 0))  # below mu_lower
    with pytest.raises(SpecValidationError):
        make_spec(bounds, a=("uniform", 0.5, 2.0, 0))  # exceeds a_upper
    with pytest.raises(SpecValidationError):
        make_spec(bounds, rho_slope=1.0, rho_latent=0)  # density can dip below
    with pytest.raises(SpecValidationError):
        make_spec(bounds, mu=("uniform", 0.02, 0.08, 5))  # latent index out of range


def test_realize_center_gives_medians(bounds):
    spec = make_spec(bounds, K=2, mu=("uniform", 0.02, 0.08, 0),
                     a=("uniform", 0.8, 1.2, 1))
    rec = spec.realize(np.array([0.5, 0.5]))
    assert rec.mu == pytest.approx(0.05)
    assert rec.a == pytest.approx(1.0)


def test_realize_endpoint(bounds):
    mu_lo = bounds.mu_lower
    spec = make_spec(bounds, mu=("uniform", mu_lo, 2 * mu_lo, 0))
    assert spec.realize(np.array([0.0])).mu == pytest.approx(mu_lo)


def test_realize_domain_checks(bounds):
    spec = make_spec(bounds)
    with pytest.raises(ValueError):
        spec.realize(np.array([0.5, 0.5]))  # wrong K
    with pytest.raises(ValueError):
        spec.realize(np.array([1.5]))
    assert spec.realize(np.array([0.3])).mu == pytest.approx(0.02 + 0.06 * 0.3)


def test_every_draw_is_admissible(bounds):
    spec = make_spec(bounds, K=3, mu=("uniform", 0.02, 0.08, 0),
                     a=("uniform", 0.6, 1.4, 1), rho_slope=0.2, rho_latent=2)
    lat = sample_latent(99, 10_000, 3)
    for om in lat:
        assert validate_admissible(spec.realize(om), bounds)


def test_lipschitz_probe(bounds):
    base = make_spec(bounds, K=3, mu=("uniform", 0.02, 0.08, 0), a=("uniform", 0.6, 1.4, 1))
    # a k = 0 cos mode is a constant, of norm sqrt(period^d); a k = 0 sin mode is zero
    specs = [replace(base, rho0=RandomFieldSpec(1.0, (RandomMode(wavevec, kind, 0.05, 0.2, 2),)))
             for wavevec, kind in (((1,), "sin"), ((0,), "cos"), ((0,), "sin"))]
    # a forcing scaled by latent 2, whose two terms share a key: their amplitudes add up
    terms = (ForcingTerm((1,), "sin", (0.3,)), ForcingTerm((1,), "sin", (0.2,)))
    specs.append(replace(base, g_base=ForcingSpec(1, 1.0, terms),
                         g_scale=ScalarTransform("uniform", 0.0, 1.0, latent_index=2)))
    for case, spec in enumerate(specs):
        L = spec.lipschitz_constant()
        # each coordinate moves one piece of the data affinely, so the corners are L apart
        corners = data_distance(spec.realize(np.zeros(3)), spec.realize(np.ones(3)),
                                spec.field_order)
        assert corners == pytest.approx(L, rel=1e-12), case
        rng = np.random.default_rng(1)
        delta = 1e-4
        for _ in range(20):
            om = rng.random(3) * (1 - delta)
            i = rng.integers(0, 3)
            om2 = om.copy()
            om2[i] += delta
            d = data_distance(spec.realize(om), spec.realize(om2), spec.field_order)
            assert d <= L * delta * (1 + 1e-9), case
        rec = spec.realize(om)
        assert data_distance(rec, rec) == 0.0, case


def test_spec_dict_roundtrip(bounds):
    spec = make_spec(bounds, K=2, mu=("trunc_normal", 0.02, 0.08, 0),
                     a=("uniform", 0.8, 1.2, 1), rho_slope=0.1, rho_latent=1)
    doc = spec.to_dict()
    # trunc_normal needs its moments filled in by the builder; patch them here
    assert DistributionSpec.from_dict(doc) == spec


# ---------------------------------------------------------------------------
# collocation partitions


def test_partition_k1_n2():
    part = build_partition(1, 2)
    assert part.num_cells == 2
    assert np.allclose(part.points.ravel(), [0.25, 0.75])
    assert np.allclose(part.weights, [0.5, 0.5])


@pytest.mark.parametrize("K,n", [(1, 1), (1, 7), (2, 3), (3, 4)])
def test_partition_weights_sum_to_one(K, n):
    part = build_partition(K, n)
    assert part.num_cells == n**K
    assert part.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_partition_k2_n3_cells():
    part = build_partition(2, 3)
    assert part.num_cells == 9
    assert np.allclose(part.weights, 1.0 / 9)


def test_partition_size_guard():
    with pytest.raises(ValueError):
        build_partition(8, 32)


def test_partition_random_rule():
    part = build_partition(2, 4, rule="random", seed=3)
    part2 = build_partition(2, 4, rule="random", seed=3)
    assert np.array_equal(part.points, part2.points)
    with pytest.raises(ValueError):
        build_partition(2, 4, rule="random")
    with pytest.raises(ValueError):
        build_partition(2, 4, rule="corners")


def test_partition_locate():
    part = build_partition(2, 4)
    for j, pt in enumerate(part.points):
        assert part.locate(pt) == j
    assert part.locate(np.array([0.0, 0.0])) == 0
    assert part.locate(np.array([1.0, 1.0])) == 15
    with pytest.raises(ValueError):
        part.locate(np.array([-0.5, 0.5]))
    # past the 32 dimensions of numpy's meshgrid and ravel_multi_index
    wide = build_partition(MAX_LATENT_DIM, 1)
    assert wide.locate(wide.points[0]) == 0
    assert np.array_equal(wide.locate(np.full((3, MAX_LATENT_DIM), 0.5)), [0, 0, 0])


def test_collocate_constant_spec_zero_error(bounds):
    spec = make_spec(bounds, mu=("const", 0.05), a=("const", 1.0), K=1)
    part = build_partition(1, 4)
    records = collocate_data(spec, part)
    exact = spec.realize(np.array([0.37]))
    for rec in records:
        assert data_distance(rec, exact) == 0.0


def test_collocate_affine_center_rule_error(bounds):
    # mu(w) = mu_lo (1 + w): sup error over the cube is slope / (2 N)
    mu_lo = 0.02
    spec = make_spec(bounds, mu=("uniform", mu_lo, 2 * mu_lo, 0), K=1)
    dense = np.linspace(0.0, 1.0, 4097)
    sups = {}
    for N in (4, 8, 16):
        part = build_partition(1, N)
        records = collocate_data(spec, part)
        errs = [
            data_distance(records[part.locate(np.array([w]))], spec.realize(np.array([w])))
            for w in dense
        ]
        sups[N] = max(errs)
        assert sups[N] == pytest.approx(mu_lo / (2 * N), rel=1e-3)
    assert sups[4] / sups[8] == pytest.approx(2.0, rel=0.05)
    assert sups[8] / sups[16] == pytest.approx(2.0, rel=0.05)


def test_collocate_spec_mismatch(bounds):
    spec = make_spec(bounds, K=1)
    with pytest.raises(ValueError):
        collocate_data(spec, build_partition(2, 2))


def test_weak_empirical_law_for_data_functional(bounds):
    # bounded continuous functional of the data vs quadrature expectation
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0), K=1)

    def F(rec):
        return np.tanh(10.0 * rec.mu)

    M = 2048
    quad = np.mean([F(spec.realize(np.array([w]))) for w in (np.arange(M) + 0.5) / M])
    lat = sample_latent(5, 4096, 1)
    emp = np.mean([F(spec.realize(om)) for om in lat])
    assert abs(emp - quad) < 4.0 / np.sqrt(12 * 4096) * 10 * np.cosh(0.5) ** -2 * 3


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_validation():
    with pytest.raises(ValueError):
        fake_ensemble([{"rho": 1.0}], weights=[0.5])  # weights do not sum to one
    with pytest.raises(ValueError):
        fake_ensemble([{"rho": 1.0}, {"rho": 1.0}], weights=[1.5, -0.5])
    ens = fake_ensemble([{"rho": 1.0}, {"rho": 2.0}])
    assert len(ens) == 2
    assert ens.unresolved_mass == 0.0


def test_ensemble_unresolved_mass():
    ens = fake_ensemble(
        [{"rho": 1.0}, {"rho": 1.0, "status": "aborted_linf", "linf": 100.0}],
        weights=[0.75, 0.25],
    )
    assert ens.unresolved_mass == pytest.approx(0.25)
    assert list(ens.completed_mask) == [True, False]
    # the one trajectory list: None where the solve did not complete
    assert ens.trajectories[0] is ens.reports[0].trajectory and ens.trajectories[1] is None


def test_collocation_error_below_lipschitz_bound(bounds):
    # sup data error of the piecewise-constant map is bounded by
    # L_map * (cell diameter) / 2 on a dense latent grid
    spec = make_spec(bounds, K=2, mu=("uniform", 0.02, 0.08, 0),
                     a=("uniform", 0.6, 1.4, 1))
    L = spec.lipschitz_constant()
    for n_cells in (2, 4):
        part = build_partition(2, n_cells)
        records = collocate_data(spec, part)
        rng = np.random.default_rng(n_cells)
        for _ in range(200):
            om = rng.random(2)
            err = data_distance(records[part.locate(om)], spec.realize(om))
            assert err <= L / (2 * n_cells) * (1 + 1e-9)


def test_collocate_l1_error_halves(bounds):
    # mean (L1 over the cube) collocation error of an affine map also halves
    # with each partition refinement under the center rule
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.04, 0), K=1)
    dense = np.linspace(0.0, 1.0, 4097)
    l1 = {}
    for N in (4, 8):
        part = build_partition(1, N)
        records = collocate_data(spec, part)
        errs = [
            data_distance(records[part.locate(np.array([w]))], spec.realize(np.array([w])))
            for w in dense
        ]
        l1[N] = np.mean(errs)
    assert l1[4] / l1[8] == pytest.approx(2.0, rel=0.05)

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsuq import mesh
from nsuq.mesh import (
    GridSpec,
    ScalarField,
    VectorField,
    FluidState,
    Trajectory,
    lq_norm,
    neg_sobolev_norm,
    load_field,
    sample_members,
    save_field,
    stack_lq_distance,
    trajectory_lq_distance,
    transfer,
)
from conftest import deep_or, random_member


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 8)
    with pytest.raises(ValueError):
        GridSpec(1, 1)
    with pytest.raises(ValueError):
        GridSpec(1, 8, period=0.0)
    g = GridSpec(2, 4, period=2.0)
    assert g.h == 0.5
    assert g.num_cells == 16
    assert g.cell_volume == 0.25


def test_field_shape_and_immutability():
    g = GridSpec(1, 8)
    f = ScalarField.constant(g, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(7))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(8, np.nan))
    v = VectorField.constant(g, [1.5])
    assert v.values.shape == (8, 1)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, np.inf])
def test_lq_norm_constant(q):
    g = GridSpec(1, 16)
    assert lq_norm(ScalarField.constant(g, -3.0), q) == pytest.approx(3.0)


def test_lq_norm_half_indicator():
    g = GridSpec(1, 8)
    vals = np.zeros(8)
    vals[:4] = 1.0
    assert lq_norm(ScalarField(g, vals), 1.0) == pytest.approx(0.5)


def test_lq_norm_sine_mode():
    # closed form 1/sqrt(2); midpoint quadrature is exact for full periods,
    # checked by agreement across two resolutions
    for n in (16, 512):
        g = GridSpec(1, n)
        f = ScalarField(g, np.sin(2 * np.pi * g.axis_centers()))
        assert lq_norm(f, 2.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_lq_norm_rejects_small_q():
    g = GridSpec(1, 8)
    with pytest.raises(ValueError):
        lq_norm(ScalarField.constant(g, 1.0), 0.5)


def test_neg_sobolev_trivial_and_mode():
    g = GridSpec(1, 64)
    assert neg_sobolev_norm(ScalarField.constant(g, 0.0), 3) == 0.0
    assert neg_sobolev_norm(ScalarField.constant(g, -2.5), 3) == pytest.approx(2.5)
    # single cos mode: coefficients +-1/2 at k = +-1, so the squared norm is
    # 2 * (1/2)^2 * (1 + 4 pi^2)^(-m)
    f = ScalarField(g, np.cos(2 * np.pi * g.axis_centers()))
    m = 3
    expected = np.sqrt(0.5 * (1 + 4 * np.pi**2) ** (-m))
    assert neg_sobolev_norm(f, m) == pytest.approx(expected, rel=1e-12)


def test_neg_sobolev_requires_large_m():
    g = GridSpec(1, 8)
    with pytest.raises(ValueError):
        neg_sobolev_norm(ScalarField.constant(g, 1.0), 2)
    g2 = GridSpec(2, 8)
    with pytest.raises(ValueError):
        neg_sobolev_norm(ScalarField.constant(g2, 1.0), 3)


def test_neg_sobolev_monotone_in_m_and_below_l2():
    g = GridSpec(1, 32)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.standard_normal(32))
    norms = [neg_sobolev_norm(f, m) for m in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[0] <= lq_norm(f, 2.0) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parseval(seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(1, 16)
    f = ScalarField(g, rng.standard_normal(16))
    fhat = np.fft.fft(f.values) / g.n
    rhs = g.period**g.d * np.sum(np.abs(fhat) ** 2)
    assert lq_norm(f, 2.0) ** 2 == pytest.approx(rhs, rel=1e-10)


def test_restrict_cell_averages():
    g4, g2 = GridSpec(1, 4), GridSpec(1, 2)
    assert np.array_equal(transfer(np.array([1.0, 1.0, 3.0, 3.0]), g4, g2), np.array([1.0, 3.0]))


def test_restrict_preserves_mass_and_mean():
    g, gc = GridSpec(2, 8), GridSpec(2, 4)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal((8, 8)))
    coarse = ScalarField(gc, transfer(f.values, g, gc))
    assert coarse.integral() == pytest.approx(f.integral(), rel=1e-14, abs=1e-15)
    assert coarse.values.mean() == pytest.approx(f.values.mean(), abs=1e-15)


def test_restrict_or_prolong_dispatch_and_errors():
    g = GridSpec(1, 4)
    v = np.ones(4)
    assert transfer(v, g, GridSpec(1, 4)) is v
    for finer in (8, 6):  # transfer only coarsens
        with pytest.raises(ValueError):
            transfer(v, g, GridSpec(1, finer))


def test_vector_restrict_prolong():
    v = np.array([[1.0], [1.0], [3.0], [3.0]])
    assert np.array_equal(transfer(v, GridSpec(1, 4), GridSpec(1, 2)), np.array([[1.0], [3.0]]))


def test_field_serialization_roundtrip(tmp_path):
    g = GridSpec(2, 4, period=2.0)
    rng = np.random.default_rng(9)
    f = ScalarField(g, rng.standard_normal((4, 4)))
    path = tmp_path / "f.csv"
    save_field(f, path)
    f2 = load_field(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)
    v = VectorField(g, rng.standard_normal((4, 4, 2)))
    save_field(v, path)
    v2 = load_field(path)
    assert isinstance(v2, VectorField)
    assert np.array_equal(v2.values, v.values)


def test_save_field_writes_the_joined_text(tmp_path):
    # save_field formats a chunk of values at a time; its bytes are those of the whole
    # field formatted value by value and joined, and load_field reads back every bit
    rng = np.random.default_rng(5)
    edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    path = tmp_path / "f.csv"
    for f in (VectorField(GridSpec(2, 64), rng.standard_normal((64, 64, 2))),  # 8 chunks
              ScalarField(GridSpec(1, 6), np.array(edge))):
        save_field(f, path)
        ncomp = f.grid.d if isinstance(f, VectorField) else 1
        joined = "".join(format(x, ".17g") + "\n" for x in f.values.ravel().tolist())
        assert path.read_text() == f"{f.grid.d},{f.grid.n},1,{ncomp}\n" + joined
        loaded = load_field(path)
        assert loaded.values.shape == f.values.shape
        assert loaded.values.tobytes() == f.values.tobytes()


def _constant_trajectory(grid, rho, u, times):
    """Every step kept, each state constant in space: density rho[k] and every
    velocity component u[k] at times[k]."""
    return Trajectory(grid, [np.full(grid.shape, r) for r in rho],
                      [np.full(grid.shape + (grid.d,), v) for v in u], times, range(len(times)))


def test_trajectory_validation_and_sampling():
    g = GridSpec(1, 4)
    traj = _constant_trajectory(g, [1.0, 2.0], [0.0, 1.0], [0.0, 1.0])
    rho, u = traj.sample(0.25)
    assert rho[0] == pytest.approx(1.25)
    assert u[0, 0] == pytest.approx(0.25)
    rho, u = traj.sample(1.0)
    assert rho[0] == 2.0
    with pytest.raises(ValueError):
        traj.sample(2.0)


def test_thinned_trajectory_samples_kept_intervals_only():
    # every step time is recorded; only some steps keep their state
    g = GridSpec(1, 4)
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    full = _constant_trajectory(g, [1.0 + t for t in times], times, times)
    kept = [0, 2, 3, 4]
    thin = Trajectory(g, [full.rho[k] for k in kept], [full.u[k] for k in kept], times, kept)
    assert len(full.states) == len(full) and len(thin.states) == 4 < len(thin)
    assert len(thin) == len(full) == 5 and thin.final_time == 0.4
    assert np.array_equal(thin.times, full.times)
    for t in (0.0, 0.2, 0.25, 0.3, 0.35, 0.4):
        for a, b in zip(thin.sample(t), full.sample(t)):
            assert np.array_equal(a, b)
    # an interval or a step whose state was dropped fails loudly
    for t in (0.05, 0.1, 0.15):
        with pytest.raises(ValueError, match="needs step 1"):
            thin.sample(t)
    with pytest.raises(ValueError, match="needs step 1"):
        sample_members([thin], [0.25, 0.15], g)
    with pytest.raises(ValueError, match="every step"):
        neg_sobolev_norm(thin, 3)


FIVE_STEPS = [0.0, 0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("times, steps, n_rho, n_u, match", [
    # kept states sit at distinct steps, in order, and include the first and the last
    (FIVE_STEPS, [1, 2, 4], 3, 3, "the first and the last step"),
    (FIVE_STEPS, [0, 2, 3], 3, 3, "the first and the last step"),
    (FIVE_STEPS, [0, 2, 5], 3, 3, "the first and the last step"),
    (FIVE_STEPS, [0, 2, 2, 4], 4, 4, "distinct steps, in order"),
    (FIVE_STEPS, [0, 3, 2, 4], 4, 4, "distinct steps, in order"),
    (FIVE_STEPS, [], 0, 0, "at least one state"),
    ([], [0], 1, 1, "the first and the last step"),
    # one density and one velocity per kept step
    (FIVE_STEPS, [0, 2, 4], 2, 3, "one density and one velocity"),
    (FIVE_STEPS, [0, 2, 4], 3, 2, "one density and one velocity"),
    (FIVE_STEPS, [0, 2, 4], 4, 4, "one density and one velocity"),
    # the step times start at 0 and increase strictly
    ([0.1, 0.2, 0.4], [0, 1, 2], 3, 3, "start at t = 0"),
    ([np.nan, 0.2, 0.4], [0, 1, 2], 3, 3, "start at t = 0"),
    ([0.0, 0.2, 0.2, 0.4], [0, 1, 2, 3], 4, 4, "strictly increasing"),
    ([0.0, 0.3, 0.2, 0.4], [0, 1, 2, 3], 4, 4, "strictly increasing"),
    ([0.0, np.nan, 0.4], [0, 1, 2], 3, 3, "strictly increasing"),
])
def test_trajectory_refuses_inconsistent_arrays(times, steps, n_rho, n_u, match):
    g = GridSpec(1, 4)
    rho, u = [np.ones(g.shape)] * n_rho, [np.zeros(g.shape + (1,))] * n_u
    with pytest.raises(ValueError, match=match):
        Trajectory(g, rho, u, times, steps)


def test_trajectory_distance_constant_offset():
    g = GridSpec(1, 8)

    def const_traj(c):
        return _constant_trajectory(g, [c, c], [0.0, 0.0], [0.0, 2.0])

    a, b = const_traj(1.0), const_traj(1.3)
    # |delta| * (T * vol)^(1/q)
    assert trajectory_lq_distance(a, b, q=2.0) == pytest.approx(0.3 * np.sqrt(2.0), rel=1e-12)
    assert trajectory_lq_distance(a, a, q=2.0) == 0.0
    assert trajectory_lq_distance(a, b, q=np.inf) == pytest.approx(0.3, rel=1e-12)


def test_trajectory_distance_mixed_grids():
    g_c, g_f = GridSpec(1, 4), GridSpec(1, 8)

    def const_traj(grid, c):
        return _constant_trajectory(grid, [c, c], [0.0, 0.0], [0.0, 1.0])

    d = trajectory_lq_distance(const_traj(g_c, 1.0), const_traj(g_f, 2.0), q=1.0, which="rho")
    assert d == pytest.approx(1.0, rel=1e-12)


def _loop_lq_distance(a, b, q=2.0, n_times=17, which="both"):
    """The per-time reference: sample, restrict onto the coarser grid and reduce one time at a time."""
    coarse = a.grid if a.grid.n <= b.grid.n else b.grid
    times = np.linspace(0.0, min(a.final_time, b.final_time), n_times)

    def on_coarse(traj, t):
        # cell averages over each coarse cell's r^d fine cells, by np.mean
        r, d = traj.grid.n // coarse.n, coarse.d
        return tuple(v.reshape((coarse.n, r) * d + v.shape[d:]).mean(axis=tuple(range(1, 2 * d, 2)))
                     for v in traj.sample(t))

    slice_int = np.empty(n_times)
    for i, t in enumerate(times):
        (ra, ua), (rb, ub) = on_coarse(a, t), on_coarse(b, t)
        if which == "rho":
            mag = np.abs(ra - rb)
        elif which == "momentum":
            mag = np.sqrt(np.sum((ra[..., None] * ua - rb[..., None] * ub) ** 2, axis=-1))
        else:
            diff = np.concatenate([(ra - rb)[..., None], ua - ub], axis=-1)
            mag = np.sqrt(np.sum(diff**2, axis=-1))
        slice_int[i] = mag.max() if q == np.inf else np.sum(mag**q) * coarse.cell_volume
    if q == np.inf:
        return float(slice_int.max())
    return float(np.trapezoid(slice_int, times) ** (1.0 / q))


def _random_trajectory(rng, grid, times):
    states = [(1.0 + 0.3 * rng.random(grid.shape), rng.standard_normal(grid.shape + (grid.d,)))
              for _ in times]
    return Trajectory(grid, [r for r, _ in states], [v for _, v in states], times,
                      range(len(times)))


@pytest.mark.parametrize("d, n_a, n_b", [(1, 8, 8), (1, 4, 16), (1, 16, 4), (2, 4, 4), (2, 4, 8),
                                         (2, 8, 16)])
def test_stacked_distance_equals_per_time_loop(d, n_a, n_b):
    rng = np.random.default_rng(100 * d + n_a + n_b)
    # stored steps that the 17 uniform sample times mostly fall between
    a = _random_trajectory(rng, GridSpec(d, n_a), [0.0, 0.013, 0.2, 0.21, 0.55, 0.9, 1.0])
    b = _random_trajectory(rng, GridSpec(d, n_b), [0.0, 0.31, 0.62, 1.0])
    for q in (1.0, 4.0 / 3.0, 2.0, np.inf):
        for which in ("rho", "momentum", "both"):
            assert trajectory_lq_distance(a, b, q=q, which=which) == \
                _loop_lq_distance(a, b, q=q, which=which)


def test_one_member_sampler_matches_sample():
    rng = np.random.default_rng(5)
    fine, coarse = GridSpec(2, 8), GridSpec(2, 4)
    traj = _random_trajectory(rng, fine, [0.0, 0.3, 0.7, 1.0])
    times = [0.0, 0.15, 0.3, 0.99, 1.0 + 1e-13]  # exact hits, between steps, just past T
    (rho,), (u,) = sample_members([traj], times, coarse)
    assert rho.shape == (5, 4, 4) and u.shape == (5, 4, 4, 2)
    for i, t in enumerate(times):
        r, v = traj.sample(t)
        assert np.array_equal(rho[i], transfer(r, fine, coarse))
        assert np.array_equal(u[i], transfer(v, fine, coarse))
    with pytest.raises(ValueError, match="outside stored range"):
        sample_members([traj], [0.5, 1.5], fine)
    with pytest.raises(ValueError, match="unknown field selector"):
        trajectory_lq_distance(traj, traj, which="velocity")
    with pytest.raises(ValueError, match="q must be"):
        trajectory_lq_distance(traj, traj, q=0.5)


def test_fluid_state_requires_positive_density():
    g = GridSpec(1, 4)
    with pytest.raises(ValueError):
        FluidState(ScalarField.constant(g, 0.0), VectorField.constant(g, [0.0]), 0.0)


def test_neg_sobolev_of_trajectory():
    g = GridSpec(1, 8)

    # constant-in-time trajectory: L2-in-time of the constant spatial norm
    traj = _constant_trajectory(g, [1.5, 1.5], [0.0, 0.0], [0.0, 2.0])
    assert neg_sobolev_norm(traj, 3) == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)
    single = _constant_trajectory(g, [1.5], [0.0], [0.0])
    assert neg_sobolev_norm(single, 3) == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(ValueError):
        neg_sobolev_norm(traj, 2)


# ---------------------------------------------------------------------------
# the batched sampling and reduction paths, against the per-member, per-time
# loops they replace (==, not approx)


def _loop_sample(traj, times, grid):
    """The state at each time, one time at a time: the kept state at an exact hit
    or the last step, else (1 - w) s0 + w s1 between the steps around t, then
    moved onto `grid` slice by slice."""
    kept = {float(t): (r, v) for r, v, t in zip(traj.rho, traj.u, traj.times[traj.steps])}
    rho, u = [], []
    for t in np.minimum(times, traj.final_time):
        j = min(int(np.searchsorted(traj.times, t, side="right")) - 1, len(traj) - 1)
        r0, v0 = kept[traj.times[j]]
        if j < len(traj) - 1 and traj.times[j] != t:
            r1, v1 = kept[traj.times[j + 1]]
            w = (t - traj.times[j]) / (traj.times[j + 1] - traj.times[j])
            r0, v0 = (1 - w) * r0 + w * r1, (1 - w) * v0 + w * v1
        rho.append(transfer(r0, traj.grid, grid))
        u.append(transfer(v0, traj.grid, grid))
    return np.array(rho), np.array(u)


GRID_PAIRS = [(1, 8, 8), (1, 8, 4), (1, 16, 4), (2, 4, 4), (2, 8, 4)]


@deep_or(25)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GRID_PAIRS), st.booleans(),
       st.sampled_from([1, 1000, mesh.SAMPLE_CHUNK_BYTES]))
def test_level_sampler_equals_per_time_loop(seed, grids, thin, chunk_bytes):
    # one (members, times, ...) stack: the same grid or a coarser one;
    # thinned members, each at its own times and with a final time some ulps off T;
    # gathered one row, a few rows or every row at a time
    rng = np.random.default_rng(seed)
    d, n_src, n_dst = grids
    src, dst = GridSpec(d, n_src), GridSpec(d, n_dst)
    members = [random_member(rng, src, 1.0 + int(rng.integers(-3, 4)) * 2.0**-52, thin)
               for _ in range(rng.integers(1, 5))]
    trajs = [tr for tr, _ in members]
    times = np.array([t for _, t in members])
    with mock.patch.object(mesh, "SAMPLE_CHUNK_BYTES", chunk_bytes):
        rho, u = sample_members(trajs, times, dst)
    assert rho.shape == times.shape + dst.shape and u.shape == rho.shape + (d,)
    for tr, t, r, v in zip(trajs, times, rho, u):
        r_loop, v_loop = _loop_sample(tr, t, dst)
        assert np.array_equal(r, r_loop) and np.array_equal(v, v_loop)
        (r_one,), (v_one,) = sample_members([tr], t, dst)  # the one-member call
        assert np.array_equal(r, r_one) and np.array_equal(v, v_one)
    # one time vector for every member: the uniform distance times, which fall
    # between steps, hit t = 0 and end at the earliest final time
    full = [random_member(rng, src, 1.0, False)[0] for _ in range(3)]
    shared = np.linspace(0.0, 1.0, 17)
    rho, u = sample_members(full, shared, dst)
    for tr, r, v in zip(full, rho, u):
        r_loop, v_loop = _loop_sample(tr, shared, dst)
        assert np.array_equal(r, r_loop) and np.array_equal(v, v_loop)


@deep_or(25)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GRID_PAIRS))
def test_member_axis_distance_equals_per_member_calls(seed, grids):
    # one stack_lq_distance call over a leading member axis, with a time vector per
    # member, equals one one-row call per member
    rng = np.random.default_rng(seed)
    d, n_a, n_b = grids
    coarse = GridSpec(d, min(n_a, n_b))
    M = int(rng.integers(1, 5))
    ends = 1.0 + rng.integers(-3, 4, M) * 2.0**-52
    a = [random_member(rng, GridSpec(d, n_a), T, False)[0] for T in ends]
    b = [random_member(rng, GridSpec(d, n_b), T, False)[0] for T in ends[::-1]]
    times = np.array([np.linspace(0.0, min(ta.final_time, tb.final_time), 17)
                      for ta, tb in zip(a, b)])
    sa, sb = sample_members(a, times, coarse), sample_members(b, times, coarse)
    for q in (1.0, 4.0 / 3.0, 2.0, 3.0, np.inf):
        for which in ("rho", "momentum", "both"):
            dist = stack_lq_distance(sa, sb, times, coarse, q=q, which=which)
            assert dist.shape == (M,)
            for i in range(M):
                row = slice(i, i + 1)
                (one,) = stack_lq_distance((sa[0][row], sa[1][row]), (sb[0][row], sb[1][row]),
                                           times[row], coarse, q=q, which=which)
                assert dist[i] == one
                assert one == trajectory_lq_distance(a[i], b[i], q=q, which=which)


def _loop_neg_sobolev(traj, m):
    """The trajectory norm one kept state at a time, one FFT per field and state."""
    grid = traj.grid
    kint = np.fft.fftfreq(grid.n) * grid.n
    if grid.d == 1:
        ksq = (2 * np.pi * kint / grid.period) ** 2
    else:
        kx, ky = np.meshgrid(kint, kint, indexing="ij")
        ksq = (2 * np.pi / grid.period) ** 2 * (kx**2 + ky**2)
    weight = (1.0 + ksq) ** (-float(m))

    def sq(values):
        fhat = np.fft.fftn(values, axes=tuple(range(grid.d))) / grid.num_cells
        if values.ndim == grid.d:
            return float(np.sum(np.abs(fhat) ** 2 * weight))
        return float(sum(np.sum(np.abs(fhat[..., c]) ** 2 * weight)
                         for c in range(values.shape[-1])))

    per_state = np.array([sq(r) + sq(v) for r, v in zip(traj.rho, traj.u)])
    if len(traj) == 1:
        return float(np.sqrt(per_state[0])), sq
    return float(np.sqrt(np.trapezoid(per_state, traj.times))), sq


@deep_or(25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 4), (1, 8), (1, 16), (2, 4), (2, 8)]),
       st.sampled_from([1, 2, 3.5]))
def test_batched_neg_sobolev_equals_per_state_loop(seed, dn, excess):
    rng = np.random.default_rng(seed)
    grid = GridSpec(*dn)
    m = grid.d + 1 + excess
    traj, _ = random_member(rng, grid, 0.5 + rng.random(), False)
    loop, sq = _loop_neg_sobolev(traj, m)
    assert neg_sobolev_norm(traj, m) == loop
    f = ScalarField(grid, traj.rho[-1])
    assert neg_sobolev_norm(f, m) == float(np.sqrt(sq(traj.rho[-1])))
    single = Trajectory(grid, traj.rho[:1], traj.u[:1], [0.0], [0])
    assert neg_sobolev_norm(single, m) == _loop_neg_sobolev(single, m)[0]


def test_trajectory_pickles_as_checked_frozen_arrays():
    import pickle

    rng = np.random.default_rng(3)
    traj, _ = random_member(rng, GridSpec(2, 4), 1.0, True)
    back = pickle.loads(pickle.dumps(traj))
    assert np.array_equal(back.times, traj.times) and np.array_equal(back.steps, traj.steps)
    for a, b in zip(back.rho + back.u, traj.rho + traj.u):
        assert np.array_equal(a, b) and not a.flags.writeable
    # so do the fields, which numpy alone would unpickle writeable
    for f in (ScalarField(traj.grid, traj.rho[0]), VectorField(traj.grid, traj.u[0])):
        back = pickle.loads(pickle.dumps(f))
        assert type(back) is type(f) and back.grid == f.grid
        assert np.array_equal(back.values, f.values) and not back.values.flags.writeable
    # unpickling checks the arrays as the constructor does
    fn, (grid, rho, u, times, steps) = traj.__reduce__()
    for field, value, match in ((rho, -1.0, "strictly positive"), (u, np.nan, "finite")):
        tampered = [a.copy() for a in field]
        tampered[-1][0, 0] = value

        class Tampered:
            def __reduce__(self):
                args = (tampered, u) if field is rho else (rho, tampered)
                return fn, (grid, *args, times, steps)

        with pytest.raises(ValueError, match=match):
            pickle.loads(pickle.dumps(Tampered()))

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsuq.cli import main
from nsuq.experiments import (
    MAX_GRID_CELLS,
    MAX_LATENT_DIM,
    MAX_REPORT_TIMES,
    MAX_WEAK_MEMBERS,
    ExperimentConfig,
    LadderLevel,
    StatsRequest,
    run_deterministic_convergence,
    run_strong,
    run_weak,
)
from nsuq.mesh import load_field
from nsuq.solver import SchemeConfig, solve
from nsuq.mesh import GridSpec
from conftest import deep_or, make_record, make_spec


SCHEME = SchemeConfig(cfl=0.4, T=0.05)
STATS = StatsRequest(M_grid=(0.5, 2.0, 10.0), eps_grid=(1e-5, 1e-3),
                     barycenters=((2.0, 2.0, "density"),),
                     functionals=({"kind": "tanh_mean_density", "name": "f"},),
                     n_report_times=2)


def weak_config(bounds, seed=3, threads=1, levels=((4, 8), (4, 16))):
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0))
    return ExperimentConfig(
        mode="weak",
        ladder=tuple(LadderLevel(N, n) for N, n in levels),
        scheme=SCHEME, distribution=spec, stats=STATS, seed=seed, threads=threads,
    )


def constant_config(bounds, mode="weak", levels=((2, 8), (4, 16))):
    spec = make_spec(bounds, mu=("const", 0.05), a=("const", 1.0), u_amp=0.05)
    return ExperimentConfig(
        mode=mode,
        ladder=tuple(LadderLevel(N, n) for N, n in levels),
        scheme=SCHEME, distribution=spec, stats=STATS, seed=0,
    )


def hash_dir(path):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            h.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# config plumbing


def test_config_roundtrip(bounds):
    cfg = weak_config(bounds)
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_dict(doc) == cfg
    assert ExperimentConfig.from_dict(doc).config_hash() == cfg.config_hash()


def test_config_hash_pinned(bounds):
    # config_sha256 traces every report to its config, so a change to how
    # configs are written out must leave it where it was
    spec = make_spec(bounds, K=2, mu=("trunc_normal", 0.02, 0.08, 0),
                     a=("uniform", 0.8, 1.2, 1), rho_slope=0.1, rho_latent=1)
    strong = ExperimentConfig(
        mode="strong", ladder=(LadderLevel(2, 8), LadderLevel(2, 16)), scheme=SCHEME,
        distribution=spec, stats=STATS, seed=4,
        convergence={"study": "manufactured", "grids": [16, 32], "amplitude": 0.2},
    )
    assert weak_config(bounds).config_hash() == \
        "b601660196bf5b5ecf860aae1eeebff5e5e448dd77df577dc7847a1095438f1a"
    assert strong.config_hash() == \
        "ecc0edf82755d47c5710e74b65b6ad71058afc600e3cdcf4b5287f6498f6a975"


BAD_STATS = (
    {"barycenters": [[1.0, 2.0, "density"]]},
    {"barycenters": [[2.0, 0.5, "density"]]},
    {"barycenters": [[2.0, math.inf, "momentum"]]},
    {"barycenters": [[2.0, 2.0, "vorticity"]]},
    {"functionals": [{"kind": "bogus"}]},
    {"n_report_times": -1},
    {"n_report_times": 2.0},
    {"n_report_times": 4097},  # above the ceiling
    {"M_grid": []},
    {"eps_grid": []},
    {"eps_grid": "abc"},
    {"diagnostic_q": 0.5},
    # booleans are not numbers, and NaN is no threshold
    {"M_grid": [True, 2.0]},
    {"diagnostic_q": True},
    {"eps_grid": [math.nan]},
)


# (path to an entry below the top level, a key it reads, that key misspelt)
KEY_TYPOS = (
    (("distribution",), "field_order", "field_ordr"),
    (("distribution", "u0", 0, "modes", 0), "coef_slope", "coef_slop"),
    (("distribution", "g_base", "terms", 0), "omega", "omga"),
    (("ladder", 0), "n_cells", "n_cell"),
)


def weak_doc(bounds):
    return weak_config(bounds, levels=((2, 8), (2, 16))).to_dict()


def typo_base_doc(bounds):
    """A weak config document with a mode and a forcing term, so each KEY_TYPOS path exists."""
    doc = weak_doc(bounds)
    doc["distribution"]["g_base"]["terms"] = [
        {"wavevec": [1], "kind": "sin", "amplitude": [0.0], "omega": 1.0, "phase": 0.0,
         "poly": [1.0]}]
    return doc


def misspelt(doc, path, key, typo):
    """A copy of doc whose entry at path carries `typo` next to `key`, with key's value."""
    doc = json.loads(json.dumps(doc))
    entry = doc
    for step in path:
        entry = entry[step]
    entry[typo] = entry[key]
    return doc


def strong_doc(bounds):
    """A two-level strong config document with K = 2."""
    spec = make_spec(bounds, K=2, mu=("uniform", 0.02, 0.08, 0), a=("uniform", 0.8, 1.2, 1))
    return ExperimentConfig(mode="strong", ladder=(LadderLevel(2, 8), LadderLevel(2, 16)),
                            scheme=SCHEME, distribution=spec, stats=STATS).to_dict()


def one_cell_strong_doc(bounds):
    """strong_doc with N = 1 on both levels: 1**K = 1 partition cell for any K."""
    doc = strong_doc(bounds)
    for level in doc["ladder"]:
        level["N"] = 1
    return doc


def constant_strong_doc(bounds):
    return constant_config(bounds, mode="strong").to_dict()


def strong_2d_doc(bounds):
    """A two-level strong config document in 2-D, the finer level on 64**2 cells."""
    spec = make_spec(bounds, d=2, mu=("uniform", 0.02, 0.08, 0))
    return ExperimentConfig(mode="strong", ladder=(LadderLevel(2, 16), LadderLevel(2, 64)),
                            scheme=SchemeConfig(cfl=0.4, T=0.01), distribution=spec,
                            stats=STATS, seed=1).to_dict()


def convergence_doc(bounds, study=None):
    study = study or {"study": "manufactured", "grids": [8, 16]}
    return ExperimentConfig(mode="convergence", ladder=(), scheme=SCHEME,
                            distribution=make_spec(bounds), convergence=study).to_dict()


def self_convergence_doc(bounds):
    return convergence_doc(bounds, {"study": "self", "grids": [8], "ref_n": 16})


def functionals(*docs):
    """(path, value) putting `docs` in place of the weak config's functionals."""
    return ("stats", "functionals"), list(docs)


# (base document, path to an entry, value put there): ladders the runners could
# not finish and numbers that would run without meaning
BAD_ENTRIES = (
    (weak_doc, ("ladder", 1, "n_cells"), 12),  # 8 does not divide 12
    (strong_doc, ("ladder", 1, "n_cells"), 12),
    (weak_doc, ("ladder", 0, "N"), 0),
    (weak_doc, ("ladder", 0, "n_cells"), 1),
    (strong_doc, ("ladder", 1, "N"), 5000),  # 5000**2 partition cells
    (constant_strong_doc, ("distribution", "K"), 0),  # no latent axis to partition
    # sizes above their ceilings, which failed at their first allocation
    (weak_doc, ("ladder", 1, "N"), 10**13),
    (weak_doc, ("ladder", 1, "n_cells"), 10**13),
    (strong_2d_doc, ("ladder", 1, "n_cells"), 10**6),  # 10**12 cells
    (convergence_doc, ("convergence", "grids"), [8, 2**21]),
    (self_convergence_doc, ("convergence", "ref_n"), 2**21),
    (weak_doc, ("distribution", "K"), 10**13),  # 146 TiB of latent draws
    (one_cell_strong_doc, ("distribution", "K"), 10**13),  # under the partition cap
    (weak_doc, ("scheme", "T"), math.nan),
    (weak_doc, ("scheme", "T"), math.inf),
    (weak_doc, ("scheme", "picard_tol"), math.nan),
    (weak_doc, ("scheme", "picard_tol"), math.inf),
    (weak_doc, ("scheme", "linf_ceiling"), math.nan),
    (weak_doc, ("scheme", "picard_max_iter"), 2.5),
    (weak_doc, ("distribution", "mu", "lo"), math.nan),
    (weak_doc, ("distribution", "mu", "hi"), math.inf),
    (weak_doc, ("distribution", "mu"),
     {"dist": "trunc_normal", "lo": 0.02, "hi": 0.08, "mean": math.nan, "sd": 0.01,
      "latent_index": 0}),
    (weak_doc, ("distribution", "bounds", "rho_lower"), math.nan),
    (weak_doc, ("distribution", "gamma"), math.nan),
    (weak_doc, ("distribution", "period"), math.nan),
    (weak_doc, ("distribution", "u0", 0, "modes", 0, "coef_const"), math.nan),
    (weak_doc, ("distribution", "u0", 0, "base"), math.nan),
    (weak_doc, ("distribution", "rho0", "base"), math.inf),
    (typo_base_doc, ("distribution", "g_base", "terms", 0, "phase"), math.inf),
    (typo_base_doc, ("distribution", "g_base", "horizon"), math.nan),
    # integers that were truncated, or crashed a run
    (weak_doc, ("ladder", 0, "N"), 2.5),
    (weak_doc, ("ladder", 1, "n_cells"), 16.7),
    (weak_doc, ("ladder", 0, "N"), "2"),
    (weak_doc, ("ladder", 0, "N"), True),
    (weak_doc, ("seed",), 1.9),
    (weak_doc, ("threads",), -3),
    (weak_doc, ("distribution", "u0", 0, "modes", 0, "wavevec"), [1.5]),
    (typo_base_doc, ("distribution", "g_base", "terms", 0, "wavevec"), [0.5]),
    (weak_doc, ("distribution", "d"), 1.0),
    (strong_doc, ("distribution", "K"), 2.0),
    (strong_doc, ("distribution", "a", "latent_index"), 1.0),
    (strong_doc, ("distribution", "u0", 0, "modes", 0, "latent_index"), 1.0),
    # functional documents that ran with a default in place of a bad value, or crashed a run
    (weak_doc, *functionals({"kind": "tanh_mean_density", "scal": 2.0})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "part": "tan"})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "field": "rhoo"})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "lo": 1.0, "hi": -1.0})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1, 2]})),
    (weak_doc, *functionals({"kind": "tanh_mean_density"},
                            {"kind": "tanh_mean_density", "center": 1.0})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "time": "middle"})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "time": -1.0})),
    (weak_doc, *functionals({"kind": "clamp_fourier", "wavevec": [1], "time": 0.5})),
    (weak_doc, *functionals({"kind": "tanh_neg_sobolev", "m": 2})),
    # mode kinds and convergence keys nothing reads
    (weak_doc, ("distribution", "u0", 0, "modes", 0, "kind"), "tan"),
    (typo_base_doc, ("distribution", "g_base", "terms", 0, "kind"), "tan"),
    (convergence_doc, ("convergence", "amplitud"), 0.1),
    (convergence_doc, ("convergence", "ref_n"), 64),
    (self_convergence_doc, ("convergence", "mu"), 0.05),
    # booleans read as 1, a NaN nothing a run reads, and an infinite gamma
    (weak_doc, ("scheme", "cfl"), True),
    (weak_doc, ("failure_budget",), True),
    (weak_doc, ("distribution", "bounds", "g_sup"), True),
    (weak_doc, ("distribution", "rho0", "base"), True),
    (weak_doc, ("distribution", "period"), True),
    (weak_doc, ("distribution", "g_base", "period"), True),
    (weak_doc, ("distribution", "g_base", "d"), True),
    (convergence_doc, ("convergence", "mu"), True),
    # a falsy convergence document that is not a mapping ran the default study
    (convergence_doc, ("convergence",), False),
    (convergence_doc, ("convergence",), []),
    # a collocation rule build_partition does not know
    (weak_doc, ("point_rule",), "corners"),
    (weak_doc, ("distribution", "field_order"), math.nan),
    (weak_doc, ("distribution", "gamma"), math.inf),
    # a forcing on another torus than the spec's
    (weak_doc, ("distribution", "g_base", "period"), 2.0),
    (weak_doc, ("distribution", "g_base"),
     {"d": 2, "period": 1.0, "horizon": 1.0,
      "terms": [{"wavevec": [1, 0], "kind": "sin", "amplitude": [0.1, 0.0]}]}),
)


def patched(doc, path, value):
    """A copy of doc with `value` at path."""
    doc = json.loads(json.dumps(doc))
    entry = doc
    for step in path[:-1]:
        entry = entry[step]
    entry[path[-1]] = value
    return doc


def test_config_validation(bounds):
    with pytest.raises(ValueError):
        weak_config(bounds, levels=((8, 16), (4, 32)))  # N must not decrease
    with pytest.raises(ValueError):
        weak_config(bounds, levels=((4, 32), (8, 16)))  # h must not increase
    with pytest.raises(ValueError):
        ExperimentConfig(mode="weak", ladder=(), scheme=SCHEME,
                         distribution=make_spec(bounds), seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sideways", ladder=(LadderLevel(1, 8),), scheme=SCHEME,
                         distribution=make_spec(bounds), seed=0)
    # convergence documents are checked before any solve
    for conv in ({"study": "bogus"}, {"study": "self", "grids": [6], "ref_n": 16},
                 {"study": "self", "grids": [8, 32], "ref_n": 32},
                 {"study": "manufactured", "grids": []},
                 {"study": "manufactured", "grids": [16.0]},
                 {"study": "manufactured", "mu": -1.0},
                 {"study": "manufactured", "amplitude": 1.5}):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="convergence", ladder=(), scheme=SCHEME,
                             distribution=make_spec(bounds), seed=0, convergence=conv)
    # statistics requests the runners would reject only after every solve
    for patch in BAD_STATS:
        with pytest.raises(ValueError):
            StatsRequest.from_dict({**STATS.to_dict(), **patch})
    with pytest.raises(ValueError):
        dataclasses.replace(weak_config(bounds), seed=-1)
    # numpy floats are real numbers; a bool is neither a real nor an integer
    assert SchemeConfig(cfl=np.float64(0.4), T=np.float64(0.05)) == SCHEME
    for bad in ({"cfl": True}, {"picard_max_iter": True}):
        with pytest.raises(ValueError):
            SchemeConfig(**bad)
    # an unknown key is an error, not a default
    with pytest.raises(TypeError):
        StatsRequest.from_dict({"n_report_time": 5})
    with pytest.raises(TypeError):
        ExperimentConfig.from_dict({**weak_config(bounds).to_dict(), "sed": 1})
    assert StatsRequest.from_dict({}) == StatsRequest()
    assert StatsRequest.from_dict({"n_report_times": 0}).n_report_times == 0
    # the level diagnostic has its own max-norm path, so q = inf stays valid there
    assert StatsRequest.from_dict({"diagnostic_q": math.inf}).diagnostic_q == math.inf
    # an unknown key below the top level is an error too
    base = typo_base_doc(bounds)
    assert ExperimentConfig.from_dict(base).distribution.g_base.terms[0].omega == 1.0
    for typo in KEY_TYPOS:
        with pytest.raises(TypeError):
            ExperimentConfig.from_dict(misspelt(base, *typo))
    # ladders the runners could not finish, and NaN or infinite numbers
    for make_doc in (weak_doc, strong_doc, constant_strong_doc, typo_base_doc,
                     convergence_doc, self_convergence_doc):
        ExperimentConfig.from_dict(make_doc(bounds))
    for make_doc, path, value in BAD_ENTRIES:
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(patched(make_doc(bounds), path, value))
    # equal resolutions divide, and a strong ladder may sit at the partition limit
    ExperimentConfig.from_dict(patched(weak_doc(bounds), ("ladder", 1, "n_cells"), 8))
    ExperimentConfig.from_dict(patched(strong_doc(bounds), ("ladder", 1, "N"), 1024))
    # a functional may read any time up to T, and a neg-Sobolev order above d + 1
    ExperimentConfig.from_dict(patched(weak_doc(bounds), *functionals(
        {"kind": "clamp_fourier", "wavevec": [1], "time": SCHEME.T},
        {"kind": "tanh_neg_sobolev", "m": 2.5})))


def test_mode_mismatch(bounds):
    cfg = weak_config(bounds)
    with pytest.raises(ValueError):
        run_strong(cfg)
    with pytest.raises(ValueError):
        run_deterministic_convergence(cfg)


# ---------------------------------------------------------------------------
# degenerate specs reduce to deterministic solves


def test_weak_constant_spec_reproduces_single_solve(bounds, tmp_path):
    cfg = constant_config(bounds)
    report = run_weak(cfg)
    spec = cfg.distribution
    for lvl_doc, level in zip(report.summary["levels"], cfg.ladder):
        grid = GridSpec(spec.d, level.n_cells, spec.period)
        ref = solve(spec.realize(np.array([0.5])), grid, cfg.scheme)
        summaries = lvl_doc["member_summaries"]
        assert all(s == ref.to_summary() for s in summaries)
    # mean field and barycenter coincide with the solution itself
    report.write(tmp_path)
    prefix = "level_00"
    rho_ref, _ = solve(spec.realize(np.array([0.5])), GridSpec(1, 8), cfg.scheme) \
        .trajectory.sample(SCHEME.T)
    mean_field = load_field(tmp_path / prefix / "mean_density_t1.csv")
    bary = load_field(tmp_path / prefix / "barycenter_density_r2_q2.csv")
    assert np.abs(mean_field.values - rho_ref).max() <= 1e-13
    assert np.abs(bary.values - rho_ref).max() <= 1e-13
    # coupled levels solve identical data: diagnostics see only the grid gap
    for diag in report.summary["cross_level"]["diagnostics"]:
        assert diag["max_distance"] < 0.05


def test_weak_single_member_ladder(bounds):
    cfg = weak_config(bounds, levels=((1, 8),))
    report = run_weak(cfg)
    [lvl] = report.summary["levels"]
    assert lvl["N"] == 1
    assert len(lvl["member_summaries"]) == 1
    assert report.summary["cross_level"]["diagnostics"] == []


def test_strong_constant_spec_zero_collocation_error(bounds):
    cfg = constant_config(bounds, mode="strong")
    report = run_strong(cfg)
    for row in report.summary["cross_level"]["expectation_errors"]:
        # identical data at every collocation point: only the h gap remains,
        # and the distances between solves of the same data are small but not zero
        assert row["resolved_mass"] == pytest.approx(1.0)
    for lvl in report.summary["levels"]:
        assert lvl["unresolved_mass"] == 0.0


def test_strong_partition_weights_and_b2(bounds):
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0))
    cfg = ExperimentConfig(mode="strong", ladder=(LadderLevel(3, 8),),
                           scheme=SCHEME, distribution=spec, stats=STATS, seed=0)
    report = run_strong(cfg)
    [lvl] = report.summary["levels"]
    assert lvl["num_members"] == 3
    assert lvl["boundedness"]["exceedance"][0] <= 1.0


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical(bounds, tmp_path):
    cfg = weak_config(bounds, threads=2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_weak(cfg).write(d1)
    run_weak(cfg).write(d2)
    assert hash_dir(d1) == hash_dir(d2)


def test_seed_changes_report(bounds):
    r1 = run_weak(weak_config(bounds, seed=1))
    r2 = run_weak(weak_config(bounds, seed=2))
    e1 = [s["final_energy"] for s in r1.summary["levels"][0]["member_summaries"]]
    e2 = [s["final_energy"] for s in r2.summary["levels"][0]["member_summaries"]]
    assert e1 != e2


# ---------------------------------------------------------------------------
# convergence mode


def test_run_convergence_manufactured(bounds, tmp_path):
    spec = make_spec(bounds)
    cfg = ExperimentConfig(mode="convergence", ladder=(), scheme=SCHEME,
                           distribution=spec, seed=0,
                           convergence={"study": "manufactured", "grids": [16, 32]})
    report = run_deterministic_convergence(cfg)
    rows = report.summary["rows"]
    assert rows[0]["error_l1"] > rows[1]["error_l1"]
    report.write(tmp_path)
    assert (tmp_path / "convergence.csv").exists()


def test_run_convergence_self(bounds):
    spec = make_spec(bounds, mu=("const", 0.05), u_amp=0.05, rho_slope=0.0)
    cfg = ExperimentConfig(mode="convergence", ladder=(), scheme=SCHEME,
                           distribution=spec, seed=0,
                           convergence={"study": "self", "grids": [8, 16], "ref_n": 32})
    rows = run_deterministic_convergence(cfg).summary["rows"]
    assert rows[0]["error_l1"] > rows[1]["error_l1"] > 0.0


# ---------------------------------------------------------------------------
# CLI


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)


def test_cli_run_weak(bounds, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),)))
    out = tmp_path / "out"
    assert main(["run-weak", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    doc = json.load(open(out / "report.json"))
    assert doc["provenance"]["mode"] == "weak"


def test_cli_seed_override(bounds, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, seed=1, levels=((2, 8),)))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run-weak", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run-weak", "--config", str(cfg_path), "--seed", "9",
                 "--out", str(out2)]) == 0
    d1 = json.load(open(out1 / "report.json"))
    d2 = json.load(open(out2 / "report.json"))
    assert d1["provenance"]["seed"] == 1
    assert d2["provenance"]["seed"] == 9


def test_cli_threads_resolution(bounds, tmp_path, monkeypatch):
    # the worker count resolves as flag > NSUQ_THREADS > config, and output, config hash
    # included, is the same at 1, 2 and 3 workers; four cores are reported, so that the
    # 4-member level really runs on 3 processes
    import concurrent.futures
    import nsuq.experiments as experiments

    pool, pools = concurrent.futures.ProcessPoolExecutor, []

    def recording_pool(workers, **kwargs):
        pools.append(workers)
        return pool(workers, **kwargs)

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    for mode in ("weak", "strong"):
        cfg = weak_config(bounds, levels=((2, 8), (4, 16)), threads=2)
        cfg_path = tmp_path / f"{mode}.json"
        write_config(cfg_path, dataclasses.replace(cfg, mode=mode))
        outs = []
        for env, flag, workers in (("3", [], [2, 3]), ("3", ["--threads", "1"], []),
                                   (None, [], [2, 2])):
            if env is None:
                monkeypatch.delenv("NSUQ_THREADS")
            else:
                monkeypatch.setenv("NSUQ_THREADS", env)
            outs.append(tmp_path / f"{mode}{len(outs)}")
            pools.clear()
            assert main([f"run-{mode}", "--config", str(cfg_path), *flag,
                         "--out", str(outs[-1])]) == 0
            assert pools == workers
        assert hash_dir(outs[0]) == hash_dir(outs[1]) == hash_dir(outs[2])


def test_workers_capped_at_cores(bounds, monkeypatch):
    # one core: a threads=3 run solves in-process and never builds a pool
    import concurrent.futures
    import nsuq.experiments as experiments

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started on a single core")

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = run_weak(weak_config(bounds, threads=3, levels=((2, 8),)))
    assert report.summary["levels"][0]["num_members"] == 2


def test_pooled_members_keep_read_only_fields(bounds, monkeypatch):
    # kept states cross the process boundary as pickles, and come back frozen
    import nsuq.experiments as experiments

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    records = [make_record(rho_amp=a, u_amp=0.05) for a in (0.05, 0.1, 0.15)]
    reports = experiments._solve_members(records, GridSpec(1, 8),
                                         weak_config(bounds, threads=2))
    # the arrays the trajectories store, not the FluidStates built around them on access
    kept = [a for r in reports for a in r.trajectory.rho + r.trajectory.u]
    assert len(kept) > 2 * len(records)
    for a in kept:
        assert not a.flags.writeable


def test_one_worker_run_never_imports_multiprocessing(bounds, tmp_path):
    # the pool's modules cost about 1.6 MiB, which a one-worker run must not pay
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),), threads=2))
    argv = ["run-weak", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--threads", "1"]
    code = f"import sys; from nsuq.cli import main; main({argv!r}); " \
           "print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", proc.stdout


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="the interpreter has no built-in SHA-256")
def test_strong_run_never_loads_openssl(bounds, tmp_path):
    # the config hash uses the interpreter's own SHA-256, and a center-rule strong run
    # draws no random numbers: neither OpenSSL's libcrypto (_hashlib, about 3.5 MiB)
    # nor numpy.random is loaded
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(strong_doc(bounds)))
    argv = ["run-strong", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    code = f"import sys; from nsuq.cli import main; main({argv!r}); " \
           "print([m for m in ('_hashlib', 'numpy.random') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def _fuzz_bases():
    """Small weak, strong and convergence documents for the config fuzz."""
    from nsuq.physics import AdmissibleBounds

    bounds = AdmissibleBounds(rho_lower=0.5, mu_lower=0.01, a_lower=0.5, a_upper=1.5, g_sup=1.0)
    scheme = dataclasses.replace(SCHEME, T=0.01)
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0), rho_slope=0.02, rho_latent=0)
    stats = dataclasses.replace(STATS, functionals=STATS.functionals + (
        {"kind": "clamp_fourier", "name": "c", "wavevec": [1], "time": 0.005},))
    weak = ExperimentConfig(mode="weak", ladder=(LadderLevel(2, 8), LadderLevel(2, 16)),
                            scheme=scheme, distribution=spec, stats=stats, seed=1).to_dict()
    strong = {**weak, "mode": "strong"}
    conv = [{**weak, "mode": "convergence", "ladder": [], "convergence": c}
            for c in ({"study": "self", "grids": [4], "ref_n": 8},
                      {"study": "manufactured", "grids": [8, 16], "mu": 0.05})]
    # as the CLI reads them: lists, not the dataclasses' tuples, so that the fuzz reaches
    # ladder entries, thresholds and barycenters too
    return json.loads(json.dumps({"run-weak": [weak], "run-strong": [strong],
                                  "run-convergence": conv}))


FUZZ_BASES = _fuzz_bases()


def _paths(doc, prefix=()):
    """Every (path, value) in a JSON document, containers included, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# mutations change a value's type, sign or structure; sizes are only set above their ceilings
FUZZ_VALUES = [None, True, False, "1", [], {}, -0.0, float("nan")]
SIZE_CEILINGS = {"N": MAX_WEAK_MEMBERS, "n_cells": MAX_GRID_CELLS, "ref_n": MAX_GRID_CELLS,
                 "n_report_times": MAX_REPORT_TIMES, "K": MAX_LATENT_DIM}


def _size_ceiling(path):
    """The ceiling of the size at `path` (a convergence grid or a SIZE_CEILINGS key), else None."""
    if path[-2:-1] == ("grids",):
        return MAX_GRID_CELLS
    return SIZE_CEILINGS.get(path[-1])


@deep_or(20)
@given(st.sampled_from(sorted(FUZZ_BASES)), st.data())
def test_cli_config_fuzz(command, data):
    # every config either runs (0), has its solve aborted (3), or is refused with one
    # config error line and no output (2); none crashes with a traceback
    import contextlib
    import copy
    import io
    import tempfile

    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES[command])))
    for _ in range(data.draw(st.integers(1, 2))):
        path, value = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = data.draw(st.sampled_from(["type", "sign", "wrap", "delete", "extra"]))
        if kind == "sign" and type(value) in (int, float):
            parent[path[-1]] = -value
        elif kind == "wrap":
            parent[path[-1]] = [value]
        elif kind == "delete":
            del parent[path[-1]]
        elif kind == "extra" and isinstance(value, dict):
            value["unknown_key"] = 1
        else:
            parent[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
    # a size above its ceiling is refused before anything of that size is allocated
    sizes = [path for path, _ in _paths(doc) if _size_ceiling(path)]
    sized = bool(sizes) and data.draw(st.booleans())
    if sized:
        path = data.draw(st.sampled_from(sizes))
        doc = patched(doc, path, data.draw(st.integers(_size_ceiling(path) + 1, 10**15)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg_path, "--out", out, "--threads", "1"])
        assert code in ((2,) if sized else (0, 2, 3)), (code, doc)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("nsuq: config error:"), lines
            assert not os.path.exists(out)
        else:
            assert "Traceback" not in err.getvalue()


def test_cli_config_errors(bounds, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NSUQ_THREADS", raising=False)  # the config's threads must be read
    assert main(["run-weak", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-weak", "--config", str(bad)]) == 2
    # mode mismatch between subcommand and config
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),)))
    assert main(["run-strong", "--config", str(cfg_path)]) == 2
    # configs the runners would reject only after a solve exit 2 up front
    conv = {"mode": "convergence", "ladder": []}
    for path, command, patch in (
        ("bogus.json", "run-convergence", {**conv, "convergence": {"study": "bogus"}}),
        ("coarse.json", "run-convergence",
         {**conv, "convergence": {"study": "self", "grids": [6], "ref_n": 16}}),
        ("viscosity.json", "run-convergence",
         {**conv, "convergence": {"study": "manufactured", "mu": -1.0}}),
        ("explicit.json", "run-weak",
         {"scheme": {**SCHEME.to_dict(), "theta_implicit": False}}),
    ):
        doc = {**weak_config(bounds, levels=((2, 8),)).to_dict(), **patch}
        (tmp_path / path).write_text(json.dumps(doc))
        assert main([command, "--config", str(tmp_path / path),
                     "--out", str(tmp_path / "never")]) == 2
    # bad statistics requests, typo'd keys and a negative seed also exit 2 before any solve
    two_levels = weak_doc(bounds)
    docs = [{**two_levels, "stats": {**STATS.to_dict(), **patch}} for patch in BAD_STATS]
    docs.append({**two_levels, "stats": {**STATS.to_dict(), "n_report_time": 5}})
    docs += [misspelt(typo_base_doc(bounds), *typo) for typo in KEY_TYPOS]
    # bad ladders and non-finite numbers too
    docs += [patched(make_doc(bounds), path, value) for make_doc, path, value in BAD_ENTRIES]
    for i, doc in enumerate(docs):
        (tmp_path / f"stats{i}.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([f"run-{doc['mode']}", "--config", str(tmp_path / f"stats{i}.json"),
                     "--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nsuq: config error: ") and err.count("\n") == 1, err
    # nesting past the interpreter's recursion limit fails in json.load
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000 + "]" * 3000)
    capsys.readouterr()
    assert main(["run-weak", "--config", str(deep), "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nsuq: config error: ") and err.count("\n") == 1, err
    assert main(["run-weak", "--config", str(cfg_path), "--seed", "-1",
                 "--out", str(tmp_path / "never")]) == 2
    # worker counts from the environment that are not integers >= 1
    for env in ("abc", "0"):
        monkeypatch.setenv("NSUQ_THREADS", env)
        capsys.readouterr()
        assert main(["run-weak", "--config", str(cfg_path),
                     "--out", str(tmp_path / "never")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nsuq: config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "never").exists()


def test_cli_out_naming_a_file_exits_2(bounds, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),)))
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    capsys.readouterr()
    assert main(["run-weak", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nsuq: cannot write report:"), err
    assert out.read_text() == "a file, not a directory"


def test_cli_run_convergence(bounds, tmp_path, capsys):
    spec = make_spec(bounds)
    cfg = ExperimentConfig(mode="convergence", ladder=(), scheme=SCHEME,
                           distribution=spec, seed=0,
                           convergence={"study": "manufactured", "grids": [16, 32]})
    cfg_path = tmp_path / "conv.json"
    write_config(cfg_path, cfg)
    out = tmp_path / "out"
    assert main(["run-convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "convergence.csv").exists()
    # a valid config whose manufactured solve crosses the max-norm ceiling exits 3, writing nothing
    aborted = dataclasses.replace(cfg, convergence={"study": "manufactured", "grids": [8, 16]},
                                  scheme=SchemeConfig(cfl=0.4, T=0.05, linf_ceiling=0.5))
    write_config(cfg_path, aborted)
    capsys.readouterr()
    assert main(["run-convergence", "--config", str(cfg_path),
                 "--out", str(tmp_path / "never")]) == 3
    assert capsys.readouterr().err.startswith("nsuq: solve aborted: ")
    assert not (tmp_path / "never").exists()


def test_cli_entry_point_subprocess(bounds, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),)))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nsuq.cli", "run-weak", "--config", str(cfg_path),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "completed" in proc.stdout


def test_cli_pads_heap_top_and_library_calls_do_not(bounds, tmp_path, monkeypatch):
    import types
    from nsuq import cli

    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),)))
    argv = ["run-weak", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def fake_cdll(libc):
        def cdll(name):
            assert name is None
            if isinstance(libc, Exception):
                raise libc
            return libc
        return cdll

    # M_TOP_PAD (-2) at 16 MiB, once per invocation
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll(types.SimpleNamespace(mallopt=mallopt)))
    assert main(argv) == 0 and main(argv) == 0
    assert calls == [(-2, 16 << 20)] * 2
    # a libc without mallopt, or none at all, is a silent no-op
    for libc in (types.SimpleNamespace(), OSError("no libc")):
        monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll(libc))
        assert main(argv) == 0
    # a library run leaves the allocator alone
    calls.clear()
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll(types.SimpleNamespace(mallopt=mallopt)))
    run_strong(constant_config(bounds, mode="strong", levels=((2, 8),)))
    assert calls == []
    # and so does importing the package, in a fresh interpreter
    code = ("import ctypes\n"
            "def cdll(*args, **kwargs):\n"
            "    raise AssertionError('ctypes.CDLL called')\n"
            "ctypes.CDLL = cdll\n"
            "import nsuq, nsuq.cli, nsuq.experiments\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_and_library_reports_are_byte_identical_across_processes(bounds, tmp_path):
    # each in its own process: once cli.main has run, a process keeps its heap-top pad
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(strong_2d_doc(bounds)))
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    lib = ("import json, sys\n"
           "from nsuq.experiments import ExperimentConfig, run_strong\n"
           "with open(sys.argv[1]) as fh:\n"
           "    run_strong(ExperimentConfig.from_dict(json.load(fh))).write(sys.argv[2])\n")
    for argv in ([sys.executable, "-m", "nsuq.cli", "run-strong", "--config", str(cfg_path),
                  "--out", str(cli_out), "--threads", "1"],
                 [sys.executable, "-c", lib, str(cfg_path), str(lib_out)]):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert (cli_out / "report.json").exists()
    assert hash_dir(cli_out) == hash_dir(lib_out)


def test_fully_aborted_level_is_tainted_not_fatal(bounds, tmp_path):
    # a ceiling below the initial max norm aborts every member immediately;
    # the level is marked tainted, the run and the CLI still succeed
    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0))
    cfg = ExperimentConfig(
        mode="weak", ladder=(LadderLevel(3, 8),),
        scheme=SchemeConfig(cfl=0.4, T=0.05, linf_ceiling=0.9),
        distribution=spec, stats=STATS, seed=0,
    )
    report = run_weak(cfg)
    [lvl] = report.summary["levels"]
    assert lvl["unresolved_mass"] == pytest.approx(1.0)
    assert lvl["tainted"] is True
    assert lvl["boundedness"]["exceedance"][0] == 1.0
    assert lvl["barycenters"] == []
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, cfg)
    assert main(["run-weak", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def test_weak_run_counts_members_aborted_after_start_above_every_threshold(bounds):
    from nsuq.physics import ForcingSpec, ForcingTerm
    from nsuq.random_data import RandomFieldSpec, RandomMode, ScalarTransform

    # u0's amplitude is 0.3 * omega under a steady forcing: at omega = 1 the max
    # norm climbs from 1.098 at t = 0 to 1.226 by T, so a ceiling of 1.162 ends
    # the members with a large latent point part-way, and the others complete
    spec = dataclasses.replace(
        make_spec(bounds, mu=("const", 0.05), u_amp=0.0),
        rho0=RandomFieldSpec(1.0, (RandomMode((1,), "sin", 0.1),)),
        u0=(RandomFieldSpec(0.0, (RandomMode((1,), "cos", 0.0, 0.3, 0),)),),
        g_base=ForcingSpec(1, 1.0, (ForcingTerm((1,), "sin", (0.8,)),)),
        g_scale=ScalarTransform("const", 1.0))
    cfg = ExperimentConfig(mode="weak", ladder=(LadderLevel(4, 16),),
                           scheme=SchemeConfig(cfl=0.4, T=0.2, linf_ceiling=1.162),
                           distribution=spec, stats=StatsRequest(M_grid=(0.5, 2.0, 10.0)),
                           seed=2)
    [lvl] = run_weak(cfg).summary["levels"]
    members = lvl["member_summaries"]
    aborted = [m for m in members if m["status"] == "aborted_linf"]
    assert len(aborted) == 2 and sum(m["status"] == "completed" for m in members) == 2
    assert all(0 < m["steps"] and m["final_time"] < 0.2 for m in aborted)
    assert max(m["max_linf"] for m in members) < 2.0
    assert lvl["unresolved_mass"] == 0.5 and lvl["tainted"] is True
    # only the completed members stay below 2 and 10: an abort counts above every threshold
    assert lvl["boundedness"]["exceedance"] == [1.0, 0.5, 0.5]
    assert len(lvl["barycenters"]) == 1


def test_weak_run_reports_vacuum_abort_as_unresolved_mass(bounds, monkeypatch):
    from nsuq import solver

    real_step, calls = solver.step, []

    def step(*args):  # the first member's second step meets vacuum
        calls.append(None)
        if len(calls) == 2:
            raise solver.VacuumError("density left the admissible range")
        return real_step(*args)

    monkeypatch.setattr(solver, "step", step)
    [lvl] = run_weak(constant_config(bounds, levels=((2, 8),))).summary["levels"]
    first, second = lvl["member_summaries"]
    assert first["status"] == "aborted_vacuum" and first["steps"] == 1
    assert second["status"] == "completed" and second["steps"] == 2
    assert lvl["unresolved_mass"] == 0.5 and lvl["tainted"] is True
    assert lvl["boundedness"]["exceedance"] == [1.0, 0.5, 0.5]


def test_functional_mean_exact_under_mass_conservation(bounds):
    # random pressure coefficient, u0 = 0, g = 0, fixed rho0: the mean
    # density of every member equals the initial mean, so the clamped
    # mean-density functional is exact for any ensemble size
    import numpy as np
    from nsuq.random_data import Ensemble, EnsembleMember, sample_latent
    from nsuq.stats import empirical_functional_mean, make_functional

    spec = make_spec(bounds, mu=("const", 0.05), a=("uniform", 0.6, 1.4, 0),
                     rho_slope=0.0, u_amp=0.0)
    grid = GridSpec(1, 16)
    latents = sample_latent(3, 3, spec.K)
    members = [
        EnsembleMember(om, spec.realize(om), solve(spec.realize(om), grid, SCHEME))
        for om in latents
    ]
    ens = Ensemble(members, np.full(3, 1.0 / 3), "weak")
    _, F = make_functional({"kind": "clamp_fourier", "wavevec": [0], "part": "cos",
                            "lo": 0.0, "hi": 2.0})
    assert empirical_functional_mean(ens, F) == pytest.approx(1.0, abs=1e-13)


def test_strong_field_mean_of_affine_equilibria_is_exact(bounds):
    # constant-in-space density 1 + 0.1 w, u0 = 0, g = 0: every member is an
    # equilibrium and the center rule integrates the affine map exactly
    import numpy as np
    from nsuq.random_data import (Ensemble, EnsembleMember, RandomFieldSpec, RandomMode,
                                  ScalarTransform, DistributionSpec, build_partition,
                                  collocate_data)
    from nsuq.physics import ForcingSpec
    from nsuq.stats import empirical_field_mean

    spec = DistributionSpec(
        K=1, d=1, period=1.0, gamma=2.0, bounds=bounds,
        mu=ScalarTransform("const", 0.05),
        eta=ScalarTransform("const", 0.0),
        a=ScalarTransform("const", 1.0),
        rho0=RandomFieldSpec(1.0, (RandomMode((0,), "cos", 0.0, 0.1, 0),)),
        u0=(RandomFieldSpec(0.0, ()),),
        g_base=ForcingSpec.zero(1), g_scale=ScalarTransform("const", 0.0),
    )
    part = build_partition(1, 4)
    records = collocate_data(spec, part)
    grid = GridSpec(1, 8)
    members = [
        EnsembleMember(part.points[i], records[i], solve(records[i], grid, SCHEME))
        for i in range(part.num_cells)
    ]
    ens = Ensemble(members, part.weights, "strong")
    [(t, fld)] = empirical_field_mean(ens, "density")
    assert np.abs(fld.values - 1.05).max() <= 1e-12


def test_weak_functional_mean_error_decreases_across_levels(bounds):
    # affine-in-latent data functional; exact expectation via midpoint
    # quadrature; growing sample sizes shrink the error level by level
    import numpy as np

    spec = make_spec(bounds, K=1, mu=("const", 0.05), rho_slope=0.1, rho_latent=0,
                     u_amp=0.0)
    func = {"kind": "clamp_fourier", "name": "mode", "wavevec": [1], "part": "sin",
            "time": "initial", "lo": -10.0, "hi": 10.0}

    def rho_mode_coef(record):
        return record.rho0.modes[0].coef

    M = 4096
    exact = np.mean([rho_mode_coef(spec.realize(np.array([w])))
                     for w in (np.arange(M) + 0.5) / M])
    cfg = ExperimentConfig(
        mode="weak",
        ladder=(LadderLevel(4, 8), LadderLevel(16, 8), LadderLevel(64, 8)),
        scheme=SchemeConfig(cfl=0.4, T=0.01),
        distribution=spec,
        stats=StatsRequest(M_grid=(5.0,), eps_grid=(1e-3,), barycenters=(),
                           functionals=(func,)),
        seed=3,
    )
    report = run_weak(cfg)
    errs = [abs(lvl["functional_means"]["mode"] - exact)
            for lvl in report.summary["levels"]]
    assert errs[0] > errs[1] > errs[2]


def cross_level_reads(run, cfg, monkeypatch):
    """(report, solve reports per level, trajectory id -> reads) of one run,
    counting the trajectory reads made outside the per-level statistics: each
    trajectory passed to `mesh.sample_members`, the one sampler, through which
    `pair_distances` and `Trajectory.sample` read."""
    from nsuq import experiments, mesh

    solves, reads, in_level = [], {}, [False]
    solve_members, level_statistics = experiments._solve_members, experiments._level_statistics
    sample_members = mesh.sample_members

    def counted_members(trajs, *args, **kwargs):
        if not in_level[0]:  # reads by the per-level statistics are not cross-level reads
            for traj in trajs:
                reads[id(traj)] = reads.get(id(traj), 0) + 1
        return sample_members(trajs, *args, **kwargs)

    def recording_solve_members(*args):
        solves.append(solve_members(*args))
        return solves[-1]

    def quiet_level_statistics(*args):
        in_level[0] = True
        try:
            return level_statistics(*args)
        finally:
            in_level[0] = False

    with monkeypatch.context() as m:
        m.setattr(mesh, "sample_members", counted_members)
        m.setattr(experiments, "_solve_members", recording_solve_members)
        m.setattr(experiments, "_level_statistics", quiet_level_statistics)
        report = run(cfg)
    return report, solves, reads


def test_strong_reads_each_trajectory_once_per_level_pair(bounds, monkeypatch):
    # cross-level distances sample every trajectory once per level pair and
    # agree exactly with pairwise trajectory_lq_distance calls.  Three ladders
    # run the one pair loop: strong with K = 1; strong with K = 2, where the
    # coarse partners of the fine cells are not in increasing order, so a loop
    # in fine-cell order would sample a coarse member again; and weak, whose
    # diagnostics must equal convergence_in_probability_diagnostic's
    from nsuq.mesh import trajectory_lq_distance
    from nsuq.random_data import Ensemble, EnsembleMember, build_partition, sample_latent
    from nsuq.stats import convergence_in_probability_diagnostic, pair_by_index

    mu = ("uniform", 0.02, 0.08, 0)
    cases = [
        (run_strong, make_spec(bounds, mu=mu), ((2, 8), (4, 8), (4, 16))),
        (run_strong, make_spec(bounds, K=2, mu=mu, a=("uniform", 0.8, 1.2, 1)),
         ((1, 8), (2, 8), (4, 16))),
        (run_weak, make_spec(bounds, mu=mu), ((2, 8), (4, 8), (4, 16))),
    ]
    for run, spec, ladder in cases:
        mode = "weak" if run is run_weak else "strong"
        cfg = ExperimentConfig(mode=mode, ladder=tuple(LadderLevel(N, n) for N, n in ladder),
                               scheme=SCHEME, distribution=spec, stats=STATS, seed=0)
        report, solves, reads = cross_level_reads(run, cfg, monkeypatch)
        cross = report.summary["cross_level"]
        trajs = [[r.trajectory for r in level] for level in solves]
        assert all(r.status == "completed" for level in solves for r in level)
        for idx, level in enumerate(trajs):
            n_pairs = sum(idx in doc["pair"] for doc in cross["diagnostics"])
            for t in level:
                assert reads.get(id(t), 0) <= n_pairs, (mode, spec.K, idx)
        # the reads are counted where the pairs make them: every finest member is read
        assert all(reads.get(id(t), 0) >= 1 for t in trajs[-1]), mode

        if mode == "weak":
            for idx, doc in enumerate(cross["diagnostics"]):
                ens_a, ens_b = (
                    Ensemble([EnsembleMember(om, None, r) for om, r in
                              zip(sample_latent(cfg.seed, len(level), spec.K), level)],
                             np.full(len(level), 1.0 / len(level)), "weak")
                    for level in solves[idx:idx + 2])
                diag = convergence_in_probability_diagnostic(
                    pair_by_index(ens_a, ens_b), STATS.eps_grid, q=STATS.diagnostic_q)
                assert doc["fractions"] == [float(f) for f in diag.fractions]
                assert doc["mean_distance"] == float(diag.distances.mean())
                assert doc["max_distance"] == float(diag.distances.max())
            continue

        gamma = spec.gamma
        r_exp, q_mom = max(1.0, 0.5 * (1.0 + gamma)), 2.0 * gamma / (gamma + 1.0)
        s_exp = max(1.0, 0.5 * (1.0 + q_mom))
        fine = build_partition(spec.K, cfg.ladder[-1].N)
        for idx, (row, diag) in enumerate(zip(cross["expectation_errors"],
                                              cross["diagnostics"])):
            coarse = build_partition(spec.K, cfg.ladder[idx].N)
            rho_err = mom_err = 0.0
            dists = []
            for j, tb in enumerate(trajs[-1]):
                ta = trajs[idx][coarse.locate(fine.points[j])]
                w = float(fine.weights[j])
                rho_err += w * trajectory_lq_distance(ta, tb, q=gamma, which="rho") ** r_exp
                mom_err += w * trajectory_lq_distance(ta, tb, q=q_mom, which="momentum") ** s_exp
                dists.append(trajectory_lq_distance(ta, tb, q=STATS.diagnostic_q))
            assert row["rho_error"] == rho_err and row["momentum_error"] == mom_err
            assert diag["mean_distance"] == float(np.mean(dists))
            assert diag["max_distance"] == max(dists)
            assert diag["fractions"] == [float(fine.weights[np.array(dists) > e].sum())
                                         for e in STATS.eps_grid]


def test_weak_checks_common_random_numbers_before_solving(bounds, monkeypatch):
    # level a's latent points must be the first N_a of level a+1's, or member n
    # of one level is no partner of member n of the next; a stream that breaks
    # this is refused before any member is solved
    from nsuq import experiments

    sample_latent, solves = experiments.sample_latent, []
    monkeypatch.setattr(experiments, "sample_latent",
                        lambda seed, N, K: sample_latent(seed + N, N, K))
    monkeypatch.setattr(experiments, "solve", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ValueError, match="latent points"):
        run_weak(weak_config(bounds, levels=((2, 8), (4, 16))))
    assert solves == []


# ---------------------------------------------------------------------------
# observation windows: members keep only the states the statistics read


def recorded_solves(monkeypatch):
    """Solve reports and keep windows of every member solve a runner makes."""
    from nsuq import experiments

    reports, windows = [], []

    def recording(data, grid, cfg, keep=None):
        windows.append(keep)
        reports.append(solve(data, grid, cfg, keep))
        return reports[-1]

    monkeypatch.setattr(experiments, "solve", recording)
    return reports, windows


def windowed_config(bounds, mode, d):
    stats = dataclasses.replace(STATS, n_report_times=4, functionals=(
        {"kind": "tanh_mean_density", "name": "f"},
        {"kind": "clamp_fourier", "name": "c", "wavevec": [1] + [0] * (d - 1),
         "time": 0.0123},
    ))
    spec = make_spec(bounds, d=d, mu=("uniform", 0.02, 0.08, 0), rho_slope=0.02,
                     rho_latent=0)
    # T long enough that most steps lie between the windows; fewer 2-D members, for time
    fine_N = 4 if d == 1 else 2
    return ExperimentConfig(mode=mode, ladder=(LadderLevel(2, 8), LadderLevel(fine_N, 16)),
                            scheme=SchemeConfig(cfl=0.4, T=0.25), distribution=spec,
                            stats=stats, seed=3)


@pytest.mark.parametrize("mode, d", [("weak", 1), ("strong", 1), ("weak", 2), ("strong", 2)])
def test_observation_windows_leave_reports_unchanged(bounds, tmp_path, monkeypatch, mode, d):
    from nsuq import experiments

    cfg = windowed_config(bounds, mode, d)
    run = run_weak if mode == "weak" else run_strong
    with monkeypatch.context() as m:
        reports, windows = recorded_solves(m)
        thin = run(cfg)
    with monkeypatch.context() as m:
        m.setattr(experiments, "_observation_windows", lambda config: None)
        full = run(cfg)
    thin.write(str(tmp_path / "thin"))
    full.write(str(tmp_path / "full"))
    assert thin.summary == full.summary
    assert hash_dir(tmp_path / "thin") == hash_dir(tmp_path / "full")

    # 17 distance times, 4 report times, t = 0, t = T and the functional's time
    [keep] = {w.tobytes(): w for w in windows}.values()
    assert len(keep) == 17 + 4 + 2 + 1
    assert all(r.status == "completed" for r in reports)
    assert any(len(r.trajectory.states) < len(r.trajectory) for r in reports)
    for r in reports:
        times, traj = r.trajectory.times, r.trajectory
        meets = (times[:-1, None] <= keep[:, 1]) & (times[1:, None] >= keep[:, 0])
        per_window = [{*np.flatnonzero(col), *(np.flatnonzero(col) + 1)} for col in meets.T]
        assert max(map(len, per_window)) <= 2  # at most two states per window
        kept = sorted({0, len(times) - 1}.union(*per_window))
        assert [s.time for s in traj.states] == [times[j] for j in kept]


def test_neg_sobolev_functional_keeps_every_step(bounds, monkeypatch):
    from nsuq.experiments import _observation_windows

    cfg = windowed_config(bounds, "weak", 1)
    cfg = dataclasses.replace(cfg, stats=dataclasses.replace(
        cfg.stats, functionals=cfg.stats.functionals + ({"kind": "tanh_neg_sobolev"},)))
    assert _observation_windows(cfg) is None
    reports, windows = recorded_solves(monkeypatch)
    run_weak(cfg)
    assert windows and all(w is None for w in windows)
    for r in reports:
        assert len(r.trajectory.states) == len(r.trajectory)


def test_cli_huge_gamma_runs_with_tainted_levels(tmp_path):
    # the sound speed of the benchmark's shrunk weak config overflows at gamma = 1e4:
    # every member ends as no_convergence, and the run exits 0 with tainted levels
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    doc = workloads.build_config("weak-1d-mc", 1, True)
    doc["distribution"]["gamma"] = 1e4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    # solve silences the overflow itself; pytest turns any RuntimeWarning into an error
    code = main(["run-weak", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0

    def reject(name):
        raise ValueError(f"report.json holds {name}, which is not JSON")

    with open(tmp_path / "out" / "report.json") as fh:
        levels = json.load(fh, parse_constant=reject)["levels"]
    assert levels and all(lvl["tainted"] for lvl in levels)
    # the overflowed energies are written as null
    assert {m["final_energy"] for lvl in levels for m in lvl["member_summaries"]} == {None}
    assert {m["status"] for lvl in levels for m in lvl["member_summaries"]} == {"no_convergence"}

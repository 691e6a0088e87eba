import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nsuq.cli import main
from nsuq.experiments import (
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
from conftest import make_spec


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


def constant_strong_doc(bounds):
    return constant_config(bounds, mode="strong").to_dict()


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
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, weak_config(bounds, levels=((2, 8),), threads=1))
    monkeypatch.setenv("NSUQ_THREADS", "3")
    out = tmp_path / "env"
    assert main(["run-weak", "--config", str(cfg_path), "--out", str(out)]) == 0
    # the flag wins over the environment variable
    out2 = tmp_path / "flag"
    assert main(["run-weak", "--config", str(cfg_path), "--threads", "2",
                 "--out", str(out2)]) == 0
    # output, config hash included, does not depend on the thread count
    out1 = tmp_path / "one"
    assert main(["run-weak", "--config", str(cfg_path), "--threads", "1",
                 "--out", str(out1)]) == 0
    assert hash_dir(out1) == hash_dir(out2) == hash_dir(out)


def test_workers_capped_at_cores(bounds, monkeypatch):
    # one core: a threads=3 run solves in-process and never builds a pool
    import nsuq.experiments as experiments

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool started on a single core")

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    report = run_weak(weak_config(bounds, threads=3, levels=((2, 8),)))
    assert report.summary["levels"][0]["num_members"] == 2


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
    assert main(["run-weak", "--config", str(cfg_path), "--seed", "-1",
                 "--out", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()


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


def test_strong_reads_each_trajectory_once_per_level_pair(bounds, monkeypatch):
    # cross-level distances sample every trajectory once per level pair and
    # agree exactly with pairwise trajectory_lq_distance calls
    from nsuq import experiments
    from nsuq.mesh import Trajectory, trajectory_lq_distance
    from nsuq.random_data import build_partition

    spec = make_spec(bounds, mu=("uniform", 0.02, 0.08, 0))
    cfg = ExperimentConfig(mode="strong",
                           ladder=(LadderLevel(2, 8), LadderLevel(4, 8), LadderLevel(4, 16)),
                           scheme=SCHEME, distribution=spec, stats=STATS, seed=0)
    solves, reads, in_level = [], {}, [False]
    solve_members, level_statistics = experiments._solve_members, experiments._level_statistics
    sample, sample_stack = Trajectory.sample, getattr(Trajectory, "sample_stack", None)

    def count(traj):
        if not in_level[0]:  # reads by the per-level statistics are not cross-level reads
            reads[id(traj)] = reads.get(id(traj), 0) + 1

    def counted_sample(self, *args, **kwargs):
        count(self)
        return sample(self, *args, **kwargs)

    def counted_stack(self, *args, **kwargs):
        count(self)
        return sample_stack(self, *args, **kwargs)

    def recording_solve_members(*args):
        solves.append(solve_members(*args))
        return solves[-1]

    def quiet_level_statistics(*args):
        in_level[0] = True
        try:
            return level_statistics(*args)
        finally:
            in_level[0] = False

    monkeypatch.setattr(Trajectory, "sample", counted_sample)
    monkeypatch.setattr(Trajectory, "sample_stack", counted_stack, raising=False)
    monkeypatch.setattr(experiments, "_solve_members", recording_solve_members)
    monkeypatch.setattr(experiments, "_level_statistics", quiet_level_statistics)
    report = run_strong(cfg)
    monkeypatch.undo()

    trajs = [[r.trajectory for r in level] for level in solves]
    assert all(r.status == "completed" for level in solves for r in level)
    for t in trajs[0] + trajs[1]:
        assert reads.get(id(t), 0) <= 1  # a coarse member is read once in its one pair
    for t in trajs[2]:
        assert reads.get(id(t), 0) <= 2  # a fine member is read once per pair

    gamma = spec.gamma
    r_exp, q_mom = max(1.0, 0.5 * (1.0 + gamma)), 2.0 * gamma / (gamma + 1.0)
    s_exp = max(1.0, 0.5 * (1.0 + q_mom))
    fine = build_partition(spec.K, 4)
    cross = report.summary["cross_level"]
    for idx, (row, diag) in enumerate(zip(cross["expectation_errors"], cross["diagnostics"])):
        coarse = build_partition(spec.K, cfg.ladder[idx].N)
        rho_err = mom_err = 0.0
        dists = []
        for j, tb in enumerate(trajs[2]):
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
    assert any(r.trajectory.thinned for r in reports)
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
        assert not r.trajectory.thinned and len(r.trajectory.states) == len(r.trajectory)


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

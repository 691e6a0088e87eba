"""Config-driven experiment runner: weak Monte-Carlo ladders, strong
collocation ladders, and deterministic convergence studies.

A run is a pure function of (config, seed): member solves are independent
and run in batches that are split before any solve and joined in record
order, aggregation is sequential, and every emitted file uses canonical
float formatting, so reruns are byte-identical at any worker count.  A run reads
its members one way: each solve samples its member, while it steps, at the times
its level statistics read and at the distance times its level pairs read, in the
batch that solves it, and the member keeps only its first and last states.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field as dc_field, fields

# CPython's own SHA-256 (the same digest): the OpenSSL-backed one maps libcrypto, about
# 3.5 MiB of resident memory for one 2 KB hash per run
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

import numpy as np

from . import __version__, mesh
# trajectory_lq_distance is not called here; perfbench/tracing.py wraps this module's name
from .mesh import N_DISTANCE_TIMES, GridSpec, _fmt, check_number, save_field, \
    stack_lq_distance, trajectory_lq_distance  # noqa: F401
from .random_data import MAX_PARTITION_CELLS, DistributionSpec, build_partition, collocate_data, \
    sample_latent
from .solver import SchemeConfig, TravelingWaveCase, manufactured_convergence, \
    self_convergence, solve
from .stats import (
    DiagnosticReport,
    Ensemble,
    SampledEnsemble,
    boundedness_in_probability,
    convergence_in_probability_diagnostic,  # noqa: F401 -- wrapped by perfbench/tracing.py
    diagnostic_from_distances,
    empirical_field_mean,
    empirical_functional_mean,
    energy_moment_bound,
    make_functional,
    r_barycenter,
    read_times,
)

__all__ = [
    "LadderLevel",
    "StatsRequest",
    "ExperimentConfig",
    "ExperimentReport",
    "run_weak",
    "run_strong",
    "run_deterministic_convergence",
]

# Fixed ceilings on the sizes a config sets, so that a config too large to run is refused
# by validation, on any machine alike, instead of failing at its first allocation.  Every
# committed config, demo and test stays more than 100 times below them (10 times below
# the latent dimension's).
MAX_GRID_CELLS = 1 << 20  # cells per grid, n**d; the same as the partition cap
MAX_WEAK_MEMBERS = 1 << 20  # Monte-Carlo members per level
MAX_LATENT_DIM = 64  # distribution.K, the coordinates of every latent draw
MAX_REPORT_TIMES = 4096


def _check_cells(n: int, d: int, name: str) -> None:
    if n**d > MAX_GRID_CELLS:
        raise ValueError(f"{name} {n} makes {n}**{d} grid cells, more than {MAX_GRID_CELLS}")


@dataclass(frozen=True)
class LadderLevel:
    """One rung: ensemble size and grid resolution.

    N is the sample count in weak mode and the number of partition cells
    per latent axis in strong mode (total cells N^K).
    """

    N: int
    n_cells: int

    def __post_init__(self):
        check_number(self.N, "ladder N", integer=True, ge=1)
        check_number(self.n_cells, "ladder n_cells", integer=True, ge=2)


@dataclass(frozen=True)
class StatsRequest:
    M_grid: tuple = (2.0, 5.0, 10.0)
    eps_grid: tuple = (0.001, 0.01, 0.1)
    barycenters: tuple = ((2.0, 2.0, "density"),)
    functionals: tuple = ()
    n_report_times: int = 3
    diagnostic_q: float = 2.0

    def __post_init__(self):
        for name in ("M_grid", "eps_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ValueError(f"{name} must be a non-empty list of thresholds")
            for x in grid:
                check_number(x, f"{name} entry")
        for b in self.barycenters:
            if len(b) != 3 or b[2] not in ("density", "momentum"):
                raise ValueError(f"barycenter {list(b)} needs [r, q, density or momentum]")
            check_number(b[0], "barycenter r", gt=1)
            check_number(b[1], "barycenter q", ge=1)
        # make_functional raises on an unknown kind or key and on a bad parameter
        names = [make_functional(fdoc)[0] for fdoc in self.functionals]
        if len(set(names)) != len(names):
            raise ValueError(f"functional names must be unique, got {names}")
        check_number(self.n_report_times, "n_report_times", integer=True, ge=0,
                     le=MAX_REPORT_TIMES)
        check_number(self.diagnostic_q, "diagnostic_q", ge=1, inf=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "StatsRequest":
        doc = dict(doc)  # an unknown key fails in the constructor
        for key in ("M_grid", "eps_grid", "functionals"):
            if key in doc:
                doc[key] = tuple(doc[key])
        if "barycenters" in doc:
            doc["barycenters"] = tuple(
                (float(check_number(r, "barycenter r")), float(check_number(q, "barycenter q")),
                 *(which or ["density"]))
                for r, q, *which in doc["barycenters"])
        return cls(**doc)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str  # weak | strong | convergence
    ladder: tuple
    scheme: SchemeConfig
    distribution: DistributionSpec
    stats: StatsRequest = StatsRequest()
    seed: int = 0
    threads: int = 1
    failure_budget: float = 0.1
    point_rule: str = "center"
    convergence: dict | None = None

    def __post_init__(self):
        if self.mode not in ("weak", "strong", "convergence"):
            raise ValueError(f"unknown mode {self.mode!r}")
        K = self.distribution.K
        if K > MAX_LATENT_DIM:  # before N**K is computed, and before any draw of K numbers
            raise ValueError(f"distribution K {K} exceeds {MAX_LATENT_DIM} latent dimensions")
        if self.mode != "convergence":
            if not self.ladder:
                raise ValueError("ladder must not be empty")
            Ns = [lvl.N for lvl in self.ladder]
            ns = [lvl.n_cells for lvl in self.ladder]
            if any(b < a for a, b in zip(Ns, Ns[1:])):
                raise ValueError("ensemble sizes must be nondecreasing along the ladder")
            # cross-level distances transfer onto the coarser grid
            if any(b % a for a, b in zip(ns, ns[1:])):
                raise ValueError("each level's n_cells must divide the next level's")
            _check_cells(ns[-1], self.distribution.d, "ladder n_cells")
            if self.mode == "weak" and Ns[-1] > MAX_WEAK_MEMBERS:
                raise ValueError(f"ladder N {Ns[-1]} exceeds {MAX_WEAK_MEMBERS} weak members")
            if self.mode == "strong" and (K < 1 or Ns[-1] ** K > MAX_PARTITION_CELLS):
                raise ValueError(f"strong mode needs K >= 1 and at most "
                                 f"{MAX_PARTITION_CELLS} partition cells per level")
        check_number(self.seed, "seed", integer=True, ge=0)
        check_number(self.threads, "threads", integer=True, ge=1)
        check_number(self.failure_budget, "failure_budget", ge=0, le=1)
        if self.point_rule not in ("center", "random"):
            raise ValueError("point_rule must be center or random")
        d, T = self.distribution.d, self.scheme.T
        for fdoc in self.stats.functionals:
            if len(fdoc.get("wavevec", [0] * d)) != d:
                raise ValueError(f"functional wavevector {fdoc['wavevec']} "
                                 f"must have d = {d} entries")
            at = fdoc.get("time", "final")
            if not isinstance(at, str) and at > T:
                raise ValueError(f"functional time {at} lies after the final time {T}")
            if fdoc.get("m") is not None and not fdoc["m"] > d + 1:
                raise ValueError(f"tanh_neg_sobolev needs m > d + 1 = {d + 1}")
        study = _convergence_plan(self)[0] if self.mode == "convergence" else None
        horizon = self.distribution.g_base.horizon  # a manufactured study builds its own forcing
        if study != "manufactured" and T > horizon:
            raise ValueError(f"scheme T {T} exceeds g_base.horizon {horizon}, "
                             "the end of the forcing's certified sup bound")

    def to_dict(self) -> dict:
        return {**asdict(self), "distribution": self.distribution.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)  # an unknown key fails in the constructor
        doc["ladder"] = tuple(LadderLevel(**level) for level in doc.get("ladder", ()))
        doc["scheme"] = SchemeConfig.from_dict(doc["scheme"])
        doc["distribution"] = DistributionSpec.from_dict(doc["distribution"])
        if "stats" in doc:
            doc["stats"] = StatsRequest.from_dict(doc["stats"])
        if "failure_budget" in doc:
            doc["failure_budget"] = float(check_number(doc["failure_budget"], "failure_budget"))
        return cls(**doc)

    def config_hash(self) -> str:
        """sha256 of the config; `threads` is left out, since output does not depend on it."""
        doc = self.to_dict()
        del doc["threads"]
        return sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# study kind -> default study grids
_STUDY_GRIDS = {"manufactured": [32, 64, 128], "self": [8, 16, 32]}
# the wave parameters a manufactured study reads; period and horizon come from the config
_WAVE_KEYS = tuple(f.name for f in fields(TravelingWaveCase) if f.name not in ("period", "horizon"))


def _convergence_plan(config: ExperimentConfig) -> tuple:
    """(study, grids, ref_n, case) of the convergence document, defaults filled in and checked.

    `case` is the manufactured TravelingWaveCase (None for a self study); its
    data record is built here so that bad wave parameters fail validation.
    """
    doc = {} if config.convergence is None else config.convergence
    if not isinstance(doc, dict):
        raise ValueError("convergence must be a mapping")
    study = doc.get("study", "manufactured")
    if study not in _STUDY_GRIDS:
        raise ValueError(f"unknown convergence study {study!r}")
    stray = set(doc) - {"study", "grids", *(("ref_n",) if study == "self" else _WAVE_KEYS)}
    if stray:
        raise ValueError(f"a {study} convergence study takes no keys {sorted(stray)}")
    grids = list(doc.get("grids", _STUDY_GRIDS[study]))
    ref_n = doc.get("ref_n", 64)
    if not grids:
        raise ValueError("convergence grids must not be empty")
    d = config.distribution.d if study == "self" else 1  # the traveling wave is 1-D
    for n in grids:
        check_number(n, "convergence grid", integer=True, ge=2)
        _check_cells(n, d, "convergence grid")
    if study == "self":
        check_number(ref_n, "ref_n", integer=True)
        _check_cells(ref_n, d, "ref_n")
        if any(ref_n % n != 0 or n >= ref_n for n in grids):
            raise ValueError("study grids must be strictly coarser divisors of ref_n")
    case = None
    if study == "manufactured":
        case = TravelingWaveCase(**{k: doc[k] for k in _WAVE_KEYS if k in doc},
                                 period=config.distribution.period,
                                 horizon=max(1.0, config.scheme.T))
        case.data_record()  # raises on inadmissible wave parameters
    return study, grids, ref_n, case


def _finite_or_null(x):
    """x with every non-finite float, at any depth, replaced by None (JSON null)."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return x


# the directory of one ladder level's tables and field snapshots
_LEVEL_DIR = "level_{:02d}"


def _tables(summary: dict) -> dict:
    """rel path -> (header, rows) of every CSV table, read off a run's summary."""
    def table(header, docs):  # the header names each column's key; None is written as nan
        return header, [[math.nan if doc[k] is None else doc[k] for k in header] for doc in docs]

    levels, cross = summary.get("levels", []), summary.get("cross_level", {})
    tables = {}
    for lvl in levels:
        prefix, bnd = _LEVEL_DIR.format(lvl["level"]), lvl["boundedness"]
        tables[f"{prefix}/boundedness.csv"] = (("threshold", "exceedance"),
                                               zip(bnd["thresholds"], bnd["exceedance"]))
        if lvl["functional_means"]:
            tables[f"{prefix}/functional_means.csv"] = (("functional", "mean"),
                                                        sorted(lvl["functional_means"].items()))
    for diag in cross.get("diagnostics", []):
        tables["cross_level/diagnostic_{}_{}.csv".format(*diag["pair"])] = (
            ("eps", "fraction"), zip(diag["eps"], diag["fractions"]))
    if cross.get("expectation_errors"):
        tables["cross_level/expectation_errors.csv"] = table(
            ("level", "rho_error", "momentum_error"), cross["expectation_errors"])
    names = sorted({k for lvl in levels for k in lvl["functional_means"]})
    if names:
        tables["cross_level/functional_means_by_level.csv"] = (
            ("level", "N", "n_cells", *names),
            [(lvl["level"], lvl["N"], lvl["n_cells"],
              *(lvl["functional_means"].get(k, math.nan) for k in names)) for lvl in levels])
    if "rows" in summary:  # a convergence study
        tables["convergence.csv"] = table(("n", "h", "error_l1", "order"), summary["rows"])
    return tables


@dataclass
class ExperimentReport:
    """Structured summary and field snapshots; `write` forms the CSV tables from the summary."""

    summary: dict
    fields: dict = dc_field(default_factory=dict)  # rel path -> Field

    def write(self, out_dir: str) -> None:
        """The tables and field snapshots, then `report.json` last, so that a write
        that fails midway leaves no `report.json` of its own."""
        os.makedirs(out_dir, exist_ok=True)
        tables = _tables(self.summary)  # from the raw summary: the CSVs keep inf and nan
        for rel in sorted(tables):
            header, rows = tables[rel]
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
                    fh.write("\n")
        for rel in sorted(self.fields):
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            save_field(self.fields[rel], path)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            # standard JSON: an overflowed energy, say, is written as null
            json.dump(_finite_or_null(self.summary), fh, sort_keys=True, indent=1,
                      allow_nan=False)
            fh.write("\n")


# ---------------------------------------------------------------------------
# shared machinery


def _provenance(config: ExperimentConfig) -> dict:
    return {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "mode": config.mode,
        "package_version": __version__,
    }


def _level_statistics(ens: Ensemble, config: ExperimentConfig, level_idx: int,
                      level: LadderLevel, report: ExperimentReport, reads: np.ndarray,
                      samples: list) -> dict:
    """The level's summary; its fields go into `report`.  `samples[i]` is member
    i's (rho, u) at the times `reads`, taken while it stepped (None where its
    solve did not complete); each is dropped once copied into the level's stacks."""
    req = config.stats
    prefix = _LEVEL_DIR.format(level_idx)
    doc = {
        "level": level_idx,
        "N": level.N,
        "n_cells": level.n_cells,
        "num_members": len(ens),
        "unresolved_mass": ens.unresolved_mass,
        "tainted": ens.unresolved_mass > config.failure_budget,
        "member_summaries": [r.to_summary() for r in ens.reports],
    }
    bnd = boundedness_in_probability(ens, req.M_grid)
    doc["boundedness"] = {
        "thresholds": [float(m) for m in bnd.thresholds],
        "exceedance": [float(e) for e in bnd.exceedance],
    }

    # means, energies, and barycenters need at least one completed member;
    # a fully unresolved level still reports its boundedness statistics
    if not ens.completed_mask.any():
        doc.update({"functional_means": {}, "energy_moment_bound": None,
                    "field_mean_times": [], "barycenters": []})
        return doc

    # the members' samples at the report times, the final time and the functionals' times
    done = [i for i, s in enumerate(samples) if s is not None]
    rho, u = (np.empty((len(done),) + s.shape) for s in samples[done[0]])
    for k, i in enumerate(done):
        rho[k], u[k] = samples[i]
        samples[i] = None
    sampled = SampledEnsemble(ens, reads, (rho, u))
    functionals = [make_functional(fdoc) for fdoc in req.functionals]
    times = np.linspace(0.0, config.scheme.T, req.n_report_times)  # completed members end at T
    doc["functional_means"] = {name: empirical_functional_mean(sampled, F)
                               for name, F in functionals}
    doc["energy_moment_bound"] = energy_moment_bound(ens)

    for which in ("density", "momentum"):
        for j, (t, fld) in enumerate(empirical_field_mean(sampled, which, times=times)):
            report.fields[f"{prefix}/mean_{which}_t{j}.csv"] = fld
    doc["field_mean_times"] = [float(t) for t in times]

    bary_rows = []
    for r, q, which in req.barycenters:
        res = r_barycenter(sampled, which=which, r=r, q=q)
        report.fields[f"{prefix}/barycenter_{which}_r{_fmt(r)}_q{_fmt(q)}.csv"] = res.minimizer
        row = {f.name: getattr(res, f.name) for f in fields(res) if f.name != "minimizer"}
        bary_rows.append({"which": which, **row})
    doc["barycenters"] = bary_rows
    return doc


def _diagnostic_doc(diag: DiagnosticReport, pair: list) -> dict:
    finite = diag.distances[np.isfinite(diag.distances)]
    return {
        "pair": pair,
        "eps": [float(e) for e in diag.eps_grid],
        "fractions": [float(f) for f in diag.fractions],
        "mean_distance": float(finite.mean()) if len(finite) else None,
        "max_distance": float(finite.max()) if len(finite) else None,
    }


# ---------------------------------------------------------------------------
# runners


def _expectation_error_row(level: int, dist: np.ndarray, both: np.ndarray, w,
                           norms: list) -> dict:
    """Weighted r-th and s-th moments of the density and momentum distances
    (columns 1 and 2 of `dist`) of one strong pair, summed over its
    both-completed members in fine-cell order."""
    # expectation-norm exponents below the integrability ceilings, the norms' q
    r_exp, s_exp = (max(1.0, 0.5 * (1.0 + q)) for q, _ in norms[1:])
    rho_err = mom_err = resolved_mass = 0.0
    for j in np.flatnonzero(both):
        wj = float(w[j])
        resolved_mass += wj
        rho_err += wj * float(dist[j, 1]) ** r_exp
        mom_err += wj * float(dist[j, 2]) ** s_exp
    return {"level": level, "rho_error": rho_err, "momentum_error": mom_err,
            "r": r_exp, "s": s_exp, "resolved_mass": resolved_mass}


def _solve_batch(records, grid: GridSpec, config: ExperimentConfig, keep: bool, reads,
                 reading: list, norms: list, own: bool, bounds: tuple) -> tuple:
    """(reports without samples, read samples, own samples, rows per pair) of members
    records[lo:hi].

    Each member is solved under `keep` and sampled while it steps onto its level's
    grid at the times `reads` (the read samples), and at the distance times onto
    its level's grid when `own` (else the own samples are None) and onto the grid
    of each pair in `reading`: (partners, partner, grid) of a pair the level is the
    finer side of, the coarser level's samples on `grid` (None where a solve did
    not complete) and the partner of each finer member.  Samples are None, and a
    pair's rows lo.. inf, where a solve did not complete.
    """
    lo, hi = bounds
    times = np.linspace(0.0, config.scheme.T, N_DISTANCE_TIMES)
    plan = [(reads, [grid]), (times, [grid] * own + [g for *_, g in reading])]
    reports = [solve(rec, grid, config.scheme, keep, plan) for rec in records[lo:hi]]
    rows = []
    for partners, partner, g in reading:
        out = np.full((max(0, min(hi, len(partner)) - lo), len(norms)), np.inf)
        js = [j for j in range(len(out))
              if reports[j].samples is not None and partners[partner[lo + j]] is not None]
        if js:
            a = tuple(np.stack([partners[partner[lo + j]][f] for j in js]) for f in (0, 1))
            b = tuple(np.stack([reports[j].samples[1][g][f] for j in js]) for f in (0, 1))
            t = np.broadcast_to(times, (len(js), len(times)))
            out[js] = np.transpose([stack_lq_distance(a, b, t, g, q=q, which=which)
                                    for q, which in norms])
        rows.append(out)
    read = [None if r.samples is None else r.samples[0][grid] for r in reports]
    mine = [None if r.samples is None else r.samples[1][grid] for r in reports] if own else None
    for r in reports:
        r.samples = None
    return reports, read, mine, rows


def _run_batch(bounds: tuple) -> tuple:
    """A forked worker's batch, of the level task that its pool's initializer set."""
    return _run_batch.task(bounds)


def _solve_level(records, grid: GridSpec, config: ExperimentConfig, keep: bool, reads,
                 reading: list, norms: list, own: bool) -> tuple:
    """`_solve_batch`'s results over contiguous batches of a level's records, joined.

    The split is fixed before any solve: a batch holds as many members as have
    distance samples that fit SAMPLE_CHUNK_BYTES (at least one), and at most an
    even share of the level among its workers.  One worker maps the batches
    in-process; more map them in a forked pool, so that the parent never holds a
    finer member's distance samples.  A level never starts more workers than
    cores, members or batches.
    """
    grids = set([grid] * own + [g for *_, g in reading])
    member_bytes = N_DISTANCE_TIMES * sum(g.num_cells for g in grids) * (1 + grid.d) * 8
    workers = min(config.threads, os.cpu_count() or 1, len(records)) if hasattr(os, "fork") else 1
    size = min(max(1, mesh.SAMPLE_CHUNK_BYTES // max(1, member_bytes)), -(-len(records) // workers))
    bounds = [(lo, min(lo + size, len(records))) for lo in range(0, len(records), size)]
    workers = min(workers, len(bounds))
    task = functools.partial(_solve_batch, records, grid, config, keep, reads, reading, norms, own)
    if workers <= 1:
        batches = list(map(task, bounds))
    else:
        # imported here, so that one-worker runs never load the pool's modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork starts fastest and nsuq starts no threads; Python 3.14 no longer makes it the
        # default.  The workers inherit the task through the fork (`map` would pickle it per
        # batch).  A failed batch ends the map, which cancels the batches not started
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=setattr, initargs=(_run_batch, "task", task)) as ex:
            batches = list(ex.map(_run_batch, bounds))
    reports, read, mine, rows = zip(*batches)
    return ([r for rs in reports for r in rs], [s for ss in read for s in ss],
            [s for ss in mine for s in ss] if own else None,
            [np.concatenate(pair) for pair in zip(*rows)])


def _run_ladder(config: ExperimentConfig, draws: list, pairs: list) -> ExperimentReport:
    """Solve and post-process a ladder level by level, taking each level pair's
    distances in the batches that solve its finer level.

    `draws[i]` is level i's (latent points, weights, data records); its
    records are solved into level i's `Ensemble`.  Each of `pairs` is
    (a, b, partner, w): member j of level b is compared with member partner[j]
    of level a, at weight w[j], on level a's (coarser) grid.  A strong ladder
    adds the density and momentum expectation errors.

    A run reads its members one way: each solve samples its member while it
    steps (`mesh.StepSampler`), at the times its level statistics read
    (`stats.read_times`, taken once per run) onto its own grid, and at the
    distance times for the pairs: onto its own grid where its level is a pair's
    coarser side, and onto each partner's grid where it is a finer side.  So a
    member keeps only its first and last states, or every state when a
    `tanh_neg_sobolev` functional integrates over all of them.  Level b is solved
    in batches of members whose distance samples fit SAMPLE_CHUNK_BYTES, split
    before any solve (`_solve_level`); each batch gives its rows of every pair
    (a, b) and drops its distance samples.  A level's own samples are dropped once
    no later pair reads them.  Diagnostics and errors keep `pairs` order.
    """
    spec, req = config.distribution, config.stats
    strong = config.mode == "strong"
    norms = [(req.diagnostic_q, "both")]
    if strong:  # the integrability ceilings of density and momentum
        norms += [(spec.gamma, "rho"), (2.0 * spec.gamma / (spec.gamma + 1.0), "momentum")]
    T = config.scheme.T
    keep = any(fdoc["kind"] == "tanh_neg_sobolev" for fdoc in req.functionals)
    reads = read_times(np.linspace(0.0, T, req.n_report_times), T,
                       [make_functional(fdoc)[1] for fdoc in req.functionals])
    grids = [GridSpec(spec.d, level.n_cells, spec.period) for level in config.ladder]
    dist = [None] * len(pairs)
    report = ExperimentReport(summary={"provenance": _provenance(config)})
    samples, ensembles, levels = [], [], []  # samples[a]: level a's, while a later pair reads them
    for idx, (level, (latents, weights, records)) in enumerate(zip(config.ladder, draws)):
        finer = [(p, a, partner) for p, (a, b, partner, _) in enumerate(pairs) if b == idx]
        reading = [(samples[a], partner, grids[a]) for _, a, partner in finer]
        reports, read, mine, rows = _solve_level(records, grids[idx], config, keep, reads,
                                                 reading, norms, any(a == idx for a, *_ in pairs))
        del reading  # with its references to the coarser levels' samples
        for (p, *_), r in zip(finer, rows):
            dist[p] = r
        samples = [s if any(a == i and b > idx for a, b, *_ in pairs) else None
                   for i, s in enumerate(samples + [mine])]
        ens = Ensemble(latents, reports, weights, config.mode)
        ensembles.append(ens)
        levels.append(_level_statistics(ens, config, idx, level, report, reads, read))
    report.summary["levels"] = levels

    diagnostics, error_rows = [], []
    for (a, b, partner, w), rows in zip(pairs, dist):
        diag = diagnostic_from_distances(rows[:, 0], w, req.eps_grid)
        diagnostics.append(_diagnostic_doc(diag, [a, b]))
        if strong:
            both = ensembles[a].completed_mask[partner] & ensembles[b].completed_mask[:len(partner)]
            error_rows.append(_expectation_error_row(a, rows, both, w, norms))
    report.summary["cross_level"] = {"diagnostics": diagnostics}
    if strong:
        report.summary["cross_level"]["expectation_errors"] = error_rows
    return report


def run_weak(config: ExperimentConfig) -> ExperimentReport:
    """Monte-Carlo ladder at weights 1/N: neighbouring levels are compared
    member n with member n.  One draw of the finest level's N latent points
    serves every level, level a taking its first N_a rows, so member n has
    the same latent point on every level (common random numbers)."""
    if config.mode != "weak":
        raise ValueError("config mode must be 'weak'")
    spec = config.distribution
    latents = sample_latent(config.seed, config.ladder[-1].N, spec.K)
    records = [spec.realize(x) for x in latents]
    draws = [(om, np.full(len(om), 1.0 / len(om)), records[:len(om)])
             for om in (latents[:level.N] for level in config.ladder)]
    pairs = [(a, a + 1, np.arange(len(om)), w) for a, (om, w, _) in enumerate(draws[:-1])]
    return _run_ladder(config, draws, pairs)


def run_strong(config: ExperimentConfig) -> ExperimentReport:
    """Collocation ladder at partition-cell weights: each level is compared
    with the finest at the finest level's collocation points, through the
    level's piecewise-constant map (the member whose cell holds the point)."""
    if config.mode != "strong":
        raise ValueError("config mode must be 'strong'")
    spec = config.distribution
    parts = [build_partition(spec.K, level.N, rule=config.point_rule,
                             seed=config.seed if config.point_rule == "random" else None)
             for level in config.ladder]
    draws = [(part.points, part.weights, collocate_data(spec, part)) for part in parts]
    fine = len(parts) - 1
    pairs = [(a, fine, parts[a].locate(parts[fine].points), parts[fine].weights)
             for a in range(fine)]
    return _run_ladder(config, draws, pairs)


def run_deterministic_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Manufactured or self-convergence study for one fixed data record."""
    if config.mode != "convergence":
        raise ValueError("config mode must be 'convergence'")
    study, grids, ref_n, case = _convergence_plan(config)
    report = ExperimentReport(summary={"provenance": _provenance(config)})
    if study == "manufactured":
        rows = manufactured_convergence(case, grids, config.scheme)
    else:
        spec = config.distribution
        data = spec.realize(np.full(spec.K, 0.5))
        rows = self_convergence(data, grids, ref_n, config.scheme)
    report.summary["rows"] = [asdict(r) for r in rows]
    return report

"""Correctness gate applied to the output directory of every repetition.

A repetition passes when
- `report.json` has the expected levels, ensemble sizes and member counts;
- every member is `completed` with `final_time` equal to T;
- the statistics match the reference values recorded for this workload
  and variant (reference.json): exceedance fractions exactly, the others
  within the relative tolerances below;
- its output directory has the same digest as the run's first repetition.

The exceedance thresholds are chosen well clear of every member's max norm
(record_reference.py refuses a variant otherwise), so exact matching is
fair.  The relative tolerances sit ten times above the 2e-4 relative
change in final energy that a time-step change of the solver produced,
and reject a broken solver.  Measured on variants 0 and 7, before
choosing them:
- halving the viscosity inside `step` moves a functional mean by 3.7e-3
  (weak-1d-mc) and 1.1e-2 (strong-1d-stats), and a barycenter objective
  by 7.7e-2 (weak-1d-mc) and 0.83 (strong-2d-colloc): rejected on all three;
- flipping the sign of the forcing moves a functional mean of
  strong-1d-stats by 2.2 (the weak workload's statistics barely see the
  forcing): rejected;
- dropping the viscous step bound from `cfl_dt` moves functional means by
  up to 5.5e-2, barycenter objectives by up to 3.5 (a variance of size
  1e-6) and expectation errors by up to 1.4: rejected.  Such a change
  alters the report numbers by design and needs new reference values.
Barycenter objectives and expectation errors are differences of nearby
fields, so they amplify a small change of the fields; their tolerance is
wider.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# statistic kind -> relative tolerance
RTOL = {
    "functional_mean": 2e-3,
    "energy_moment_bound": 2e-3,
    "barycenter_objective": 5e-2,
    "expectation_error": 5e-2,
}

FAILED_STATUSES = ("no_convergence", "aborted_vacuum")


def extract(report: dict) -> dict:
    """The statistics the gate compares, keyed by a readable path."""
    out = {}
    for lvl in report["levels"]:
        pre = f"level_{lvl['level']}"
        for name, value in sorted(lvl["functional_means"].items()):
            out[f"{pre}.functional_mean.{name}"] = value
        out[f"{pre}.energy_moment_bound"] = lvl["energy_moment_bound"]
        out[f"{pre}.exceedance"] = list(lvl["boundedness"]["exceedance"])
        for b in lvl["barycenters"]:
            out[f"{pre}.barycenter_objective.{b['which']}_r{b['r']:g}_q{b['q']:g}"] = b["objective"]
    for row in report.get("cross_level", {}).get("expectation_errors", []):
        out[f"cross_{row['level']}.expectation_error.rho"] = row["rho_error"]
        out[f"cross_{row['level']}.expectation_error.momentum"] = row["momentum_error"]
    return out


def _kind(key: str) -> str:
    for kind in RTOL:
        if f".{kind}" in key:
            return kind
    return "exceedance"


def compare(stats: dict, reference: dict) -> list:
    """Problems found comparing extracted statistics with their reference."""
    problems = []
    if sorted(stats) != sorted(reference):
        problems.append(f"statistics {sorted(set(stats) ^ set(reference))} missing or unexpected")
    for key in sorted(set(stats) & set(reference)):
        got, want = stats[key], reference[key]
        kind = _kind(key)
        if kind == "exceedance":
            if got != want:
                problems.append(f"{key}: {got} != reference {want}")
        elif got is None or not math.isfinite(got) or \
                abs(got - want) > RTOL[kind] * max(abs(want), 1e-300):
            problems.append(f"{key}: {got!r} differs from reference {want!r} "
                            f"by more than rtol {RTOL[kind]:g}")
    return problems


def member_counts(report: dict) -> tuple:
    """(members attempted, members failed) over all levels."""
    members = [m for lvl in report["levels"] for m in lvl["member_summaries"]]
    return len(members), sum(m["status"] in FAILED_STATUSES for m in members)


def check(report: dict, config: dict, shape: list, reference: dict) -> list:
    """All problems with one repetition's report; empty when it passes."""
    problems = []
    T = config["scheme"]["T"]
    levels = report.get("levels", [])
    if len(levels) != len(shape):
        return [f"{len(levels)} levels, expected {len(shape)}"]
    for lvl, (N, n_cells, members) in zip(levels, shape):
        got = (lvl["N"], lvl["n_cells"], lvl["num_members"], len(lvl["member_summaries"]))
        if got != (N, n_cells, members, members):
            problems.append(f"level {lvl['level']}: (N, n_cells, members) {got[:3]}, "
                            f"expected {(N, n_cells, members)}")
        for j, m in enumerate(lvl["member_summaries"]):
            if m["status"] != "completed" or abs(m["final_time"] - T) > 1e-12 * T:
                problems.append(f"level {lvl['level']} member {j}: status {m['status']}, "
                                f"final_time {m['final_time']!r}, expected completed at {T!r}")
    if problems:
        return problems
    return compare(extract(report), reference)


def digest(out_dir: str, suffix: str = "") -> str:
    """sha256 over the relative paths and bytes of the files under out_dir
    whose names end in `suffix`."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(suffix)):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def load_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)

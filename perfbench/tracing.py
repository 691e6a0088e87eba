"""Outside-in tracing of one `nsuq` run, and the per-layer numbers it yields.

`install` wraps public names at the module or class attributes that their
callers look up at call time, so nothing under `src/` changes.  Each call
through a wrapper records a span: name, start, end, parent span and run id,
plus a few counts read off the return value.  The parent stack is kept per
thread, because the weak workload solves members on a thread pool; a span
opened on a pool thread with an empty stack takes the run's root span as
its parent.  Spans stay in memory until `Tracer.dump`.

Known limit: spans are recorded only in the process that installed the
wrappers.  If solves move into worker processes, their spans are lost to
the parent, and the solver numbers below read as zero.  Tracing inside the
program is the cure, and is not part of this benchmark.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, start_ns, end_ns, parent, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def call(self, name: str, fn, args, kwargs, annotate=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = self._new_id()
        if self.root is None:
            self.root = sid
        stack.append(sid)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            # a call that raised (a step hitting vacuum, say) keeps its span, without counts
            attrs = annotate(result) if annotate is not None and result is not None else {}
            self.spans.append([sid, name, start, end, parent, attrs])  # list.append is atomic

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _solve_attrs(report) -> dict:
    states = report.trajectory.states
    nbytes = sum(s.rho.values.nbytes + s.u.values.nbytes for s in states)
    return {"status": report.status, "states": len(states), "bytes": nbytes}


def _bary_attrs(result) -> dict:
    return {"iterations": result.iterations}


def install(tracer: Tracer) -> None:
    """Wrap the traced names; call once, before `nsuq.cli.main`."""
    from nsuq import experiments, solver, stats
    from nsuq.experiments import ExperimentReport
    from nsuq.mesh import Trajectory
    from nsuq.random_data import DistributionSpec

    def wrap(owner, attr: str, name: str, annotate=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, annotate)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    wrap(experiments, "solve", "solver.solve", _solve_attrs)
    wrap(solver, "step", "solver.step")
    wrap(solver, "cfl_dt", "solver.cfl_dt")
    wrap(solver, "total_energy", "physics.total_energy")
    wrap(experiments, "r_barycenter", "stats.r_barycenter", _bary_attrs)
    wrap(experiments, "empirical_functional_mean", "stats.functional_mean")
    wrap(experiments, "empirical_field_mean", "stats.field_mean")
    wrap(experiments, "boundedness_in_probability", "stats.boundedness")
    wrap(experiments, "convergence_in_probability_diagnostic", "stats.diagnostic")
    wrap(experiments, "energy_moment_bound", "stats.energy_moment")
    wrap(experiments, "trajectory_lq_distance", "mesh.lq_distance")
    wrap(stats, "trajectory_lq_distance", "mesh.lq_distance")
    wrap(Trajectory, "sample", "mesh.sample")
    wrap(experiments, "save_field", "mesh.save_field")
    wrap(experiments, "sample_latent", "random_data.sample_latent")
    wrap(experiments, "build_partition", "random_data.build_partition")
    wrap(experiments, "collocate_data", "random_data.collocate_data")
    wrap(DistributionSpec, "realize", "random_data.realize")
    wrap(ExperimentReport, "write", "experiments.write")


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process, on dumped spans)

# layer -> the per-layer metric holding its self time (physics and
# random_data spans have no traced children of another layer, so their
# total time is their self time)
SELF_METRICS = {
    "experiments": "experiments.self_s", "solver": "solver.self_s",
    "physics": "physics.total_energy_s", "random_data": "random_data.realize_s",
    "mesh": "mesh.self_s", "stats": "stats.self_s",
}


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced busy time."""
    selfs = {layer: metrics[name] for layer, name in SELF_METRICS.items()}
    total = sum(selfs.values())
    return {layer: v / total for layer, v in selfs.items()}


def _covered(intervals: list) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list) -> dict:
    """span id -> duration minus the part of it that child spans cover (ns)."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _covered([(s, e) for s, e in kids if e > s])
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced repetition (seconds, counts, ratios)."""
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp[1]].append(sp)
    byid = {sp[0]: sp for sp in spans}

    def dur_s(name):
        return sum(sp[3] - sp[2] for sp in by_name[name]) / 1e9

    def count(name):
        return len(by_name[name])

    selfs = self_times(spans)
    layer_self = defaultdict(float)
    for sp in spans:
        layer_self[sp[1].split(".")[0]] += selfs[sp[0]] / 1e9

    def outermost(sp, layer):
        parent = sp[4]
        while parent is not None:
            if byid[parent][1].startswith(layer + "."):
                return False
            parent = byid[parent][4]
        return True

    solves = by_name["solver.solve"]
    steps = count("solver.step")
    root = by_name["experiments.run"]
    rd = [sp for sp in spans if sp[1].startswith("random_data.")]
    m = {
        "solver.steps": steps,
        "solver.step_s": dur_s("solver.step"),
        "solver.step_ms": 1e3 * dur_s("solver.step") / steps if steps else 0.0,
        "solver.cfl_dt_s": dur_s("solver.cfl_dt"),
        "solver.solve_s": dur_s("solver.solve"),
        "solver.solve_calls": len(solves),
        "solver.completed_ratio": (
            sum(sp[5].get("status") == "completed" for sp in solves) / len(solves) if solves else 0.0
        ),
        "solver.self_s": layer_self["solver"],
        "physics.total_energy_s": dur_s("physics.total_energy"),
        "physics.total_energy_calls": count("physics.total_energy"),
        "mesh.trajectory_states": sum(sp[5].get("states", 0) for sp in solves),
        "mesh.trajectory_mb": sum(sp[5].get("bytes", 0) for sp in solves) / 2**20,
        "mesh.lq_distance_s": dur_s("mesh.lq_distance"),
        "mesh.lq_distance_calls": count("mesh.lq_distance"),
        "mesh.sample_s": dur_s("mesh.sample"),
        "mesh.sample_calls": count("mesh.sample"),
        "mesh.save_field_s": dur_s("mesh.save_field"),
        "mesh.self_s": layer_self["mesh"],
        "stats.barycenter_s": dur_s("stats.r_barycenter"),
        "stats.barycenter_iterations": sum(
            sp[5].get("iterations", 0) for sp in by_name["stats.r_barycenter"]
        ),
        "stats.diagnostic_s": dur_s("stats.diagnostic"),
        "stats.functional_mean_s": dur_s("stats.functional_mean"),
        "stats.field_mean_s": dur_s("stats.field_mean"),
        "stats.boundedness_s": dur_s("stats.boundedness"),
        "stats.energy_moment_s": dur_s("stats.energy_moment"),
        "stats.self_s": layer_self["stats"],
        "random_data.realize_s": sum(
            sp[3] - sp[2] for sp in rd if outermost(sp, "random_data")
        ) / 1e9,
        "random_data.calls": len(rd),
        "experiments.run_s": sum(sp[3] - sp[2] for sp in root) / 1e9,
        "experiments.self_s": sum(selfs[sp[0]] for sp in root) / 1e9,
        "experiments.write_s": dur_s("experiments.write"),
    }
    m["_solve_ms"] = [(sp[3] - sp[2]) / 1e6 for sp in solves]
    return m


def tail_percentile(values: list) -> tuple:
    """(label, value) of the highest percentile with at least ten samples
    beyond it; the median when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return "p50", float(np.median(values)) if n else float("nan")
    k = n - 11  # exactly ten samples lie above sorted(values)[k]
    return f"p{100 * (k + 1) / n:.0f}", float(sorted(values)[k])

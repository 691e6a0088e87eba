"""The nsuq benchmark: one workload, closed loop, one repetition at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's `src/nsuq`, imported afresh by every repetition.  The seed picks
the workload's generated config (workloads.py); the CLI receives only
that file.  Each repetition is a fresh interpreter running
`nsuq.cli.main([run-weak|run-strong, --config, ...])` (rep.py), and the
correctness gate (gate.py) checks its output directory.  Repetitions run
one after another until the next one would end after S seconds; at least
two run, so that their output digests can be compared.

--trace 0 reports the end-to-end metrics (median over the repetitions):
  wall_s        the cli.main call: member solves, statistics, report write
  setup_s       import nsuq.cli + ExperimentConfig.from_dict, fresh interpreter
  peak_rss_mb   ru_maxrss of the repetition's process
  member_ok_frac  members completed / members attempted
  run_ok_frac     repetitions passing exit code and gate / repetitions attempted
The last two are the complements of the failure fractions, which the
readable table also prints; the result line carries the never-zero form.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (tracing.py), the median over the
traced repetitions, plus trace.overhead_frac: traced minus untraced median
wall time, over the untraced one.

Human-readable tables and the environment record go to standard output;
the last line is the JSON result.  Work files live in `.perfbench-work/`
under the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s, however its repetitions behave
MIN_REPS = 2


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def environment() -> dict:
    """Machine and software record printed with every result."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": None,
        "src_sha256": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, idx)
            with open(os.path.join(base, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"l{level}_cache"] = size
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    env["src_sha256"] = gate.digest(os.path.join(ROOT, "src", "nsuq"), suffix=".py")
    return env


def _load_reference(name: str, seed: int, shrink: bool) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh)
    key = f"{workloads.variant_of(seed)}{'-shrunk' if shrink else ''}"
    return refs[name][key]


class Runner:
    """Runs repetitions of one workload config and gates each one."""

    def __init__(self, name: str, seed: int, shrink: bool, work: str):
        self.command, _ = workloads.WORKLOADS[name]
        self.config = workloads.build_config(name, seed, shrink)
        self.shape = workloads.expected_shape(self.config)
        self.reference = _load_reference(name, seed, shrink)
        self.work = work
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=1, sort_keys=True)
        self.run_id = f"{name}-seed{seed}"
        self.first_digest = None
        self.reps = []

    def rep(self, traced: bool, timeout: float) -> dict:
        k = len(self.reps)
        out = os.path.join(self.work, f"out{k}")
        result = os.path.join(self.work, f"result{k}.json")
        spans = os.path.join(self.work, f"spans{k}.json")
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--command", self.command,
               "--config", self.config_path, "--out", out,
               "--threads", str(self.config["threads"]), "--result", result]
        if traced:
            cmd += ["--spans", spans, "--run-id", f"{self.run_id}-rep{k}"]
        env = {key: v for key, v in os.environ.items() if key != "NSUQ_THREADS"}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
            rc, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stderr = -1, f"repetition timed out after {timeout:.0f} s"
        rec = {"traced": traced, "duration": time.monotonic() - start, "problems": [],
               "members": 0, "members_failed": 0}
        if rc != 0:
            rec["problems"].append(f"rep.py exited {rc}: {stderr.strip()[-500:]}")
        else:
            with open(result) as fh:
                rec.update(json.load(fh))
            if rec["exit_code"] != 0:
                rec["problems"].append(f"nsuq exited {rec['exit_code']}")
            else:
                self._gate(out, rec)
            if traced and not rec["problems"]:
                with open(spans) as fh:
                    rec["layers"] = tracing.layer_metrics(json.load(fh)["spans"])
                rec["layers"]["experiments.bytes_written"] = sum(
                    os.path.getsize(os.path.join(b, f)) for b, _, fs in os.walk(out) for f in fs
                )
        shutil.rmtree(out, ignore_errors=True)
        for path in (result, spans):
            if os.path.exists(path):
                os.remove(path)
        self.reps.append(rec)
        return rec

    def _gate(self, out: str, rec: dict) -> None:
        try:
            report = gate.load_report(out)
            rec["members"], rec["members_failed"] = gate.member_counts(report)
            rec["problems"] += gate.check(report, self.config, self.shape, self.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["problems"].append(f"unreadable report: {exc!r}")
            return
        d = gate.digest(out)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            rec["problems"].append("output digest differs from the first repetition's")


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _end_to_end(runner: Runner) -> tuple:
    reps = runner.reps
    ok = [r for r in reps if "wall_s" in r and not r["traced"]]
    members = sum(r["members"] for r in reps)
    metrics = {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "member_ok_frac": 1.0 - sum(r["members_failed"] for r in reps) / members if members else 0.0,
        "run_ok_frac": sum(not r["problems"] for r in reps) / len(reps),
    }
    lines = []
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        vals = sorted(r[name] for r in ok)
        spread = f"min {vals[0]:.4g}  max {vals[-1]:.4g}" if vals else ""
        lines.append(f"  {name:<18} {metrics[name]:>12.6g} {_unit(name):<6} "
                     f"median of n={len(vals)}  {spread}")
    lines.append(f"  {'member_fail_frac':<18} {1.0 - metrics['member_ok_frac']:>12.6g} ratio  "
                 f"of {members} members attempted")
    lines.append(f"  {'run_fail_frac':<18} {1.0 - metrics['run_ok_frac']:>12.6g} ratio  "
                 f"of {len(reps)} repetitions attempted")
    return metrics, lines


def _per_layer(runner: Runner) -> tuple:
    traced = [r for r in runner.reps if "layers" in r]
    plain = [r for r in runner.reps if not r["traced"] and "wall_s" in r]
    metrics, lines = {}, []
    if not traced:
        return metrics, lines
    names = [k for k in traced[0]["layers"] if k != "_solve_ms"]
    for name in names:
        metrics[name] = _median([r["layers"][name] for r in traced])
    solve_ms = [x for r in traced for x in r["layers"]["_solve_ms"]]
    label, tail = tracing.tail_percentile(solve_ms)
    metrics["solver.solve_p50_ms"] = _median(solve_ms)
    metrics["solver.solve_phi_ms"] = tail
    untraced = _median([r["wall_s"] for r in plain])
    metrics["trace.overhead_frac"] = (_median([r["wall_s"] for r in traced]) - untraced) / untraced
    for name in sorted(metrics):
        note = ""
        if name == "solver.solve_phi_ms":
            note = f"{label} of {len(solve_ms)} member solves"
        elif name == "solver.solve_p50_ms":
            note = f"of {len(solve_ms)} member solves"
        elif name == "mesh.trajectory_mb":
            note = "computed from array sizes"
        elif name != "trace.overhead_frac":
            note = f"median of n={len(traced)} traced repetitions"
        lines.append(f"  {name:<30} {metrics[name]:>14.6g} {_unit(name):<6} {note}")
    shares = tracing.layer_shares(metrics)
    lines.append("  self-time share by layer (of all traced busy time): " +
                 ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nsuq benchmark: one workload per invocation")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true",
                   help="cut-down ladders, as the self-test runs them")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nsuq", "cli.py")):
        print(f"perfbench: no nsuq sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(args.workload, args.seed, args.shrink, work)
        start = time.monotonic()

        def rep(traced):
            return runner.rep(traced, timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - start)))

        while True:
            if args.trace and rep(False)["problems"]:
                break
            last = rep(bool(args.trace))
            elapsed = time.monotonic() - start
            measured = [r for r in runner.reps if r["traced"] == bool(args.trace)]
            if last["problems"] or elapsed > RUN_LIMIT_S or (
                    len(measured) >= MIN_REPS and elapsed + last["duration"] > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    e2e, e2e_lines = _end_to_end(runner)
    failed = [r for r in runner.reps if r["problems"]]
    print(f"workload {args.workload}  seed {args.seed} (variant "
          f"{workloads.variant_of(args.seed)})  trace {args.trace}  "
          f"{len(runner.reps)} repetitions in {time.monotonic() - start:.1f} s")
    print("end-to-end:")
    print("\n".join(e2e_lines))
    if args.trace:
        metrics, lines = _per_layer(runner)
        print("per-layer:")
        print("\n".join(lines))
    else:
        metrics = e2e
    for k, r in enumerate(runner.reps):
        for problem in r["problems"]:
            print(f"FAILED repetition {k}: {problem}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    # a metric without samples (every repetition failed) reads null, not NaN
    values = {name: value if math.isfinite(value) else None for name, value in metrics.items()}
    print(json.dumps({
        "correct": not failed and bool(values) and None not in values.values(),
        "attempted": len(runner.reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs shrunk copies of the three workloads, untraced and traced, and
   checks that the result line names every metric BENCHMARK.json declares
   for that mode, with its unit, and that the runs pass their gate.
2. Checks that the correctness gate rejects a report with one statistic
   altered, a wrong exceedance fraction, a member that did not complete,
   and that the output digest sees a changed byte.
3. Checks that run.py, started in a directory holding only BENCHMARK.json
   and the benchmark's files, exits non-zero without printing a result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run_bench(cwd: str, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--shrink"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics(declared: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, f"{name} trace {trace}: result line ({proc.stderr[-300:]})")
                continue
            expect(proc.returncode == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{name} trace {trace}: correct run")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: every declared metric with its unit"
                   + ("" if got == want else f" (differs: {sorted(set(got.items()) ^ set(want.items()))})"))
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{name} trace {trace}: numeric values")


def check_gate(work: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nsuq import cli

    name, seed = "strong-1d-stats", 0
    config = workloads.build_config(name, seed, shrink=True)
    shape = workloads.expected_shape(config)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[name][f"{workloads.variant_of(seed)}-shrunk"]
    cfg_path, out = os.path.join(work, "config.json"), os.path.join(work, "out")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code = cli.main([workloads.WORKLOADS[name][0], "--config", cfg_path, "--out", out,
                     "--threads", "1"])
    report = gate.load_report(out)
    expect(code == 0 and gate.check(report, config, shape, reference) == [],
           "gate passes an unaltered report")

    bad = copy.deepcopy(report)
    fname = sorted(bad["levels"][0]["functional_means"])[0]
    bad["levels"][0]["functional_means"][fname] *= 1.01
    expect(gate.check(bad, config, shape, reference) != [],
           f"gate rejects functional mean {fname} altered by 1%")

    bad = copy.deepcopy(report)
    bad["levels"][-1]["barycenters"][-1]["objective"] *= 1.5
    expect(gate.check(bad, config, shape, reference) != [],
           "gate rejects a barycenter objective altered by 50%")

    bad = copy.deepcopy(report)
    exc = bad["levels"][0]["boundedness"]["exceedance"]
    exc[-1] = 1.0 - exc[-1]
    expect(gate.check(bad, config, shape, reference) != [], "gate rejects a changed exceedance")

    bad = copy.deepcopy(report)
    bad["levels"][0]["member_summaries"][0]["status"] = "aborted_vacuum"
    expect(gate.check(bad, config, shape, reference) != [],
           "gate rejects a member that did not complete")

    before = gate.digest(out)
    with open(os.path.join(out, "report.json"), "a") as fh:
        fh.write(" ")
    expect(gate.digest(out) != before, "output digest sees one added byte")


def check_bare_directory(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "weak-1d-mc", 0)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "run.py without program sources exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    work = os.path.join(ROOT, ".perfbench-work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        check_metrics(declared)
        check_gate(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

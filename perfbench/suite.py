"""Run every workload once and print one table, checking the workload claims.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

--trace 0 prints wall_s, setup_s, peak_rss_mb, member_fail_frac and
run_fail_frac per workload, with units and sample counts, and checks that
both failure fractions are 0 and that peak RSS is highest on
strong-2d-colloc.  --trace 1 prints the per-layer metrics and checks each
workload's stated reason against its self-time shares: the solver takes
most of the traced time on weak-1d-mc and strong-2d-colloc, and stats plus
mesh take more than the solver on strong-1d-stats.  --out writes the
results and the environment record as JSON.  Exits 1 when a run fails its
gate or a claim does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()

    results, env = {}, {}
    for name in workloads.WORKLOADS:
        results[name], env = run_one(name, args.seed, args.seconds, args.trace)

    problems = []
    for name, res in results.items():
        if not res["correct"]:
            problems.append(f"{name}: {res['failed']} of {res['attempted']} repetitions failed")
    if args.trace == 0:
        print(f"{'workload':<18} {'metric':<18} {'value':>12}  unit   samples")
        for name, res in results.items():
            m, n = res["metrics"], res["attempted"]
            for metric in ("wall_s", "setup_s", "peak_rss_mb"):
                print(f"{name:<18} {metric:<18} {_fmt(m[metric]['value']):>12}  "
                      f"{m[metric]['unit']:<6} median of n={n} repetitions")
            for ok, fail in (("member_ok_frac", "member_fail_frac"),
                             ("run_ok_frac", "run_fail_frac")):
                value = 1.0 - (m[ok]["value"] or 0.0)
                print(f"{name:<18} {fail:<18} {value:>12.6g}  ratio  over n={n} repetitions")
                if value != 0.0:
                    problems.append(f"{name}: {fail} is {value:g}")
        rss = {name: res["metrics"]["peak_rss_mb"]["value"] or 0.0 for name, res in results.items()}
        if max(rss, key=rss.get) != "strong-2d-colloc":
            problems.append(f"peak_rss_mb is not highest on strong-2d-colloc: {rss}")
    else:
        for name, res in results.items():
            print(f"{name}:")
            for metric, v in res["metrics"].items():
                print(f"  {metric:<30} {_fmt(v['value']):>14} {v['unit']}")
            if not res["correct"]:
                continue
            sh = tracing.layer_shares({k: v["value"] for k, v in res["metrics"].items()})
            print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in sh.items()))
            if name in ("weak-1d-mc", "strong-2d-colloc") and sh["solver"] <= 0.5:
                problems.append(f"{name}: solver share {sh['solver']:.1%} is not most of the run")
            if name == "strong-1d-stats" and sh["stats"] + sh["mesh"] <= sh["solver"]:
                problems.append(f"{name}: stats+mesh {sh['stats'] + sh['mesh']:.1%} does not "
                                f"exceed solver {sh['solver']:.1%}")
    print("env: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"CLAIM FAILED: {problem}")
    if not problems:
        print("all runs correct and all workload claims hold")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "env": env, "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

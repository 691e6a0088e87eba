"""Record the gate's reference statistics for every workload and variant.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload's config (default: every workload) (full and shrunk, all `workloads.VARIANTS`
variants) once in this process with the checkout's `src/nsuq`, and
rewrites their entries in reference.json.  Run it only at a commit whose numerics are
trusted; the gate then holds later commits to these values.  A variant
whose members come within 10% of an exceedance threshold is refused, so
that exact matching of the exceedance fractions stays fair.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from nsuq import cli  # noqa: E402


def record(name: str, seed: int, shrink: bool, work: str) -> dict:
    config = workloads.build_config(name, seed, shrink)
    cfg_path = os.path.join(work, "config.json")
    out = os.path.join(work, "out")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    command, _ = workloads.WORKLOADS[name]
    code = cli.main([command, "--config", cfg_path, "--out", out,
                     "--threads", str(config["threads"])])
    if code != 0:
        raise SystemExit(f"{name} seed {seed}: nsuq exited {code}")
    report = gate.load_report(out)
    shutil.rmtree(out)
    maxes = [m["max_linf"] for lvl in report["levels"] for m in lvl["member_summaries"]]
    for M in config["stats"]["M_grid"]:
        if any(0.9 * M <= x <= 1.1 * M for x in maxes):
            raise SystemExit(f"{name} seed {seed}: a member max norm lies within 10% of {M}")
    stats = gate.extract(report)
    problems = gate.check(report, config, workloads.expected_shape(config), stats)
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems}")
    return stats


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = os.path.join(HERE, "reference.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    work = os.path.join(ROOT, ".perfbench-work", f"record-{os.getpid()}")
    os.makedirs(work)
    try:
        for name in names:
            refs[name] = {}
            for variant in range(workloads.VARIANTS):
                for shrink in (False, True):
                    key = f"{variant}{'-shrunk' if shrink else ''}"
                    refs[name][key] = record(name, variant, shrink, work)
                    print(name, key, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition in a fresh interpreter: set up, run `nsuq.cli.main`, report.

    python3 perfbench/rep.py --command run-weak --config CFG --out DIR \
        --threads N --result RESULT.json [--spans SPANS.json --run-id ID]

Set-up time is the import of `nsuq.cli` plus `ExperimentConfig.from_dict`
on the config, measured before anything else is imported.  Wall time is
the `cli.main` call alone.  Peak RSS is this process's `ru_maxrss`.  With
`--spans`, the traced names are wrapped first (see tracing.py) and the
spans are written out after the run.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--command", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("--run-id", default="")
    args = p.parse_args()

    t0 = time.perf_counter()
    from nsuq import cli
    from nsuq.experiments import ExperimentConfig

    with open(args.config) as fh:
        ExperimentConfig.from_dict(json.load(fh))
    setup_s = time.perf_counter() - t0

    argv = [args.command, "--config", args.config, "--out", args.out, "--threads", args.threads]
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    t1 = time.perf_counter()
    if tracer is not None:
        code = tracer.call("experiments.run", cli.main, (argv,), {})
    else:
        code = cli.main(argv)
    wall_s = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    with open(args.result, "w") as fh:
        json.dump({"exit_code": code, "setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": rss_mb}, fh)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark: `divsim run` and `divsim queue` end to end, and a
separate traced run split by layer.

    python3 divbench/run.py --workload expander-reduce --seed 1 \
        --seconds 30 --trace 0

Builds the library and `divsim` in Release from this checkout (into
.bench_build/), then runs one workload of BENCHMARK.json (its command and
sizes are in catalog.WORKLOADS):

  --trace 0  drives the shipped `divsim` binary, untraced, for --seconds
             and reports every end-to-end metric;
  --trace 1  runs layer_trace, which replays the workload's inputs
             through the library with spans at each layer boundary, and
             reports every per-layer metric.

Every metric is printed by name with its unit and sample count, then a
JSON object on the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full result with provenance goes to .bench_build/results/.  The exit
status is 0 when every output check passed, 1 when one missed, 2 when the
benchmark could not run (for example without src/ to build from).

The self-tests are `python3 -m unittest discover -s divbench -p 'test_*.py'`.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the benchmark's sources

import build  # noqa: E402
import catalog  # noqa: E402
import e2e  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402

ROOT = os.path.dirname(HERE)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = catalog.WORKLOADS[args.workload]
    threads = min(catalog.MAX_THREADS, len(os.sched_getaffinity(0)))
    # The compiler's and every child's temporary files stay in the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binaries = build.build(ROOT, threads)
    except build.BuildError as error:
        print("divbench: %s" % error, file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    load_before = os.getloadavg()
    started = time.perf_counter()
    if args.trace:
        tally = stats.Tally()
        try:
            metrics, samples = trace.traced_workload(
                w, binaries["layer_trace"], binaries["divsim"], threads,
                args.seed, scratch, tally)
        except RuntimeError as error:
            print("divbench: %s" % error, file=sys.stderr)
            return 2
        reported = bench["per_layer"]
    else:
        driver = e2e.queue_workload if w["kind"] == "queue" else \
            e2e.run_workload
        metrics, samples, tally = driver(w, binaries["divsim"], threads,
                                         args.seed, args.seconds, scratch)
        metrics["ok_share"] = 1.0 - tally.error_rate
        samples["ok_share"] = "%d attempted" % tally.attempted
        reported = bench["end_to_end"]
    elapsed = time.perf_counter() - started
    shutil.rmtree(scratch, ignore_errors=True)

    provenance = build.provenance(ROOT, args.seed, threads, load_before)
    print("divbench %s seed %d trace %d: %.1f s, T=%d, %s %s build, load "
          "%.2f -> %.2f on %d CPU(s)%s" % (
              args.workload, args.seed, args.trace, elapsed, threads,
              provenance["codegen"], provenance["build_type"],
              provenance["load_avg_before"][0],
              provenance["load_avg_after"][0], provenance["nproc"],
              "" if provenance["baseline_fit"]
              else " -- UNFIT FOR A BASELINE (load above nproc)"))
    for m in reported:
        print("  %-40s %14.6g %-8s (n=%s)" % (m["name"], metrics[m["name"]],
                                               m["unit"], samples[m["name"]]))
    if not args.trace:
        print("  %-40s %14.6g %-8s (%d failed of %d attempted)" % (
            "error_rate", tally.error_rate, "share", tally.failed,
            tally.attempted))
    for miss in tally.misses:
        print("  CHECK MISSED: %s" % miss)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in reported},
    }
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, provenance=provenance, samples=samples,
                       misses=tally.misses), f)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

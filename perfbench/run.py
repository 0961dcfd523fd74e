#!/usr/bin/env python3
"""BClean benchmark: one command per workload, timed or traced.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30

Run from the repository root. It builds perfbench/ (Release, against the
repository's own CMakeLists.txt) under $CARGO_TARGET_DIR or .bench_build/,
writes the workload's inputs for --seed, runs the measured process for
--seconds, checks its outputs, computes repair F1 from the written files,
prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 splits --seconds
between an untraced run and a traced run of the same inputs and reports the
per-layer metrics of the traced one, its span coverage and its overhead
against the untraced one. The exit code is 0 only when every operation
succeeded and every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-batch", "interactive", "out-of-core")

END_TO_END = [
    ("setup_s", "s"),
    ("open_s", "s"),
    ("clean_s", "s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("data.csv_read_s", "s"),
    ("data.csv_write_s", "s"),
    ("data.dict_build_s", "s"),
    ("data.dict_values", "count"),
    ("uc.mask_build_s", "s"),
    ("compensatory.build_s", "s"),
    ("fdx.sim_obs_s", "s"),
    ("fdx.sim_calls", "count"),
    ("fdx.learn_s", "s"),
    ("fdx.edges", "count"),
    ("bn.fit_s", "s"),
    ("engine.clean_s", "s"),
    ("engine.cells_scanned", "count"),
    ("engine.cells_inferred", "count"),
    ("engine.cells_skipped_by_filter", "count"),
    ("engine.candidates_evaluated", "count"),
    ("engine.cells_changed", "count"),
    ("engine.ns_per_candidate", "ns"),
    ("engine.filter_skip_ratio", "ratio"),
    ("engine.repair_yield", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("service.digest_s", "s"),
    ("service.open_other_s", "s"),
    ("service.parts_layers_reused", "count"),
    ("service.edit_s", "s"),
    ("service.update_s", "s"),
    ("service.incremental_share", "ratio"),
    ("service.dispatch_wait_ms", "ms"),
    ("shard.source_s", "s"),
    ("shard.chunks", "count"),
    ("shard.spill_bytes", "bytes"),
    ("shard.peak_resident_bytes", "bytes"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("edit_samples", "count"),
    ("undo_p50_ms", "ms"),
    ("undo_p90_ms", "ms"),
    ("undo_samples", "count"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("update_samples", "count"),
    ("trace.open_coverage", "ratio"),
    ("trace.clean_coverage", "ratio"),
    ("trace.open_overhead", "ratio"),
    ("trace.clean_overhead", "ratio"),
    ("failed_share", "ratio"),
]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# Share of open_s / clean_s that the traced run's spans and pass timers
# account for, per workload.
COVERAGE = {
    "paper-batch": (
        lambda m: ratio(m["open_s"] - m["service.open_other_s"], m["open_s"]),
        lambda m: ratio(m["engine.clean_s"] + m["data.csv_write_s"],
                        m["clean_s"]),
    ),
    "interactive": (
        lambda m: ratio(m["service.edit_s"] + m["service.update_s"],
                        m["open_s"]),
        lambda m: ratio(m["engine.clean_s"], m["clean_s"]),
    ),
    # CleanToCsv returns no pass counters, so only the source drain (the
    # parse share of OpenSharded) is covered.
    "out-of-core": (
        lambda m: ratio(m["shard.source_s"], m["open_s"]),
        lambda m: 0.0,
    ),
}


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the BClean sources (CMakeLists.txt, src/) are not next to "
            "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt or the set of sources changes.
        commands.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"])
    for command in commands:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build failed: " + " ".join(command))
    return os.path.join(build_dir, "perfbench")


def measure(exe, workload, input_dir, output_dir, seconds, trace):
    os.makedirs(output_dir)
    done = subprocess.run(
        [exe, "run", "--workload", workload, "--in", input_dir, "--out",
         output_dir, "--seconds", repr(seconds), "--trace", str(trace)],
        stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("measured process failed (exit %d)" % done.returncode)
    with open(os.path.join(output_dir, "result.json")) as f:
        result = json.load(f)
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def repair_f1(exe, result):
    """Mean streamed F1 over the run's (clean, dirty, cleaned) files."""
    triples = [path for job in result["f1_jobs"] for path in job]
    done = subprocess.run([exe, "f1"] + triples, stdout=subprocess.PIPE,
                          stderr=sys.stderr, universal_newlines=True)
    result["attempted"] += 1
    if done.returncode != 0:
        result["failed"] += 1
        result["failures"].append("f1 evaluation failed")
        return 0.0, []
    report = json.loads(done.stdout)
    return report["f1"], report["jobs"]


def show(name, value, unit):
    print("%-34s %16.6f %s" % (name, value, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    exe = build(os.path.join(target, "perfbench"))
    # Only the latest run of a workload is kept, for inspection (spans.json,
    # cleaned CSVs); disk use stays bounded over many seeds.
    work = os.path.join(target, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    input_dir = os.path.join(work, "in")
    os.makedirs(input_dir)
    done = subprocess.run([exe, "gen", "--workload", args.workload, "--seed",
                           str(args.seed), "--in", input_dir],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("input generation failed")

    seconds = args.seconds / 2 if args.trace else args.seconds
    timed = measure(exe, args.workload, input_dir, os.path.join(work, "timed"),
                    seconds, 0)
    f1, f1_jobs = repair_f1(exe, timed)
    timed["metrics"]["f1"] = f1
    runs = [timed]
    if args.trace:
        traced = measure(exe, args.workload, input_dir,
                         os.path.join(work, "traced"), seconds, 1)
        runs.append(traced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print("workload %s, seed %d, %d timed reps%s" % (
        args.workload, args.seed, timed["reps"],
        ", %d traced reps" % runs[1]["reps"] if args.trace else ""))
    for job in f1_jobs:
        print("  f1 %.4f  %s (%d errors, %d modified, %d correct repairs, "
              "%d repaired errors)" % (
                  job["f1"], os.path.basename(job["cleaned"]), job["errors"],
                  job["modified"], job["correct_repairs"],
                  job["repaired_errors"]))
    for note in runs[-1]["notes"]:
        print("  " + note)
    for run in runs:
        for failure in run["failures"]:
            print("  FAILED: " + failure)

    if args.trace:
        layer = dict(traced["metrics"])
        open_cov, clean_cov = COVERAGE[args.workload]
        layer["trace.open_coverage"] = open_cov(layer)
        layer["trace.clean_coverage"] = clean_cov(layer)
        layer["trace.open_overhead"] = ratio(
            layer["open_s"] - timed["metrics"]["open_s"],
            timed["metrics"]["open_s"])
        layer["trace.clean_overhead"] = ratio(
            layer["clean_s"] - timed["metrics"]["clean_s"],
            timed["metrics"]["clean_s"])
        layer["failed_share"] = ratio(failed, attempted)
        print("traced run: open_s %.4f s, clean_s %.4f s (untraced %.4f s, "
              "%.4f s)" % (layer["open_s"], layer["clean_s"],
                           timed["metrics"]["open_s"],
                           timed["metrics"]["clean_s"]))
        chosen = PER_LAYER
        values = layer
    else:
        chosen = END_TO_END
        values = timed["metrics"]
    metrics = {}
    for name, unit in chosen:
        value = values.get(name, 0.0)  # a layer the workload never reaches
        metrics[name] = {"value": value, "unit": unit}
        show(name, value, unit)
    print("failed_share %d / %d = %.6f" % (failed, attempted,
                                            ratio(failed, attempted)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()

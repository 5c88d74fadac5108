#!/usr/bin/env python3
"""GreenNFV end-to-end scenario benchmark.

    python3 perfbench/run.py --workload replay-churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the harness (perfbench/CMakeLists.txt compiles the GreenNFV libraries
from this source tree) into $CARGO_TARGET_DIR, or .bench_build when unset,
runs one workload for --seconds, checks every operation's outputs and prints
one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, from
untraced operations; --trace 1 reports its per-layer metrics, from traced
ones. Why each workload exists and which end-to-end metric each layer
metric should move (or leave alone) is recorded in perfbench/predictions.json.

--selftest checks that the layer wrappers are transparent, runs every
workload at a tiny size on two seeds with and without tracing, and checks
that BENCHMARK.json, predictions.json and the harness name the same metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay-churn", "trained-smoke", "fabric-build", "campaign-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures once, then builds incrementally; returns the harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no GreenNFV source tree at {ROOT}")
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "greennfv_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return out / "greennfv_perfbench"


def run_harness(binary, args):
    """Runs the harness in a scratch directory; returns its records."""
    workdir = build_root() / "work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run([str(binary), *args, f"workdir={workdir}"],
                              cwd=workdir, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    ops, run = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("@op "):
            ops.append(json.loads(line[4:]))
        elif line.startswith("@run "):
            run = json.loads(line[5:])
    if proc.returncode != 0 or run is None or not ops:
        raise BenchError(f"harness {' '.join(args)} exited "
                         f"{proc.returncode} without a complete record")
    return ops, run


def reduce(ops, run, spec, trace):
    """Medians over operations. A check failure, or a digest that differs
    between repeats of the same inputs, fails the operation."""
    digest = ops[0]["digest"]
    failed = 0
    for op in ops:
        for failure in op["failures"]:
            log(f"check failed: {failure}")
        if op["digest"] != digest:
            log("sim_digest differs between repeats of the same inputs")
        if op["failures"] or op["digest"] != digest:
            failed += op["units"]
    measured = [op for op in ops if not op["warmup"]] or ops
    if trace:
        wanted = spec["per_layer"]
        traced = [op for op in measured if op["traced"]]
        values = {m["name"]: statistics.median(op["layers"][m["name"]]
                                               for op in traced)
                  for m in wanted
                  if traced and all(m["name"] in op["layers"]
                                    for op in traced)}
    else:
        wanted = spec["end_to_end"]
        rates = [op["node_windows"] / op["sim_stage_s"] for op in measured
                 if op["sim_stage_s"] > 0]
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in measured),
            "setup_s": statistics.median(op["setup_s"] for op in measured),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        if rates:
            values["node_windows_per_s"] = statistics.median(rates)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError(f"the harness gave no {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    return {"correct": failed == 0,
            "attempted": sum(op["units"] for op in ops),
            "failed": failed, "metrics": metrics}


def selftest(binary, spec):
    problems = []
    proc = subprocess.run([str(binary), "selftest=1"], capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    print(proc.stdout, end="")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        problems.append("the wrapped roster is not bit-identical")

    predictions = load_json(HERE / "predictions.json")
    layer_names = {m["name"] for m in spec["per_layer"]}
    predicted = {p["layer"] for p in predictions["predictions"]}
    if layer_names != predicted:
        problems.append("predictions.json and BENCHMARK.json per_layer differ:"
                        f" {sorted(layer_names ^ predicted)}")
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(WORKLOADS) or \
            sorted(predictions["workloads"]) != sorted(WORKLOADS):
        problems.append("workload lists differ between run.py, BENCHMARK.json"
                        " and predictions.json")

    for workload in WORKLOADS:
        digests = {}
        for seed in (1, 2):
            for trace in (0, 1):
                ops, run = run_harness(binary, [
                    f"workload={workload}", f"seed={seed}", "seconds=0",
                    f"trace={trace}", "size=tiny"])
                result = reduce(ops, run, spec, trace == 1)
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed} trace {trace}:"
                                    " checks failed")
                digests.setdefault(seed, set()).update(
                    op["digest"] for op in ops)
        if any(len(d) != 1 for d in digests.values()):
            problems.append(f"{workload}: traced and untraced outputs differ")
        elif digests[1] == digests[2]:
            problems.append(f"{workload}: the seed does not change the inputs")
        print(f"selftest: {workload}: seeds 1 and 2, trace 0 and 1 checked")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="GreenNFV end-to-end scenario benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        binary = build()
        if args.selftest:
            return selftest(binary, spec)
        ops, run = run_harness(binary, [
            f"workload={args.workload}", f"seed={args.seed}",
            f"seconds={args.seconds}", f"trace={args.trace}"])
        result = reduce(ops, run, spec, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        return 2

    print(f"{args.workload} seed {args.seed}: {len(ops)} operation(s),"
          f" sim_digest {ops[0]['digest']}")
    for name, value in ops[0]["sims"].items():
        print(f"  {name} = {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the two-clock benchmark of the Chiller reproduction.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR] [--verify]

Configures and builds build-benchmark/ (Release) from benchmark/CMakeLists.txt,
then runs each workload in its own process. Every metric is printed as a
`name value unit` line, DIR/results.json gets the metrics, their sample counts,
the seed and a host block, and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from an added traced run); without --trace both are reported.
--verify adds the self-tests (see README.md). The exit code is 0 only when
every output check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "chiller_benchmark")
WORKLOADS = ["tpcc-chiller", "tpcc-2pl-sharded", "ycsb-open", "relayout-shift"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: the Chiller sources (CMakeLists.txt, src/) are not next "
            "to benchmark/; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "chiller_benchmark"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, args, out_dir):
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace_run),
           "--out", out_dir]
    if args.verify:
        cmd.append("--verify")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {name} exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def check(result, spec, groups, trace_path):
    """Output checks on top of the binary's own: every declared metric is
    present, and (--verify with a traced run) the trace loads."""
    failures = list(result["failures"])
    for group in groups:
        for metric in spec[group]:
            if metric["name"] not in result[group]:
                failures.append(f"{group} metric {metric['name']} missing")
    if trace_path is not None:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                failures.append("trace has no events")
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"trace {trace_path} does not load: {e}")
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--out", default=os.path.join(BUILD, "out"))
    p.add_argument("--verify", action="store_true")
    args = p.parse_args()

    if not build():
        return 2
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace == 0:
        groups = ["end_to_end"]
    elif args.trace == 1:
        groups = ["per_layer"]
    else:
        groups = ["end_to_end", "per_layer"]
    # The traced repetition runs whenever per-layer metrics are wanted or
    # --verify must check the trace.
    args.trace_run = 0 if groups == ["end_to_end"] and not args.verify else 1

    names = [args.workload] if args.workload else WORKLOADS
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    metrics = {}
    attempted = failed = 0
    all_failures = []
    for name in names:
        log(f"run.py: running {name} (seed {args.seed})")
        result = run_workload(name, args, out_dir)
        if result is None:
            return 1
        trace_path = os.path.join(out_dir, name + ".trace.json") \
            if args.verify else None
        failures = check(result, spec, groups, trace_path)
        selected = {}
        for group in groups:
            for metric in spec[group]:
                m = result[group].get(metric["name"])
                if m is not None:
                    selected[metric["name"]] = m
        for metric, m in selected.items():
            label = metric if args.workload else f"{name}/{metric}"
            print(f"{label} {m['value']!r} {m['unit']}")
            metrics[label] = m
        attempted += result["attempted"]
        failed += result["failed"]
        all_failures += [f"{name}: {f}" for f in failures]
        report["workloads"][name] = {
            "correct": not failures, "failures": failures,
            "runs": result["runs"], "samples": result["samples"],
            "wall_clock": result["wall_clock"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": selected}
        report["host"] = result["build"]
    report["host"]["git_commit"] = git_commit()
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for failure in all_failures:
        log("run.py: check failed: " + failure)
    print(json.dumps({"correct": not all_failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not all_failures else 1


if __name__ == "__main__":
    sys.exit(main())

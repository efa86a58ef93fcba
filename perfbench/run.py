#!/usr/bin/env python3
"""Builds and runs the mivid benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
library, mivid_cli and the perfbench binary (Release) into
.bench_build/; later runs rebuild incrementally. perfbench's REPORT line
(machine stamp, operations per command, the workload's own metric names)
is printed, and the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--smoke runs every workload, untraced and traced, with the minimum of
work, and fails unless every run is correct with no failed operation.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
# The workloads BENCHMARK.json gates, then those that run only by name
# (see perfbench/README.md, "Held-out workloads").
WORKLOADS = ["paper_loop", "retrieval_sessions", "serve_sessions",
             "ingest_live", "fleet_multicam"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        build_type = ""
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        sys.exit("perfbench: refusing an unoptimized build (%r)" % build_type)
    return BUILD


def kill_leftovers(work_dir):
    """SIGKILLs any process still running from this run's scratch tree."""
    needle = work_dir.encode()
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                if needle in f.read():
                    os.kill(int(pid), signal.SIGKILL)
        except OSError:
            pass


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (perfbench stdout lines, result dict)."""
    build_dir = build()
    work_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", os.path.join(build_dir, "mivid_cli"),
           "--work-dir", work_dir]
    # Start every run from a clean disk: the build's and earlier runs'
    # dirty pages would otherwise be written back during the window, and
    # the workloads' journals and segments share that disk.
    os.sync()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % workload)
    finally:
        kill_leftovers(work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(result["metrics"]) ^ expected))
    return lines, result


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run(workload, 0, 0, trace)
            zero = [name for name, m in result["metrics"].items()
                    if m["value"] == 0] if not trace else []
            good = (result["correct"] and result["failed"] == 0 and not zero)
            log("smoke %-18s trace=%d correct=%s attempted=%d failed=%d%s" %
                (workload, trace, result["correct"], result["attempted"],
                 result["failed"], " zero=%s" % zero if zero else ""))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

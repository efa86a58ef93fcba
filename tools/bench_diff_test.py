#!/usr/bin/env python3
"""Checks tools/bench_diff.py's gates on synthetic reports.

    python3 tools/bench_diff_test.py

Wall-clock changes inside the threshold must pass (exit 0); any change in
an exact counter (accuracy per round, SMO iterations, support vectors),
or one missing from a report, must fail (exit 1) even when no time moved.
A row one report records as skipped is not compared at all.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def report(end_to_end_ms, gram_us, threads8=None, **counters):
    """A two-row report; `threads8` adds an 8-thread row carrying exact
    counters: "ran", or an error message it failed with."""
    pipeline = {"name": "BM_EndToEndPipeline", "run_type": "iteration",
                "real_time": end_to_end_ms, "time_unit": "ms",
                "acc20_round0": 0.6, "acc20_round1": 0.75,
                "smo_iterations": 20.0, "support_vectors": 8.0}
    pipeline.update(counters)
    pipeline = {k: v for k, v in pipeline.items() if v is not None}
    gram = {"name": "BM_GramMatrix/64", "run_type": "iteration",
            "real_time": gram_us, "time_unit": "us"}
    rows = [pipeline, gram]
    if threads8 is not None:
        row = {"name": "BM_EndToEndPipelineThreads/threads:8",
               "run_type": "iteration", "time_unit": "ms"}
        if threads8 == "ran":
            row.update({"real_time": end_to_end_ms, "smo_iterations": 20.0})
        else:
            row.update({"real_time": 0.0, "error_occurred": True,
                        "error_message": threads8})
        rows.append(row)
    return {"context": {}, "benchmarks": rows}


def exit_code(base, cand, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("base.json", base), ("cand.json", cand)):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, BENCH_DIFF, *flags, *paths],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main():
    base = report(100.0, 50.0)
    base8 = report(100.0, 50.0, threads8="ran")
    skip8 = "skipped: 8 threads > nproc 4"
    cases = [
        ("identical reports", report(100.0, 50.0), [], 0),
        ("times within the threshold", report(105.0, 20.0), [], 0),
        ("time beyond the threshold", report(100.0, 60.0), [], 1),
        ("same time beyond a wider threshold", report(100.0, 60.0),
         ["--threshold", "0.5"], 0),
        ("accuracy of one round changed", report(100.0, 50.0,
                                                 acc20_round1=0.8), [], 1),
        ("SMO iterations changed", report(100.0, 50.0, smo_iterations=21.0),
         ["--threshold", "0.5"], 1),
        ("support vectors changed", report(100.0, 50.0,
                                           support_vectors=7.0), [], 1),
        ("counter missing from the candidate",
         report(100.0, 50.0, acc20_round1=None), [], 1),
        ("counter new in the candidate",
         report(100.0, 50.0, acc20_round2=0.75), [], 1),
    ]
    # (label, baseline, candidate, flags, expected exit)
    cases = [(label, base, cand, flags, want)
             for label, cand, flags, want in cases]
    cases += [
        ("row with counters skipped in the candidate", base8,
         report(100.0, 50.0, threads8=skip8), [], 0),
        ("row with counters skipped in the baseline",
         report(100.0, 50.0, threads8=skip8), base8, [], 0),
        ("row with counters failing in the candidate", base8,
         report(100.0, 50.0, threads8="Learn failed"), [], 1),
    ]
    failures = 0
    for label, base_report, cand, flags, want in cases:
        got = exit_code(base_report, cand, *flags)
        if got != want:
            print(f"FAIL {label}: exit {got}, want {want}")
            failures += 1
        else:
            print(f"ok   {label}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

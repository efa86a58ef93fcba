#!/usr/bin/env python3
"""Compares two google-benchmark JSON reports (BENCH_micro.json).

Prints a per-benchmark table of baseline vs candidate times and flags
regressions beyond a threshold. Intended for PR review and CI:

    tools/bench_diff.py BENCH_micro.base.json BENCH_micro.json
    tools/bench_diff.py --threshold 0.15 old.json new.json

Wall-clock times are noisy, so they only fail beyond the threshold. The
deterministic quality counters (EXACT_COUNTERS: per-round accuracy@20,
SMO iterations, support vectors) are not noisy: any change in them, or a
counter present in only one report, fails the diff whatever the
threshold.

A row micro_perf skipped (error_occurred with a "skipped: ..." message,
e.g. a *Threads row asking for more threads than nproc) measured nothing:
it is listed as skipped and neither its time nor its counters are
compared, whichever report skipped it. Other errored rows are compared as
before, so a benchmark that fails still loses its exact counters.

Exit status: 0 when no benchmark regressed more than the threshold and
no exact counter changed, 1 otherwise, 2 on malformed input. Aggregate
entries (mean/median/stddev rows emitted with --benchmark_repetitions)
are skipped; only raw iterations are compared. Benchmarks present in
only one report are listed but never fail the check (they are new or
retired, not slower).
"""

import argparse
import json
import re
import sys

# Counters a deterministic run reproduces bit for bit.
EXACT_COUNTERS = re.compile(r"^(acc20_round\d+|smo_iterations|support_vectors)$")


def skip_message(entry):
    """The message of a recorded skip, or None for a measured row."""
    message = entry.get("error_message", "")
    if entry.get("error_occurred") and message.startswith("skipped"):
        return message
    return None


def load_benchmarks(path):
    """Returns ({name: (real_time, time_unit, exact_counters)} for raw
    benchmark entries, {name: message} for skipped ones)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    out = {}
    skipped = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregates
        name = entry.get("name")
        time = entry.get("real_time")
        if name is not None and skip_message(entry) is not None:
            skipped[name] = skip_message(entry)
            continue
        if name is None or time is None:
            continue
        counters = {key: value for key, value in entry.items()
                    if EXACT_COUNTERS.match(key)}
        out[name] = (float(time), entry.get("time_unit", "ns"), counters)
    if not out:
        print(f"error: no benchmark entries in {path}", file=sys.stderr)
        sys.exit(2)
    return out, skipped


def build_context(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f).get("context", {})
    except (OSError, json.JSONDecodeError):
        return {}


def main():
    parser = argparse.ArgumentParser(
        description="diff two google-benchmark JSON reports")
    parser.add_argument("baseline", help="baseline report (old)")
    parser.add_argument("candidate", help="candidate report (new)")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative slowdown that counts as a regression "
             "(default 0.10 = 10%%)")
    args = parser.parse_args()

    base, base_skipped = load_benchmarks(args.baseline)
    cand, cand_skipped = load_benchmarks(args.candidate)
    # A row skipped in either report is compared in neither.
    skipped = {name: f"skipped in baseline ({message})"
               for name, message in base_skipped.items()}
    skipped.update({name: f"skipped in candidate ({message})"
                    for name, message in cand_skipped.items()})
    base = {n: v for n, v in base.items() if n not in skipped}
    cand = {n: v for n, v in cand.items() if n not in skipped}

    for path in (args.baseline, args.candidate):
        build = build_context(path).get("mivid_build")
        if build is not None and build != "optimized":
            print(f"warning: {path} was recorded from an unoptimized "
                  "binary; the comparison is not meaningful",
                  file=sys.stderr)

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    width = max((len(n) for n in shared), default=20)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'delta':>8}")
    regressions = []
    counter_changes = []
    for name in shared:
        old, old_unit, old_counters = base[name]
        new, new_unit, new_counters = cand[name]
        if old_unit != new_unit:
            print(f"error: {name}: time_unit changed "
                  f"({old_unit} -> {new_unit})", file=sys.stderr)
            sys.exit(2)
        ratio = (new - old) / old if old > 0 else 0.0
        flag = ""
        if ratio > args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, ratio))
        elif ratio < -args.threshold:
            flag = "  improved"
        print(f"{name:<{width}}  {old:>10.1f}{old_unit:>2}  "
              f"{new:>10.1f}{new_unit:>2}  {ratio:>+7.1%}{flag}")
        for counter in sorted(set(old_counters) | set(new_counters)):
            before = old_counters.get(counter)
            after = new_counters.get(counter)
            if before != after:
                counter_changes.append((name, counter, before, after))
                print(f"  {counter}: {before} -> {after}  COUNTER CHANGED")

    for name in only_base:
        print(f"{name:<{width}}  (removed)")
    for name in only_cand:
        print(f"{name:<{width}}  (new)")
    for name in sorted(skipped):
        print(f"{name:<{width}}  ({skipped[name]})")

    if counter_changes:
        print(f"\n{len(counter_changes)} exact counter(s) changed:",
              file=sys.stderr)
        for name, counter, before, after in counter_changes:
            print(f"  {name} {counter}: {before} -> {after}", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:+.1%}", file=sys.stderr)
    if counter_changes or regressions:
        sys.exit(1)
    print(f"\nno regression beyond {args.threshold:.0%} "
          f"({len(shared)} compared)")


if __name__ == "__main__":
    main()

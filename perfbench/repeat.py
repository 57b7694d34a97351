#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints every
end-to-end metric's median, quartiles and min/max beside its bound.

    python3 perfbench/repeat.py --workload serve-ingest --runs 10 \\
        --log set1.jsonl
    python3 perfbench/repeat.py --workload serve-ingest --first-seed 11 \\
        --log set2.jsonl --against set1.jsonl

Every run lasts run_seconds from BENCHMARK.json. The spread column is
(Q3 - Q1) / median, with the quartiles taken as Python's
statistics.quantiles(values, n=4) gives them. It is what a bound in
BENCHMARK.json has to cover: a metric is marked "wide" when its spread
exceeds a third of its bound and "OVER" when it exceeds the bound. Each
run's host steal share (the part of the host's CPU time the hypervisor
gave to others while the run measured) is printed beside it: steal moves
every latency of a run together, so a set whose steal differs from
another's is not comparable with it.

--against LOG compares this set's medians with those of an earlier set
kept with --log: "REGRESSED" marks a metric whose median is worse than
the earlier one's by more than its bound. Also prints the share of failed
operations of every run, which must be the same in all of them.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEAL = re.compile(r"^perfbench: host steal ([0-9.]+)%")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    """Returns (result, steal percent or None), or None when the run fails."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    steal = None
    for line in lines:
        m = STEAL.match(line)
        if m:
            steal = float(m.group(1))
    return json.loads(lines[-1]), steal


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3


def load_log(path, workload):
    values, steals = {}, []
    with open(path) as f:
        for line in f:
            entry = json.loads(line)
            if entry["workload"] != workload:
                continue
            for name, m in entry["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if entry.get("steal_pct") is not None:
                steals.append(entry["steal_pct"])
    return values, steals


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--log", default=None,
                        help="append each run's result line to this file")
    parser.add_argument("--against", default=None,
                        help="a --log file of an earlier set to compare with")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values, shares, steals = {}, [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        got = run_once(args.workload, seed, seconds)
        if got is None:
            print("seed %d: run failed" % seed)
            return 1
        result, steal = got
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "steal_pct": steal,
                                    "result": result}) + "\n")
        shares.append(result["failed"] / result["attempted"])
        if steal is not None:
            steals.append(steal)
        print("seed %d: correct=%s attempted=%d failed=%d steal=%s" %
              (seed, result["correct"], result["attempted"], result["failed"],
               "?" if steal is None else "%.1f%%" % steal), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-22s %11s %11s %11s %11s %11s %7s %5s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, m in metrics.items():
        v = values.get(name)
        if not v:
            print("%-22s missing" % name)
            continue
        med, q1, q3 = summary(v)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "OVER" if spread > m["bound"] else (
            "wide" if spread > m["bound"] / 3 else "")
        print("%-22s %11.5g %11.5g %11.5g %11.5g %11.5g %7.3f %5.2f %s" %
              (name, med, q1, q3, min(v), max(v), spread, m["bound"], flag))
    extra = sorted(set(values) - set(metrics))
    if extra:
        print("not in BENCHMARK.json: %s" % ", ".join(extra))
    if steals:
        print("\nhost steal %%: median %.1f, min %.1f, max %.1f" %
              (statistics.median(steals), min(steals), max(steals)))
    print("failed share per run: %s" % sorted(set(shares)))

    if args.against:
        before, before_steals = load_log(args.against, args.workload)
        print("\n%-22s %11s %11s %8s %5s   (against %s)" %
              ("metric", "earlier", "this", "worse", "bound", args.against))
        for name, m in metrics.items():
            if not before.get(name) or not values.get(name):
                continue
            a = statistics.median(before[name])
            b = statistics.median(values[name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print("%-22s %11.5g %11.5g %8.3f %5.2f %s" %
                  (name, a, b, worse, m["bound"],
                   "REGRESSED" if worse > m["bound"] else ""))
        if before_steals and steals:
            print("host steal %%: earlier median %.1f, this median %.1f" %
                  (statistics.median(before_steals),
                   statistics.median(steals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeats perfbench runs, measures their spread, and gates one set against another.

    python3 perfbench/gate.py collect --workload serve_realtime --seeds 1-10 --out DIR
    python3 perfbench/gate.py spread DIR
    python3 perfbench/gate.py compare BASE_DIR HEAD_DIR

`collect` runs perfbench/run.py once per seed and keeps each run's stdout as
DIR/<workload>-<seed>.out. `spread` prints, per workload and end-to-end
metric, the median and the quartile spread (IQR over median, as
statistics.quantiles gives them) against the metric's bound from
BENCHMARK.json. `compare` fails (exit 1) when HEAD is worse than BASE:
  - an end-to-end metric's median is worse than BASE's by more than its bound;
  - a run's labels differ from BASE's run of the same workload and seed;
  - failed_share (failed / attempted) rose, or a run is not correct.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETAIL_PREFIX = "PERFBENCH_DETAIL "


def load_bench(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """(result, detail) of one run's stdout; detail is {} when absent."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty run output")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
    return result, detail


def load_runs(directory):
    """{workload: [(seed, result, detail), ...]} from DIR/<workload>-<seed>.out."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        workload, seed = os.path.basename(path)[:-4].rsplit("-", 1)
        with open(path) as f:
            result, detail = parse_run(f.read())
        runs.setdefault(workload, []).append((int(seed), result, detail))
    return runs


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_share(base, head, better):
    """How much worse head is than base, as a share of base (negative: better)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def failed_share(result):
    return result["failed"] / result["attempted"] if result["attempted"] else 1.0


def compare(bench, base_runs, head_runs):
    """Findings (strings) that make HEAD fail against BASE; empty means pass."""
    findings = []
    for workload in (w["name"] for w in bench["workloads"]):
        base = base_runs.get(workload, [])
        head = head_runs.get(workload, [])
        if not head:
            findings.append("%s: no runs" % workload)
            continue
        for seed, result, _ in head:
            if not result.get("correct", False):
                findings.append("%s seed %d: run is not correct" % (workload, seed))
        base_failed = max((failed_share(r) for _, r, _ in base), default=0.0)
        head_failed = max(failed_share(r) for _, r, _ in head)
        if head_failed > base_failed:
            findings.append("%s: failed_share rose from %g to %g"
                            % (workload, base_failed, head_failed))
        base_labels = {seed: d.get("labels_digest") for seed, _, d in base}
        for seed, _, detail in head:
            want = base_labels.get(seed)
            if want is not None and detail.get("labels_digest") != want:
                findings.append("%s seed %d: labels differ from base" % (workload, seed))
        if not base:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for _, r, _ in base
                           if name in r["metrics"]]
            head_values = [r["metrics"][name]["value"] for _, r, _ in head
                           if name in r["metrics"]]
            if not base_values or not head_values:
                findings.append("%s: %s missing" % (workload, name))
                continue
            worse = worse_share(statistics.median(base_values),
                                statistics.median(head_values), metric["better"])
            if worse > metric["bound"]:
                findings.append("%s: %s worse by %.1f%% (bound %.0f%%)"
                                % (workload, name, 100 * worse, 100 * metric["bound"]))
    return findings


def cmd_collect(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = args.seconds or load_bench()["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for seed in seeds:
        path = os.path.join(args.out, "%s-%d.out" % (args.workload, seed))
        with open(path, "w") as out:
            code = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=out, cwd=ROOT).returncode
        print("%s seed %d: exit %d -> %s" % (args.workload, seed, code, path))
    return 0


def cmd_spread(args):
    bench = load_bench()
    runs = load_runs(args.dir)
    worst = 0.0
    for workload, entries in sorted(runs.items()):
        print("%s (%d runs)" % (workload, len(entries)))
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r, _ in entries]
            s = spread(values) if len(values) >= 2 else 0.0
            flag = "" if s <= metric["bound"] / 3 else (
                "  above bound/3" if s <= metric["bound"] else "  ABOVE BOUND")
            if metric["name"] != "setup_s":
                worst = max(worst, s / metric["bound"])
            print("  %-26s median %12.6g  spread %6.2f%%  bound %4.0f%%%s"
                  % (metric["name"], statistics.median(values), 100 * s,
                     100 * metric["bound"], flag))
        bad = [seed for seed, r, _ in entries if not r["correct"] or r["failed"]]
        if bad:
            print("  runs not correct or with failures: seeds %s" % bad)
    print("worst spread / bound (setup_s excluded): %.2f" % worst)
    return 0


def cmd_compare(args):
    findings = compare(load_bench(), load_runs(args.base), load_runs(args.head))
    for finding in findings:
        print("FAIL " + finding)
    print("gate: %s" % ("FAIL" if findings else "PASS"))
    return 1 if findings else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collect)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("head")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

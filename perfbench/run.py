#!/usr/bin/env python3
"""Runs one perfbench workload, building the benchmark from source first.

    python3 perfbench/run.py --workload serve_realtime --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (which pulls in the repository's CMake project) into
.bench_build/perfbench; later runs only re-check the build. Build output goes
to .bench_build/perfbench/build.log. The run is split over SUBRUNS processes
of seconds / SUBRUNS each, on the same seed. Each process's output is passed
through, and the last line is the result object: the median of each metric
over the processes, and their summed operation counts. On a shared host a
process's speed depends on where it lands, and the median over processes
absorbs that. The processes must agree on their labels. A traced run
(--trace 1) is one process. The exit code is non-zero, without a result,
when the sources are missing, the build fails, a process fails, or the run
exceeds its time limit.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "m2ai_perfbench")
RUN_LIMIT_S = 175.0
SUBRUNS = 3
DETAIL_PREFIX = "PERFBENCH_DETAIL "
BUILD_LIMIT_S = 850.0


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def workload_names():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)


def source_id():
    """Git commit of this checkout when it is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_logged(cmd, log, limit_s):
    try:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=limit_s).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the M2AI sources (CMakeLists.txt, src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    started = time.monotonic()
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            code = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_LIMIT_S)
            if code != 0:
                fail("configure failed, see " + log_path)
        jobs = str(max(1, os.cpu_count() or 1))
        code = run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                           "m2ai_perfbench"], log,
                          BUILD_LIMIT_S - (time.monotonic() - started))
        if code != 0:
            fail("build failed, see " + log_path)


def run_process(cmd, deadline):
    """Runs one benchmark process, echoes its output, returns (result, detail)."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % RUN_LIMIT_S)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode != 0:
        fail("benchmark process exited with %d" % out.returncode)
    lines = out.stdout.splitlines()
    details = [l[len(DETAIL_PREFIX):] for l in lines if l.startswith(DETAIL_PREFIX)]
    try:
        return json.loads(lines[-1]), json.loads(details[-1])
    except (IndexError, ValueError):
        fail("benchmark process printed no result")


def aggregate(runs):
    """Median of each metric over the processes; counts add up."""
    results = [r for r, _ in runs]
    details = [d for _, d in runs]
    digests = sorted({d["labels_digest"] for d in details})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results) and len(digests) == 1
    if len(digests) != 1:
        failed = attempted  # same seed, different labels: nothing is trusted
    metrics, summary = {}, {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
        samples = sum(d["end_to_end"][name]["samples"] for d in details)
        summary[name] = dict(metrics[name], samples=samples, per_process=values)
    print("median of %d processes" % len(runs))
    for name, m in summary.items():
        print("  %-36s %14.6g %-9s n=%d  per process %s"
              % (name, m["value"], m["unit"], m["samples"],
                 " ".join("%.6g" % v for v in m["per_process"])))
    print("check %s labels_equal_across_processes: %d distinct label digest(s)"
          % ("PASS" if len(digests) == 1 else "FAIL", len(digests)))
    detail = dict(details[0], correct=correct, attempted=attempted, failed=failed,
                  failed_share=failed / attempted if attempted else 1.0,
                  labels_digest=",".join(digests), processes=len(runs), end_to_end=summary)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in workload_names():
        fail("unknown workload %r" % args.workload, 2)
    build()
    processes = 1 if args.trace else SUBRUNS
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes), "--trace", str(args.trace),
           "--commit", source_id()]
    # The first run of a checkout builds first; its processes get the full
    # limit after the build.
    deadline = time.monotonic() + RUN_LIMIT_S - min(time.monotonic() - started, 5.0)
    runs = [run_process(cmd, deadline) for _ in range(processes)]
    if processes > 1:
        aggregate(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

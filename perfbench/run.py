#!/usr/bin/env python3
"""End-to-end benchmark of the iommu-spv simulator.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the simulator library from src/) into
.bench_build/perfbench, runs one workload, keeps the metrics BENCHMARK.json
names for the mode, checks their units, and prints the result as the last
stdout line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
(a layer metric the workload never exercises reads 0 and is listed on a
preceding '# n/a' line). Span logs of traced runs go to .bench_out/.
"""

import argparse
import ctypes
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "spv_perfbench")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000
# A span metric in another wall unit than the binary's nanoseconds.
SPAN_WALL = re.compile(r"^(?P<span>.+)\.wall_(?P<unit>us|ms)\.(?P<q>p50|p99)$")
NS_PER = {"us": 1e3, "ms": 1e6}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(BENCHMARK, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {BENCHMARK}: {err}")


def build():
    """Configures once, then builds the benchmark target (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found: expected src/CMakeLists.txt beside perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "spv_perfbench", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    if not os.access(BINARY, os.X_OK):
        fail("build produced no spv_perfbench binary")


def fixed_layout():
    """Child pre-exec hook: turns address-space randomization off.

    With randomized layouts each process lands on different cache-set and
    alignment conflicts, which on a shared 4-vCPU VM shifted throughput by up
    to 30% from run to run; with one fixed layout the spread across seeds
    fell to a few percent. If the personality call is refused the run goes on randomized
    (the workload prints which on a '#' line).
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def pick_metric(name, raw):
    """The binary's metric `name`, or a span's wall time converted from ns."""
    if name in raw:
        return raw[name]
    match = SPAN_WALL.match(name)
    if match:
        ns = raw.get(f"{match['span']}.wall_ns.{match['q']}")
        if ns is not None:
            return {"value": ns["value"] / NS_PER[match["unit"]], "unit": match["unit"]}
    return None


def check_result(result, benchmark, trace):
    """Keeps the metrics BENCHMARK.json names, checks their units, fills n/a."""
    wanted = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    raw = result.get("metrics", {})
    if not trace:
        unexpected = set(raw) - {m["name"] for m in wanted}
        if unexpected:
            fail(f"unexpected end-to-end metrics: {', '.join(sorted(unexpected))}", 1)
    metrics, missing = {}, []
    for m in wanted:
        metric = pick_metric(m["name"], raw)
        if metric is None:
            missing.append(m["name"])
            metric = {"value": 0, "unit": m["unit"]}
        elif metric.get("unit") != m["unit"]:
            fail(f"metric {m['name']!r} has unit {metric.get('unit')!r}, "
                 f"BENCHMARK.json says {m['unit']!r}", 1)
        metrics[m["name"]] = metric
    if missing and not trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}", 1)
    if missing:
        print("# n/a on this workload (reported as 0): " + ", ".join(missing))
    result["metrics"] = metrics
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            fail(f"result has no {key!r}", 1)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def run_workload(args, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(names)}")
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n") if done.stdout else []
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"workload run exited with code {done.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload run printed no result line", 1)
    print(json.dumps(check_result(result, benchmark, args.trace == 1)), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        build()
        sys.exit(subprocess.run([BINARY, "--self-test"], check=False).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    run_workload(args, benchmark)


if __name__ == "__main__":
    main()

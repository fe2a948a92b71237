#!/usr/bin/env python3
"""Outside-in benchmark of the nucleus library and its in-process server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run builds the library
and the harness in Release (perfbench/CMakeLists.txt) under the checkout's
own .bench_build/, and the first run of a seed generates that seed's inputs
there. Each run
then starts one harness process for one workload, which prints its figures
and, as the last line of standard output, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run, whose spans are written to
.bench_build/traces/. A provenance line (source revision, host, compiler,
build type, SIMD, server configuration, load average before and after)
precedes the result. The result's metric names and units must be the ones
BENCHMARK.json lists for that mode. See perfbench/README.md for the metric
definitions.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_decompose", "served_reads", "churn_commits", "local_queries"]
# Seed 1 is the default; 7331 is the held-out seed no tuning used.
DEFAULT_SEED = 1
# A run must end within 180 s, input preparation included; a harness
# process normally takes 15-35 s.
RUN_DEADLINE_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    # Always inside the checkout: a build directory shared between checkouts
    # would compile and run whichever checkout configured it first.
    return os.path.join(ROOT, ".bench_build")


# Held for the life of the process: exclusive while building, shared while
# the harness runs, so no build replaces the binary under a running harness.
_build_lock = None


def build():
    """Configures and builds the harness; returns its path."""
    global _build_lock
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no nucleus sources at %s (missing %s)" % (ROOT, required))
    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    _build_lock = open(os.path.join(root, "build.lock"), "w")
    fcntl.flock(_build_lock, fcntl.LOCK_EX)
    with open(os.path.join(root, "build.log"), "a") as log:
        # A cache configured from another source directory (a moved or
        # copied checkout) is discarded rather than built from.
        if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and \
                os.path.realpath(cmake_cache("CMAKE_HOME_DIRECTORY")) != \
                os.path.realpath(HERE):
            shutil.rmtree(build_dir)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(max(1, len(os.sched_getaffinity(0))))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                fail("build failed; see %s" % log.name)
    fcntl.flock(_build_lock, fcntl.LOCK_SH)
    return os.path.join(build_dir, "perfbench_harness")


def prepare(harness, seed, tiny=False):
    """Generates the inputs of a seed once; returns their directory."""
    root = build_root()
    name = ("tiny-seed-%d" if tiny else "seed-%d") % seed
    inputs = os.path.join(root, "inputs", name)
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    with open(os.path.join(root, "inputs", name + ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(inputs, "meta.txt")):
            cmd = [harness, "prepare", "--seed", str(seed), "--dir", inputs]
            if tiny:
                cmd.append("--tiny")
            if subprocess.run(cmd).returncode != 0:
                fail("input preparation failed for seed %d" % seed)
    return inputs


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def source_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: a digest of the sources the harness builds.
    digest = hashlib.sha256()
    for base in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cmake_cache(key):
    path = os.path.join(build_root(), "perfbench", "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def expected_metrics(trace):
    """The (name, unit) pairs BENCHMARK.json lists for a result."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_metrics(result, trace):
    """Fails unless the result carries exactly BENCHMARK.json's metrics."""
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = expected_metrics(trace)
    if sorted(got) != sorted(want):
        fail("result metrics differ from BENCHMARK.json's %s list: "
             "missing %s, unexpected %s" % (
                 "per_layer" if trace else "end_to_end",
                 sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def provenance(config, before, after):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "revision": source_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": "%s (%s)" % (compiler, version),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "simd": cmake_cache("NUCLEUS_NO_SIMD").upper() not in ("ON", "TRUE", "1"),
        "config": config,
        "loadavg_before": before,
        "loadavg_after": after,
    }


def run_harness(harness, args, timeout):
    """Runs one harness process; returns (human lines, config, result)."""
    try:
        proc = subprocess.run([harness, "run"] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    config = {}
    human = []
    for line in lines[:-1]:
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
        else:
            human.append(line)
    return human, config, result


def run(args):
    harness = build()
    inputs = prepare(harness, args.seed)
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--inputs", inputs]
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        harness_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    before = loadavg()
    human, config, result = run_harness(harness, harness_args, RUN_DEADLINE_S)
    after = loadavg()
    check_metrics(result, args.trace)
    for line in human:
        print(line)
    print("provenance " + json.dumps(provenance(config, before, after)))
    print(json.dumps(result))


def selftest():
    """Tiny-graph pass over every workload, traced and untraced, each
    result checked against BENCHMARK.json's metric list, plus a negative
    case: a kappa response with one value changed must count as a failed
    op."""
    harness = build()
    inputs = prepare(harness, DEFAULT_SEED, tiny=True)
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, _, r = run_harness(harness, [
                "--workload", workload, "--seed", str(DEFAULT_SEED),
                "--seconds", "1", "--trace", str(trace), "--inputs", inputs], 120)
            check_metrics(r, trace)
            ok = r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
            print("selftest %-15s trace=%d attempted=%d failed=%d %s" % (
                workload, trace, r["attempted"], r["failed"],
                "ok" if ok else "FAIL"))
            if not ok:
                failures.append("%s trace=%d" % (workload, trace))
    _, _, r = run_harness(harness, [
        "--workload", "served_reads", "--seed", str(DEFAULT_SEED), "--seconds",
        "1", "--trace", "0", "--inputs", inputs, "--corrupt-first-kappa"], 120)
    caught = r["failed"] >= 1 and not r["correct"]
    print("selftest corrupted kappa read: failed=%d %s" % (
        r["failed"], "caught" if caught else "MISSED"))
    if not caught:
        failures.append("corrupted kappa read not detected")
    if failures:
        print("selftest FAILED: " + ", ".join(failures))
        return 1
    print("selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()

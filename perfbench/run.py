#!/usr/bin/env python3
"""The STORM benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Builds the system under test (storm_server, storm_coordinator) with the
repository's own CMakeLists.txt and the benchmark program storm_bench
(perfbench/CMakeLists.txt), both from source, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload and passes storm_bench's report through. The last line of stdout
is the JSON summary: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. BENCHMARK.json says why each gated workload was chosen;
predictions.json records which layers each loads and which end-to-end
metric each per-layer metric should move.

    python3 perfbench/run.py --selfcheck

runs every workload at tiny scale (storm_server --tiny) with and without
tracing and asserts that every metric named in BENCHMARK.json prints with
its unit and that every correctness check runs and passes. Besides the
gated workloads BENCHMARK.json lists, storm_bench runs `ingest` and
`fleet` (see predictions.json for why they are not gated).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    return r.returncode == 0


def build_failed(log_path):
    with open(log_path) as f:
        sys.stderr.write("".join(f.readlines()[-40:]))
    fail("build failed (full log: %s)" % log_path)


def build(root):
    """Configures and builds both trees; returns the binaries' paths."""
    os.makedirs(root, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    sut = os.path.join(root, "sut")
    drv = os.path.join(root, "bench")
    log_path = os.path.join(root, "build.log")
    steps = []
    if not os.path.exists(os.path.join(sut, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", sut,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", sut, "-j", jobs, "--target",
                  "storm_server", "storm_coordinator", "storm"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if not run_logged(cmd, log):
                build_failed(log_path)
        steps = []
        if not os.path.exists(os.path.join(drv, "CMakeCache.txt")):
            # Link the library the root build just made, when it has one.
            libs = [os.path.join(d, f) for d, _, fs in os.walk(sut)
                    for f in fs if f == "libstorm.a"]
            steps.append(["cmake", "-S", "perfbench", "-B", drv,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          "-DSTORM_LIBRARY=" + (os.path.abspath(libs[0])
                                                if libs else "")])
        steps.append(["cmake", "--build", drv, "-j", jobs, "--target",
                      "storm_bench"])
        for cmd in steps:
            if not run_logged(cmd, log):
                build_failed(log_path)
    bins = {
        "server": os.path.join(sut, "tools", "storm_server"),
        "coordinator": os.path.join(sut, "tools", "storm_coordinator"),
        "bench": os.path.join(drv, "storm_bench"),
    }
    for name, path in bins.items():
        if not os.path.isfile(path):
            fail("build produced no %s binary at %s" % (name, path))
    return bins


def source_digest():
    """A digest of the sources under test (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(bins, root, workload, seed, seconds, trace, tiny, digest):
    """Runs one workload; returns (exit code, stdout lines)."""
    run_dir = os.path.join(root, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [bins["bench"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", bins["server"],
           "--coordinator-bin", bins["coordinator"],
           "--run-dir", run_dir, "--source-digest", digest]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, out.splitlines()


def summary_of(lines):
    if not lines:
        return None
    try:
        s = json.loads(lines[-1])
    except ValueError:
        return None
    if set(s) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return s


# Checks each workload's run must have made (see storm_bench's check lines).
REQUIRED_CHECKS = {
    "explore": ["request_succeeded", "answer_finite", "count_whole_table",
                "generator_on_schedule"],
    "deep": ["request_succeeded", "answer_finite", "lstree_wor_count_exact",
             "groupby_cells_in_grid", "kde_map_shape", "topterms_bounded",
             "cluster_centers_in_window", "trajectory_time_sorted",
             "count_whole_table"],
    "ingest": ["request_succeeded", "insert_acknowledged",
               "count_after_ingest", "generator_on_schedule"],
    "fleet": ["request_succeeded", "lstree_wor_count_exact",
              "count_whole_table", "generator_on_schedule"],
}
TRACE_CHECKS = ["ladder_rungs_ran", "coordinator_rung_ran"]
ALWAYS_REPORTED = [("failed_frac", "ratio"), ("ci_coverage", "ratio"),
                   ("late_ms.p99", "ms"), ("host_steal_pct", "%")]


def selfcheck(bins, root, digest):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    # Every workload storm_bench knows, gated in BENCHMARK.json or not.
    for name in REQUIRED_CHECKS:
        for trace in (0, 1):
            want = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            t0 = time.time()
            code, lines = run_bench(bins, root, name, 1, 2, trace, True,
                                     digest)
            tag = "%s trace=%d" % (name, trace)
            s = summary_of(lines)
            if code != 0 or s is None:
                problems.append("%s: exit %d, summary %r" % (tag, code, s))
                continue
            if not s["correct"]:
                problems.append("%s: correct is false" % tag)
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for m in want:
                got = s["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: %s missing or unit != %s" %
                                    (tag, m["name"], m["unit"]))
                if printed.get(m["name"]) != m["unit"]:
                    problems.append("%s: %s not printed with unit %s" %
                                    (tag, m["name"], m["unit"]))
            if set(s["metrics"]) != {m["name"] for m in want}:
                problems.append("%s: summary metrics differ from "
                                "BENCHMARK.json" % tag)
            for m, unit in ALWAYS_REPORTED:
                if printed.get(m) != unit:
                    problems.append("%s: %s not printed" % (tag, m))
            ran = {}
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "check":
                    ran[parts[1]] = (parts[2], int(parts[3].lstrip("(")))
            for c in REQUIRED_CHECKS[name] + (TRACE_CHECKS if trace else []):
                if c not in ran or ran[c][1] == 0:
                    problems.append("%s: check %s did not run" % (tag, c))
                elif ran[c][0] != "pass":
                    problems.append("%s: check %s failed" % (tag, c))
            print("selfcheck %-18s %5.1f s  %d metrics" %
                  (tag, time.time() - t0, len(s["metrics"])), flush=True)
    for p in problems:
        print("selfcheck problem: " + p)
    print("selfcheck " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="storm_server --tiny demo tables (smoke runs)")
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/storm_server.cpp", "tools/storm_coordinator.cpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(need):
            fail("run from the root of a STORM checkout (%s is missing)"
                 % need)
    if not a.selfcheck and not a.workload:
        fail("--workload is required")
    root = build_root()
    bins = build(root)
    digest = source_digest()
    if a.selfcheck:
        return selfcheck(bins, root, digest)
    code, lines = run_bench(bins, root, a.workload, a.seed, a.seconds,
                             a.trace, a.tiny, digest)
    for line in lines:
        print(line)
    sys.stdout.flush()
    s = summary_of(lines)
    if code != 0 or s is None:
        fail("%s run failed (exit %d)" % (a.workload, code))
    return 0 if s["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

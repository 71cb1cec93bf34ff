#!/usr/bin/env python3
"""Builds and runs the Descend repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_warm|compile_cold|kernels_large \
        --seed N --seconds S --trace 0|1

`--workload all` runs the three in turn and ends with a table of every
metric by workload, with its unit.

Builds perfbench/ (a CMake package of its own that compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs the
harness self-test, then runs one workload in one harness process. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: with --trace 0 every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric. Exits non-zero, without a result, when
the sources or the build are missing or when the harness fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_warm", "compile_cold", "kernels_large")
GUARDED_ENV = ("DESCEND_FAULTS", "DESCEND_WATCHDOG", "DESCEND_TRACE")
SETTLE_AFTER_BUILD_S = 75


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails loudly."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        fail("failed: " + " ".join(cmd), 1)


def mtime(path):
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def build(root, build_dir):
    """Builds the harness; returns True when anything was rebuilt."""
    src = os.path.join(root, "perfbench")
    before = mtime(os.path.join(build_dir, "perfbench"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], 900)
    run_quiet([os.path.join(build_dir, "perfbench_selftest")], 60)
    return mtime(os.path.join(build_dir, "perfbench")) != before


def source_digest(root):
    """Provenance when the checkout is not a git repository: a digest of
    every file the benchmark builds or reads."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.decode().strip()
    h = hashlib.sha1()
    for top in ("src", "tools", "bench", "kernels", "programs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def no_aslr_prefix():
    """Runs the harness with address-space randomization off when the
    system allows it: heap and code placement otherwise shift from run to
    run, and with them the front end's timings by up to a quarter."""
    arch = os.uname().machine
    if shutil.which("setarch") is None:
        return []
    ok = subprocess.run(["setarch", arch, "-R", "true"],
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return ["setarch", arch, "-R"] if ok.returncode == 0 else []


def run_all(args):
    """Runs every workload in its own process; prints a metric table."""
    rows = []
    for w in WORKLOADS:
        r = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           stdout=subprocess.PIPE)
        out = r.stdout.decode(errors="replace").splitlines()
        if r.returncode != 0 or not out:
            fail("workload %s failed" % w, 1)
        res = json.loads(out[-1])
        print("%s: correct=%s attempted=%d failed=%d" % (
            w, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
    for w, name, value, unit in rows:
        print("%-14s %-36s %16.6g  %s" % (w, name, value, unit))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds wants 1..60")
    if args.seed < 0:
        fail("--seed wants a non-negative integer")
    for var in GUARDED_ENV:
        if var in os.environ:
            fail("refusing to run with %s set" % var)

    if args.workload == "all":
        run_all(args)
        return

    root = os.getcwd()
    for need in ("src/driver/Pipeline.h", "perfbench/CMakeLists.txt",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a Descend checkout (%s missing)" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    if build(root, build_dir):
        # A build leaves the machine busy for a while after it returns
        # (writeback, memory compaction); runs started right after it
        # measured up to 3x slower. Only the run that built waits.
        time.sleep(SETTLE_AFTER_BUILD_S)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = no_aslr_prefix() + [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--out", out_dir, "--sha", source_digest(root)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness timed out", 1)
    lines = r.stdout.decode(errors="replace").splitlines()
    result = None
    for line in lines:
        if line.startswith("PBRESULT "):
            result = json.loads(line[len("PBRESULT "):])
        else:
            print(line)
    if r.returncode != 0 or result is None:
        fail("harness exited with %d" % r.returncode, 1)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            fail("harness did not report %s" % m["name"], 1)
        if got["unit"] != m["unit"]:
            fail("unit mismatch for %s: %s vs %s" % (m["name"], got["unit"],
                                                      m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    with open(os.path.join(out_dir, "result-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repo benchmark (README.md beside this file).

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py ... --out results/a.jsonl   # keep the run

The C++ load generator is configured with CMake in Release mode under
.bench_build/perfbench at the repository root and rebuilt only when a
source changed. Its human-readable lines pass through; the hardware
fingerprint is printed next, and the result JSON object stays the last line
of stdout.
With --out the run is also appended to a JSON-lines file as
{"workload", "seed", "seconds", "trace", "fingerprint", "result"}, the
record compare.py reads.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
WORKLOADS = ("point_lookup", "range_scan")
# Allowance on top of --seconds for set-up (three bulk loads) and, in traced
# runs, the layer replay (recompressing the 8 MB store at ~1 MB/s).
SETUP_ALLOWANCE_S = 90


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2"], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "neats_perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def fingerprint():
    """The machine and build a result belongs to; compare.py refuses to
    compare results whose fingerprints differ."""
    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            level = read(os.path.join(base, index, "level"))
            kind = read(os.path.join(base, index, "type"))
            size = read(os.path.join(base, index, "size"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches["L" + level] = size
    cache = read(os.path.join(BUILD, "CMakeCache.txt")) or ""
    entries = dict(line.split("=", 1) for line in cache.splitlines()
                   if "=" in line and not line.startswith(("#", "//")))
    compiler = entries.get("CMAKE_CXX_COMPILER:FILEPATH") or entries.get(
        "CMAKE_CXX_COMPILER:STRING")
    version = None
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else None
    return {
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "compiler": version,
        "build_type": entries.get("CMAKE_BUILD_TYPE:STRING"),
        "governor": read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="append the run to this JSON-lines file")
    ap.add_argument("--plant-wrong-expected", action="store_true",
                    help="corrupt one expected value (self-test only)")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.plant_wrong_expected:
        cmd.append("--plant-wrong-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"run.py: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 2
    fp = fingerprint()
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "fingerprint": fp, "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Proves the benchmark's ground-truth checks cannot pass vacuously.

    python3 perfbench/selftest.py

Runs one short point_lookup with one expected value deliberately corrupted
(run.py --plant-wrong-expected) and asserts the run is caught: a non-zero
exit code, "correct": false and at least one failed request in the result.
Exit 0 when the planted mismatch was caught.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "point_lookup", "--seed", "7", "--seconds", "1", "--trace", "0",
           "--plant-wrong-expected"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    caught = (proc.returncode != 0 and result.get("correct") is False
              and result.get("failed", 0) >= 1)
    print(f"planted mismatch: exit {proc.returncode}, correct "
          f"{result.get('correct')}, failed {result.get('failed')} of "
          f"{result.get('attempted')} -> {'caught' if caught else 'MISSED'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())

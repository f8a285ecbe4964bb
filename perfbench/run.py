#!/usr/bin/env python3
"""Builds ldb from this checkout and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. A workload run prints its metric table and, as its last
line, one JSON object (see README.md). Exits non-zero without a result when
the checkout has no ldb sources or any LDB_* variable is set.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["interactive", "remote", "hunt"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ldb sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(out, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main(argv):
    leaked = sorted(k for k in os.environ if k.startswith("LDB_"))
    if leaked:
        fail("refusing to run with %s set; the benchmark measures ldb "
             "without its switches" % ", ".join(leaked))
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if "--workload" in argv:
        exe = build("ldb_perfbench")
        return subprocess.run([exe] + argv).returncode
    exe = build("ldb_perfbench")
    status = 0
    for name in WORKLOADS:
        print("== " + name, flush=True)
        status |= subprocess.run([exe, "--workload", name] + argv).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

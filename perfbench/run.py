#!/usr/bin/env python3
"""Build msim's benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ms-busy --seed 1 --seconds 20 --trace 0

The driver is configured from perfbench/CMakeLists.txt (which compiles
msim's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, and built there; a build that is already current
costs about a second. Build output goes to stderr. The driver's last
stdout line is the JSON result; with --trace 1 its spans are also
written to <build dir>/perfbench-spans.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ms-busy", "mem-stall", "paper-grid")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 90


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(cmd, timeout, **kwargs):
    """Run cmd in its own process group; return (exit code, stdout).

    On timeout the whole group (make and compiler jobs included) is
    killed and the code is 1.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out:", " ".join(cmd))
        return 1, None
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = call(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                     stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = call(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs], BUILD_TIMEOUT_S,
                 stdout=sys.stderr)
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if build(build_dir) != 0:
        log("perfbench: build failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "perfbench-spans.json")]
    rc, out = call(cmd, args.seconds + RUN_MARGIN_S, cwd=ROOT,
                   stdout=subprocess.PIPE, text=True)
    if rc != 0:
        log("perfbench: driver failed with code", rc)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

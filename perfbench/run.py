#!/usr/bin/env python3
"""Build and run the SMAT repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the SMAT
library from src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild incrementally. Build output goes to stderr so
the last line of stdout is always the benchmark's result object. The exit
code is the benchmark's: non-zero on a failed build, a failed output check,
or a malformed result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8_large", "amg_pcg", "retune_stream")
# The benchmark is stopped (and the run failed) if it outlives this.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build target incrementally. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SMAT sources at %s; run from the root of a checkout" %
            os.path.join(ROOT, "src"))
        return None
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, target)


def run(cmd):
    """Run cmd with OpenMP capped at the usable cores; stream its stdout."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(max(1, len(os.sched_getaffinity(0))))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        # Also on SIGTERM/SIGINT (raised as exceptions, see main): never
        # leave the benchmark running behind this script.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict) and set(res) == RESULT_KEYS and
            isinstance(res["attempted"], int) and res["attempted"] >= 1 and
            all(isinstance(m.get("value"), (int, float))
                for m in res["metrics"].values()))


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if args.self_test:
        exe = build("perfbench_selftest")
        return 1 if exe is None else run([exe])[0]
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        return 1
    code, out = run([exe, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--model", os.path.join(HERE, "data", "model_double.txt"),
                     "--out-dir", os.path.join(os.path.dirname(exe), "out")])
    lines = out.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        log("the benchmark printed no valid result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload clocknet|crossover|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # the benchmark's own tests

Run from the repository root. Builds perfbench/ (which compiles the library
from ../src with the root project's flags) into .bench_build/perfbench,
pins the analysis settings, then runs one workload. The last line of
standard output is the result JSON; build logs go to standard error.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code. On a
    timeout, or when this script is told to stop, the whole group (the
    benchmark forks helper processes, the build spawns compilers) is killed
    and waited for."""
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    except OSError as e:
        log(f"cannot run {cmd[0]}: {e}")
        return 1

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{cmd[0]} timed out after {timeout} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        for s, h in handlers.items():
            signal.signal(s, h)


def build():
    """Configure once, then an incremental build of the two targets."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "perfbench_tests", "-j", jobs])
    for cmd in steps:
        code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(cmd)}")
            return False
    return True


def pinned_env():
    """Every IND_* knob cleared, then the benchmark's settings: one analysis
    thread (at most nproc), no artifact cache, in-process serve lane."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IND_")}
    env["IND_THREADS"] = "1"
    env["IND_SERVE_WORKERS"] = "0"
    return env


def run(cmd):
    return run_group(cmd, RUN_TIMEOUT_S, env=pinned_env())


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["clocknet", "crossover", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return run([os.path.join(BUILD, "perfbench_tests")])
    # Relative, so the serve socket path stays short in any checkout.
    return run([os.path.join(BUILD, "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--run-dir", ".bench_build"])


if __name__ == "__main__":
    sys.exit(main())

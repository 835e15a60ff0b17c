#!/usr/bin/env python3
"""Builds contend and the perfbench driver from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a contend checkout. Builds go to .bench_build/, each
run works in a fresh directory under .bench_run/ that is removed when it
ends. The last line of standard output is the run's JSON result; build logs
and diagnostics go to standard error. See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
CONTEND_BUILD = os.path.join(BUILD, "contend")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_read", "serve_churn", "scenario_wide", "scenario_overload")
# A run must end within 180 s of its start, build check included.
RUN_LIMIT_S = 175


def build(target):
    jobs = str(os.cpu_count() or 1)
    configure = ["-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    steps = []
    if not os.path.exists(os.path.join(CONTEND_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", CONTEND_BUILD] + configure)
    steps.append(["cmake", "--build", CONTEND_BUILD, "-j", jobs, "--target",
                  "contend_served", "contend_serve", "contend_scenario",
                  "contend_calib"])
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BENCH_BUILD] + configure +
                     ["-DCONTEND_BUILD_DIR=" + CONTEND_BUILD])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j", jobs, "--target", target])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True)


def run_driver(args, started):
    driver = os.path.join(BENCH_BUILD, "perfbench_driver")
    workdir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", os.path.join(CONTEND_BUILD, "tools", "contend_served"),
               "--workdir", workdir, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        # The daemon dies with the driver (it asks for SIGKILL on parent death).
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)
    try:
        build("perfbench_test" if args.selftest else "perfbench_driver")
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BENCH_BUILD, "perfbench_test")],
                              cwd=BENCH_BUILD).returncode
    return run_driver(args, started)


if __name__ == "__main__":
    sys.exit(main())

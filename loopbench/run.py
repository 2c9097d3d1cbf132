#!/usr/bin/env python3
"""Builds and runs the loopback benchmark (see README.md).

    python3 loopbench/run.py --workload probe_join --seed 1 --trace 0
    python3 loopbench/run.py --workload all --seed 1
    python3 loopbench/run.py --smoke

The first form builds the engine and the benchmark programs from source
(CMake, into .bench_build/ at the repository root), runs one measured run
and prints its result as the last stdout line: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. It exits nonzero when the
build fails, a check fails, or the run does not finish in time.
`--workload all` makes one such run per workload, in turn.

--smoke is the benchmark's own test: every workload runs twice, traced,
on a short slice with one seed, and the exact counts of the two runs must
be identical.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = HERE.parent / ".bench_build" / "loopbench"
WORKLOADS = ("probe_join", "fanout_wal", "q1_open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SEED = 7


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group. On a timeout, or when this
    script is interrupted or terminated, kills the whole group (the
    server that loopbench_driver spawns included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    out = BUILD_DIR
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "loopbench_server", "loopbench_driver"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        code, _ = run_group(step, max(1, deadline - time.monotonic()),
                            stdout=sys.stderr)
        if code != 0:
            sys.exit("loopbench: build step failed: " + " ".join(step))
    return out


def driver_cmd(out, workload, seed, seconds, trace, extra=()):
    return [str(out / "loopbench_driver"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--server", str(out / "loopbench_server"),
            "--work-dir", str(out / "work"), *extra]


def smoke(out):
    failed = False
    for workload in WORKLOADS:
        counts = []
        for _ in range(2):
            code, text = run_group(
                driver_cmd(out, workload, SMOKE_SEED, 0.25, 1,
                           ("--setups", "2")),
                RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
            counts.append([l for l in text.splitlines()
                           if l.startswith("counts ")])
            if code != 0:
                print(f"FAIL {workload}: driver exited {code}")
                failed = True
        if counts[0] != counts[1] or not counts[0]:
            print(f"FAIL {workload}: exact counts differ between runs")
            failed = True
        else:
            print(f"ok   {workload}: {len(counts[0])} count lines identical")
    return 1 if failed else 0


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out = build()
    if args.smoke:
        return smoke(out)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = 0
    for workload in workloads:
        try:
            code, _ = run_group(
                driver_cmd(out, workload, args.seed, args.seconds,
                           args.trace),
                RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"loopbench: run exceeded {RUN_TIMEOUT_S} s")
        failed = failed or code
    return failed


if __name__ == "__main__":
    sys.exit(main())

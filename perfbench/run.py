#!/usr/bin/env python3
"""Builds the benchmark and runs it confined to one CPU.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload explore-dfs --seed 1 --seconds 10 --trace 0

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
.bench_build), then started under `taskset` on the highest-numbered CPU
this process may use, and under `chrt -f 1` (SCHED_FIFO, priority 1).
The benchmark itself reads both back and refuses to measure unless it
may run on one CPU only, under SCHED_FIFO. It runs with glibc's MALLOC_ARENA_MAX=1.
Its standard output, whose last line is the
JSON result, is passed through unchanged; build output goes to standard
error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("explore-dfs", "explore-revisit", "sample-starvation")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        fail("the repository's crates/ are not next to perfbench/; nothing to build")
    for tool in ("cargo", "taskset", "chrt"):
        if shutil.which(tool) is None:
            fail(f"{tool} is not installed")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST, "--bin", "perfbench"],
        stdout=sys.stderr, env=env, cwd=ROOT, check=False)
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")

    # One CPU for the whole process: the simulator runs one host thread at
    # a time, so every baton handoff becomes a same-core switch. SCHED_FIFO
    # makes that switch happen exactly when the handing thread blocks: a
    # woken thread does not preempt it, and a spinning waiter that yields
    # gives the CPU to the baton's holder. Under the default policy the
    # same work ran 1.7x (explore-dfs) to 3.3x (sample-starvation) slower
    # and spread about four times wider between runs.
    cpu = max(os.sched_getaffinity(0))
    command = ["taskset", "-c", str(cpu), "chrt", "-f", "1", binary,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(ROOT, ".bench_out")]
    # One malloc arena: with a single CPU only one thread runs at a time,
    # and per-thread arenas would make peak memory depend on which host
    # thread happened to serve which simulated process.
    os.environ["MALLOC_ARENA_MAX"] = "1"
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execvp(command[0], command)


if __name__ == "__main__":
    main()

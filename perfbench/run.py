#!/usr/bin/env python3
"""Build the benchmark package and run it.

One workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload steady-1k --seed 1 --seconds 20 --trace 0

Every workload of BENCHMARK.json, untraced and then traced, with the
tracing overhead:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

Run from the repository root.  The package is built with cargo into
$CARGO_TARGET_DIR (default .bench_build); the WAL and the trace files go
under .perfbench_work.  The last line of standard output of a single run
is its JSON result; build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path, or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def end_to_end_figures(lines):
    """Every end-to-end figure of a run, gated or not, as {name: value}."""
    for line in reversed(lines):
        if line.startswith('{"end_to_end"'):
            figures = json.loads(line)["end_to_end"]
            return {name: m["value"] for name, m in figures.items()}
    return {}


def run_all(binary, seed, seconds):
    """Every workload of BENCHMARK.json untraced, then traced; prints the
    tracing overhead."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    overhead = []
    for workload in workloads:
        results = {}
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            code, lines = run_once(binary, workload, seed, seconds, trace)
            if code != 0:
                print(f"run.py: {workload} trace={trace} exited {code}", file=sys.stderr)
                return code or 1
            results[trace] = end_to_end_figures(lines)
        overhead.append((workload, results[0], results[1]))
    print("tracing overhead (traced minus untraced):")
    for workload, plain, traced in overhead:
        cpu = traced["cpu_us_per_msg"] - plain["cpu_us_per_msg"]
        p50 = traced["latency_p50_ms"] - plain["latency_p50_ms"]
        print(f"  {workload:<14} cpu_us_per_msg {cpu:+10.2f} us   latency_p50_ms {p50:+8.3f} ms")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    binary = build()
    if binary is None:
        return 1
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if code == 0 and not (lines and lines[-1].startswith("{") and json.loads(lines[-1])):
        print("run.py: the benchmark printed no result line", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

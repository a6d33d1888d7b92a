#!/usr/bin/env python3
"""Builds the capture-to-verdict benchmark from source and runs it.

Run from the root of the repository:

    python3 verdict-bench/run.py --workload stress-8192 --seed 1 --seconds 30 --trace 0
    python3 verdict-bench/run.py --workload all

Every argument is passed to the `verdict-bench` binary (see README.md).
`--workload all` runs every workload untraced and then traced, and ends
with one JSON summary line. The build goes to $CARGO_TARGET_DIR, or to
`.bench_build` when that is unset. The exit code is nonzero when the
build fails or any correctness check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stress-8192", "mild-8192", "robust-8192"]


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so stdout ends with the result line.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def run_all(binary, args):
    """Runs each workload untraced, then traced; returns the exit code."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--trace", trace] + args
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            worst = worst or proc.returncode
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and bool(result["correct"])
            if trace == "0":
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                summary["metrics"][workload + "/" + name] = value
    print(json.dumps(summary))
    return worst if worst else (0 if summary["correct"] else 1)


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    code = build(env)
    if code != 0:
        print("verdict-bench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "verdict-bench")
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            rest = argv[:i] + argv[i + 2:]
            if "--trace" in rest:
                print("verdict-bench: --workload all runs both trace modes", file=sys.stderr)
                return 2
            return run_all(binary, rest)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

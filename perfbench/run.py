#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload bringup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a path
relative to the checkout, default .bench_build) under perfbench/; a traced
run (--trace 1) writes its Chrome trace-event file next to the build, in
traces/<workload>-seed<seed>.json. Extra arguments (--n, --threads, --reps)
are passed to the benchmark binary unchanged. The last line of the output is
the binary's JSON result; the exit code is non-zero when the build fails,
the run fails, or a correctness gate fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds; cmake's output goes to stderr."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    cmd += extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        print(lines[-1], file=sys.stderr)
        return done.returncode
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("malformed result line")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

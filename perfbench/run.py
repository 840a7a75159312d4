#!/usr/bin/env python3
"""Builds the ppstats end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root) and is incremental, so only the first run of a
checkout compiles. Build output goes to standard error; standard output is
the benchmark program's report, whose last line is the result object. The
traced run also writes its spans (JSON lines) under the build directory's
traces/.

--short and --corrupt-expected are passed through to the program for the
benchmark's own tests (perfbench/test_perfbench.py).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the program stops itself at 170 s.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("build failed: %s" % err, file=sys.stderr)
            return None
        if done.returncode != 0:
            print("build failed: %s" % " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def source_digest():
    """SHA-256 over the sources the program is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", commit(), "--source-digest", source_digest()]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.short:
        command.append("--short")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

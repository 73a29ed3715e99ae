#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); a traced run writes its spans to
`<target>/perfbench/trace-<workload>-<seed>.jsonl`. The last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One run measures for --seconds and then checks its outputs; anything
# past this is a hang.
RUN_TIMEOUT_S = 170


def flag(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "crates", "gendp", "Cargo.toml")):
        print("error: the gendp crates are not beside perfbench/", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    command = [os.path.join(target, "release", "gendp-perfbench")] + args
    if flag(args, "--trace", "0") != "0":
        name = "trace-%s-%s.jsonl" % (flag(args, "--workload", "none"),
                                      flag(args, "--seed", "1"))
        command += ["--trace-out", os.path.join(target, "perfbench", name)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: the benchmark ran past %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target). `--trace 0` runs the `perfbench` binary, which
uses the system allocator; `--trace 1` runs `perfbench-traced`, which counts
allocations. The binary replaces this process, so its peak RSS is its own.
The last line of standard output is the result object; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    binary = "perfbench-traced" if traced else "perfbench"
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, "--bin", binary],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", binary)
    sys.stdout.flush()
    os.execv(exe, [exe] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

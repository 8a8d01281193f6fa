#!/usr/bin/env python3
"""Builds the benchmark harness from source, then runs it with the given
arguments.

Run from the repository root:

    python3 perfbench/run.py --workload serve_engine --seed 1 --seconds 10 --trace 0

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`). The
harness prints its result as one JSON object on the last line of stdout.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(here, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    harness = os.path.join(target, "release", "cpsmon-perfbench")
    return subprocess.call([harness, *sys.argv[1:]], env=env)


if __name__ == "__main__":
    sys.exit(main())

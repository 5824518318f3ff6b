#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The perfbench package (and the crates it
measures, by path) is built in release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; then its binary replaces this process.
Workloads: network-read, version-write.
The last line of stdout is one JSON object with the run's metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe, *sys.argv[1:]], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())

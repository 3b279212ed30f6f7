#!/usr/bin/env python3
"""Build the verifier benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload attack --seed 1 --seconds 20 --trace 0

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`, relative to the current directory); traces go to
`<target>/perfbench/`. The last line of standard output is the JSON
summary the benchmark prints. Build output goes to standard error, so a
failed build exits non-zero without printing a summary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(target, "perfbench")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run one workload.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Builds the `campaign-bench` and `dtpm-worker` release binaries of this
directory's package into $CARGO_TARGET_DIR (default: `.bench_build` in the
current directory) and runs `campaign-bench` with the given arguments. The
last line of standard output is the result JSON. Exits non-zero, without a
result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    target_dir = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("campaign_bench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target_dir, "release", "campaign-bench")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

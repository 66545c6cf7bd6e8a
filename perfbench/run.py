#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload reproduce|jobserver|all \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the `server` binary of the
`bench` crate and the `perfbench` package in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs each workload.
The last line of standard output is the JSON result of the (last)
workload. `--workload all` runs every workload in turn and exits
non-zero if any of them failed its output checks.
"""

import os
import subprocess
import sys

WORKLOADS = ["reproduce", "jobserver"]


def arg(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "bench", "--bin", "server"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    release = os.path.join(target, "release")
    env = dict(
        os.environ,
        PERFBENCH_RUSTC=capture(["rustc", "--version"]),
        PERFBENCH_GIT_REV=capture(["git", "rev-parse", "HEAD"]),
    )
    workload = arg(argv, "--workload", "all")
    # Everything but `--workload NAME` goes through to each run.
    rest = [a for i, a in enumerate(argv)
            if a != "--workload" and (i == 0 or argv[i - 1] != "--workload")]
    names = WORKLOADS if workload == "all" else [workload]
    status = 0
    for name in names:
        cmd = [os.path.join(release, "perfbench"), "--workload", name,
               "--server-bin", os.path.join(release, "server")] + rest
        code = subprocess.run(cmd, env=env).returncode
        if code != 0:
            print(f"perfbench: workload {name} exited with {code}", file=sys.stderr)
            status = code
    sys.exit(status)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload crash-fleet --seed 42 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory: the Go build cache, the binary and the run's scratch
result stores. The last line of standard output is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        # The go command keeps telemetry counters under the user config dir.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    exe = os.path.join(out, "perfbench")
    # Build output goes to stderr so the result stays the last stdout line.
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed; run from a full checkout of the repository",
              file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

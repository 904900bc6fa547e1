#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bfs-rmat16 --seed 1 --seconds 25 --trace 0

Builds perfbench/bin/perfbench.exe with dune (the library comes from the
checkout's own sources), then runs it with the same arguments. Its last
line of standard output is the JSON result. Exits non-zero, without a
result, when the checkout lacks the sources or the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout, kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune-project")):
        if not os.path.exists(path):
            fail("run from the root of a repository checkout (%s is missing)" % path, 2)
    try:
        code = run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        fail("dune is not on PATH", 3)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if code != 0:
        fail("build failed (exit %d)" % code, 3)
    try:
        code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the server and the serving benchmark from source, then run it.

Usage, from the repository root:

    python3 servbench/run.py --workload skew-rw --seed 1 --seconds 10 --trace 0
    python3 servbench/run.py --self-test

Every argument but --self-test goes to the benchmark executable
(servbench/servbench.ml); see servbench/README.md. The last line of
standard output is the JSON result.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/c4_sim.exe", "./servbench/servbench.exe"]
EXE = os.path.join("_build", "default", "servbench", "servbench.exe")


def main(argv):
    # No shared dune cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("servbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = ["selftest"] + argv[1:] if argv[:1] == ["--self-test"] else argv
    proc = subprocess.Popen([EXE] + args)
    try:
        return proc.wait(timeout=178)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the benchmark stop its server child first.
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("servbench: run exceeded 178 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build the ViDa benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The harness (perfbench/harness.ml) is
built with dune against the repository's libraries, then run with the
same arguments; its last line of output is the JSON result. Exits
non-zero without a result when the checkout has no sources to build.
"""

import os
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")


def main():
    root = os.getcwd()
    for needed in ("dune-project", os.path.join("lib", "core", "vida.ml")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write("perfbench: %s not found; run from a checkout root\n" % needed)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/harness.exe"],
        stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    run = subprocess.run([HARNESS] + sys.argv[1:], timeout=170)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the warehouse benchmark and the rfview server, then run it.

Run from the root of a checkout:

    python3 warebench/run.py --workload etl-batch --seed 7 --seconds 30 --trace 0

Arguments are passed to warebench/main.exe unchanged (see README.md).
The build goes to the checkout's own dune build directory with dune's
shared cache off, so nothing is written outside the checkout.  The
build log goes to stderr; stdout carries only the benchmark's report,
whose last line is the JSON result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("warebench: run from the root of an rfview checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "./warebench/main.exe", "./bin/rfview.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("warebench: build failed", file=sys.stderr)
        return 2
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(root, build_dir, "default", "warebench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 2


if __name__ == "__main__":
    sys.exit(main())

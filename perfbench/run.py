#!/usr/bin/env python3
"""Build and run the ffault benchmark.

    python3 perfbench/run.py --workload local-fig3 --seed 1 --seconds 15 --trace 0

Run from the root of a source tree. Builds perfbench/main.exe with dune
(the shared build cache disabled, so nothing is written outside the
tree), then runs it with the same arguments. The last line of standard
output is the result JSON; see perfbench/README.md.
"""
import glob
import os
import shutil
import subprocess
import sys

TARGET = os.path.join("_build", "default", "perfbench", "main.exe")


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
    switch = os.environ.get("OPAMSWITCH")
    candidates = [os.path.join(root, switch, "bin", "dune")] if switch else []
    candidates += sorted(glob.glob(os.path.join(root, "*", "bin", "dune")))
    return next((c for c in candidates if os.access(c, os.X_OK)), None)


def git_rev():
    try:
        out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit("perfbench: %s not found; run from the root of an ffault source tree"
                     % need)
    dune = find_dune()
    if dune is None:
        sys.exit("perfbench: dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # a dune found outside PATH needs its switch's compilers on PATH too
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run([dune, "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    env["PERFBENCH_REV"] = git_rev()
    run = subprocess.run([TARGET] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/wqi_perfbench.exe and bin/wqi_serve.exe with dune,
then runs the benchmark with the same arguments.  Its standard output
ends with one JSON line: correct, attempted, failed and the metrics.
Build output goes to standard error.  Exits non-zero, printing no
result, when the build or the run fails.

On a machine with two or more CPUs (and taskset and chrt installed) the
benchmark is pinned to the first CPU and told the second, where it
places wqi_serve for the saturating phase; see README.md, "Workloads".
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["perfbench/wqi_perfbench.exe", "bin/wqi_serve.exe"]
EXE = os.path.join("_build", "default", "perfbench", "wqi_perfbench.exe")


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: run from the repository root (no dune-project here)",
              file=sys.stderr)
        return 2
    # The dune cache would write outside the checkout; keep it off.
    build = ["dune", "build", "--root", ".", "--cache=disabled"] + TARGETS
    try:
        subprocess.run(build, check=True, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset") and shutil.which("chrt"):
        os.sched_setaffinity(0, {cpus[0]})
        args += ["--cpus", f"{cpus[0]},{cpus[1]}"]
    # Its own session, so a timeout takes down the server and every other
    # process the benchmark started along with it.
    try:
        proc = subprocess.Popen([EXE] + args, start_new_session=True)
    except OSError as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    try:
        code = proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())

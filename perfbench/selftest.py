#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload, in both modes, checks that the result line has
exactly the keys correct/attempted/failed/metrics and that it names
every metric BENCHMARK.json lists for that mode, with the same unit and
a finite value, and that the run is correct.  Then shows the checks are
live: a corrupted expected body (serve-mix) and a truncated manifest
(ingest-warm) must each make the run report failures.  Exits 0 when
every case holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1]), proc.stdout


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    # serve-mix is not in BENCHMARK.json (README.md, "serve-mix") but
    # still runs, so its metrics and checks are tested with the rest.
    for w in [x["name"] for x in spec["workloads"]] + ["serve-mix"]:
        for trace in (0, 1):
            label = f"{w} --trace {trace}"
            try:
                result, _ = run(w, trace)
            except AssertionError as e:
                expect(False, f"{label}: {e}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            expect(sorted(metrics) == sorted(names),
                   f"{label}: metric names match BENCHMARK.json")
            for m in expected[trace]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float))
                       and math.isfinite(got["value"]),
                       f"{label}: {m['name']} printed in {m['unit']}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: correct with no failures")

    for w, fault in (("serve-mix", "corrupt-body"),
                     ("ingest-warm", "truncate-manifest")):
        label = f"{w} --inject {fault}"
        try:
            result, out = run(w, 0, "--inject", fault)
        except AssertionError as e:
            expect(False, f"{label}: {e}")
            continue
        rate = [l.split()[1] for l in out.splitlines()
                if l.strip().startswith("error_rate")]
        expect(result["failed"] > 0 and result["correct"] is False
               and rate and float(rate[0]) > 0,
               f"{label}: error_rate above 0")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the sic binary and the harness with dune, then runs
one workload; the last line of its output is the JSON result. The second
runs every workload with a few ops, traced and untraced, and checks that
each prints every metric of BENCHMARK.json with its unit and that every
output check passes.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/sic.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("build failed")


def bench(args, capture=False):
    cmd = [BENCH] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = bench(["--workload", w["name"], "--seed", "1", "--trace", str(trace), "--small"], capture=True)
            lines = r.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                ok = (
                    r.returncode == 0
                    and res["correct"]
                    and res["failed"] == 0
                    and res["attempted"] >= 1
                    and got == want[trace]
                )
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            print("%-4s %-8s trace=%d" % ("ok" if ok else "FAIL", w["name"], trace))
            if not ok:
                bad += 1
                print(r.stdout)
    sys.exit(1 if bad else 0)


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        smoke()
    sys.exit(bench(sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check that the benchmark is steady.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--sets 1] [--seconds S]

For each workload, runs the untraced benchmark once per seed (seeds 1..N)
and prints, per end-to-end metric, the median, the quartiles and the
spread: the interquartile distance as a share of the median. A spread above
a third of the metric's bound is flagged. With --sets 2 the seeds run a
second time; the medians of the two sets must not differ by more than the
bound, and the exact counts and digests of each seed must be identical.
"""

import argparse
import json
import statistics
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def one(workload, seed, seconds):
    r = run.bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture=True,
    )
    lines = r.stdout.strip().splitlines()
    exact = next((l for l in lines if l.startswith("exact ")), None)
    res = json.loads(lines[-1])
    if r.returncode != 0 or not res["correct"] or res["failed"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, lines[-1]))
    return res, exact


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    run.build()
    bad = 0
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            rows = [one(w, seed, args.seconds) for seed in range(1, args.seeds + 1)]
            sets.append(rows)
            print("== %s set %d (%d runs, ops %s)" % (w, s + 1, len(rows), [r["attempted"] for r, _ in rows]))
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r, _ in rows]
                med, q1, q3, sp = spread(vals)
                flag = "" if m["name"] == "setup_s" or sp < m["bound"] / 3 else "  <-- above bound/3"
                print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.2f%s"
                      % (m["name"], med, q1, q3, sp, m["bound"], flag))
                print("  %-16s runs %s" % ("", " ".join("%.4g" % v for v in vals)))
                if flag:
                    bad += 1
        if len(sets) > 1:
            for m in spec["end_to_end"]:
                meds = [statistics.median(r["metrics"][m["name"]]["value"] for r, _ in rows) for rows in sets]
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                print("  %-16s set 2 vs set 1: %+.3f%s" % (m["name"], change, "  <-- worse than bound" if worse > m["bound"] else ""))
                if worse > m["bound"]:
                    bad += 1
            same = all(a[1] == b[1] for a, b in zip(sets[0], sets[1]))
            print("  exact counts identical across sets: %s" % same)
            if not same:
                bad += 1
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and report the spread.

    python3 mapbench/steady.py --runs 10 --first-seed 0

Each repetition runs every workload once, untraced, in a separate
process, one at a time, with the next seed; the workload order
alternates between forward and reverse so that no workload always
follows the same one.
For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=900, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    t0 = time.perf_counter()
    for i in range(args.runs):
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            t = time.perf_counter()
            r = run_once(w, args.first_seed + i, args.seconds)
            results[w].append(r)
            print(f"run {i} {w:10s} seed {args.first_seed + i}: "
                  f"{time.perf_counter() - t:6.1f} s, correct {r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
    print(f"total {time.perf_counter() - t0:.0f} s")

    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct "
              f"{all(r['correct'] for r in runs)}, failed shares {shares}")
        for name, s in (summary(runs) if len(runs) > 1 else {}).items():
            print(f"  {name:36s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

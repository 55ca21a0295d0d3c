"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py --workload desk --runs 10
    python3 bench/steady.py --workload all --runs 10 --holdout --out bench/results/steady.json

Runs one workload N times, each in its own process with its own seed
(seeds 1..N), and prints for every end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  A metric is steady when its spread stays below a third of
its bound (setup_s is exempt).  --holdout repeats the runs on the held-out
seeds HOLDOUT_START + 1..N, which are for checking a claimed change and not
for developing it, and prints how far each held-out median lies from the
development median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("desk", "wide", "large_batch", "toolkit")
HOLDOUT_START = 90_000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results, spec):
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": metric["bound"], "unit": metric["unit"], "values": values,
        }
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    return {"metrics": out, "failed_shares": shares,
            "wall_s": [r["wall_s"] for r in results], "correct": all(r["correct"] for r in results)}


def series(workload, seeds, seconds, spec, label):
    results = []
    for seed in seeds:
        r = run_once(workload, seed, seconds)
        results.append(r)
        print(f"  {label} seed {seed}: {r['wall_s']:.1f}s attempted {r['attempted']} failed {r['failed']}",
              flush=True)
    return summarise(results, spec)


def show(workload, label, summary, reference=None):
    print(f"{workload} [{label}] correct={summary['correct']} failed shares={summary['failed_shares']} "
          f"wall max {max(summary['wall_s']):.1f}s")
    for name, m in summary["metrics"].items():
        mark = "" if name == "setup_s" or m["spread"] < m["bound"] / 3 else "  UNSTEADY"
        line = (f"  {name:26s} median {m['median']:12.6g} {m['unit']:8s} q1 {m['q1']:12.6g} "
                f"q3 {m['q3']:12.6g} spread {m['spread']:.4f} (bound {m['bound']}){mark}")
        if reference is not None:
            line += f" vs dev median {m['median'] / reference['metrics'][name]['median'] - 1:+.4f}"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--holdout", action="store_true", help="also run the held-out seeds")
    parser.add_argument("--out", default=None, help="write the summaries as JSON here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in names:
        entry = {"dev": series(name, range(1, args.runs + 1), seconds, spec, "dev")}
        show(name, "dev", entry["dev"])
        if args.holdout:
            seeds = range(HOLDOUT_START + 1, HOLDOUT_START + args.runs + 1)
            entry["holdout"] = series(name, seeds, seconds, spec, "holdout")
            show(name, "holdout", entry["holdout"], entry["dev"])
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()

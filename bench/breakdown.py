"""Per-stage breakdown of one train step per variant, and tracing overhead.

    python3 bench/breakdown.py --workload wide --seed 1

Runs the workload untraced and traced (two processes, same seed), then
prints for each variant the traced self time of every stage per step, their
sum, the untraced and traced mean step times and the tracing overhead
(traced minus untraced).  The stage times should add up to the untraced
step time within that overhead.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
VARIANTS = ("sgd", "ntk_surrogate", "amari_kfac", "sobolev_kfac", "amari_dense", "sobolev_dense")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)
    with open(os.path.join(BENCH_DIR, "results", f"result-{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def breakdown(plain, traced):
    out = {}
    for v in VARIANTS:
        stages = {
            name[len(v) + 1 :]: m["value"]
            for name, m in traced["metrics"].items()
            if name.startswith(v + ".") and m["unit"] == "ms"
        }
        untraced_ms = plain["variants"][v]["mean_step_ms"]
        traced_ms = traced["variants"][v]["mean_step_ms"]
        total = sum(stages.values())
        out[v] = {
            "stages_ms": stages,
            "self_sum_ms": total,
            "untraced_step_ms": untraced_ms,
            "traced_step_ms": traced_ms,
            "overhead_ms": traced_ms - untraced_ms,
            "sum_within_overhead": abs(total - untraced_ms) <= abs(traced_ms - untraced_ms),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "large_batch", "toolkit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None, help="write the breakdown as JSON here")
    args = parser.parse_args()
    result = breakdown(run(args.workload, args.seed, args.seconds, 0), run(args.workload, args.seed, args.seconds, 1))
    for v, b in result.items():
        print(f"{args.workload} {v}: untraced {b['untraced_step_ms']:.4g} ms, traced {b['traced_step_ms']:.4g} ms, "
              f"overhead {b['overhead_ms']:+.3g} ms, stage sum {b['self_sum_ms']:.4g} ms, "
              f"within overhead {b['sum_within_overhead']}")
        for stage, ms in sorted(b["stages_ms"].items(), key=lambda kv: -kv[1]):
            print(f"    {stage:28s} {ms:10.4g} ms  {100.0 * ms / b['self_sum_ms']:5.1f}%")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "variants": result}, fh, indent=1)


if __name__ == "__main__":
    main()

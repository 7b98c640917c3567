"""Run the benchmark over several seeds and report each figure's median,
quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --seeds 1-10 [--workloads endalg ...] \
        [--out FILE]

Run from the repository root.  Runs are sequential, untraced, and last
`run_seconds` from BENCHMARK.json each.  Use it to quote before/after
figures for a change: run it on both commits with the same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, text=True, stdout=subprocess.PIPE)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"{wl} seed {seed}: run failed")
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{wl} seed {seed}: incorrect output")
            runs.append(json.loads(lines[-2])["figures"])
            print(wl, seed, {k: round(v["value"], 4)
                             for k, v in runs[-1].items()}, flush=True)
        report[wl] = {k: {**summary([r[k]["value"] for r in runs]),
                          "unit": runs[0][k]["unit"]} for k in runs[0]}
        for k, s in report[wl].items():
            print(f"  {wl:13s} {k:18s} median {s['median']:10.4f} "
                  f"{s['unit']:5s} spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

"""flagalg benchmark: time to each certified result, three workloads.

    python3 perfbench/run.py --workload endalg --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One caller in one process runs one
operation at a time (a closed loop).  Each run starts fresh worker
processes: SETUP_PROBES that only set up (set-up time is the median over
them and the main worker), then one that sets up and runs the workload
for --seconds.  Every output is checked against
reference.json; a mismatch, a False certificate or an exception is a
failed operation.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass (see tracer.py).  The
line before it gives every per-workload figure by name and unit.  Exits
non-zero, printing no result, if any worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("endalg", "categoryO", "certificates")
SETUP_PROBES = 6
TIME_LIMIT_S = 170


def declared_metrics(section):
    """(name, unit) of each metric BENCHMARK.json declares in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def start_worker(args, spawned_env, tmp, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    spawned = time.monotonic()
    cmd += [repr(spawned), tmp] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=spawned_env, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_LIMIT_S

    threads = str(len(os.sched_getaffinity(0)))
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    env = dict(os.environ, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0", TMPDIR=tmp,
               FLAGALG_CACHE_DIR=os.path.join(tmp, "cache"))
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [start_worker(args, env, tmp, deadline, setup_only=True)
                  ["setup_s"] for _ in range(probes)]
        res = start_worker(args, env, tmp, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace:
        layers = res["layers"]
        metrics = {n: {"value": layers.get(n, 0), "unit": u}
                   for n, u in declared_metrics("per_layer")}
        detail = {"params": res["params"], "threads": threads,
                  "trace_file": ".bench_out/trace-" + args.workload}
    else:
        figs = {k: {"value": v, "unit": u}
                for k, (v, u) in res["figures"].items()}
        figs["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        figs["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        metrics = {n: figs[n] for n, _ in declared_metrics("end_to_end")}
        detail = {"workload": args.workload, "params": res["params"],
                  "threads": threads, "figures": figs}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

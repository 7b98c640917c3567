"""One workload run in a fresh process; started by run.py.

    worker.py WORKLOAD SEED SECONDS TRACE SPAWNED TMP [--setup-only]

SPAWNED is run.py's `time.monotonic()` just before it started this
process, so the reported set-up time covers interpreter start, imports
and input generation, up to the first timed operation.  Prints one JSON
line with the results and exits 0; exits 1 if flagalg cannot be loaded
from the checkout.
"""

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


class Runner:
    def __init__(self):
        self.samples = {}       # op key -> [seconds]
        self.attempted = 0
        self.failed = 0

    def run(self, op):
        """Time one operation, then check its output; an exception counts
        as a failed operation and the run goes on.  A full collection
        first, so that no operation pays for another's garbage."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            ok = False
        else:
            dt = time.perf_counter() - t0
            ok = bool(op.check(out))
        if not ok:
            self.failed += 1
            print(f"failed: {op.key}", file=sys.stderr)
        self.samples.setdefault(op.key, []).append(dt)
        return dt

    def run_for(self, plan, seconds):
        """One full pass, then further operations in plan order while the
        one expected to take longest still ends before the deadline."""
        deadline = time.perf_counter() + seconds
        for op in plan:
            self.run(op)
        while True:
            ran = False
            for op in plan:
                if time.perf_counter() + max(self.samples[op.key]) \
                        <= deadline:
                    self.run(op)
                    ran = True
            if not ran:
                return

    def figures(self, plan):
        """Per-kind medians (of per-operation medians), wall_s and the
        geometric mean over result kinds."""
        med = {op.key: statistics.median(self.samples[op.key])
               for op in plan}
        by_kind = {}
        for op in plan:
            by_kind.setdefault(op.kind, []).append(med[op.key])
        out = {}
        for kind, vals in by_kind.items():
            unit = "ms" if "_ms" in kind else "s"
            scale = 1e3 if unit == "ms" else 1.0
            out[kind] = (statistics.median(vals) * scale, unit)
            if kind == "shear_ms_p50":
                p90 = statistics.quantiles(vals, n=10)[-1]
                out["shear_ms_p90"] = (p90 * scale, unit)
        kind_medians = [statistics.median(v) for v in by_kind.values()]
        out["wall_s"] = (sum(med.values()), "s")
        out["result_geomean_ms"] = (
            statistics.geometric_mean(kind_medians) * 1e3, "ms")
        out["fail_ratio"] = (self.failed / self.attempted, "ratio")
        return out


def main():
    name, seed, seconds, trace, spawned, tmp = sys.argv[1:7]
    setup_only = "--setup-only" in sys.argv[7:]

    import flagalg
    if os.path.dirname(os.path.dirname(os.path.abspath(
            flagalg.__file__))) != SRC:
        raise SystemExit(f"flagalg was not loaded from {SRC}")
    import workloads

    ref = workloads.load_reference()
    wl = workloads.build(name, int(seed), tmp, ref)
    setup_s = time.monotonic() - float(spawned)
    result = {"setup_s": setup_s, "params": wl.params}
    if setup_only:
        print(json.dumps(result))
        return 0

    runner = Runner()
    if trace == "0":
        runner.run_for(wl.plan, float(seconds))
        result["figures"] = runner.figures(wl.plan)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer
        untraced = sum(runner.run(op) for op in wl.plan)
        tracer = Tracer().install()
        cpu0 = time.process_time()
        try:
            traced = 0.0
            for k, op in enumerate(wl.plan):
                tracer.op_id = k
                traced += runner.run(op)
        finally:
            tracer.uninstall()
        extra = {"process.cpu_s": time.process_time() - cpu0,
                 "trace.overhead_ratio": traced / untraced,
                 "trace.untraced_wall_s": untraced,
                 "trace.traced_wall_s": traced}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"trace-{name}"), extra)
        result["layers"] = {**tracer.metrics(), **extra}
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark's reference outputs into reference.json.

    python3 perfbench/record.py

Run from the repository root, on a commit whose outputs are trusted.  The
benchmark then counts every output that differs from these as a failed
operation.  Results that must not depend on ell (graded dimensions) are
computed for every ell the seeds can pick and must agree.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402

POOL = 500      # formality-demo seeds 0..POOL-1 to draw instances from
CLI_REFERENCES = (
    ("endalg_B2_sha256", ["endalg", "--type", "B2"]),
    ("standards_A2_sha256", ["standards", "--type", "A2"]),
    ("koszul_A2_sha256", ["koszul", "--type", "A2",
                          "--cap", str(wl.KOSZUL_CAP)]),
)


def cli_output(argv):
    rc, text = wl.run_cli(argv)
    if rc != 0:
        raise SystemExit(f"{argv} failed")
    return text


def same_for_all(fn, ells):
    first = fn(ells[0])
    for ell in ells[1:]:
        if fn(ell) != first:
            raise SystemExit(f"{fn.__name__} depends on ell")
    return first


def main():
    ref = {}
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        for key, argv in CLI_REFERENCES:
            ref[key] = {
                str(ell): wl.digest(cli_output(
                    argv + ["--ell", str(ell), "--cache-dir", cache]))
                for ell in wl.ELLS}
    ref["wall_B2_dims"] = same_for_all(wl.wall_dims, wl.ELLS)
    ref["hom_G2_block_dims"] = same_for_all(wl.g2_block_dims, wl.ELLS_G2)
    pool = {}
    for seed in range(POOL):
        text = cli_output(["formality-demo", "--seed", str(seed)])
        dims = json.loads(text)["instance_dims"]
        pool[str(seed)] = [sum(dims.values()), wl.digest(text)[:16]]
    ref["formality_pool"] = pool
    with open(os.path.join(wl.HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()

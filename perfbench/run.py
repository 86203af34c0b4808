"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in a fresh Python
process (which starts one more per set-up sample) with the checkout's
``src`` on PYTHONPATH and COURANT_VPA_THREADS removed from the
environment, so the library runs single-threaded.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s (median of at least three
set-ups, each import plus input building in a fresh process), run_s
(median wall time of one round of the workload's operations) and
peak_rss_mb (peak resident memory of the measuring process).  Both times
are rescaled to the host's reference speed by a probe timed while they
run; see worker.py.  With --trace 1 they are the per-layer
metrics of one traced set-up and round, and trace.overhead_s.

--threads N sets COURANT_VPA_THREADS=N instead, for reference runs of the
checker thread pool; --size tiny runs small instances (the self-check).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vpa-certify", "quotient-build", "courant-mutants")
TIME_LIMIT_S = 170.0


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".self_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def worker(args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--threads", type=int)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "courant_vpa", "__init__.py")):
        print("no courant_vpa sources under %s: run from a checkout of the repository" % src,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.pop("COURANT_VPA_THREADS", None)
    if args.threads is not None:
        env["COURANT_VPA_THREADS"] = str(args.threads)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence call counts, repeat

    try:
        res = worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    setups = res["setup_samples_s"]

    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_s"] = res["traced_round_s"] - statistics.median(res["round_s"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(res["round_ref_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "threads": args.threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "setup_samples_s": setups,
        "setup_wall_samples_s": res["setup_wall_samples_s"],
        "round_s": res["round_s"], "probe_s": res["probe_s"],
        "round_ref_s": res["round_ref_s"], "absent": res.get("absent", []),
        "problems": res["problems"], "metrics": values,
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = "run-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(HERE, "out", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in res["problems"]:
        print("problem: %s" % problem, file=sys.stderr)
    if record["absent"]:
        print("absent from the library (reported as 0): %s" % ", ".join(record["absent"]),
              file=sys.stderr)
    print("# nproc %d, python %s, seed %d, rounds %d" % (
        record["nproc"], record["python"], args.seed, len(res["round_s"])))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

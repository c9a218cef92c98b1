"""Benchmark kinwave end to end: ``python3 perfbench/run.py [--workload <name>]
[--seed <n>] [--seconds <s>] [--trace <0|1>]``, from the root of a checkout.

Each workload runs in a fresh worker process (worker.py) with the BLAS and
OpenMP thread pools pinned to one thread.  With ``--trace 0`` the run first
starts ``SETUP_PROBES`` workers that only set up, so that ``setup_s`` is the
median of several fresh-process set-ups, and prints the end-to-end metrics.
With ``--trace 1`` the worker wraps kinwave's layer functions in spans and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs, one after another, and the last
line sums their counts and prefixes each metric with its workload.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4          # set-up-only workers started before the measured one
DEADLINE_S = 175.0        # the whole run, probes included

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(workload, args, deadline, setup_only=False):
    """Run one worker to its end; return its stdout lines."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("run: out of time before a worker could start")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run: worker did not finish before the deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"run: worker exited {proc.returncode}")
    return proc.stdout.splitlines()


def run_workload(workload, args):
    """One run of one workload; return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            lines = spawn(workload, args, deadline, setup_only=True)
            setups.append(json.loads(lines[-1])["setup_s"])
    lines = spawn(workload, args, deadline)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    setups.append(result.pop("setup_s"))
    if args.trace:
        from spans import LAYER_UNITS as units
    else:
        units = E2E_UNITS
        result["metrics"]["setup_s"] = statistics.median(setups)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        sys.exit(f"run: worker metrics {sorted(metrics)} do not match {sorted(units)}")
    result["metrics"] = {n: {"value": metrics[n], "unit": units[n]} for n in units}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kinwave" / "__init__.py").is_file():
        sys.exit(f"run: no kinwave source under {ROOT / 'src'}")
    if args.workload:
        print(json.dumps(run_workload(args.workload, args)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args)
        print(f"{workload} {json.dumps(result)}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{n}": m for n, m in result["metrics"].items()})
    print(json.dumps(total))


if __name__ == "__main__":
    main()

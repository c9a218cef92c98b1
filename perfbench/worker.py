"""One run of one workload, in a fresh process started by run.py.

The process imports numpy, click and kinwave from the checkout's ``src``,
writes the workload's scenarios, and then repeats rounds of the workload's
kinwave commands, each driven in-process through the click entry point,
until the next round would end past ``--seconds`` of measured time.  The
first round's outputs are checked against the oracles and properties in
checks.py; every later round must reproduce them byte for byte.  The last
line of standard output is one JSON object with the run's results.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("nash-triangular", "load-greenshields", "opt-merge")
ROOT = Path(__file__).resolve().parent.parent


class Operation:
    """One kinwave command on one scenario."""

    def __init__(self, name, command, doc, flags=()):
        self.name, self.command, self.doc, self.flags = name, command, doc, list(flags)

    def args(self, work):
        return [self.command, "--scenario", str(work / f"{self.name}.json"),
                "--out", str(work / f"out_{self.name}"), *self.flags]


def operations(workload, seed):
    import scenarios
    c = scenarios.mass_scale(seed)
    if workload == "nash-triangular":
        return [Operation(n, "nash", d) for n, d in scenarios.nash_scenarios(c).items()]
    if workload == "load-greenshields":
        return [Operation(n, "load", d, ["--dump-curves"])
                for n, d in scenarios.load_scenarios(c).items()]
    return [Operation(n, "opt", d) for n, d in scenarios.opt_scenarios(c).items()]


def run_cli(args):
    """Run ``kinwave <args>`` through the click entry point; return the exit code."""
    from kinwave.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args, prog_name="kinwave", standalone_mode=False)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:     # a traceback is a failed operation, not a crash
            traceback.print_exc()
            return 1
    return 0


def snapshot(out):
    """Digest of every output file but timing.json, by relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "timing.json"}


def check(op, work):
    import checks
    import scenarios
    out = work / f"out_{op.name}"
    if op.command == "nash":
        return checks.check_nash(op.name, op.doc, out, scenarios.NASH_TOL)
    if op.command == "load":
        return checks.check_load(op.name, op.doc, out, scenarios.DT)

    def load_cost(profile):
        path = work / f"{op.name}_check.json"
        path.write_text(json.dumps(dict(op.doc, profile=profile)), encoding="utf-8")
        check_out = work / f"out_{op.name}_check"
        if run_cli(["load", "--scenario", str(path), "--out", str(check_out)]) != 0:
            raise RuntimeError("kinwave load failed on a check profile")
        return checks.read_json(check_out / "report.json")["total_cost"]

    return checks.check_opt(op.name, op.doc, out, load_cost)


def environment():
    import click
    import numpy
    from importlib.metadata import version
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "click": version("click"), "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "affinity": len(os.sched_getaffinity(0))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC time at which run.py started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # BLAS and OpenMP pools are sized when numpy loads, so the pinning must
    # already be in the environment this process started with
    if any(os.environ.get(v) != "1" for v in THREAD_VARS) or "numpy" in sys.modules:
        sys.exit("worker: thread variables must be 1 before numpy is imported")
    sys.path.insert(0, str(ROOT / "src"))
    import click  # noqa: F401
    import numpy  # noqa: F401
    import kinwave.cli
    if not Path(kinwave.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"worker: kinwave imported from {kinwave.cli.__file__}, not the checkout")

    ops = operations(args.workload, args.seed)
    work = ROOT / "perfbench" / "_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for op in ops:
            (work / f"{op.name}.json").write_text(json.dumps(op.doc), encoding="utf-8")
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        result = measure(args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = setup_s
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))


def measure(args, ops, work):
    import oracles
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    round_s, rounds = [], []    # rounds[r][op name] = (exit code, output digests)
    descent_iterations = []     # per round: op name -> iterations (traced runs)
    while True:
        elapsed, outcome, iterations = 0.0, {}, {}
        for op in ops:
            shutil.rmtree(work / f"out_{op.name}", ignore_errors=True)
        for op in ops:
            if tracer:
                before = tracer.descent_probes
                tracer.active = True
            t0 = time.perf_counter()
            code = run_cli(op.args(work))
            elapsed += time.perf_counter() - t0
            if tracer:
                tracer.active = False
                iterations[op.name] = round(tracer.descent_probes - before)
            outcome[op.name] = (code, snapshot(work / f"out_{op.name}"))
        if tracer:
            tracer.mark_round()
        round_s.append(elapsed)
        rounds.append(outcome)
        descent_iterations.append(iterations)
        if sum(round_s) + statistics.median(round_s) > args.seconds:
            break
    # the high-water mark of set-up and commands, before any checking
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the out directories hold the last round's outputs: check those with
    # the oracles, and require every round to have produced the same bytes
    problems = [f"oracle self-check: {name}" for name in oracles.selfcheck()]
    attempted = failed = 0
    nash_iterations = [0] * len(rounds)
    for op in ops:
        code, last = rounds[-1][op.name]
        found = []
        if code == 0:
            try:
                found = check(op, work)
            except Exception as e:    # a crashing check is a failed check
                traceback.print_exc()
                found = [f"check raised {e!r}"]
        problems += [f"{op.name}: {p}" for p in found]
        for r, outcome in enumerate(rounds):
            attempted += 1
            code, snap = outcome[op.name]
            if code != 0:
                failed += 1
                print(f"{op.name}: kinwave {op.command} exited {code}", file=sys.stderr)
            elif found or snap != last:
                failed += 1
                if snap != last:
                    problems.append(f"{op.name}: round {r} outputs differ from the last round's")
            elif op.command == "nash":
                report = json.loads((work / f"out_{op.name}" / "report.json").read_text())
                nash_iterations[r] += report["equilibrium"]["iterations"]
            if tracer and op.command == "opt" and code == 0:
                limit = op.doc["solver"]["max_iter"]
                if descent_iterations[r][op.name] >= limit:
                    problems.append(f"{op.name}: descent ran {descent_iterations[r][op.name]} "
                                    f"iterations, not below max_iter {limit}")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("rounds " + json.dumps([round(t, 4) for t in round_s]))
    if tracer:
        per_round = [tracer.layer_metrics(r) for r in range(len(round_s))]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["solvers.nash_iterations"] = statistics.median(nash_iterations)
        print("descent_iterations " + json.dumps(descent_iterations[0]))
        trace_dir = ROOT / "perfbench" / "_run" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        # one file per workload, replaced by each traced run
        tracer.write(trace_dir / f"spans-{args.workload}.csv")
    else:
        metrics = {"wall_s": statistics.median(round_s), "peak_rss_mb": peak_rss_mb}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()

"""Compare two checkouts on one perfbench workload, in alternating pairs of runs.

    python3 tools/bench_pairs.py ../parent . --workload opt-merge --pairs 10 --seconds 30 --seed 0

Each pair runs ``python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in each checkout, one after the other: the parent first in
odd pairs (1, 3, ...) and the change first in even ones, so that neither
side always runs first.  Every run prints one line with its metrics and its
operation counts.  Then, for each end-to-end metric, one line gives each
side's median and quartiles and the number of pairs in which the change was
better (ties count for neither), ``better`` read from the change's
BENCHMARK.json, lower where it names none.  One more line gives each
checkout's ``src/kinwave`` line count, as ``wc -l src/kinwave/*.py`` totals
it: the design metric the ROADMAP tracks.  A run that exits non-zero,
reads ``correct: false`` or has a failed operation is flagged; its metrics
are left out, and the script exits 1.  The last line is the change side as
one workload's entry of a ``BENCH_<pr>.json`` file (see ``bench_entry``).

The script only reads ``perfbench/``: each run writes what it writes in its
own checkout, as a run by hand would.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, args):
    """One ``perfbench/run.py`` run in ``checkout``: its result object, or
    None with the reason on stderr when it exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def flaw(result):
    """Why a run's metrics cannot be counted, or None."""
    if result is None:
        return "exited non-zero"
    if not result["correct"]:
        return "correct: false"
    if result["failed"]:
        return f"{result['failed']} of {result['attempted']} operations failed"
    return None


def quartiles(xs):
    """(first quartile, median, third quartile) of ``xs``."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def directions(checkout):
    """End-to-end metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in doc.get("end_to_end", [])}


def summarize(pairs, better):
    """One line per metric over the pairs where both runs count."""
    good = [(a, b) for a, b in pairs if flaw(a) is None and flaw(b) is None]
    if not good:
        return ["no pair with two counted runs"]
    lines = []
    for name in good[0][0]["metrics"]:
        unit = good[0][0]["metrics"][name]["unit"]
        parent = [a["metrics"][name]["value"] for a, _ in good]
        change = [b["metrics"][name]["value"] for _, b in good]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        lines.append(f"{name} ({unit}): parent {pm:.6g} [{p1:.6g}-{p3:.6g}], "
                     f"change {cm:.6g} [{c1:.6g}-{c3:.6g}], "
                     f"change better in {wins} of {len(good)} pairs")
    for side, i in (("parent", 0), ("change", 1)):
        ops = [pair[i]["attempted"] for pair in good]
        lines.append(f"operations ({side}): median {statistics.median(ops):g}, "
                     f"{min(ops)}-{max(ops)}")
    return lines


def source_lines(checkout):
    """Lines in ``checkout``'s ``src/kinwave/*.py``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n")
               for f in (Path(checkout) / "src" / "kinwave").glob("*.py"))


def bench_entry(pairs, checkout):
    """The change side of ``pairs`` as a JSON object shaped like one workload's
    entry of a ``BENCH_<pr>.json`` file: each end-to-end metric's median and
    the median operations (the lower one of an even count) over the pairs
    where both runs count, whether every change run exited 0 and read
    correct, its failed operations in total, and ``checkout``'s line count."""
    ran = [b for _, b in pairs if b is not None]
    good = [b for a, b in pairs if flaw(a) is None and flaw(b) is None]
    return {
        "correct": len(ran) == len(pairs) and all(r["correct"] for r in ran),
        "attempted": statistics.median_low([r["attempted"] for r in good]) if good else 0,
        "failed": sum(r["failed"] for r in ran),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                      for r in good), "unit": m["unit"]}
                    for name, m in (good[0]["metrics"].items() if good else ())},
        "src_kinwave_lines": source_lines(checkout),
    }


def describe(side, result):
    if result is None:
        return f"{side}: exited non-zero"
    values = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
    return f"{side}: {values} ops={result['attempted']} failed={result['failed']}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    pairs, flagged = [], 0
    for i in range(1, args.pairs + 1):
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args) for side in sides}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i} ({sides[0]} first)")
        for side in ("parent", "change"):
            why = flaw(got[side])
            flagged += why is not None
            print("  " + describe(side, got[side]) + (f"  FLAGGED: {why}" if why else ""),
                  flush=True)
    for line in summarize(pairs, directions(args.change)):
        print(line)
    print(f"src/kinwave lines: parent {source_lines(args.parent)}, "
          f"change {source_lines(args.change)}")
    if flagged:
        print(f"{flagged} flagged runs")
    print(json.dumps(bench_entry(pairs, args.change)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

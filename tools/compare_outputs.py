"""Compare two output trees that need not be byte-identical.

Walks trees ``A`` and ``B``, such as two ``tools/digest_outputs.py --keep``
directories, and prints one line per difference, with paths relative to
the tree roots:

* a file present in only one tree;
* in JSON files, every key path whose values differ, such as
  ``out_0_load_chain/report.json: end_time: 13.5 != 14.0``.  A list of
  numbers gives one line, with how many entries differ and their largest
  |A - B|; lists of unequal length give only their lengths;
* in curve CSVs (``t,value`` rows, or ``series,t,value`` rows holding one
  curve per series), the largest |A - B| of the two curves as piecewise-linear
  functions with constant extension, taken on the union of their
  breakpoints;
* any other file whose bytes differ.

``timing.json`` files hold wall-clock times and are skipped.  The exit code
is 1 when a file is missing, a JSON value or other file differs, or a
curve's max |A - B| exceeds ``--tol`` (default 0), and 0 otherwise:

    python3 tools/digest_outputs.py --seeds 0-3 --keep /tmp/after
    (cd ../parent && python3 tools/digest_outputs.py --seeds 0-3 --keep /tmp/before)
    python3 tools/compare_outputs.py /tmp/before /tmp/after
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def json_diffs(a, b, where=""):
    """(key path, description) pairs, key paths like ``a.b[2].c``, at which
    two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{where}.{key}" if where else str(key)
            if key not in a or key not in b:
                out.append((sub, f"{a.get(key, '<missing>')!r} != {b.get(key, '<missing>')!r}"))
            else:
                out.extend(json_diffs(a[key], b[key], sub))
        return out
    at = where or "<root>"
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(at, f"length {len(a)} != {len(b)}")]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in a + b):
            gaps = [abs(x - y) for x, y in zip(a, b) if x != y or type(x) is not type(y)]
            return [(at, f"{len(gaps)} of {len(a)} entries differ, "
                         f"max |A - B| = {max(gaps):.3g}")] if gaps else []
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diffs(x, y, f"{where}[{i}]")]
    return [] if a == b and type(a) is type(b) else [(at, f"{a!r} != {b!r}")]


def read_curves(path):
    """{series: (t, v)} of a curve CSV, or None when the file is not one."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] not in ("t,value", "series,t,value"):
        return None
    rows = {}
    for line in lines[1:]:
        *series, t, v = line.split(",")
        rows.setdefault(",".join(series), []).append((float(t), float(v)))
    return {s: tuple(np.array(col) for col in zip(*r)) for s, r in rows.items()}


def curve_gap(a, b):
    """max |a - b| of two piecewise-linear curves on their breakpoint union."""
    ts = np.union1d(a[0], b[0])
    return float(np.max(np.abs(np.interp(ts, *a) - np.interp(ts, *b))))


def compare_file(pa, pb, tol):
    """(message, over tolerance) for one file present in both trees, or None."""
    ba, bb = pa.read_bytes(), pb.read_bytes()
    if ba == bb:
        return None
    if pa.suffix == ".json":
        diffs = json_diffs(json.loads(ba), json.loads(bb))
        return "; ".join(f"{k}: {d}" for k, d in diffs), True
    ca, cb = read_curves(pa), read_curves(pb)
    if ca is None or cb is None:
        return "bytes differ", True
    if set(ca) != set(cb):
        return f"series differ: {sorted(set(ca) ^ set(cb))}", True
    gap = max(curve_gap(ca[s], cb[s]) for s in ca)
    rows = sum(len(c[0]) for c in ca.values()), sum(len(c[0]) for c in cb.values())
    return f"max |A - B| = {gap:.3g} ({rows[0]} vs {rows[1]} rows)", gap > tol


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest curve difference that still passes (default 0)")
    args = ap.parse_args(argv)
    files = {}
    for side, root in (("A", args.a), ("B", args.b)):
        for p in root.rglob("*"):
            if p.is_file() and p.name != "timing.json":
                files.setdefault(p.relative_to(root).as_posix(), []).append(side)
    failed = 0
    for rel in sorted(files):
        if len(files[rel]) == 1:
            print(f"{rel}: only in {files[rel][0]}")
            failed += 1
            continue
        found = compare_file(args.a / rel, args.b / rel, args.tol)
        if found is not None:
            print(f"{rel}: {found[0]}")
            failed += found[1]
    print(f"{len(files)} files, {failed} over tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

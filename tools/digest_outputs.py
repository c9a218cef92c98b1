"""Print a SHA-256 digest of every output file of the benchmark scenarios.

Runs each scenario of ``perfbench/scenarios.py`` through the kinwave click
entry point, imported from this checkout's ``src``: the ``nash``, ``load``
and ``opt`` scenarios with their own command, each with ``--dump-curves``
and ``--emit-plot-data``, and every scenario through ``validate`` as well
(which writes no curves), whose report rests on the cost derivatives and
the a-priori bounds.  For every seed it prints one ``seed command scenario
relpath sha256`` line per output file (``timing.json`` excepted, as it
holds wall-clock times) and one ``seed command scenario exit <code>`` line
per run.  A ``validate`` run names its scenario ``<command>/<scenario>``.

Two checkouts produce byte-identical outputs exactly when their printouts
are equal:

    python3 tools/digest_outputs.py --seeds 0-3 > after.txt
    (cd ../parent && python3 tools/digest_outputs.py --seeds 0-3) > before.txt
    diff before.txt after.txt

The script only reads ``perfbench/``; scenario files and outputs go to a
temporary directory that is removed at exit, or with ``--keep DIR`` to
``DIR``, where ``tools/compare_outputs.py`` can compare two trees that are
not byte-identical.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """``"0-3"`` -> [0, 1, 2, 3]; ``"5"`` -> [5]; ``"0,2-3"`` -> [0, 2, 3]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_cli(args):
    """Run ``kinwave <args>`` in-process; return its exit code."""
    from kinwave.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args, prog_name="kinwave", standalone_mode=False)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
    return 0


def digest_seed(seed, work):
    import scenarios
    c = scenarios.mass_scale(seed)
    runs = [("nash", scenarios.nash_scenarios(c)), ("load", scenarios.load_scenarios(c)),
            ("opt", scenarios.opt_scenarios(c))]
    for command, docs in runs:
        for name, doc in docs.items():
            path = work / f"{seed}_{command}_{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for cmd, label, flags in ((command, name, ["--dump-curves", "--emit-plot-data"]),
                                      ("validate", f"{command}/{name}", [])):
                out = work / f"out_{seed}_{cmd}_{label.replace('/', '_')}"
                code = run_cli([cmd, "--scenario", str(path), "--out", str(out), *flags])
                for p in sorted(out.rglob("*")):
                    if p.is_file() and p.name != "timing.json":
                        digest = hashlib.sha256(p.read_bytes()).hexdigest()
                        print(seed, cmd, label, p.relative_to(out).as_posix(), digest)
                print(seed, cmd, label, "exit", code)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-3", help="seed list such as 0-3 or 0,2")
    ap.add_argument("--keep", metavar="DIR", type=Path,
                    help="write the output tree to DIR instead of a temporary directory")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    work = contextlib.nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory()
    with work as tmp:
        for seed in parse_seeds(args.seeds):
            digest_seed(seed, Path(tmp))


if __name__ == "__main__":
    main()

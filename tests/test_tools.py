"""The output-comparison tool in ``tools/`` on small hand-made trees, and
the benchmark's span tracer on kinwave."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
json_diffs, curve_gap = compare_outputs.json_diffs, compare_outputs.curve_gap


class TestJsonDiffs:
    def test_equal_values(self):
        doc = {"gap": 0.5, "groups": [{"gap": 0.5}], "ok": True, "rates": [[0.0, 1.0]]}
        assert json_diffs(doc, json.loads(json.dumps(doc))) == []

    def test_scalars_and_missing_keys(self):
        a = {"end_time": 13.5, "groups": [{"gap": 1}], "only_a": None}
        b = {"end_time": 14.0, "groups": [{"gap": 1.0}]}
        assert json_diffs(a, b) == [
            ("end_time", "13.5 != 14.0"),
            ("groups[0].gap", "1 != 1.0"),
            ("only_a", "None != '<missing>'"),
        ]

    def test_numeric_list_is_one_line(self):
        a = {"rates": [[[0.0] * 256]]}
        b = {"rates": [[[0.0] * 250 + [0.25, 0.0, -0.5, 0.0, 0.0, 0.0]]]}
        assert json_diffs(a, b) == [
            ("rates[0][0]", "2 of 256 entries differ, max |A - B| = 0.5")]

    def test_unequal_lengths_give_lengths(self):
        a, b = {"gap_history": [1.0] * 772}, {"gap_history": [1.0] * 771}
        assert json_diffs(a, b) == [("gap_history", "length 772 != 771")]
        assert json_diffs([1], [1, 2]) == [("<root>", "length 1 != 2")]

    def test_mixed_lists_recurse(self):
        assert json_diffs([True, "x"], [False, "x"]) == [("[0]", "True != False")]


def test_curve_gap_on_breakpoint_union():
    a = (np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    b = (np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.5, 2.0]))
    # at t = 1: a = 1, b = 1.5; at t = 2: a = 2, b = 1.75; beyond both are constant
    assert curve_gap(a, b) == pytest.approx(0.5)
    assert curve_gap(a, a) == 0.0


def _tree(root, report, curve_rows, extra=None):
    (root / "curves").mkdir(parents=True)
    (root / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (root / "timing.json").write_text(json.dumps({"wall_s": str(root)}), encoding="utf-8")
    rows = "".join(f"{t!r},{v!r}\n" for t, v in curve_rows)
    (root / "curves" / "exit.csv").write_text("t,value\n" + rows, encoding="utf-8")
    if extra:
        (root / extra).write_text("x", encoding="utf-8")
    return root


class TestMain:
    CURVE = [(0.0, 0.0), (1.0, 1.0)]

    def test_identical_trees_pass(self, tmp_path, capsys):
        a = _tree(tmp_path / "a", {"gap": 0.0}, self.CURVE)
        b = _tree(tmp_path / "b", {"gap": 0.0}, self.CURVE)
        assert compare_outputs.main([str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines() == ["2 files, 0 over tolerance"]

    def test_curve_within_tol_passes(self, tmp_path, capsys):
        a = _tree(tmp_path / "a", {"gap": 0.0}, self.CURVE)
        b = _tree(tmp_path / "b", {"gap": 0.0}, [(0.0, 0.0), (0.5, 0.5), (1.0, 1.25)])
        assert compare_outputs.main([str(a), str(b), "--tol", "0.25"]) == 0
        assert compare_outputs.main([str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "curves/exit.csv: max |A - B| = 0.25 (2 vs 3 rows)", "2 files, 0 over tolerance",
            "curves/exit.csv: max |A - B| = 0.25 (2 vs 3 rows)", "2 files, 1 over tolerance"]

    def test_json_difference_and_missing_file_fail(self, tmp_path, capsys):
        a = _tree(tmp_path / "a", {"gap": 0.0, "gap_history": [1.0, 0.0]}, self.CURVE)
        b = _tree(tmp_path / "b", {"gap": 0.0, "gap_history": [0.0]}, self.CURVE,
                  extra="profile.json")
        assert compare_outputs.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["profile.json: only in B",
                       "report.json: gap_history: length 2 != 1",
                       "3 files, 2 over tolerance"]


def test_every_traced_layer_resolves():
    """Each ``perfbench/spans.py`` site names a function that kinwave still
    looks up there, so ``--trace 1`` can wrap it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for span, sites in spans.LAYERS.items():
        for site in sites:
            mod = importlib.import_module(site[0])
            if len(site) == 2:      # a module function, replaced by setattr
                assert callable(getattr(mod, site[1], None)), (span, site)
            else:                   # a method, read from the class __dict__
                assert site[2] in vars(getattr(mod, site[1])), (span, site)


# installs perfbench's tracer, then runs each command of argv[1] through the
# click entry point and prints the exit codes and the tracer's counters
_TRACED_RUN = """
import json, sys
from spans import Tracer
from kinwave.cli import main
tracer = Tracer()
tracer.install()
tracer.active = True
codes = []
for cmd in json.loads(sys.argv[1]):
    try:
        main.main([cmd, "--scenario", "s.json", "--out", "out_" + cmd],
                  prog_name="kinwave", standalone_mode=False)
    except SystemExit as e:
        codes.append(e.code)
print(json.dumps({"codes": codes, "windows": tracer.windows,
                  "exit_breakpoints": tracer.exit_breakpoints}))
"""


def test_traced_commands_run(tmp_path):
    """``--trace 1`` in small: with every layer wrapped, ``load``, ``nash``
    and ``opt`` on a one-arc Greenshields scenario still run, and the
    tracer counts their loading sweeps and exit breakpoints."""
    root = Path(__file__).resolve().parent.parent
    doc = {
        "format": 1, "nodes": ["a", "b"],
        "arcs": [{"from": "a", "to": "b", "length": 1.0,
                  "flux": {"kind": "greenshields", "v_free": 1.0, "rho_jam": 1.0}}],
        "groups": [{"size": 0.1, "origin": "a", "destination": "b",
                    "departure_cost": {"kind": "affine", "a": 0.0, "b": -1.0},
                    "arrival_cost": {"kind": "vickrey", "target": 1.0,
                                     "early_rate": 0.2, "late_rate": 0.4,
                                     "smoothing": 0.25}}],
        "solver": {"dt": 0.02, "bins": 8, "tol": 0.01, "max_iter": 20, "restarts": 1},
        "profile": {"start": 0.0, "bin_width": 0.5, "rates": [[[0.1, 0.1]]]},
    }
    (tmp_path / "s.json").write_text(json.dumps(doc), encoding="utf-8")
    path = [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")]
    # no bytecode cache written into perfbench/
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, '["load", "nash", "opt"]'],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # nash runs out of its 20 loads on 8 bins above tol, so it exits 1
    assert counts["codes"] == [0, 1, 0]
    assert counts["windows"] > 0 and counts["exit_breakpoints"] > 0


def test_digest_covers_every_run_and_its_plot_data(monkeypatch, capsys):
    """``tools/digest_outputs.py --seeds 0`` in-process: one exit line per run,
    and a ``plot_data.csv`` digest for every run but ``validate``'s."""
    root = Path(__file__).resolve().parent.parent
    # main puts src/ and perfbench/ first on sys.path and imports perfbench's
    # scenarios; no bytecode cache is written into perfbench/
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "scenarios", raising=False)
    spec = importlib.util.spec_from_file_location("digest_outputs",
                                                  root / "tools" / "digest_outputs.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    try:
        digest.main(["--seeds", "0"])
        import scenarios
        c = scenarios.mass_scale(0)
        want = {(command, name) for command, docs in (
            ("nash", scenarios.nash_scenarios(c)), ("load", scenarios.load_scenarios(c)),
            ("opt", scenarios.opt_scenarios(c))) for name in docs}
    finally:
        sys.modules.pop("scenarios", None)
    want |= {("validate", f"{command}/{name}") for command, name in want}
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert all(len(line) == 5 and line[0] == "0" for line in lines)
    exits = [(cmd, label) for _, cmd, label, what, _ in lines if what == "exit"]
    assert sorted(exits) == sorted(want)
    plotted = [(cmd, label) for _, cmd, label, what, _ in lines if what == "plot_data.csv"]
    assert sorted(plotted) == sorted(run for run in want if run[0] != "validate")


_STUB = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
log = here.parent / "log"
runs = log.read_text().split() if log.exists() else []
log.write_text(" ".join(runs + [here.name]))
wall = {WALL}[sum(r == here.name for r in runs)]
print(json.dumps({"correct": wall < 9, "attempted": 4, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
'''


def test_bench_pairs_alternates_and_flags(tmp_path, capsys):
    """``tools/bench_pairs.py`` on two stub checkouts: the parent runs first
    in odd pairs, the change wins where its run is lower, and a run that
    reads ``correct: false`` is flagged and left out of the medians; each
    checkout's ``src/kinwave`` line count is printed last but one."""
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    for name, walls in (("parent", [3.0, 3.0, 5.0]), ("change", [2.0, 4.0, 9.5])):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(
            _STUB.replace("{WALL}", repr(walls)), encoding="utf-8")
    for name, modules in (("parent", {"a.py": 3, "b.py": 1}), ("change", {"a.py": 3})):
        (tmp_path / name / "src" / "kinwave").mkdir(parents=True)
        for module, lines in modules.items():
            (tmp_path / name / "src" / "kinwave" / module).write_text("x = 1\n" * lines)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "opt-merge", "--pairs", "3", "--seconds", "1"])
    assert code == 1
    assert (tmp_path / "log").read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1 (parent first)" and out[3] == "pair 2 (change first)"
    assert out[8].endswith("FLAGGED: correct: false")
    assert out[9] == ("wall_s (s): parent 3 [3-3], change 3 [2.5-3.5], "
                      "change better in 1 of 2 pairs")
    assert out[-2] == "src/kinwave lines: parent 4, change 3"
    assert out[-1] == "1 flagged runs"

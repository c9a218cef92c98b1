"""The output-comparison tool in ``tools/`` on small hand-made trees."""
import importlib.util
import json
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

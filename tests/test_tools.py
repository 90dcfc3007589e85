"""The output comparison script in tools/, on hand-written output files."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lorstab.config import parse_config

ROOT = Path(__file__).resolve().parents[1]

REPORT = """lorstab run report
config:
  scenario = slice
{config}stability:
  verdict = {verdict}
  lambda1 = {lambda1}
"""


@pytest.fixture(scope="module")
def compare_outputs():
    """tools/compare_outputs.py imported by path.  It is in ``sys.modules``
    while it executes, as a dataclass needs; that entry and the interpreter
    settings its import changes (no bytecode, perfbench/ on sys.path) are
    put back after."""
    saved = sys.dont_write_bytecode, list(sys.path)
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def write_pair(tmp_path, parent, change, name="report.txt"):
    paths = []
    for side, text in (("parent", parent), ("change", change)):
        path = tmp_path / side / name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def report(config="", verdict="stable", lambda1="2.5"):
    return REPORT.format(config=config, verdict=verdict, lambda1=lambda1)


class TestCompareFile:
    def test_equal_bytes(self, compare_outputs, tmp_path, capsys):
        assert not compare_outputs.compare_file(*write_pair(tmp_path, report(), report()))
        assert capsys.readouterr().out == "  report.txt: bytes equal\n"

    def test_key_on_one_side_is_removed_or_added(self, compare_outputs, tmp_path, capsys):
        parent = report(config="  axis = 0 0 0 1\n  seed = 0\n")
        change = report(config="  seed = 0\n  level = 3\n")
        assert not compare_outputs.compare_file(*write_pair(tmp_path, parent, change))
        assert capsys.readouterr().out.splitlines() == [
            "  report.txt: bytes differ",
            "    config.axis: removed (0 0 0 1)",
            "    config.level: added (3)",
        ]

    def test_emptied_report_value_is_not_a_removed_key(self, compare_outputs, tmp_path, capsys):
        parent = report(config="  seed = 0\n  level = 3\n")
        change = report(config="  seed = \n  level = 3\n")
        assert not compare_outputs.compare_file(*write_pair(tmp_path, parent, change))
        assert capsys.readouterr().out.splitlines() == [
            "  report.txt: bytes differ",
            "    config.seed: 0 -> ",
        ]

    def test_column_on_one_side_is_not_an_emptied_value(self, compare_outputs, tmp_path, capsys):
        parent = "param,value,eigen_iterations,empirical_order\nlevel,4,5,2.0\n"
        change = "param,value,empirical_order\nlevel,4,\n"
        assert not compare_outputs.compare_file(*write_pair(tmp_path, parent, change, "sweep.csv"))
        assert capsys.readouterr().out.splitlines() == [
            "  sweep.csv: bytes differ",
            "    eigen_iterations: removed (5)",
            "    empirical_order: 2.0 -> ",
        ]

    def test_column_with_empty_cells_is_compared_as_numbers(self, compare_outputs, tmp_path, capsys):
        parent = "param,value,lambda1,empirical_order\nlevel,3,0.64,\nlevel,4,0.64,1.9990413283848185\n"
        change = "param,value,lambda1,empirical_order\nlevel,3,0.64,\nlevel,4,0.64,1.9990413283838957\n"
        assert not compare_outputs.compare_file(*write_pair(tmp_path, parent, change, "sweep.csv"))
        assert capsys.readouterr().out.splitlines() == [
            "  sweep.csv: bytes differ",
            "    empirical_order: max relative difference 4.62e-13 (largest |value| 2 -> 2)",
        ]

    def test_a_move_shows_the_field_magnitudes(self, compare_outputs, tmp_path, capsys):
        """A residual at rounding level that moves by rounding reads as a large
        relative difference; the magnitudes beside it show the field's scale."""
        parent = "lorstab run report\nconformal:\n  conformal_residual = 1.48e-14\n"
        change = "lorstab run report\nconformal:\n  conformal_residual = 1.25e-14\n"
        assert not compare_outputs.compare_file(*write_pair(tmp_path, parent, change))
        assert capsys.readouterr().out.splitlines() == [
            "  report.txt: bytes differ",
            "    conformal.conformal_residual: max relative difference 0.155 (largest |value| 1.48e-14 -> 1.25e-14)",
        ]

    def test_largest_magnitude_skips_text_and_nan(self, compare_outputs):
        assert compare_outputs.largest_magnitude(["", "-3.5", "nan", "n/a", "2"]) == 3.5
        assert np.isnan(compare_outputs.largest_magnitude(["", "nan"]))

    def test_equal_text_is_no_difference_and_one_empty_cell_is_text(self, compare_outputs):
        assert compare_outputs.relative_difference("", "") == 0.0
        assert compare_outputs.relative_difference("n/a", "n/a") == 0.0
        assert compare_outputs.relative_difference("", "2.0") is None
        assert compare_outputs.relative_difference("2.0", "") is None

    @pytest.mark.parametrize("change, line", [
        ({"verdict": "unstable"}, "    stability.verdict: stable -> unstable"),
        ({"lambda1": "2.6"},
         "    stability.lambda1: max relative difference 0.0385 (largest |value| 2.5 -> 2.6)  ABOVE 1e-12"),
    ], ids=["verdict", "lambda1"])
    def test_moved_verdict_or_lambda1_fails(self, compare_outputs, tmp_path, capsys, change, line):
        assert compare_outputs.compare_file(*write_pair(tmp_path, report(), report(**change)))
        assert line in capsys.readouterr().out.splitlines()


class TestMatrix:
    def test_every_config_parses(self, compare_outputs):
        """The 19 configs the tool runs after the workloads are all valid, so
        each one compares outputs, not the same config error twice."""
        assert len(compare_outputs.MATRIX) == 19
        assert len({case.name for case in compare_outputs.MATRIX}) == 19
        for case in compare_outputs.MATRIX:
            parse_config(case.config_text)


class TestSummaryLine:
    """The one line the tool prints per config, from two hand-written result sets."""

    def test_report(self, compare_outputs, tmp_path):
        text = "stability:\n  verdict = {}\n  lambda1 = {}\n  gap = -0.0012\n  tol_gap_effective = 0.08\n"
        parent, change = write_pair(tmp_path, text.format("stable", "0.64"), text.format("unstable", "0.65"))
        assert compare_outputs.summary_line({"parent": 0, "change": 3}, parent, change) == (
            "  summary: exit 0 -> 3; verdict stable -> unstable; lambda1 0.64 -> 0.65; "
            "gap -0.0012 -> -0.0012; tol_gap_effective 0.08 -> 0.08")

    def test_sweep_rows_and_a_missing_side(self, compare_outputs, tmp_path):
        parent = "param,value,lambda1,verdict\nlevel,3,0.641,stable\nlevel,4,0.640,stable\n"
        paths = write_pair(tmp_path, parent, parent, "sweep.csv")
        paths[1].unlink()
        assert compare_outputs.summary_line({"parent": 0, "change": 1}, *paths) == (
            "  summary: exit 0 -> 1; verdict stable,stable -> -; lambda1 0.641,0.640 -> -")


class TestMain:
    def test_last_line_counts_equal_files(self, compare_outputs, tmp_path, monkeypatch, capsys):
        """Two configs on two hand-made trees whose stand-in runs write one
        report each: equal bytes for the first config, a moved gap for the
        second.  The tool passes and its last line counts one equal file of two."""
        trees = [tmp_path / side for side in ("parent", "change")]
        for tree in trees:
            (tree / "lorstab").mkdir(parents=True)
            (tree / "lorstab" / "cli.py").touch()

        def run(src, argv):
            config, out = Path(argv[1]).read_text(encoding="utf-8"), Path(argv[-1])
            out.mkdir()
            gap = "0.5" if config == "moved" and src.name == "change" else "0.25"
            (out / "report.txt").write_text(report() + f"  gap = {gap}\n", encoding="utf-8")
            return 0

        monkeypatch.setattr(compare_outputs, "run", run)
        monkeypatch.setattr(compare_outputs, "WORKLOADS", {})
        monkeypatch.setattr(compare_outputs, "MATRIX", (
            compare_outputs.MatrixCase("same", "same"), compare_outputs.MatrixCase("moved", "moved")))
        assert compare_outputs.main([str(tree) for tree in trees]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "    stability.gap: max relative difference 0.5 (largest |value| 0.25 -> 0.5)" in lines
        assert lines[-1] == "output files with equal bytes: 1 of 2"

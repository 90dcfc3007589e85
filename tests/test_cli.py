"""The command-line contract: exit codes, byte-stable reports, overrides and
config errors that name their key."""

import importlib
import sys
from pathlib import Path

import pytest

from lorstab.cli import main
from lorstab.config import ConfigError, load_config

SLICE = "scenario = slice\nr = 1\ns0 = 1\nlevel = 3\n"
GRAPH = "scenario = graph\nr = 1\ns0 = 1\nperturbations = 2,0,0.05;3,1,0.02\nlevel = 3\n"
STEEP = "scenario = graph\nr = 1\ns0 = 0.1\nperturbations = 1,0,3.0\nlevel = 3\n"


def run(tmp_path, text, *extra, out="out"):
    config = tmp_path / "config.txt"
    config.write_text(text, encoding="utf-8")
    return main(["run", str(config), "--out", str(tmp_path / out), *extra])


def report_lines(tmp_path, out="out"):
    return (tmp_path / out / "report.txt").read_text(encoding="utf-8").splitlines()


class TestExitCodes:
    def test_stable_slice_exits_zero(self, tmp_path):
        assert run(tmp_path, SLICE) == 0
        assert "  verdict = stable" in report_lines(tmp_path)

    def test_hypotheses_violated_exits_two(self, tmp_path):
        assert run(tmp_path, GRAPH) == 2
        assert "  verdict = hypotheses-violated" in report_lines(tmp_path)

    def test_construction_failure_exits_three(self, tmp_path, capsys):
        assert run(tmp_path, STEEP) == 3
        assert "not spacelike at vertex 0" in capsys.readouterr().err

    def test_unknown_key_exits_four_naming_it(self, tmp_path, capsys):
        assert run(tmp_path, SLICE + "bogus = 1\n") == 4
        assert "'bogus'" in capsys.readouterr().err
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "config.txt")
        assert err.value.key == "bogus"

    def test_level_override_out_of_range_exits_four(self, tmp_path, capsys):
        assert run(tmp_path, SLICE, "--level", "7") == 4
        assert "'level'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReport:
    def test_byte_identical_across_runs(self, tmp_path):
        assert run(tmp_path, SLICE, out="a") == 0
        assert run(tmp_path, SLICE, out="b") == 0
        first = (tmp_path / "a" / "report.txt").read_bytes()
        assert first == (tmp_path / "b" / "report.txt").read_bytes()

    def test_variation_truncation_estimates_are_written(self, tmp_path):
        assert run(tmp_path, SLICE + "checks = stability,variation\n") == 0
        header, *rows = (tmp_path / "out" / "checks.csv").read_text(encoding="utf-8").splitlines()
        assert header == "check,h,level,lhs,rhs,rel_error,richardson,max_error"
        by_check = {}
        for row in rows:
            fields = row.split(",")
            by_check.setdefault(fields[0], []).append(fields[-2:])
        # first and second variation estimate truncation, the field check a maximum
        for richardson, max_error in by_check["first_variation"] + by_check["second_variation"]:
            assert float(richardson) >= 0.0 and max_error == "nan"
        for richardson, max_error in by_check["sr_evolution"]:
            assert richardson == "nan" and float(max_error) >= 0.0
        assert by_check["volume_balance"] == [["nan", "nan"]] * 2
        # the report's variation block carries the same two values after rel_error
        lines = report_lines(tmp_path)
        first = lines.index("  first_variation:")
        assert lines[first + 4].startswith("    rel_error = ")
        assert lines[first + 5] == f"    richardson = {rows[0].split(',')[6]}"
        assert lines[first + 6] == "    max_error = nan"
        assert sum(line.startswith("    max_error = ") for line in lines) == 8

    def test_level_and_seed_overrides_reach_the_report(self, tmp_path):
        assert run(tmp_path, SLICE, "--level", "4", "--seed", "11") == 0
        lines = report_lines(tmp_path)
        assert "  level = 4" in lines
        assert "  seed = 11" in lines
        assert "  level = 3" not in lines


class TestBenchmarkTracerSites:
    def test_every_layer_site_resolves(self):
        """The traced benchmark run rebinds these names; a refactor that drops
        one would make that run fail."""
        root = Path(__file__).resolve().parents[1] / "perfbench"
        saved = sys.dont_write_bytecode
        sys.dont_write_bytecode = True   # leave no cache files under perfbench/
        sys.path.insert(0, str(root))
        try:
            tracer = importlib.import_module("tracer")
        finally:
            sys.path.remove(str(root))
            sys.dont_write_bytecode = saved
        sites = [site for layer in tracer.LAYERS for site in layer.sites]
        assert sites
        for site in sites:
            owner_path, _, attr = site.rpartition(".")
            assert hasattr(tracer._resolve(owner_path), attr), site

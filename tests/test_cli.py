"""The command-line contract: exit codes, byte-stable reports, overrides and
config errors that name their key."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorstab.surfaces
from lorstab.cli import main, run_scenario, sweep_scenario
from lorstab.config import ConfigError, load_config, parse_config
from lorstab.report import render_run_report

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

    def test_overflowing_metric_exits_three(self, tmp_path):
        """In a fresh process, so that the test runner hides no NumPy
        RuntimeWarning: stderr is the one failure line."""
        src = Path(importlib.import_module("lorstab").__file__).resolve().parents[1]
        config = tmp_path / "config.txt"
        for s0, message in [
            (200, "face 0 is not spacelike (induced metric is not finite)"),
            (400, "surface is not spacelike at vertex 0: the metric is not finite"),
        ]:
            config.write_text(SLICE.replace("s0 = 1", f"s0 = {s0}"), encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-m", "lorstab.cli", "run", str(config), "--out", str(tmp_path / "out")],
                env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            )
            assert done.returncode == 3
            assert done.stderr == f"computation failed: {message}\n"

    def test_non_elliptic_level_sweep_reports_nan_and_no_order(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SLICE.replace("s0 = 1", "s0 = -1"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--param", "level", "--values", "3,4", "--out", str(out)]) == 2
        assert "empirical_order_mean" not in capsys.readouterr().out
        header, *rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert header == ("param,value,lambda,lambda1,eigen_residual,eigen_iterations,gap,"
                          "lambda_residual,h_next_residual,verdict,empirical_order")
        assert len(rows) == 2
        for row in rows:
            _, _, _, lambda1, residual, iterations, gap, _, _, verdict, order = row.split(",")
            assert (lambda1, residual, iterations, gap, verdict, order) == (
                "nan", "nan", "0", "nan", "hypotheses-violated", "")

    def test_unknown_key_exits_four_naming_it(self, tmp_path, capsys):
        assert run(tmp_path, SLICE + "bogus = 1\n") == 4
        assert "'bogus'" in capsys.readouterr().err
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "config.txt")
        assert err.value.key == "bogus"

    def test_negative_seed_override_exits_four(self, tmp_path, capsys):
        assert run(tmp_path, SLICE, "--seed", "-1") == 4
        assert capsys.readouterr().err == "config error: key 'seed': expected a nonnegative integer, got -1\n"

    def test_unknown_sweep_param_names_its_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            sweep_scenario(parse_config(SLICE), "bogus", [1.0], tmp_path / "out")
        assert err.value.key == "--param"

    def test_level_override_out_of_range_exits_four(self, tmp_path, capsys):
        assert run(tmp_path, SLICE, "--level", "7") == 4
        assert capsys.readouterr().err == "config error: key 'level': expected one of (3, 4, 5, 6), got 7\n"
        assert not (tmp_path / "out").exists()


    def test_level_sweep_out_of_range_exits_four(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SLICE, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--param", "level", "--values", "3,2", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "config error: key 'level': expected one of (3, 4, 5, 6), got 2\n"
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param, values, message", [
        ("level", "3.7", "key 'level': expected an integer, got 3.7"),
        ("s0", "1,x", "key '--values': expected a real, got 'x'"),
        ("s0", ",", "key '--values': expected a nonempty list"),
        ("bogus", "1", "key '--param': expected s0, level or amplitude, got 'bogus'"),
        ("amplitude", "0.1", "key 'perturbations': amplitude sweeps need at least one configured perturbation"),
    ], ids=["fractional-level", "not-a-number", "empty-values", "unknown-param", "amplitude-without-perturbation"])
    def test_bad_sweep_value_exits_four(self, tmp_path, capsys, param, values, message):
        config = tmp_path / "config.txt"
        config.write_text(SLICE, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--param", param, "--values", values, "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("text, key", [
        (SLICE + "perturbations = 2,0,0.05\n", "perturbations"),
        (GRAPH + "checks = stability,variation\n", "checks"),
    ], ids=["slice-with-perturbations", "graph-with-variation"])
    def test_key_the_surface_does_not_read_exits_four(self, tmp_path, capsys, text, key):
        """A key that would be reported but change nothing, or a check the
        surface cannot take, is an error before any output."""
        assert run(tmp_path, text) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{key}': ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_exits_four(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_bytes(b"scenario = slice\nr = 1\ns0 = \xff\nlevel = 3\n")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            f"config error: config file {config} is not UTF-8: invalid start byte at byte 28\n")
        assert not (tmp_path / "out").exists()

    def test_config_with_a_byte_order_mark_parses(self, tmp_path):
        config = tmp_path / "bom.txt"
        config.write_bytes(b"\xef\xbb\xbf" + SLICE.encode("utf-8"))
        assert main(["run", str(config), "--out", str(tmp_path / "bom")]) == 0
        assert run(tmp_path, SLICE) == 0
        assert (tmp_path / "bom" / "report.txt").read_bytes() == (tmp_path / "out" / "report.txt").read_bytes()

    @pytest.mark.parametrize("command, name", [("run", "report.txt"), ("sweep", "sweep.csv")])
    def test_output_file_that_cannot_be_written_exits_four(self, tmp_path, capsys, command, name):
        config = tmp_path / "config.txt"
        config.write_text(SLICE, encoding="utf-8")
        (tmp_path / "out" / name).mkdir(parents=True)
        extra = ["--param", "s0", "--values", "0.5,1"] if command == "sweep" else []
        assert main([command, str(config), *extra, "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr() == (
            "", f"config error: key '--out': cannot write {tmp_path / 'out' / name}: Is a directory\n")

    def test_unwritable_checks_csv_leaves_no_report(self, tmp_path, capsys):
        """report.txt is written last, so a run that exits 4 on its outputs
        leaves no complete-looking report behind."""
        (tmp_path / "out" / "checks.csv").mkdir(parents=True)
        assert run(tmp_path, SLICE + "checks = stability,variation\n") == 4
        assert capsys.readouterr() == (
            "", f"config error: key '--out': cannot write {tmp_path / 'out' / 'checks.csv'}: Is a directory\n")
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_help_prints_usage_not_implementation_notes(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert "\n    lorstab run <config> [--out DIR] [--level N] [--seed K]\n" in out
        assert "4 configuration error" in out
        assert "gc.freeze" not in out and "f2py" not in out

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("out, reason", [("file", "File exists"), ("file/out", "Not a directory")],
                             ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_four(self, tmp_path, capsys, command, out, reason):
        config = tmp_path / "config.txt"
        config.write_text(SLICE, encoding="utf-8")
        (tmp_path / "file").write_text("", encoding="utf-8")
        extra = ["--param", "s0", "--values", "0.5,1"] if command == "sweep" else []
        assert main([command, str(config), *extra, "--out", str(tmp_path / out)]) == 4
        assert capsys.readouterr() == (
            "", f"config error: key '--out': cannot make directory {tmp_path / out}: {reason}\n")


NO_LEVEL = "scenario = slice\nr = 1\ns0 = 1\n"
PLAIN_GRAPH = "scenario = graph\nr = 1\ns0 = 1\nlevel = 3\n"

# (key, config text): one rejected value per error site of parse_config
CONFIG_ERRORS = {
    "scenario-missing": ("scenario", "r = 1\ns0 = 1\n"),
    "scenario-invalid": ("scenario", "scenario = cone\nr = 1\ns0 = 1\n"),
    "r-missing": ("r", "scenario = slice\ns0 = 1\n"),
    "r-not-integer": ("r", "scenario = slice\nr = 1.5\ns0 = 1\n"),
    "r-out-of-range": ("r", "scenario = slice\nr = 2\ns0 = 1\n"),
    "n-removed": ("n", SLICE + "n = 2\n"),
    "s0-missing": ("s0", "scenario = graph\nr = 1\n"),
    "s0-not-number": ("s0", "scenario = slice\nr = 1\ns0 = high\n"),
    "s0-nan": ("s0", "scenario = slice\nr = 1\ns0 = nan\n"),
    "s0-inf": ("s0", "scenario = slice\nr = 1\ns0 = inf\n"),
    "axis-length": ("axis", SLICE + "axis = 0 0 1\n"),
    "axis-parse": ("axis", SLICE + "axis = 0 0 0 one\n"),
    "axis-nan": ("axis", SLICE + "axis = nan 0 0 1\n"),
    "axis-not-unit-timelike": ("axis", SLICE + "axis = 1 0 0 0\n"),
    "killing_u-length": ("killing_u", SLICE + "killing_u = 1 0 0\n"),
    "killing_u-parse": ("killing_u", SLICE + "killing_u = 1 0 0 x\n"),
    "killing_v-length": ("killing_v", SLICE + "killing_v = 0 0 0 1 0\n"),
    "killing_v-parse": ("killing_v", SLICE + "killing_v = 0,0,0,y\n"),
    "perturbations-not-triple": ("perturbations", PLAIN_GRAPH + "perturbations = 2,0\n"),
    "perturbations-parse": ("perturbations", PLAIN_GRAPH + "perturbations = 2,x,0.1\n"),
    "perturbations-not-finite": ("perturbations", PLAIN_GRAPH + "perturbations = 2,0,inf\n"),
    "perturbations-m-above-l": ("perturbations", PLAIN_GRAPH + "perturbations = 2,5,0.1\n"),
    "perturbations-l-negative": ("perturbations", PLAIN_GRAPH + "perturbations = -1,0,0.1\n"),
    "perturbations-on-slice": ("perturbations", SLICE + "perturbations = 2,0,0.05\n"),
    "level-out-of-range": ("level", NO_LEVEL + "level = 7\n"),
    "level-not-integer": ("level", NO_LEVEL + "level = 4.5\n"),
    "level-none-on-slice": ("level", NO_LEVEL + "level = none\n"),
    "checks-unknown": ("checks", SLICE + "checks = stability,bogus\n"),
    "checks-variation-on-graph": ("checks", GRAPH + "checks = variation\n"),
    "checks-repeated": ("checks", SLICE + "checks = stability,stability\n"),
    "checks-empty": ("checks", SLICE + "checks = \n"),
    "fd_h-out-of-range": ("fd_h", SLICE + "fd_h = 0.01\n"),
    "fd_h-not-number": ("fd_h", SLICE + "fd_h = small\n"),
    "mesh_file-removed": ("mesh_file", SLICE + "mesh_file = surface.mesh\n"),
    "mesh_fit_lmax-removed": ("mesh_fit_lmax", SLICE + "mesh_fit_lmax = 6\n"),
    "tol_gap-not-number": ("tol_gap", SLICE + "tol_gap = wide\n"),
    "tol_gap-nan": ("tol_gap", SLICE + "tol_gap = nan\n"),
    "tol_gap-negative": ("tol_gap", SLICE + "tol_gap = -1\n"),
    "tol_const-not-number": ("tol_const", SLICE + "tol_const = 1e-6x\n"),
    "tol_const-negative": ("tol_const", SLICE + "tol_const = -1\n"),
    "solver_tol-not-number": ("solver_tol", SLICE + "solver_tol = tight\n"),
    "solver_tol-zero": ("solver_tol", SLICE + "solver_tol = 0\n"),
    "solver_tol-negative": ("solver_tol", SLICE + "solver_tol = -1\n"),
    "seed-not-integer": ("seed", SLICE + "seed = 0x1\n"),
    "seed-negative": ("seed", SLICE + "seed = -1\n"),
    "duplicated-key": ("s0", SLICE + "s0 = 2\n"),
    "unknown-key": ("bogus", SLICE + "bogus = 1\n"),
    "line-without-equals": ("r", "scenario = slice\nr 1\ns0 = 1\n"),
}


class TestConfigErrors:
    @pytest.mark.parametrize("key, text", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    def test_error_names_its_key(self, tmp_path, key, text):
        with pytest.raises(ConfigError) as err:
            run_scenario(parse_config(text), tmp_path / "out")
        assert err.value.key == key
        assert f"'{key}'" in str(err.value)

    def test_line_without_equals_names_its_first_word(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = slice\nr 1\ns0 = 1\n")
        assert str(err.value) == "key 'r': line 2: expected 'key = value', got 'r 1'"


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


class TestSharedFactor:
    """A sweep solves in one ``fem.shared_spectrum`` scope; nothing holds a factor."""

    def sweep(self, tmp_path, param, values, text=SLICE):
        config = tmp_path / "config.txt"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--param", param, "--values", values, "--out", str(out)]) == 0
        header, *rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    def test_s0_sweep_factors_once(self, tmp_path, factors):
        rows = self.sweep(tmp_path, "s0", "0.3,1,1.9")
        assert len(factors) == 1
        assert factors.held() == []
        for row in rows:
            assert 0.0 < float(row["eigen_residual"]) < 1e-8
            assert row["verdict"] == "stable"

    def test_repeated_value_writes_identical_rows(self, tmp_path, factors):
        """The second row carries the first's eigenpair: the same bits, with 0
        shift-invert applications."""
        first, second = self.sweep(tmp_path, "s0", "1,1")
        assert int(first.pop("eigen_iterations")) > 0 and second.pop("eigen_iterations") == "0"
        assert first == second
        assert len(factors) == 1

    def test_level_sweep_factors_each_level(self, tmp_path, factors):
        self.sweep(tmp_path, "level", "3,4")
        assert len(factors) == 2
        assert factors.held() == []

    def test_run_holds_no_factor(self, tmp_path, factors):
        assert run(tmp_path, SLICE) == 0
        assert len(factors) == 1
        assert factors.held() == []


REALS = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)


@st.composite
def config_texts(draw):
    """A valid config, with every optional key its scenario reads present or
    absent: perturbations only on a graph, the variation check only on a slice."""
    scenario = draw(st.sampled_from(("slice", "graph")))
    lines = {"scenario": scenario, "r": draw(st.integers(0, 1)), "s0": draw(REALS.map(repr))}
    checks = ("stability", "killing", "conformal") + (("variation",) if scenario == "slice" else ())
    optional = {
        "axis": st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(
            lambda x: " ".join(map(repr, (*x, float(np.sqrt(1.0 + np.dot(x, x))))))),
        "perturbations": st.lists(st.integers(0, 6).flatmap(
            lambda l: st.tuples(st.just(l), st.integers(-l, l), REALS)), max_size=3).map(
            lambda ts: ";".join(f"{l},{m},{a!r}" for l, m, a in ts)),
        "level": st.sampled_from((3, 4, 5, 6)),
        "tol_gap": POSITIVE.map(repr),
        "tol_const": POSITIVE.map(repr),
        "solver_tol": POSITIVE.map(repr),
        "checks": st.lists(st.sampled_from(checks), min_size=1, unique=True).map(",".join),
        "killing_u": st.lists(REALS, min_size=4, max_size=4).map(lambda v: " ".join(map(repr, v))),
        "killing_v": st.lists(REALS, min_size=4, max_size=4).map(lambda v: " ".join(map(repr, v))),
        "fd_h": st.floats(min_value=0.0, max_value=5e-3, exclude_min=True).map(repr),
        "seed": st.integers(0, 2**63),
    }
    for key, values in optional.items():
        if key == "perturbations" and scenario == "slice":
            continue
        if draw(st.booleans()):
            lines[key] = draw(values)
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def resolved(config):
    """Every field of a config, with the defaulted axis, constancy tolerance
    and Killing v replaced by the values a run uses."""
    values = dataclasses.asdict(config)
    values.update(axis=config.axis_array.tolist(), tol_const=config.constancy_tolerance,
                  killing_v=config.killing_v_array.tolist())
    return values


class TestConfigRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(config_texts())
    def test_report_config_block_parses_to_the_same_config(self, text):
        config = parse_config(text)
        header, title, *block = render_run_report(config, None, [], []).splitlines()
        assert (header, title) == ("lorstab run report", "config:")
        assert all(line.startswith("  ") for line in block)
        again = parse_config("\n".join(block))
        assert resolved(again) == resolved(config)

    @pytest.mark.parametrize("text", [SLICE], ids=["slice"])
    def test_absent_values_round_trip_as_none(self, text):
        config = parse_config(text)
        block = render_run_report(config, None, [], []).splitlines()[2:]
        assert "  perturbations = none" in block
        assert parse_config("\n".join(block)) == dataclasses.replace(
            config, axis=(0.0, 0.0, 0.0, 1.0), tol_const=config.constancy_tolerance,
            killing_v=(0.0, 0.0, 0.0, 1.0))


class TestBlasThreads:
    @pytest.mark.parametrize("preset, want", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
    ])
    def test_cli_import_sets_one_thread_unless_chosen(self, preset, want):
        src = Path(importlib.import_module("lorstab").__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(preset, PYTHONPATH=str(src))
        code = "import os, lorstab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == want


class TestCollectorPolicy:
    """``import lorstab.cli`` imports NumPy and SciPy with the cyclic collector
    off, then freezes what they left and turns the collector back on.  Each
    test runs in a fresh interpreter, as the two entry points do."""

    def test_cli_import_freezes_and_reenables_the_collector(self):
        src = Path(importlib.import_module("lorstab").__file__).resolve().parents[1]
        code = "import gc, lorstab.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "True"]

    def test_module_entry_point_writes_the_in_process_report(self, tmp_path):
        src = Path(importlib.import_module("lorstab").__file__).resolve().parents[1]
        config = tmp_path / "config.txt"
        config.write_text(SLICE, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "lorstab.cli", "run", str(config), "--out", str(tmp_path / "process")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert main(["run", str(config), "--out", str(tmp_path / "in-process")]) == 0
        assert (tmp_path / "process" / "report.txt").read_bytes() == (
            tmp_path / "in-process" / "report.txt").read_bytes()


def _fresh_interpreter(code: str) -> str:
    src = Path(importlib.import_module("lorstab").__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestStartupImports:
    """``import lorstab.cli`` hides ``f2py`` and ``testing`` from NumPy's
    ``__all__`` and ``dir`` while SciPy clones NumPy's namespace, then puts
    them back.  Each test runs in a fresh interpreter."""

    NAMESPACE = "import json, numpy; print(json.dumps([sorted(numpy.__all__), sorted(dir(numpy))]))"

    def test_cli_import_loads_no_f2py_or_testing(self):
        code = ("import sys, lorstab.cli; print([name for name in ('numpy.f2py', 'numpy.testing', "
                "'charset_normalizer', 'unittest') if name in sys.modules])")
        assert _fresh_interpreter(code).split() == ["[]"]

    def test_numpy_namespace_is_put_back(self):
        assert _fresh_interpreter("import lorstab.cli; " + self.NAMESPACE) == _fresh_interpreter(self.NAMESPACE)

    def test_numpy_testing_imports_afterwards(self):
        code = "import lorstab.cli, numpy.testing; numpy.testing.assert_equal(1, 1); print('ok')"
        assert _fresh_interpreter(code).split() == ["ok"]


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

    def test_slice_paths_reach_the_surfaces_sites(self, tmp_path, monkeypatch):
        """The traced benchmark requires calls at ``lorstab.surfaces.build_graph``
        on its slice workloads: a slice run builds through it once, and a
        sweep once per value."""
        calls = []
        build_graph = lorstab.surfaces.build_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(lorstab.surfaces, "build_graph", counting)
        assert run(tmp_path, SLICE) == 0
        assert len(calls) == 1
        calls.clear()
        config = tmp_path / "config.txt"
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "s0", "--values", "0.5,1", "--out", str(out)]) == 0
        assert len(calls) == 2
        for name in ("icosphere", "validate_closed_oriented"):
            assert callable(getattr(lorstab.surfaces, name)), name

"""Command-line entry point.

    lorstab run <config> [--out DIR] [--level N]
    lorstab sweep <config> --param {s0,level} --values v1,v2,... [--out DIR]

A config holds key = value lines; its scenario is a slice (an umbilical
slice at height s0) or a graph (s0 plus harmonic perturbations).  Exit
codes: 0 success, 2 hypotheses-violated verdict, 3 construction or solver
failure, 4 configuration error (command-line usage errors too).  Reports
and CSV tables are byte-stable for a fixed config and seed; wall times go
to stdout only.

A sweep solves its values in one ``fem.shared_spectrum`` scope, so it solves
once per family of proportional pencils (an s0 sweep of slices solves once,
and its other rows carry that eigenpair with 0 applications) and writes each
solve's ``eigen_residual`` and ``eigen_iterations`` beside its ``lambda1``.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` before NumPy loads,
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set: the solver's
vectors are too short to share (on 2 vCPUs, a six-slice level-5 sweep took
1.4-2.2 s at OpenBLAS's default thread count against 0.76 s on one).

Importing it also turns the cyclic garbage collector off while NumPy and SciPy
import, then moves every object alive at that point into the permanent
generation (``gc.freeze``) and turns the collector back on.  The imports leave
about 54k objects that live as long as the process, and walking them was pure
cost: ``import lorstab.cli`` ran 84 generation-0 and 7 generation-1
collections (now one, while the interpreter loads this module's code), and a
process that only imported it took a median 52-57 ms from its last statement
to its exit against 14-18 ms frozen (7-10 ms for a bare interpreter).  A run
allocates few cycles of its own and triggers no collection.

SciPy imports without the NumPy submodules that NumPy loads lazily and no
run reads.  SciPy's vendored ``array_api_compat.numpy`` clones NumPy's
namespace: ``from numpy import *``, then ``getattr`` of every name in
``dir(numpy)``.  NumPy 2.x lists its lazily loaded submodules in both, so the
clone imported every one of them, among them the Fortran wrapper generator
f2py (which loads ``charset_normalizer`` and about a hundred codecs),
``numpy.testing`` (which loads ``unittest`` and ``difflib``), ``numpy.ma``,
``polynomial``, ``ctypeslib``, ``rec``, ``char``, ``strings`` and the
deprecated ``core`` shim.  While ``scipy.sparse.linalg`` imports, this module
takes every name that ``dir(numpy)`` lists and NumPy has not loaded yet, except
``random`` (every solve draws its start vector from it), out of
``numpy.__all__`` and ``dir(numpy)``, then puts NumPy's ``__all__`` and
``__dir__`` back as they were.  On NumPy 2.4 that hides ``char``, ``core``,
``ctypeslib``, ``f2py``, ``fft``, ``ma``, ``polynomial``, ``rec``,
``strings``, ``testing`` and ``typing``; SciPy imports ``fft`` and ``typing``
itself.  NumPy 1.x loads only ``testing`` (in some releases also ``Tester``)
lazily, so there the rule hides no more than that.  A variation run imports
``numpy.polynomial`` at its first Gauss-Legendre rule.  ``import lorstab.cli``
now leaves 423 entries in ``sys.modules`` (444 when only f2py and testing
were hidden, 627 with nothing hidden) and 49.2k frozen objects instead of
53.6k, and took a median 298 ms instead of 312 ms (40 interleaved pairs of
fresh processes with compiled bytecode, 2 vCPU Intel Xeon, NumPy 2.4.6, SciPy
1.17.1; 370 ms instead of 384 ms without a bytecode cache).  The one lasting
effect: SciPy's cloned namespace has none of the hidden attributes.  SciPy
reads ``xp.testing`` only in its ``xp_assert_*`` test helpers, which lorstab
never calls, and every hidden submodule still imports afterwards
(``numpy.ma``, ``import numpy.testing``).
"""

from __future__ import annotations

import gc
import os

gc.disable()
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from math import log2
from pathlib import Path

import numpy as np

# SciPy clones NumPy's namespace on import; keep the lazy submodules no run
# reads out of the clone (see the module docstring), then put NumPy's dict back
# as it was.  Every solve reads random for its start vector.
_numpy_vars = vars(np)
_saved = {key: _numpy_vars[key] for key in ("__all__", "__dir__") if key in _numpy_vars}
_hidden = set(dir(np)) - set(_numpy_vars) - {"random"}
try:
    np.__all__ = [name for name in np.__all__ if name not in _hidden]
    np.__dir__ = lambda: [name for name in _saved.get("__dir__", lambda: list(_numpy_vars))()
                          if name not in _hidden]
    import scipy.sparse.linalg  # noqa: F401
finally:
    _numpy_vars.pop("__all__", None)
    _numpy_vars.pop("__dir__", None)
    _numpy_vars.update(_saved)

from .config import ConfigError, ScenarioConfig, check_level, load_config, parse_reals
from .fem import SolverError, shared_spectrum
from .harmonics import HarmonicField
from .report import fmt, render_run_report, write_checks_csv, write_sweep_csv
from .stability import analyze, conformal_identity_check, killing_eigen_check
from .surfaces import (
    GraphConstructionError,
    GraphSurface,
    build_graph,
    build_slice,
)
from .variation import (
    FlowError,
    NormalVariation,
    VariationCheck,
    verify_first_variation,
    verify_second_variation,
    verify_sr_evolution,
    volume_derivative_check,
)

gc.freeze()
gc.enable()

__all__ = ["main", "run_scenario", "sweep_scenario"]

EXIT_OK = 0
EXIT_HYPOTHESES = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _build_surface(config: ScenarioConfig) -> tuple[GraphSurface, list[tuple[str, object]]]:
    extra: list[tuple[str, object]] = []
    if config.scenario == "slice":
        surface = build_slice(config.s0, level=config.level)
    else:
        surface = build_graph(config.s0, perturbations=config.perturbations, level=config.level)
        extra.append(("metric_anisotropy", surface.metric_ratio))
    return surface, extra


_FD_H = 1e-3        # first-difference step (second differences take 10x); perfbench's FD_BOUNDS assume it


def _variation_battery(surface: GraphSurface, config: ScenarioConfig) -> list[VariationCheck]:
    r, h = config.r, _FD_H
    const = NormalVariation(base=surface, amplitude=HarmonicField(constant=1.0))
    y10 = NormalVariation(base=surface, amplitude=HarmonicField(terms=((1, 0, 1.0),)))
    y20 = NormalVariation(base=surface, amplitude=HarmonicField(terms=((2, 0, 1.0),)))
    return [
        verify_first_variation(const, r, h=h),
        verify_first_variation(y20, r, h=h),
        verify_sr_evolution(const, r, h=h),
        verify_sr_evolution(y10, r, h=h),
        volume_derivative_check(const, h=h),
        volume_derivative_check(y10, h=h),
        verify_second_variation(y10, r, h=10.0 * h),
        verify_second_variation(y20, r, h=10.0 * h),
    ]


def _make_out_dir(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"key '--out': cannot make directory {out}: {err.strerror}", key="--out") from err
    return out


@contextmanager
def _writing_out():
    """Report a file under ``--out`` that cannot be written as a config error."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"key '--out': cannot write {err.filename}: {err.strerror}", key="--out") from err


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> int:
    out = _make_out_dir(out_dir)
    t0 = time.perf_counter()

    surface, extra = _build_surface(config)

    stability_report = None
    scalar_checks: list[tuple[str, float]] = []
    variation_checks: list[VariationCheck] = []

    if "stability" in config.checks:
        stability_report = analyze(surface, config)
    if "killing" in config.checks:
        residual, mean_frac = killing_eigen_check(surface, config.r)
        scalar_checks.append(("killing_residual", residual))
        scalar_checks.append(("killing_eta_mean_fraction", mean_frac))
    if "conformal" in config.checks:
        scalar_checks.append(("conformal_residual", conformal_identity_check(surface, config.r)))
    if "variation" in config.checks:
        variation_checks = _variation_battery(surface, config)

    report_text = render_run_report(config, stability_report, scalar_checks, variation_checks, extra)
    with _writing_out():
        # report.txt last: a run that cannot write every output leaves no report
        if variation_checks:
            write_checks_csv(out / "checks.csv", variation_checks)
        (out / "report.txt").write_text(report_text, encoding="utf-8")
    print(f"report: {out / 'report.txt'}")
    print(f"wall_time_s={time.perf_counter() - t0:.3f}")

    if stability_report is not None and stability_report.verdict == "hypotheses-violated":
        return EXIT_HYPOTHESES
    return EXIT_OK


_SWEEP_HEADER = [
    "param", "value", "lambda", "lambda1", "eigen_residual", "eigen_iterations", "gap",
    "lambda_residual", "h_next_residual", "verdict", "empirical_order",
]


def sweep_scenario(config: ScenarioConfig, param: str, values: list[float], out_dir: str | Path) -> int:
    if param not in ("s0", "level"):
        raise ConfigError(f"key '--param': expected s0 or level, got '{param}'", key="--param")
    out = _make_out_dir(out_dir)
    t0 = time.perf_counter()

    def configure(value: float) -> ScenarioConfig:
        if param == "s0":
            return dataclasses.replace(config, s0=float(value))
        if not float(value).is_integer():
            raise ConfigError(f"key 'level': expected an integer, got {value}", key="level")
        return dataclasses.replace(config, level=check_level(int(value)))

    def evaluate(value: float):
        cfg = configure(value)
        surface, _ = _build_surface(cfg)
        return analyze(surface, cfg)

    with shared_spectrum():
        reports = [evaluate(value) for value in values]
    rows = []
    prev_gap = None
    orders = []
    for value, rep in zip(values, reports):
        order = ""
        # an order needs two finite nonzero gaps; a non-elliptic row's is nan
        if param == "level" and prev_gap is not None and 0.0 < abs(prev_gap * rep.gap) < np.inf:
            order = log2(abs(prev_gap) / abs(rep.gap))
            orders.append(order)
        rows.append(
            [param, value, rep.lambda_mean, rep.lambda1, rep.eigen_residual, rep.eigen_iterations,
             rep.gap, rep.lambda_residual, rep.h_next_residual, rep.verdict, order]
        )
        prev_gap = rep.gap
    with _writing_out():
        write_sweep_csv(out / "sweep.csv", _SWEEP_HEADER, rows)
    print(f"sweep: {out / 'sweep.csv'}")
    if orders:
        print(f"empirical_order_mean={fmt(float(np.mean(orders)))}")
    print(f"wall_time_s={time.perf_counter() - t0:.3f}")
    if any(rep.verdict == "hypotheses-violated" for rep in reports):
        return EXIT_HYPOTHESES
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits 4, a configuration error, not argparse's 2, which
    is the code of a hypotheses-violated verdict; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    # the usage paragraphs of the module docstring, not its implementation notes
    usage = "\n\n".join(__doc__.split("\n\n")[:3])
    parser = _ArgumentParser(prog="lorstab", description=usage,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="lorstab-out")
    p_run.add_argument("--level", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a value list")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", default="lorstab-out")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            if args.level is not None:
                config = dataclasses.replace(config, level=check_level(args.level))
            return run_scenario(config, args.out)
        values = list(parse_reals("--values", args.values))
        if not values:
            raise ConfigError("key '--values': expected a nonempty list", key="--values")
        return sweep_scenario(config, args.param, values, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphConstructionError, FlowError, SolverError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())

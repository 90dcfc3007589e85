"""Command-line entry point.

    lorstab run <config> [--out DIR] [--level N] [--seed K]
    lorstab sweep <config> --param {s0,level,amplitude} --values v1,v2,... [--out DIR]

A config holds key = value lines; its scenario is a slice (an umbilical
slice at height s0) or a graph (s0 plus harmonic perturbations).  Exit
codes: 0 success, 2 hypotheses-violated verdict, 3 construction or solver
failure, 4 configuration error.  Reports and CSV tables are byte-stable for
a fixed config and seed; wall times go to stdout only.

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

SciPy imports without ``numpy.f2py`` and ``numpy.testing``.  SciPy's vendored
``array_api_compat.numpy`` clones NumPy's namespace: ``from numpy import *``,
then ``getattr`` of every name in ``dir(numpy)``.  NumPy 2.x lists its lazily
loaded submodules in both, so the clone imported every one of them, among
them the Fortran wrapper generator f2py (which loads ``charset_normalizer``
and about a hundred codecs) and ``numpy.testing`` (which loads ``unittest``
and ``difflib``); a run reads neither.  While ``scipy.sparse.linalg`` imports,
this module takes ``f2py`` and ``testing`` out of ``numpy.__all__`` and
``dir(numpy)``, then puts NumPy's ``__all__`` and ``__dir__`` back as they
were.  ``import lorstab.cli`` now leaves 444 entries in ``sys.modules``
instead of 627 and 53.8k frozen objects instead of 70.3k, and took a median
236 ms instead of 350 ms (21 interleaved fresh processes, 2 vCPU Intel Xeon,
NumPy 2.4.6, SciPy 1.17.1).  The one lasting effect: SciPy's cloned namespace
has no ``f2py`` or ``testing`` attribute.  SciPy reads ``xp.testing`` only in
its ``xp_assert_*`` test helpers, which lorstab never calls, and
``import numpy.testing`` still works afterwards.
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

# SciPy clones NumPy's namespace on import; keep f2py and testing out of the
# clone (see the module docstring), then put NumPy's dict back as it was.
_numpy_vars = vars(np)
_saved = {key: _numpy_vars[key] for key in ("__all__", "__dir__") if key in _numpy_vars}
_hidden = {"f2py", "testing"}
try:
    np.__all__ = [name for name in np.__all__ if name not in _hidden]
    np.__dir__ = lambda: [name for name in _saved.get("__dir__", lambda: list(_numpy_vars))()
                          if name not in _hidden]
    import scipy.sparse.linalg  # noqa: F401
finally:
    _numpy_vars.pop("__all__", None)
    _numpy_vars.pop("__dir__", None)
    _numpy_vars.update(_saved)

from .config import ConfigError, ScenarioConfig, check_level, check_nonnegative, load_config, parse_reals
from .fem import SolverError, shared_spectrum
from .harmonics import HarmonicField
from .lorentz import KillingFieldSpec
from .report import fmt, render_run_report, write_checks_csv, write_sweep_csv
from .stability import (
    DegenerateFieldError,
    Tolerances,
    analyze,
    conformal_identity_check,
    killing_eigen_check,
)
from .surfaces import (
    GraphConstructionError,
    GraphSurface,
    build_graph,
    build_slice,
    support_function,
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
        surface = build_slice(config.s0, level=config.level, axis=config.axis_array)
    else:
        surface = build_graph(
            config.s0, perturbations=config.perturbations,
            level=config.level, axis=config.axis_array,
        )
        extra.append(("metric_anisotropy", surface.cache.metric_ratio))
    return surface, extra


def _variation_battery(surface: GraphSurface, config: ScenarioConfig) -> list[VariationCheck]:
    r = config.r
    h1 = config.fd_h
    h2 = 10.0 * config.fd_h
    const = NormalVariation(base=surface, amplitude=HarmonicField(constant=1.0))
    y10 = NormalVariation(base=surface, amplitude=HarmonicField(terms=((1, 0, 1.0),)))
    y20 = NormalVariation(base=surface, amplitude=HarmonicField(terms=((2, 0, 1.0),)))
    checks = [
        verify_first_variation(const, r, h=h1),
        verify_first_variation(y20, r, h=h1),
        verify_sr_evolution(const, r, h=h1),
        verify_sr_evolution(y10, r, h=h1),
        volume_derivative_check(const, h=h1),
        volume_derivative_check(y10, h=h1),
        verify_second_variation(y10, r, h=h2),
        verify_second_variation(y20, r, h=h2),
    ]
    return checks


def _tolerances(config: ScenarioConfig) -> Tolerances:
    return Tolerances(gap=config.tol_gap, constancy=config.constancy_tolerance,
                      solver=config.solver_tol, seed=config.seed)


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
        stability_report = analyze(surface, config.r, _tolerances(config))
    if "killing" in config.checks:
        spec = KillingFieldSpec(
            u=np.array(config.killing_u), v=config.killing_v_array, k=1.0
        )
        residual = killing_eigen_check(surface, config.r, spec)
        eta = support_function(surface, spec)
        mean_frac = abs(float(np.sum(surface.cache.weights * eta))) / (
            surface.cache.area * max(float(np.abs(eta).max()), 1e-30)
        )
        scalar_checks.append(("killing_residual", residual))
        scalar_checks.append(("killing_eta_mean_fraction", mean_frac))
    if "conformal" in config.checks:
        scalar_checks.append(
            ("conformal_residual", conformal_identity_check(surface, config.r, surface.axis))
        )
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
    if param not in ("s0", "level", "amplitude"):
        raise ConfigError(f"key '--param': expected s0, level or amplitude, got '{param}'", key="--param")
    if param == "amplitude" and not config.perturbations:
        raise ConfigError("key 'perturbations': amplitude sweeps need at least one configured perturbation",
                          key="perturbations")
    out = _make_out_dir(out_dir)
    t0 = time.perf_counter()

    def configure(value: float) -> ScenarioConfig:
        if param == "s0":
            return dataclasses.replace(config, s0=float(value))
        if param == "level":
            if not float(value).is_integer():
                raise ConfigError(f"key 'level': expected an integer, got {value}", key="level")
            return dataclasses.replace(config, level=check_level(int(value)))
        first = config.perturbations[0]
        rest = config.perturbations[1:]
        return dataclasses.replace(
            config, perturbations=((first[0], first[1], float(value)),) + rest
        )

    def evaluate(value: float):
        cfg = configure(value)
        surface, _ = _build_surface(cfg)
        return analyze(surface, cfg.r, _tolerances(cfg))

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
            [param, value, rep.lambda_mean, rep.eigen.lambda1, rep.eigen.residual, rep.eigen.iterations,
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


def _parser() -> argparse.ArgumentParser:
    # the usage paragraphs of the module docstring, not its implementation notes
    usage = "\n\n".join(__doc__.split("\n\n")[:3])
    parser = argparse.ArgumentParser(prog="lorstab", description=usage,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="lorstab-out")
    p_run.add_argument("--level", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)

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
            if args.seed is not None:
                config = dataclasses.replace(config, seed=check_nonnegative("seed", args.seed))
            return run_scenario(config, args.out)
        values = list(parse_reals("--values", args.values))
        if not values:
            raise ConfigError("key '--values': expected a nonempty list", key="--values")
        return sweep_scenario(config, args.param, values, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphConstructionError, FlowError, SolverError, DegenerateFieldError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())

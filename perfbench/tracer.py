"""Run one lorstab CLI invocation in this process, with or without layer spans.

    python3 perfbench/tracer.py [--plain] --result FILE -- <lorstab CLI args>

Without ``--plain`` it first rebinds every public layer function at each
site where the package imported it (``from .x import y`` copies the name, so
patching the home module alone would miss its callers) with a wrapper that
records a span.  A layer's self time is its spans minus their child spans;
time inside ``main`` that no span covers is reported as uncovered.  A site
that no longer exists fails loudly, so a rename cannot read as a free layer.
The result file holds the exit code, the wall time of ``main`` and, when
traced, the per-layer and per-site figures.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

HARMONIC_FIELD = "lorstab.harmonics.HarmonicField"


@dataclass(frozen=True)
class Layer:
    name: str
    sites: tuple[str, ...]          # "module.attribute" or "module.Class.method"


LAYERS = (
    Layer("config", ("lorstab.cli.load_config",)),
    Layer("mesh.icosphere", ("lorstab.surfaces.icosphere",)),
    Layer("mesh.validate", (
        "lorstab.surfaces.validate_closed_oriented",
        "lorstab.mesh.validate_closed_oriented",
    )),
    Layer("surfaces.build_graph", (
        "lorstab.cli.build_graph",
        "lorstab.variation.build_graph",
        "lorstab.surfaces.build_graph",      # the site SliceSurface.meshed calls
    )),
    Layer("harmonics", (
        f"{HARMONIC_FIELD}.value",
        f"{HARMONIC_FIELD}.sphere_gradient",
        f"{HARMONIC_FIELD}.sphere_hessian",
    )),
    Layer("fem.assemble", (
        "lorstab.stability.assemble",
        "lorstab.variation.assemble",
        "lorstab.fem.assemble",
    )),
    Layer("fem.eigensolve", ("lorstab.stability.first_eigenvalue_meanzero",)),
    Layer("stability.analyze", ("lorstab.cli.analyze",)),
    Layer("stability.checks", (
        "lorstab.cli.killing_eigen_check",
        "lorstab.cli.conformal_identity_check",
    )),
    Layer("variation.verify", (
        "lorstab.cli.verify_first_variation",
        "lorstab.cli.verify_sr_evolution",
        "lorstab.cli.volume_derivative_check",
        "lorstab.cli.verify_second_variation",
    )),
    Layer("variation.flow", ("lorstab.variation.flow",)),
    Layer("variation.r_area", ("lorstab.variation.r_area",)),
    Layer("variation.volume_balance", ("lorstab.variation.volume_balance",)),
    Layer("variation.jacobi", ("lorstab.variation.jacobi_second_variation",)),
    Layer("report", (
        "lorstab.cli.render_run_report",
        "lorstab.cli.write_checks_csv",
        "lorstab.cli.write_sweep_csv",
    )),
)


class Tracer:
    """Span stack and per-layer accumulators for one single-threaded run."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []      # child time of each open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.site_calls: Counter[str] = Counter()
        self.covered_s = 0.0
        self.vertices = 0
        self.stiffness_nnz = 0
        self.eigen_iterations = 0
        self.eigen_residual = 0.0

    def wrap(self, layer: str, site: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self.stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.stack.pop()
                self.self_s[layer] += duration - children[0]
                self.site_calls[site] += 1
                if self.stack:
                    self.stack[-1][0] += duration
                else:
                    self.covered_s += duration
            self._count(layer, result)
            return result

        return traced

    def _count(self, layer: str, result) -> None:
        if layer == "surfaces.build_graph":
            self.vertices = max(self.vertices, result.mesh.nvertices)
        elif layer == "fem.assemble":
            self.stiffness_nnz = max(self.stiffness_nnz, result.stiffness.nnz)
        elif layer == "fem.eigensolve":
            self.eigen_iterations += result.iterations
            self.eigen_residual = max(self.eigen_residual, result.residual)

    def install(self) -> None:
        for layer in LAYERS:
            for site in layer.sites:
                owner_path, _, attr = site.rpartition(".")
                owner = _resolve(owner_path)
                if not hasattr(owner, attr):
                    raise SystemExit(f"tracer: site {site} not found (renamed or removed?)")
                setattr(owner, attr, self.wrap(layer.name, site, getattr(owner, attr)))


def _resolve(path: str):
    if path == HARMONIC_FIELD:
        return importlib.import_module("lorstab.harmonics").HarmonicField
    return importlib.import_module(path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plain", action="store_true", help="run without spans")
    parser.add_argument("--result", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import lorstab.cli

    tracer = None
    if not args.plain:
        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    exit_code = lorstab.cli.main(cli_args)
    wall = perf_counter() - start

    result = {"exit_code": exit_code, "wall_s": wall}
    if tracer is not None:
        result.update(
            self_s={layer.name: tracer.self_s[layer.name] for layer in LAYERS},
            site_calls={site: tracer.site_calls[site] for layer in LAYERS for site in layer.sites},
            uncovered_s=wall - tracer.covered_s,
            vertices=tracer.vertices,
            stiffness_nnz=tracer.stiffness_nnz,
            eigen_iterations=tracer.eigen_iterations,
            eigen_residual=tracer.eigen_residual,
        )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

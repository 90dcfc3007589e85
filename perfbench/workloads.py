"""The benchmark's three workloads: seeded inputs and output checks.

Each workload is one real ``lorstab run`` or ``lorstab sweep`` invocation.
Problem sizes are fixed; the seed sets only the config ``seed`` (the
eigensolver's start block), the six sweep heights, and the two graph
amplitudes.  The program sees only the generated config file and argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

SOLVER_TOL = 1e-8

# Largest finite-difference rel_error accepted per checks.csv row at level 4
# with fd_h = 1e-3.  Each is 3x to 15x the error measured on the unchanged
# program (largest rows: first_variation 6.7e-7, sr_evolution 9.0e-4,
# volume_balance 6.7e-4, second_variation 1.44e-2).
FD_BOUNDS = {
    "first_variation": 1e-5,
    "sr_evolution": 3e-3,
    "volume_balance": 3e-3,
    "second_variation": 5e-2,
}

# Accepted (low, high) for report.txt values of graph-l6 that have no closed
# form.  Measured on the unchanged program at level 6 over the amplitude range
# the seed draws from (a2 in [0.045, 0.055], a3 in [0.018, 0.022]):
#   h_next_residual 0.097-0.117, lambda_residual 0.079-0.093 and
#   killing_residual 0.057-0.069 are properties of the surface, not of the
#   discretization (level 5 agrees to 1e-4), so they get a band around them;
#   gap = lambda_mean - lambda1 is 0.018-0.022, so a bias that moves lambda1
#   alike at every level, which the Richardson estimate cannot see, leaves the
#   band at 1% (scaling the stiffness matrix by 1.01 gives gap 0.0128);
#   killing_eta_mean_fraction 2.8e-8-4.2e-8 (O(h^2): 4x larger at level 5) and
#   conformal_residual 1.8e-3-2.2e-3 (the same at level 5) are errors and get
#   about 2x the largest as a ceiling; scaling psi by 1.01 in the conformal
#   identity already gives 4.9e-3.
# The lower h_next_residual bound also keeps it above tol_const = 0.01, which
# makes "hypotheses-violated" (exit 2) the right verdict.
GRAPH_BANDS = {
    ("stability", "h_next_residual"): (0.08, 0.14),
    ("stability", "lambda_residual"): (0.06, 0.12),
    ("stability", "gap"): (0.015, 0.025),
    ("checks", "killing_residual"): (0.03, 0.14),
    ("checks", "killing_eta_mean_fraction"): (0.0, 1e-7),
    ("checks", "conformal_residual"): (0.0, 4e-3),
}

# A slice has constant curvature, so its lambda_residual and h_next_residual
# are rounding only (the unchanged program prints 0 to 2.5e-16).
SLICE_CONSTANCY_TOL = 1e-9

FD_CHECK_ORDER = (
    "first_variation", "first_variation", "sr_evolution", "sr_evolution",
    "volume_balance", "volume_balance", "second_variation", "second_variation",
)


def slice_lambda1(s0: float) -> float:
    """Closed-form first eigenvalue of the r = 1 operator on the n = 2 slice:
    C(1,1) tanh(s0) * l(l+1) / cosh(s0)^2 at l = 1."""
    return 2.0 * math.tanh(s0) / math.cosh(s0) ** 2


def lambda1_bound(level: int) -> float:
    """Accepted |lambda1 - closed form| / closed form on an icosphere level.

    P1 eigenvalues converge at O(h^2) (Dziuk & Elliott, Acta Numerica 2013),
    so the error falls 4x per level; the unchanged program measures
    0.12 * 4^-level, and the bound allows 4x that.
    """
    return 0.5 * 4.0 ** -level


@dataclass(frozen=True)
class Case:
    """One workload's generated inputs and what its outputs must be."""

    workload: str
    config_text: str
    level: int
    expected_exit: int
    expected_verdict: str
    sweep_s0: tuple[float, ...] = ()     # nonempty only for the sweep
    slice_s0: float | None = None        # set for a single-slice run
    fd_checks: bool = False

    @property
    def closed_form(self) -> bool:
        """Whether every lambda1 of the case has a closed form (slices do)."""
        return self.slice_s0 is not None or bool(self.sweep_s0)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Files that must be byte-identical across invocations of one seed."""
        if self.sweep_s0:
            return ("sweep.csv",)
        return ("report.txt", "checks.csv") if self.fd_checks else ("report.txt",)

    def argv(self, config: Path, out: Path) -> list[str]:
        """CLI arguments after ``lorstab``."""
        if self.sweep_s0:
            values = ",".join(repr(v) for v in self.sweep_s0)
            return ["sweep", str(config), "--param", "s0", "--values", values, "--out", str(out)]
        return ["run", str(config), "--out", str(out)]


def _graph_l6(seed: int) -> Case:
    rng = random.Random(seed)
    a2 = round(0.05 * rng.uniform(0.9, 1.1), 6)
    a3 = round(0.02 * rng.uniform(0.9, 1.1), 6)
    text = (
        "scenario = graph\nr = 1\ns0 = 1\n"
        f"perturbations = 2,0,{a2!r};3,1,{a3!r}\n"
        "level = 6\nchecks = stability,killing,conformal\n"
        f"seed = {seed}\n"
    )
    # h_next_residual is about 0.107 > tol_const = 0.01 for amplitudes within
    # 10% of (0.05, 0.02), so "hypotheses-violated" (exit 2) is the answer.
    return Case("graph-l6", text, level=6, expected_exit=2,
                expected_verdict="hypotheses-violated")


def _variation_slice_l4(seed: int) -> Case:
    text = (
        "scenario = slice\nr = 1\ns0 = 1\nlevel = 4\n"
        f"checks = stability,variation\nseed = {seed}\n"
    )
    return Case("variation-slice-l4", text, level=4, expected_exit=0,
                expected_verdict="stable", slice_s0=1.0, fd_checks=True)


def _sweep_s0_l5(seed: int) -> Case:
    rng = random.Random(seed)
    values = tuple(round(rng.uniform(0.25, 2.0), 4) for _ in range(6))
    text = f"scenario = slice\nr = 1\ns0 = 1\nlevel = 5\nseed = {seed}\n"
    return Case("sweep-s0-l5", text, level=5, expected_exit=0,
                expected_verdict="stable", sweep_s0=values)


# name -> (input generator, why the workload is in the benchmark)
WORKLOADS = {
    "graph-l6": (
        _graph_l6,
        "one large graph problem (V=40962): the eigensolve dominates and sets peak "
        "memory; no variation layer, no mesh validation",
    ),
    "variation-slice-l4": (
        _variation_slice_l4,
        "the only workload on the variation layer (flow, volume_balance, FD stencils) "
        "and mesh re-validation; the eigensolve is about 1% of its time",
    ),
    "sweep-s0-l5": (
        _sweep_s0_l5,
        "six medium slice problems (V=10242) on one mesh level: many eigensolves, "
        "six identical icosphere builds, where reuse across problems can pay",
    ),
}


_COMMON_SITES = (
    "lorstab.cli.load_config",
    "lorstab.surfaces.icosphere",
    "lorstab.harmonics.HarmonicField.value",
    "lorstab.harmonics.HarmonicField.sphere_gradient",
    "lorstab.harmonics.HarmonicField.sphere_hessian",
    "lorstab.stability.assemble",
    "lorstab.stability.first_eigenvalue_meanzero",
    "lorstab.cli.analyze",
)

# Tracer sites each workload must reach: zero calls at one of them fails the
# traced run, so a renamed or bypassed layer cannot read as free.  Mesh
# validation is left out on purpose: skipping the re-validation of unchanged
# faces is a planned optimization, not a rename.
REQUIRED_SITES = {
    "graph-l6": _COMMON_SITES + (
        "lorstab.cli.build_graph",
        "lorstab.cli.killing_eigen_check",
        "lorstab.cli.conformal_identity_check",
        "lorstab.cli.render_run_report",
    ),
    "variation-slice-l4": _COMMON_SITES + (
        "lorstab.surfaces.build_graph",
        "lorstab.variation.build_graph",
        "lorstab.variation.assemble",
        "lorstab.cli.verify_first_variation",
        "lorstab.cli.verify_sr_evolution",
        "lorstab.cli.volume_derivative_check",
        "lorstab.cli.verify_second_variation",
        "lorstab.variation.flow",
        "lorstab.variation.r_area",
        "lorstab.variation.volume_balance",
        "lorstab.variation.jacobi_second_variation",
        "lorstab.cli.render_run_report",
        "lorstab.cli.write_checks_csv",
    ),
    "sweep-s0-l5": _COMMON_SITES + (
        "lorstab.surfaces.build_graph",
        "lorstab.cli.write_sweep_csv",
    ),
}


def make_case(workload: str, seed: int) -> Case:
    return WORKLOADS[workload][0](seed)


def parse_report(text: str) -> dict[str, dict[str, str]]:
    """Sections of report.txt as {section: {key: raw value}}."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith(" ") and line.endswith(":"):
            current = sections.setdefault(line[:-1], {})
        elif " = " in line:
            key, _, value = line.strip().partition(" = ")
            current[key] = value
    return sections


def _relerr(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def check_outputs(case: Case, out: Path, exit_code: int) -> tuple[list[str], float | None]:
    """Problems found in one invocation's outputs, and its lambda1 relative
    error against the slice closed form (None for the graph)."""
    problems: list[str] = []
    if exit_code != case.expected_exit:
        problems.append(f"exit code {exit_code}, expected {case.expected_exit}")
    missing = [name for name in case.outputs if not (out / name).is_file()]
    if missing:
        return problems + [f"missing output {', '.join(missing)}"], None
    if case.sweep_s0:
        sweep_problems, relerr = _check_sweep(case, out)
        return problems + sweep_problems, relerr

    report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
    stability = report.get("stability", {})
    if stability.get("verdict") != case.expected_verdict:
        problems.append(f"verdict {stability.get('verdict')!r}, expected {case.expected_verdict!r}")
    residual = float(stability.get("eigen_residual", "inf"))
    if not residual < SOLVER_TOL:
        problems.append(f"eigen_residual {residual:g} >= solver_tol {SOLVER_TOL:g}")
    relerr = None
    if case.slice_s0 is not None:
        relerr = _relerr(float(stability.get("lambda1", "nan")), slice_lambda1(case.slice_s0))
        if not relerr <= lambda1_bound(case.level):
            problems.append(f"lambda1 relative error {relerr:g} > {lambda1_bound(case.level):g}")
        problems += _check_constancy(stability)
    else:
        problems += _check_graph_bands(report)
    if case.fd_checks:
        problems += _check_fd_rows(out / "checks.csv")
    return problems, relerr


def _check_sweep(case: Case, out: Path) -> tuple[list[str], float | None]:
    rows = _csv_rows(out / "sweep.csv")
    if [float(r["value"]) for r in rows] != list(case.sweep_s0):
        return [f"sweep.csv values {[r['value'] for r in rows]} != {case.sweep_s0}"], None
    problems = []
    relerrs = []
    for row, s0 in zip(rows, case.sweep_s0):
        if row["verdict"] != case.expected_verdict:
            problems.append(f"s0={s0}: verdict {row['verdict']!r}")
        relerrs.append(_relerr(float(row["lambda1"]), slice_lambda1(s0)))
        if not relerrs[-1] <= lambda1_bound(case.level):
            problems.append(f"s0={s0}: lambda1 relative error {relerrs[-1]:g}")
        problems += [f"s0={s0}: {p}" for p in _check_constancy(row)]
    return problems, max(relerrs)


def _check_constancy(values: dict[str, str]) -> list[str]:
    return [
        f"{key} {values.get(key)} > {SLICE_CONSTANCY_TOL:g}"
        for key in ("lambda_residual", "h_next_residual")
        if not float(values.get(key, "nan")) <= SLICE_CONSTANCY_TOL
    ]


def _check_graph_bands(report: dict[str, dict[str, str]]) -> list[str]:
    problems = []
    for (section, key), (low, high) in GRAPH_BANDS.items():
        value = float(report.get(section, {}).get(key, "nan"))
        if not low <= value <= high:
            problems.append(f"{section}.{key} {value:g} outside [{low:g}, {high:g}]")
    return problems


def _check_fd_rows(path: Path) -> list[str]:
    rows = _csv_rows(path)
    names = tuple(r["check"] for r in rows)
    if names != FD_CHECK_ORDER:
        return [f"checks.csv rows {names}, expected {FD_CHECK_ORDER}"]
    return [
        f"{r['check']} rel_error {r['rel_error']} > {FD_BOUNDS[r['check']]:g}"
        for r in rows if not float(r["rel_error"]) <= FD_BOUNDS[r["check"]]
    ]


def fd_rel_error_max(out: Path) -> float:
    return max(float(r["rel_error"]) for r in _csv_rows(out / "checks.csv"))


def _csv_rows(path: Path) -> list[dict[str, str]]:
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]

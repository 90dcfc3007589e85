"""Report rendering: hierarchical text with stable key order and CSV tables.

Reports are byte-stable for a fixed config and seed: full-precision float
formatting, fixed ordering, LF line endings, no timestamps.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .config import ScenarioConfig
from .stability import StabilityReport
from .variation import VariationCheck

__all__ = ["fmt", "render_run_report", "write_checks_csv", "write_sweep_csv"]


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _config_value(value) -> str:
    """A config value as its key's parser reads it: ``none`` for no
    perturbations, ``;``-joined triples, ``,``-joined checks."""
    if not isinstance(value, tuple):
        return fmt(value)
    if not value:
        return "none"
    if isinstance(value[0], tuple):
        return ";".join(",".join(fmt(x) for x in triple) for triple in value)
    return ",".join(value)


def _stability_lines(report: StabilityReport) -> list[str]:
    rows = [
        ("verdict", report.verdict),
        ("r", report.r),
        ("level", report.level),
        ("h_next_mean", report.h_next_mean),
        ("h_next_min", report.h_next_min),
        ("h_next_max", report.h_next_max),
        ("h_next_residual", report.h_next_residual),
        ("lambda_mean", report.lambda_mean),
        ("lambda_residual", report.lambda_residual),
        ("lambda1", report.eigen.lambda1),
        ("gap", report.gap),
        ("eigen_iterations", report.eigen.iterations),
        ("eigen_residual", report.eigen.residual),
        ("min_newton_eig", report.min_newton_eig),
        ("h2_positive", report.h2_positive),
        ("has_elliptic_point", report.has_elliptic_point),
        ("psi_min_abs", report.psi_min_abs),
        ("chronology", report.chronology),
        ("tol_gap", report.tol_gap),
        ("tol_gap_effective", report.tol_gap_effective),
        ("tol_constancy", report.tol_constancy),
        ("tol_solver", report.tol_solver),
    ]
    return [f"  {k} = {fmt(v)}" for k, v in rows]


def render_run_report(
    config: ScenarioConfig,
    stability: StabilityReport | None,
    scalar_checks: list[tuple[str, float]],
    variation_checks: list[VariationCheck],
    extra: list[tuple[str, object]] = (),
) -> str:
    lines: list[str] = ["lorstab run report", "config:"]
    lines.extend(f"  {field.name} = {_config_value(getattr(config, field.name))}" for field in fields(config))
    if extra:
        lines.append("scenario:")
        lines.extend(f"  {k} = {fmt(v)}" for k, v in extra)
    if stability is not None:
        lines.append("stability:")
        lines.extend(_stability_lines(stability))
    if scalar_checks:
        lines.append("checks:")
        lines.extend(f"  {name} = {fmt(value)}" for name, value in scalar_checks)
    if variation_checks:
        lines.append("variation:")
        for chk in variation_checks:
            lines.append(f"  {chk.check}:")
            lines.append(f"    h = {fmt(chk.h)}")
            lines.append(f"    lhs = {fmt(chk.lhs)}")
            lines.append(f"    rhs = {fmt(chk.rhs)}")
            lines.append(f"    rel_error = {fmt(chk.rel_error)}")
            lines.append(f"    richardson = {fmt(chk.richardson)}")
            lines.append(f"    max_error = {fmt(chk.max_error)}")
    return "\n".join(lines) + "\n"


def write_checks_csv(path: str | Path, checks: list[VariationCheck]) -> None:
    """One row per check; ``richardson`` and ``max_error`` are nan where the
    check does not estimate them."""
    lines = ["check,h,level,lhs,rhs,rel_error,richardson,max_error"]
    for chk in checks:
        row = [chk.h, chk.level, chk.lhs, chk.rhs, chk.rel_error, chk.richardson, chk.max_error]
        lines.append(",".join([chk.check] + [fmt(x) for x in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

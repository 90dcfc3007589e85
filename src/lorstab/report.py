"""Report rendering: hierarchical text with stable key order and CSV tables.

A block's keys are its record's fields, in order: the ``config:`` block is
``ScenarioConfig``, the ``stability:`` block ``StabilityReport``, each check
of the ``variation:`` block ``VariationCheck`` (less ``check``, its header,
and ``level``), and ``checks.csv``'s columns ``VariationCheck`` again.

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


def _block(record, indent: str, value=fmt, skip: tuple[str, ...] = ()) -> list[str]:
    """``key = value`` lines of a record's fields, in their order."""
    return [f"{indent}{f.name} = {value(getattr(record, f.name))}"
            for f in fields(record) if f.name not in skip]


def render_run_report(
    config: ScenarioConfig,
    stability: StabilityReport | None,
    scalar_checks: list[tuple[str, float]],
    variation_checks: list[VariationCheck],
    extra: list[tuple[str, object]] = (),
) -> str:
    lines: list[str] = ["lorstab run report", "config:"]
    lines.extend(_block(config, "  ", _config_value))
    if extra:
        lines.append("scenario:")
        lines.extend(f"  {k} = {fmt(v)}" for k, v in extra)
    if stability is not None:
        lines.append("stability:")
        lines.extend(_block(stability, "  "))
    if scalar_checks:
        lines.append("checks:")
        lines.extend(f"  {name} = {fmt(value)}" for name, value in scalar_checks)
    if variation_checks:
        lines.append("variation:")
        for chk in variation_checks:
            lines.append(f"  {chk.check}:")
            lines.extend(_block(chk, "    ", skip=("check", "level")))
    return "\n".join(lines) + "\n"


def write_checks_csv(path: str | Path, checks: list[VariationCheck]) -> None:
    """One row per check, one column per ``VariationCheck`` field;
    ``richardson`` and ``max_error`` are nan where the check does not
    estimate them."""
    names = [f.name for f in fields(VariationCheck)]
    write_sweep_csv(path, names, [[getattr(chk, name) for name in names] for chk in checks])


def write_sweep_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """The header line, then one line of ``fmt`` values per row; the check
    table is written through it too."""
    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

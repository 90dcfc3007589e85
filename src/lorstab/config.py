"""Flat key-value scenario configuration.

One `key = value` pair per line, `#` comments, no sections.  The fields of
`ScenarioConfig` are the schema: their order is the key order of a report's
`config:` block, their defaults are the only defaults, and a field without a
default is a required key.  `_PARSERS` holds one parser per field.  Unknown
keys are hard errors so configs cannot drift silently.  Every parse error
names the offending key.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .harmonics import _L_MAX

__all__ = [
    "ConfigError", "ScenarioConfig", "parse_config", "parse_reals", "load_config", "check_level",
]

_SCENARIOS = ("slice", "graph")
_CHECKS = ("stability", "killing", "conformal", "variation")
_LEVELS = (3, 4, 5, 6)


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    r: int
    s0: float
    perturbations: tuple[tuple[int, int, float], ...] = ()
    level: int = 5
    tol_gap: float = 2e-2           # relative gap budget at level 5; halves per level
    checks: tuple[str, ...] = ("stability",)
    seed: int = 0


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(f"key '{key}': expected an integer, got '{raw}'", key=key) from err


def _parse_real(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"key '{key}': expected a real, got '{raw}'", key=key) from err
    if not np.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite real, got '{raw}'", key=key)
    return value


def parse_reals(key: str, raw: str) -> tuple[float, ...]:
    """Finite reals separated by commas or whitespace."""
    return tuple(_parse_real(key, x) for x in raw.replace(",", " ").split())


def _parse_scenario(key: str, raw: str) -> str:
    if raw not in _SCENARIOS:
        raise ConfigError(f"key '{key}': expected one of {_SCENARIOS}, got '{raw}'", key=key)
    return raw


def _parse_order(key: str, raw: str) -> int:
    r = _parse_int(key, raw)
    if not 0 <= r <= 1:
        raise ConfigError(f"key '{key}': need 0 <= r <= 1, got {r}", key=key)
    return r


def _parse_perturbations(key: str, raw: str) -> tuple[tuple[int, int, float], ...]:
    """``l,m,amplitude`` triples separated by ``;``; a report writes none as ``none``."""
    if raw == "none":
        return ()
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"key '{key}': expected 'l,m,amplitude' triples, got '{chunk}'", key=key)
        try:
            l, m = int(parts[0]), int(parts[1])
        except ValueError as err:
            raise ConfigError(f"key '{key}': bad triple '{chunk}'", key=key) from err
        if not abs(m) <= l <= _L_MAX:
            raise ConfigError(f"key '{key}': need |m| <= l <= {_L_MAX} in '{chunk}'", key=key)
        out.append((l, m, _parse_real(key, parts[2])))
    return tuple(out)


def _parse_tolerance(key: str, raw: str) -> float:
    value = _parse_real(key, raw)
    if not value > 0:
        raise ConfigError(f"key '{key}': expected a positive real, got '{raw}'", key=key)
    return value


def _parse_checks(key: str, raw: str) -> tuple[str, ...]:
    checks = tuple(c.strip() for c in raw.split(",") if c.strip())
    if not checks:
        raise ConfigError(f"key '{key}': expected at least one check", key=key)
    for i, c in enumerate(checks):
        if c not in _CHECKS:
            raise ConfigError(f"key '{key}': unknown check '{c}' (known: {_CHECKS})", key=key)
        if c in checks[:i]:
            raise ConfigError(f"key '{key}': check '{c}' given twice", key=key)
    return checks


def check_level(level: int) -> int:
    if level not in _LEVELS:
        raise ConfigError(f"key 'level': expected one of {_LEVELS}, got {level}", key="level")
    return level


def _parse_seed(key: str, raw: str) -> int:
    value = _parse_int(key, raw)
    if value < 0:
        raise ConfigError(f"key '{key}': expected a nonnegative integer, got {value}", key=key)
    return value


# one parser per ScenarioConfig field: (key, raw value) -> value
_PARSERS = {
    "scenario": _parse_scenario,
    "r": _parse_order,
    "s0": _parse_real,
    "perturbations": _parse_perturbations,
    "level": lambda key, raw: check_level(_parse_int(key, raw)),
    "tol_gap": _parse_tolerance,
    "checks": _parse_checks,
    "seed": _parse_seed,
}


def parse_config(text: str) -> ScenarioConfig:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            key = line.split()[0]
            raise ConfigError(f"key '{key}': line {lineno}: expected 'key = value', got '{line}'", key=key)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ConfigError(f"key '{key}' given twice", key=key)
        pairs[key] = value

    for key in pairs:
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}'", key=key)
    values = {}
    for field in fields(ScenarioConfig):
        if field.name in pairs:
            values[field.name] = _PARSERS[field.name](field.name, pairs[field.name])
        elif field.default is MISSING:
            raise ConfigError(f"missing required key '{field.name}'", key=field.name)
    config = ScenarioConfig(**values)

    # a key the scenario's surface does not read would be reported but not used
    if config.scenario != "graph" and config.perturbations:
        raise ConfigError(f"key 'perturbations': scenario '{config.scenario}' has no perturbations",
                          key="perturbations")
    # a graph without perturbations is a slice; a perturbed one leaves the analytic family when flowed
    if "variation" in config.checks and config.perturbations:
        raise ConfigError("key 'checks': variation checks need a slice scenario (normal flows of graphs "
                          "leave the analytic family)", key="checks")
    return config


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {p} is not UTF-8: {err.reason} at byte {err.start}") from err
    return parse_config(text)

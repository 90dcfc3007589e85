"""Flat key-value scenario configuration.

One `key = value` pair per line, `#` comments, no sections.  Unknown keys
are hard errors so configs cannot drift silently.  Every parse error names
the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError", "ScenarioConfig", "parse_config", "parse_reals", "load_config", "check_level",
    "check_nonnegative",
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
    tol_gap: float = 2e-2
    tol_const: float | None = None     # default depends on the scenario
    solver_tol: float = 1e-8
    checks: tuple[str, ...] = ("stability",)
    killing_u: tuple[float, ...] = (1.0, 0.0, 0.0, 0.0)
    killing_v: tuple[float, ...] = (0.0, 0.0, 0.0, 1.0)     # the time axis
    fd_h: float = 1e-3
    seed: int = 0

    @property
    def constancy_tolerance(self) -> float:
        if self.tol_const is not None:
            return self.tol_const
        return 1e-2 if self.scenario == "graph" and self.perturbations else 1e-6


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


def _parse_perturbations(raw: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"key 'perturbations': expected 'l,m,amplitude' triples, got '{chunk}'",
                key="perturbations",
            )
        try:
            l, m = int(parts[0]), int(parts[1])
        except ValueError as err:
            raise ConfigError(
                f"key 'perturbations': bad triple '{chunk}'", key="perturbations"
            ) from err
        if not abs(m) <= l:
            raise ConfigError(
                f"key 'perturbations': need |m| <= l in '{chunk}'", key="perturbations"
            )
        out.append((l, m, _parse_real("perturbations", parts[2])))
    return tuple(out)


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

    # a report writes absent perturbations as "none"
    if pairs.get("perturbations") == "none":
        del pairs["perturbations"]

    known = {
        "scenario", "r", "s0", "perturbations", "level", "tol_gap", "tol_const",
        "solver_tol", "checks", "killing_u", "killing_v", "fd_h", "seed",
    }
    for key in pairs:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'", key=key)

    def take_int(key: str, default=None):
        if key not in pairs:
            return default
        try:
            return int(pairs[key])
        except ValueError as err:
            raise ConfigError(f"key '{key}': expected an integer, got '{pairs[key]}'", key=key) from err

    def take_float(key: str, default=None):
        return _parse_real(key, pairs[key]) if key in pairs else default

    def take_tolerance(key: str, default=None):
        value = take_float(key, default)
        if value is not None and not value > 0:
            raise ConfigError(f"key '{key}': expected a positive real, got '{pairs[key]}'", key=key)
        return value

    if "scenario" not in pairs:
        raise ConfigError("missing required key 'scenario'", key="scenario")
    scenario = pairs["scenario"]
    if scenario not in _SCENARIOS:
        raise ConfigError(
            f"key 'scenario': expected one of {_SCENARIOS}, got '{scenario}'", key="scenario"
        )
    for key in ("r", "s0"):
        if key not in pairs:
            raise ConfigError(f"missing required key '{key}'", key=key)

    r = take_int("r")
    if not 0 <= r <= 1:
        raise ConfigError(f"key 'r': need 0 <= r <= 1, got {r}", key="r")

    # a key the scenario's surface does not read would be reported but not used
    if scenario != "graph" and "perturbations" in pairs:
        raise ConfigError(f"key 'perturbations': scenario '{scenario}' has no perturbations", key="perturbations")

    s0 = take_float("s0")

    perturbations = _parse_perturbations(pairs.get("perturbations", ""))

    level = check_level(take_int("level", 5))

    checks_raw = pairs.get("checks", "stability")
    checks = tuple(c.strip() for c in checks_raw.split(",") if c.strip())
    if not checks:
        raise ConfigError("key 'checks': expected at least one check", key="checks")
    for i, c in enumerate(checks):
        if c not in _CHECKS:
            raise ConfigError(f"key 'checks': unknown check '{c}' (known: {_CHECKS})", key="checks")
        if c in checks[:i]:
            raise ConfigError(f"key 'checks': check '{c}' given twice", key="checks")
    # a graph without perturbations is a slice; a perturbed one leaves the analytic family when flowed
    if "variation" in checks and perturbations:
        raise ConfigError("key 'checks': variation checks need a slice scenario (normal flows of graphs "
                          "leave the analytic family)", key="checks")

    killing_u = parse_reals("killing_u", pairs["killing_u"]) if "killing_u" in pairs else (1.0, 0.0, 0.0, 0.0)
    killing_v = parse_reals("killing_v", pairs["killing_v"]) if "killing_v" in pairs else (0.0, 0.0, 0.0, 1.0)
    for key, vec in (("killing_u", killing_u), ("killing_v", killing_v)):
        if len(vec) != 4:
            raise ConfigError(f"key '{key}': expected 4 components", key=key)

    fd_h = take_float("fd_h", 1e-3)
    if not 0 < fd_h <= 5e-3:
        raise ConfigError("key 'fd_h': need 0 < fd_h <= 5e-3 (second-order steps use 10*fd_h)", key="fd_h")

    return ScenarioConfig(
        scenario=scenario,
        r=r,
        s0=s0,
        perturbations=perturbations,
        level=level,
        tol_gap=take_tolerance("tol_gap", 2e-2),
        tol_const=take_tolerance("tol_const", None),
        solver_tol=take_tolerance("solver_tol", 1e-8),
        checks=checks,
        killing_u=killing_u,
        killing_v=killing_v,
        fd_h=fd_h,
        seed=check_nonnegative("seed", take_int("seed", 0)),
    )


def check_level(level: int) -> int:
    if level not in _LEVELS:
        raise ConfigError(f"key 'level': expected one of {_LEVELS}, got {level}", key="level")
    return level


def check_nonnegative(key: str, value: int) -> int:
    if value < 0:
        raise ConfigError(f"key '{key}': expected a nonnegative integer, got {value}", key=key)
    return value


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {p} is not UTF-8: {err.reason} at byte {err.start}") from err
    return parse_config(text)

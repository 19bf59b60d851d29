"""Experiment configuration: flat `section.key = value` text files.

Format rules: UTF-8, one assignment per line, `#` starts a comment,
unknown keys are rejected.  The keys are the fields of the section
dataclasses below, and each value is read as the type of its field's
default: a boolean, an integer, a finite number, a string, or a grid of
finite numbers (of integers for `geometry.n`).  Grids accept either comma
lists ("1,2,3") or "start:stop:step" ranges (inclusive stop, within half a
step), and must not be empty.  `_BOUNDS` (lower bounds) and `_CHOICES`
(named values) hold every range rule checked at parse time.  Two numeric
keys have none: `geometry.s_z` is checked by `ArrayGeometry` (|s_z| <= 2),
and `drive.phi_over_pi` takes any real number.  Command-line overrides use
the same key syntax; an error names the file line or the override.

Defaults reproduce the reference system: silver-like Drude particles
(omega_p = 8.5472 eV, eps_inf = 5, gamma_p = 0.018 eV) of radius 30 nm in
a host with eps_m = 2.98, 2 nm dots with gamma_i = 2 pi x 1e8 rad/s, and
the standard optimization grids (intensity 0.5..80 W/cm^2 step 0.5,
detuning -200..200 gamma_i step 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .exceptions import ConfigError

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text", "apply_overrides"]

_TWO_PI_1E8 = 2.0 * math.pi * 1e8


def _grid(start: float, stop: float, step: float) -> tuple:
    count = int(round((stop - start) / step))
    return tuple(start + k * step for k in range(count + 1))


@dataclass(frozen=True)
class GeometryConfig:
    r_nm: float = 30.0
    r0_nm: float = 2.0
    s_nm: float = 30.0
    n: tuple = (2,)                # one or more chain sizes
    s_z: float = 2.0


@dataclass(frozen=True)
class MetalConfig:
    omega_p_ev: float = 8.5472
    eps_inf: float = 5.0
    gamma_p_ev: float = 0.018
    radiative_damping: bool = True


@dataclass(frozen=True)
class MediumConfig:
    eps_m: float = 2.98


@dataclass(frozen=True)
class QdConfig:
    gamma_i: float = _TWO_PI_1E8   # rad/s
    detuning_mode: str = "none"
    delta_over_gamma: tuple = _grid(-200.0, 200.0, 5.0)


@dataclass(frozen=True)
class DriveConfig:
    intensity_w_cm2: tuple = _grid(0.5, 80.0, 0.5)
    omega_mode: str = "lspr"
    lambda_min_nm: float = 420.0
    lambda_max_nm: float = 560.0
    lambda_points: int = 601
    phi_over_pi: float = 0.0
    phi_mode: str = "effective"


@dataclass(frozen=True)
class SolverConfig:
    fock_levels: int = 4
    memory_budget_gb: float = 8.0


@dataclass(frozen=True)
class OutputConfig:
    csv: str = ""
    precision: int = 12


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    metal: MetalConfig = field(default_factory=MetalConfig)
    medium: MediumConfig = field(default_factory=MediumConfig)
    qd: QdConfig = field(default_factory=QdConfig)
    drive: DriveConfig = field(default_factory=DriveConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# the lower bound of each bounded key and whether the bound itself is
# allowed; a grid's bound holds for every entry
_BOUNDS = {
    "geometry.r_nm": (0.0, False),
    "geometry.r0_nm": (0.0, False),
    "geometry.s_nm": (0.0, True),
    "geometry.n": (1, True),
    "metal.omega_p_ev": (0.0, False),
    "metal.eps_inf": (1.0, True),
    "metal.gamma_p_ev": (0.0, True),
    "medium.eps_m": (1.0, True),
    "qd.gamma_i": (0.0, False),
    "drive.intensity_w_cm2": (0.0, True),
    "drive.lambda_min_nm": (0.0, False),
    "drive.lambda_max_nm": (0.0, False),
    "drive.lambda_points": (2, True),
    "solver.fock_levels": (2, True),
    "solver.memory_budget_gb": (0.0, False),
    "output.precision": (1, True),
}

_CHOICES = {
    "qd.detuning_mode": ("none", "symmetric", "antisymmetric"),
    "drive.omega_mode": ("lspr", "grid"),
    "drive.phi_mode": ("effective", "bare"),
}

# every key and its default, whose type picks the key's parser
_DEFAULTS = {
    f"{section.name}.{item.name}": item.default
    for section in fields(ExperimentConfig)
    for item in fields(section.default_factory)
}


def _parse_bool(raw: str, key: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: {key} expects a boolean, got {raw!r}")


def _parse_float(raw: str, key: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} expects a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, key: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects an integer, got {raw!r}") from None


def _parse_grid(raw: str, key: str, where: str, integer: bool) -> tuple:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: {key} range must be start:stop:step, got {raw!r}")
        start, stop, step = (_parse_float(p, key, where) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"{where}: {key} has an empty or inverted range")
        values = _grid(start, stop, step)
    else:
        values = tuple(_parse_float(tok, key, where) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ConfigError(f"{where}: {key} must not be empty")
    if not integer:
        return values
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"{where}: {key} expects integers, got {v}")
    return tuple(int(round(v)) for v in values)


def _parse_value(raw: str, key: str, where: str):
    """The value of `key` read from `raw` as the type of its default, then
    checked against the key's entry in _CHOICES or _BOUNDS."""
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        return _parse_bool(raw, key, where)
    if isinstance(default, str):
        value = raw.strip()
        if key in _CHOICES:
            value = value.lower()
            if value not in _CHOICES[key]:
                raise ConfigError(
                    f"{where}: {key} must be one of {', '.join(_CHOICES[key])}; got {raw!r}"
                )
        return value
    if isinstance(default, tuple):
        value = _parse_grid(raw, key, where, integer=isinstance(default[0], int))
    elif isinstance(default, int):
        value = _parse_int(raw, key, where)
    else:
        value = _parse_float(raw, key, where)
    if key in _BOUNDS:
        floor, inclusive = _BOUNDS[key]
        for v in value if isinstance(value, tuple) else (value,):
            if v < floor or (v == floor and not inclusive):
                raise ConfigError(
                    f"{where}: {key} must be {'>=' if inclusive else '>'} {floor:g}, got {v}"
                )
    return value


def _apply_assignment(cfg: ExperimentConfig, key: str, raw: str, where: str) -> ExperimentConfig:
    key = key.strip().lower()
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    section_name, field_name = key.split(".")
    section = replace(getattr(cfg, section_name), **{field_name: _parse_value(raw, key, where)})
    return replace(cfg, **{section_name: section})


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse configuration text on top of the defaults."""
    cfg = ExperimentConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'section.key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg = _apply_assignment(cfg, key, raw, f"line {line_no}")
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Parse a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply 'section.key=value' strings (CLI --set) on top of a config."""
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"override {i}: expected section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg = _apply_assignment(cfg, key, raw, f"override {i}")
    return cfg

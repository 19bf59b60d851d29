"""Experiment configuration: flat `section.key = value` text files.

Format rules: UTF-8, one assignment per line, `#` starts a comment,
unknown keys are rejected, every number must be finite and every numeric
field is range-checked at parse time.  Grids accept either comma lists
("1,2,3") or "start:stop:step" ranges (inclusive stop, within half a
step), and must not be empty.  Command-line overrides use the same key
syntax.

Defaults reproduce the reference system: silver-like Drude particles
(omega_p = 8.5472 eV, eps_inf = 5, gamma_p = 0.018 eV) of radius 30 nm in
a host with eps_m = 2.98, 2 nm dots with gamma_i = 2 pi x 1e8 rad/s, and
the standard optimization grids (intensity 0.5..80 W/cm^2 step 0.5,
detuning -200..200 gamma_i step 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    detuning_mode: str = "none"    # none | symmetric | antisymmetric
    delta_over_gamma: tuple = _grid(-200.0, 200.0, 5.0)


@dataclass(frozen=True)
class DriveConfig:
    intensity_w_cm2: tuple = _grid(0.5, 80.0, 0.5)
    omega_mode: str = "lspr"       # lspr | wavelength_nm | grid
    wavelength_nm: float = 480.0
    lambda_min_nm: float = 420.0
    lambda_max_nm: float = 560.0
    lambda_points: int = 601
    phi_over_pi: float = 0.0
    phi_mode: str = "effective"    # effective | bare


@dataclass(frozen=True)
class SolverConfig:
    fock_levels: int = 4
    memory_budget_gb: float = 8.0
    validate_max_n: int = 3


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


def _parse_bool(raw: str, key: str, line_no: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {line_no}: {key} expects a boolean, got {raw!r}")


def _parse_float(raw: str, key: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} expects a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, key: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects an integer, got {raw!r}") from None


def _parse_float_list(raw: str, key: str, line_no: int) -> tuple:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"line {line_no}: {key} range must be start:stop:step, got {raw!r}"
            )
        start, stop, step = (_parse_float(p, key, line_no) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"line {line_no}: {key} has an empty or inverted range")
        return _grid(start, stop, step)
    return tuple(_parse_float(tok, key, line_no) for tok in raw.split(",") if tok.strip())


def _parse_int_list(raw: str, key: str, line_no: int) -> tuple:
    values = _parse_float_list(raw, key, line_no)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"line {line_no}: {key} expects integers, got {v}")
        out.append(int(round(v)))
    return tuple(out)


def _positive(value, key: str, line_no: int):
    if value <= 0:
        raise ConfigError(f"line {line_no}: {key} must be positive, got {value}")
    return value


def _non_negative(value, key: str, line_no: int):
    if value < 0:
        raise ConfigError(f"line {line_no}: {key} must be >= 0, got {value}")
    return value


def _choice(raw: str, key: str, line_no: int, allowed: tuple) -> str:
    val = raw.strip().lower()
    if val not in allowed:
        raise ConfigError(
            f"line {line_no}: {key} must be one of {', '.join(allowed)}; got {raw!r}"
        )
    return val


# key -> (section attribute, field, parser); parsers receive (raw, key, line_no)
_KEY_PARSERS = {
    "geometry.r_nm": ("geometry", "r_nm", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "geometry.r0_nm": ("geometry", "r0_nm", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "geometry.s_nm": ("geometry", "s_nm", lambda r, k, ln: _non_negative(_parse_float(r, k, ln), k, ln)),
    "geometry.n": ("geometry", "n", lambda r, k, ln: _validate_n(_parse_int_list(r, k, ln), k, ln)),
    "geometry.s_z": ("geometry", "s_z", _parse_float),
    "metal.omega_p_ev": ("metal", "omega_p_ev", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "metal.eps_inf": ("metal", "eps_inf", lambda r, k, ln: _at_least(_parse_float(r, k, ln), 1.0, k, ln)),
    "metal.gamma_p_ev": ("metal", "gamma_p_ev", lambda r, k, ln: _non_negative(_parse_float(r, k, ln), k, ln)),
    "metal.radiative_damping": ("metal", "radiative_damping", _parse_bool),
    "medium.eps_m": ("medium", "eps_m", lambda r, k, ln: _at_least(_parse_float(r, k, ln), 1.0, k, ln)),
    "qd.gamma_i": ("qd", "gamma_i", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "qd.detuning_mode": ("qd", "detuning_mode", lambda r, k, ln: _choice(r, k, ln, ("none", "symmetric", "antisymmetric"))),
    "qd.delta_over_gamma": ("qd", "delta_over_gamma", lambda r, k, ln: _non_empty(_parse_float_list(r, k, ln), k, ln)),
    "drive.intensity_w_cm2": ("drive", "intensity_w_cm2", lambda r, k, ln: _validate_intensities(_parse_float_list(r, k, ln), k, ln)),
    "drive.omega_mode": ("drive", "omega_mode", lambda r, k, ln: _choice(r, k, ln, ("lspr", "wavelength_nm", "grid"))),
    "drive.wavelength_nm": ("drive", "wavelength_nm", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "drive.lambda_min_nm": ("drive", "lambda_min_nm", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "drive.lambda_max_nm": ("drive", "lambda_max_nm", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "drive.lambda_points": ("drive", "lambda_points", lambda r, k, ln: _at_least(_parse_int(r, k, ln), 2, k, ln)),
    "drive.phi_over_pi": ("drive", "phi_over_pi", _parse_float),
    "drive.phi_mode": ("drive", "phi_mode", lambda r, k, ln: _choice(r, k, ln, ("effective", "bare"))),
    "solver.fock_levels": ("solver", "fock_levels", lambda r, k, ln: _at_least(_parse_int(r, k, ln), 2, k, ln)),
    "solver.memory_budget_gb": ("solver", "memory_budget_gb", lambda r, k, ln: _positive(_parse_float(r, k, ln), k, ln)),
    "solver.validate_max_n": ("solver", "validate_max_n", lambda r, k, ln: _at_least(_parse_int(r, k, ln), 1, k, ln)),
    "output.csv": ("output", "csv", lambda r, k, ln: r.strip()),
    "output.precision": ("output", "precision", lambda r, k, ln: _at_least(_parse_int(r, k, ln), 1, k, ln)),
}


def _at_least(value, floor, key: str, line_no: int):
    if value < floor:
        raise ConfigError(f"line {line_no}: {key} must be >= {floor}, got {value}")
    return value


def _non_empty(values: tuple, key: str, line_no: int) -> tuple:
    if not values:
        raise ConfigError(f"line {line_no}: {key} must not be empty")
    return values


def _validate_n(values: tuple, key: str, line_no: int) -> tuple:
    for v in values:
        if v < 1:
            raise ConfigError(f"line {line_no}: {key} entries must be >= 1, got {v}")
    return _non_empty(values, key, line_no)


def _validate_intensities(values: tuple, key: str, line_no: int) -> tuple:
    for v in values:
        if v < 0:
            raise ConfigError(f"line {line_no}: {key} entries must be >= 0, got {v}")
    return _non_empty(values, key, line_no)


def _apply_assignment(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> ExperimentConfig:
    key = key.strip().lower()
    if key not in _KEY_PARSERS:
        raise ConfigError(f"line {line_no}: unknown key {key!r}")
    section_name, field_name, parser = _KEY_PARSERS[key]
    value = parser(raw, key, line_no)
    section = getattr(cfg, section_name)
    return replace(cfg, **{section_name: replace(section, **{field_name: value})})


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse configuration text on top of defaults (or a given base)."""
    cfg = base if base is not None else ExperimentConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'section.key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg = _apply_assignment(cfg, key, raw, line_no)
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
        cfg = _apply_assignment(cfg, key, raw, 0)
    return cfg

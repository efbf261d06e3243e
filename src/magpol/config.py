"""Key-value run configuration: device rates, drive settings, detuning grid.

The format is a minimal sectioned key = value document (a subset of TOML):

    [system]
    g = 7.6
    kappa_c = 113.9
    kappa_m = 1.2
    kappa_c1 = 21.8
    kappa_m1 = 0.6

    [drive]
    delta = 1.2
    phi = 0.35pi

    [grid]
    start = -60
    stop = 60
    count = 1201

All rates and frequencies are in MHz.  Phases accept either raw radians or
the `1.35pi` shorthand.  [system] requires the five rates; frequencies
default to 0 (detuning convention).  [drive] and [grid] may be omitted
entirely, giving delta = 0, phi = 0, phi0 = pi, probe_amp = 1 and a
[-60, 60] MHz grid of 1201 points.

Numbers are also written as text here: every command and trace file prints
them with _format_number or _rows, 17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DomainError
from .model import DriveField, SystemParams
from .spectra import DEFAULT_GRID_COUNT, DEFAULT_GRID_SPAN, DetuningGrid

_SYSTEM_KEYS = {
    "g": "coupling_g",
    "kappa_c": "kappa_c",
    "kappa_m": "kappa_m",
    "kappa_c1": "kappa_c1",
    "kappa_m1": "kappa_m1",
    "cavity_freq": "cavity_freq",
    "magnon_freq": "magnon_freq",
}
_REQUIRED_SYSTEM_KEYS = ("g", "kappa_c", "kappa_m", "kappa_c1", "kappa_m1")
# The one map from drive keys to DriveField fields.  delta, phi and phi0 are
# also the command-line overrides and the s1p drive metadata.
_DRIVE_KEYS = {
    "delta": "ratio_delta",
    "phi": "phase_phi",
    "phi0": "phase_offset",
    "probe_amp": "probe_amp",
}
_OVERRIDE_KEYS = ("delta", "phi", "phi0")
_GRID_KEYS = {"start": "start", "stop": "stop", "count": "count"}
_PHASE_KEYS = ("phi", "phi0")
# [drive] defaults: DriveField's own, and delta = 0 (the pump off)
_DRIVE_DEFAULTS = {
    item.name: item.default for item in fields(DriveField) if item.default is not MISSING
}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs shared by every command."""

    system: SystemParams
    drive: DriveField
    grid: DetuningGrid


def parse_phase(text: str) -> float:
    """Parse radians from a number or a `1.35pi` / `pi` / `-pi` shorthand.

    Raises ValueError for malformed text and for non-finite results.
    """
    cleaned = text.strip().lower().replace(" ", "")
    if not cleaned:
        raise ValueError("empty phase")
    if cleaned.endswith("pi"):
        head = cleaned[:-2]
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        value = float(head) * math.pi
    else:
        value = float(cleaned)
    if not math.isfinite(value):
        raise ValueError(f"phase must be finite, got {text!r}")
    return value


# 17 significant digits reproduce every double bitwise when parsed back.
# "%.17g" % x is format(x, ".17g"), including for signed zeros, nan and inf.
_NUMBER = "%.17g"


def _format_number(value: float) -> str:
    return _NUMBER % value


def _rows(columns, sep: str = ",") -> list[str]:
    """One line per row of equal-length float columns, numbers as _format_number."""
    row = sep.join([_NUMBER] * len(columns))
    return [row % tuple(values) for values in np.column_stack(columns).tolist()]


def _parse_value(key: str, text: str) -> float:
    """The value of a config, override or metadata key given as text:
    parse_phase for a phase, float otherwise.  ValueError when malformed."""
    return parse_phase(text) if key in _PHASE_KEYS else float(text)


def _override_drive(drive: DriveField, overrides: dict[str, float]) -> DriveField:
    """drive with the values of the given _OVERRIDE_KEYS, set in one
    replace, so only the final drive is validated."""
    return replace(drive, **{_DRIVE_KEYS[key]: value for key, value in overrides.items()})


def _drive_metadata(drive: DriveField) -> dict[str, str]:
    """The drive's values under _OVERRIDE_KEYS, as the text s1p metadata carries."""
    return {key: _format_number(getattr(drive, _DRIVE_KEYS[key])) for key in _OVERRIDE_KEYS}


def _parse_document(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split the document into {section: {key: (raw value, line number)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("system", "drive", "grid"):
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError("expected 'key = value'", key=key or None, line=lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key", key=key, line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _known_keys(section: str, entries: dict[str, tuple[str, int]], allowed) -> None:
    for key, (_, lineno) in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key in [{section}]", key=key, line=lineno)


def _float_entry(entries, key: str, default: float | None = None) -> float:
    if key not in entries:
        if default is None:
            raise ConfigError("missing required key", key=key)
        return default
    raw, lineno = entries[key]
    try:
        return _parse_value(key, raw)
    except ValueError:
        raise ConfigError(f"invalid number {raw!r}", key=key, line=lineno) from None


def _build(cls, entries, keys: dict[str, str], values: dict[str, float]):
    """cls(**values), reporting a DomainError against the offending key.

    Model errors start with the field name; keys maps config key to field.
    """
    try:
        return cls(**values)
    except DomainError as exc:
        field = str(exc).split(" ", 1)[0]
        key = next((k for k, f in keys.items() if f == field), None)
        line = entries[key][1] if key in entries else None
        raise ConfigError(str(exc), key=key, line=line) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises ConfigError naming the offending key and line for unknown or
    malformed entries and for values that violate the model invariants.
    """
    sections = _parse_document(text)
    system_entries = sections.get("system", {})
    drive_entries = sections.get("drive", {})
    grid_entries = sections.get("grid", {})
    if not system_entries:
        raise ConfigError("missing [system] section")
    _known_keys("system", system_entries, _SYSTEM_KEYS)
    _known_keys("drive", drive_entries, _DRIVE_KEYS)
    _known_keys("grid", grid_entries, _GRID_KEYS)

    system_values = {
        field: _float_entry(
            system_entries, key, None if key in _REQUIRED_SYSTEM_KEYS else 0.0
        )
        for key, field in _SYSTEM_KEYS.items()
    }
    system = _build(SystemParams, system_entries, _SYSTEM_KEYS, system_values)

    drive_values = {
        field: _float_entry(drive_entries, key, _DRIVE_DEFAULTS.get(field, 0.0))
        for key, field in _DRIVE_KEYS.items()
    }
    drive = _build(DriveField, drive_entries, _DRIVE_KEYS, drive_values)

    count = DEFAULT_GRID_COUNT
    if "count" in grid_entries:
        raw, lineno = grid_entries["count"]
        try:
            count = int(raw)
        except ValueError:
            raise ConfigError(f"invalid integer {raw!r}", key="count", line=lineno) from None
    grid_values = {
        "start": _float_entry(grid_entries, "start", -DEFAULT_GRID_SPAN),
        "stop": _float_entry(grid_entries, "stop", DEFAULT_GRID_SPAN),
        "count": count,
    }
    grid = _build(DetuningGrid, grid_entries, _GRID_KEYS, grid_values)

    return RunConfig(system=system, drive=drive, grid=grid)


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_config(text)

"""Reading and writing reflection traces as Touchstone v1 .s1p or CSV.

Touchstone files carry absolute frequencies; they are converted to probe
detuning at ingestion via detuning = cavity_freq - frequency (both in MHz),
so an ascending frequency sweep becomes a descending detuning sweep and the
samples are reversed into ascending detuning order.  Comment lines of the
form `! key = value` are preserved as metadata.

CSV files carry the detuning axis directly with columns
`detuning_mhz,re,im,magnitude,db`.  All numbers are written with 17
significant digits so parsed values reproduce the written floats bitwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import _rows
from .errors import DomainError, TraceParseError
from .spectra import DetuningGrid, SpectrumTrace

_CSV_HEADER = "detuning_mhz,re,im,magnitude,db"

_UNIT_TO_MHZ = {"HZ": 1e-6, "KHZ": 1e-3, "MHZ": 1.0, "GHZ": 1e3}
_LAYOUTS = ("RI", "MA", "DB")

_DEG_TO_RAD = math.pi / 180.0


class TraceFormat(enum.Enum):
    TOUCHSTONE_S1P = "s1p"
    CSV = "csv"


@dataclass(frozen=True)
class TraceFile:
    """Parsed file-level description of a stored trace."""

    format: TraceFormat
    unit: str = "MHZ"
    layout: str = "RI"
    z0: float = 50.0
    metadata: dict[str, str] = field(default_factory=dict)


def _parse_option_line(line: str, lineno: int) -> tuple[str, str, float]:
    tokens = line[1:].split()
    unit = "GHZ"
    layout = "MA"
    z0 = 50.0
    i = 0
    saw_parameter = False
    while i < len(tokens):
        token = tokens[i].upper()
        if token in _UNIT_TO_MHZ:
            unit = token
        elif token == "S":
            saw_parameter = True
        elif token in _LAYOUTS:
            layout = token
        elif token == "R":
            if i + 1 >= len(tokens):
                raise TraceParseError("option line R without impedance", line=lineno)
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise TraceParseError(
                    f"invalid impedance {tokens[i + 1]!r}", line=lineno
                ) from None
            i += 1
        else:
            raise TraceParseError(f"unknown option token {tokens[i]!r}", line=lineno)
        i += 1
    if not saw_parameter:
        raise TraceParseError("option line lacks the S parameter token", line=lineno)
    return unit, layout, z0


def _decode_sample(layout: str, a: float, b: float) -> complex:
    if layout == "RI":
        return complex(a, b)
    if layout == "MA":
        return a * complex(math.cos(b * _DEG_TO_RAD), math.sin(b * _DEG_TO_RAD))
    magnitude = 10.0 ** (a / 20.0)
    return magnitude * complex(math.cos(b * _DEG_TO_RAD), math.sin(b * _DEG_TO_RAD))


def _read_touchstone(
    lines: list[str], cavity_freq: float
) -> tuple[TraceFile, SpectrumTrace]:
    unit = layout = None
    z0 = 50.0
    metadata: dict[str, str] = {}
    freqs: list[float] = []
    samples: list[complex] = []
    last_freq = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("!"):
            body = line[1:].strip()
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                if key:
                    metadata[key] = value
            continue
        if line.startswith("#"):
            if unit is not None:
                raise TraceParseError("multiple option lines", line=lineno)
            unit, layout, z0 = _parse_option_line(line, lineno)
            continue
        if unit is None:
            raise TraceParseError("data before the option line", line=lineno)
        tokens = line.split()
        if len(tokens) != 3:
            raise TraceParseError(
                f"expected 3 columns, got {len(tokens)}", line=lineno
            )
        try:
            freq, a, b = (float(token) for token in tokens)
        except ValueError:
            raise TraceParseError(f"invalid number in {line!r}", line=lineno) from None
        if last_freq is not None and freq <= last_freq:
            raise TraceParseError("frequencies must be strictly increasing", line=lineno)
        last_freq = freq
        freqs.append(freq)
        try:
            samples.append(_decode_sample(layout, a, b))
        except OverflowError:  # a DB magnitude above about 6165 dB
            raise TraceParseError(f"sample overflows in {line!r}", line=lineno) from None
        except ValueError:  # math.cos of an infinite MA or DB angle
            raise TraceParseError(f"infinite angle in {line!r}", line=lineno) from None
    if unit is None:
        raise TraceParseError("missing option line")
    if not freqs:
        raise TraceParseError("no data lines")
    scale = _UNIT_TO_MHZ[unit]
    with np.errstate(over="ignore"):  # DetuningGrid.from_values rejects inf
        detunings = cavity_freq - np.asarray(freqs) * scale
    t = np.asarray(samples, dtype=complex)
    try:
        grid = DetuningGrid.from_values(detunings[::-1])
    except DomainError as exc:
        raise TraceParseError(str(exc)) from exc
    trace = SpectrumTrace(grid=grid, t=t[::-1])
    info = TraceFile(
        format=TraceFormat.TOUCHSTONE_S1P,
        unit=unit,
        layout=layout,
        z0=z0,
        metadata=metadata,
    )
    return info, trace


def _read_csv(lines: list[str]) -> tuple[TraceFile, SpectrumTrace]:
    rows = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]
    if not rows:
        raise TraceParseError("empty file")
    header_line, header = rows[0]
    if header != _CSV_HEADER:
        raise TraceParseError(
            f"expected header {_CSV_HEADER!r}", line=header_line
        )
    detunings: list[float] = []
    samples: list[complex] = []
    last = None
    for lineno, line in rows[1:]:
        tokens = line.split(",")
        if len(tokens) != 5:
            raise TraceParseError(
                f"expected 5 columns, got {len(tokens)}", line=lineno
            )
        try:
            detuning, re, im = (float(token) for token in tokens[:3])
        except ValueError:
            raise TraceParseError(f"invalid number in {line!r}", line=lineno) from None
        if last is not None and detuning <= last:
            raise TraceParseError("detunings must be strictly increasing", line=lineno)
        last = detuning
        detunings.append(detuning)
        samples.append(complex(re, im))
    if not detunings:
        raise TraceParseError("no data rows")
    try:
        grid = DetuningGrid.from_values(np.asarray(detunings))
    except DomainError as exc:
        raise TraceParseError(str(exc)) from exc
    trace = SpectrumTrace(grid=grid, t=np.asarray(samples, dtype=complex))
    return TraceFile(format=TraceFormat.CSV), trace


def read_trace(path, cavity_freq: float = 0.0) -> tuple[TraceFile, SpectrumTrace]:
    """Parse a stored trace, inferring the format from the content.

    Files whose first non-blank line is the CSV header parse as CSV;
    everything else parses as Touchstone.  cavity_freq (MHz) sets the
    frequency-to-detuning conversion for Touchstone input.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == _CSV_HEADER:
            return _read_csv(lines)
        break
    return _read_touchstone(lines, cavity_freq)


def render_csv(trace: SpectrumTrace) -> str:
    """CSV text for a trace, ending with a newline."""
    t = trace.t
    rows = _rows([trace.grid.values, t.real, t.imag, trace.magnitude, trace.db])
    return "\n".join([_CSV_HEADER] + rows) + "\n"


def render_touchstone(
    trace: SpectrumTrace,
    cavity_freq: float = 0.0,
    metadata: dict[str, str] | None = None,
) -> str:
    """Touchstone v1 .s1p text in RI layout with ascending Hz frequencies,
    referenced to 50 ohm.

    The detuning axis appears reversed in the file because detuning falls as
    frequency rises.  Metadata is stored as `! key = value` comments.
    """
    lines = [f"! {key} = {value}" for key, value in (metadata or {}).items()]
    lines.append("# HZ S RI R 50")
    t = trace.t[::-1]
    freq_hz = (cavity_freq - trace.grid.values[::-1]) * 1e6
    lines += _rows([freq_hz, t.real, t.imag], sep=" ")
    return "\n".join(lines) + "\n"


def write_trace(
    trace: SpectrumTrace,
    path,
    format: TraceFormat = TraceFormat.CSV,
    cavity_freq: float = 0.0,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a trace with 17-significant-digit numbers and a trailing newline.

    CSV output has no metadata channel, so metadata is ignored there.
    """
    if format is TraceFormat.CSV:
        text = render_csv(trace)
    elif format is TraceFormat.TOUCHSTONE_S1P:
        text = render_touchstone(trace, cavity_freq=cavity_freq, metadata=metadata)
    else:
        raise DomainError(f"unknown trace format {format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

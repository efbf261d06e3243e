"""Reflection spectra on detuning grids and interference-regime labels.

Detuning here is always the probe detuning Delta_p = cavity_freq - probe_freq
in MHz, so positive detuning means the probe sits below the cavity.  A trace
is the complex reflection t_p sampled on a uniform detuning grid; a sweep
stacks traces along a pump-phase or pump-ratio axis.

Regime labels follow the usual magnon-induced naming: a narrow peak riding on
the broad cavity line is transparency (MIT) or amplification (MIAMP)
depending on whether it clears the far-detuned baseline, a narrow dip below
the bare-cavity curve is absorption (MIABS), a strongly two-sided feature is
Fano-like, and a feature too weak to call is Null.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import MAX_MAGNITUDE, DriveField, SystemParams, _probe_terms, _pump_coefficient

DEFAULT_GRID_SPAN = 60.0
DEFAULT_GRID_COUNT = 1201
# Largest sample count a DetuningGrid accepts: one complex trace of this
# length is 16 MB, and a sweep holds one such trace per axis value.
MAX_GRID_COUNT = 1_000_000

_GRID_UNIFORM_RTOL = 1e-9


def to_db(magnitude: float) -> float:
    """Amplitude magnitude in dB; -inf sentinel for magnitude <= 0."""
    if magnitude <= 0.0:
        return -math.inf
    return 20.0 * math.log10(magnitude)


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform detuning grid [start, stop] MHz with count samples.

    start and stop must be finite and at most model.MAX_MAGNITUDE in
    magnitude, and 2 <= count <= MAX_GRID_COUNT.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise DomainError(f"count must be at least 2, got {self.count}")
        if self.count > MAX_GRID_COUNT:
            raise DomainError(
                f"count must be at most {MAX_GRID_COUNT}, got {self.count}"
            )
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if abs(value) > MAX_MAGNITUDE:
                raise DomainError(
                    f"{name} must be at most {MAX_MAGNITUDE:g} in magnitude, got {value}"
                )
        if not self.stop > self.start:
            raise DomainError(f"stop ({self.stop}) must exceed start ({self.start})")

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    @cached_property
    def values(self) -> np.ndarray:
        values = np.linspace(self.start, self.stop, self.count)
        values.flags.writeable = False
        return values

    @classmethod
    def from_values(cls, values) -> "DetuningGrid":
        """Grid wrapping explicit sample positions (kept verbatim).

        The samples must be strictly increasing and uniform to relative
        tolerance 1e-9 of the spacing.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DomainError("grid values must be a 1-d array of length >= 2")
        steps = np.diff(values)
        if np.any(steps <= 0.0):
            raise DomainError("grid values must be strictly increasing")
        mean_step = float(np.mean(steps))
        if np.max(np.abs(steps - mean_step)) > _GRID_UNIFORM_RTOL * mean_step:
            raise DomainError("grid values are not uniform")
        grid = cls(float(values[0]), float(values[-1]), int(values.size))
        values = values.copy()
        values.flags.writeable = False
        grid.__dict__["values"] = values
        return grid


def default_grid() -> DetuningGrid:
    return DetuningGrid(-DEFAULT_GRID_SPAN, DEFAULT_GRID_SPAN, DEFAULT_GRID_COUNT)


@dataclass(frozen=True)
class SpectrumTrace:
    """Complex reflection sampled on a detuning grid."""

    grid: DetuningGrid
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.grid.count,):
            raise DomainError(
                f"trace length {t.shape} does not match grid count {self.grid.count}"
            )
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @cached_property
    def magnitude(self) -> np.ndarray:
        magnitude = np.abs(self.t)
        magnitude.flags.writeable = False
        return magnitude

    @cached_property
    def db(self) -> np.ndarray:
        magnitude = self.magnitude
        with np.errstate(divide="ignore"):
            db = np.where(
                magnitude > 0.0, 20.0 * np.log10(np.where(magnitude > 0.0, magnitude, 1.0)), -np.inf
            )
        db.flags.writeable = False
        return db


def _probe_terms_on(params: SystemParams, detunings: np.ndarray):
    """(den, t_probe) on probe detunings; shared by every drive.

    Raises DomainError unless t_probe is finite on the whole grid, which
    fails where den underflows (rates and detunings near 1e-170 MHz).
    """
    delta_m = detunings + (params.magnon_freq - params.cavity_freq)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den, t_probe = _probe_terms(params, detunings, delta_m)
    if not np.isfinite(t_probe).all():
        raise DomainError("reflection is not representable: the response denominator underflows")
    return den, t_probe


def _drive_coefficient(params: SystemParams, drive: DriveField) -> complex:
    """The pump coefficient c (t_pump = c / den) of one drive."""
    if drive.probe_amp == 0.0:
        raise DomainError("transmission is undefined for probe_amp == 0")
    return _pump_coefficient(params, drive)


def trace(params: SystemParams, drive: DriveField, grid: DetuningGrid | None = None) -> SpectrumTrace:
    """Complex reflection t_p over a detuning grid (default +-60 MHz, 1201)."""
    coefficient = _drive_coefficient(params, drive)
    if grid is None:
        grid = default_grid()
    den, t_probe = _probe_terms_on(params, grid.values)
    return SpectrumTrace(grid=grid, t=t_probe + coefficient / den)


class SweepAxis(enum.Enum):
    PHASE = "phase"
    RATIO = "ratio"


@dataclass(frozen=True)
class SweepMap:
    """Stack of traces along a pump-phase or pump-ratio axis."""

    axis: SweepAxis
    axis_values: np.ndarray
    grid: DetuningGrid
    traces: tuple[SpectrumTrace, ...]

    def magnitude_matrix(self) -> np.ndarray:
        return np.stack([t.magnitude for t in self.traces])

    def db_matrix(self) -> np.ndarray:
        return np.stack([t.db for t in self.traces])


def sweep(
    params: SystemParams,
    base_drive: DriveField,
    axis: SweepAxis,
    values,
    grid: DetuningGrid | None = None,
) -> SweepMap:
    """Sweep the pump phase or pump/probe ratio, tracing the spectrum at each value.

    The drive-independent factors (den, t_probe) are computed once for the
    grid; each value then costs one complex scalar and one add and divide.
    Each trace equals trace(params, drive, grid) for that value's drive.
    """
    if grid is None:
        grid = default_grid()
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError("sweep axis values must be a non-empty 1-d array")
    den, t_probe = _probe_terms_on(params, grid.values)
    traces = []
    for value in values:
        if axis is SweepAxis.PHASE:
            drive = replace(base_drive, phase_phi=float(value))
        elif axis is SweepAxis.RATIO:
            drive = replace(base_drive, ratio_delta=float(value))
        else:
            raise DomainError(f"unknown sweep axis {axis!r}")
        coefficient = _drive_coefficient(params, drive)
        traces.append(SpectrumTrace(grid=grid, t=t_probe + coefficient / den))
    values = values.copy()
    values.flags.writeable = False
    return SweepMap(axis=axis, axis_values=values, grid=grid, traces=tuple(traces))


def baseline_level(spectrum: SpectrumTrace) -> float:
    """Median magnitude over the outer 10% of the grid (5% per side)."""
    count = spectrum.grid.count
    edge = max(1, round(0.05 * count))
    outer = np.concatenate([spectrum.magnitude[:edge], spectrum.magnitude[-edge:]])
    return float(np.median(outer))


def extremum_near_resonance(
    spectrum: SpectrumTrace, window: float
) -> tuple[float, float, bool]:
    """Feature extremum within |detuning| <= window.

    The local background is the chord between the nearest samples outside the
    window on either side; the extremum is the sample deviating most from it.
    Returns (detuning, magnitude, is_peak) with is_peak true when the
    extremum lies above the background.
    """
    if not window > 0.0:
        raise DomainError(f"window must be positive, got {window}")
    delta = spectrum.grid.values
    inside = np.abs(delta) <= window
    left_out = np.nonzero(delta < -window)[0]
    right_out = np.nonzero(delta > window)[0]
    if np.count_nonzero(inside) < 3 or left_out.size == 0 or right_out.size == 0:
        raise DomainError(
            f"window {window} MHz is not covered by grid "
            f"[{spectrum.grid.start}, {spectrum.grid.stop}]"
        )
    magnitude = spectrum.magnitude
    x0, x1 = delta[left_out[-1]], delta[right_out[0]]
    y0, y1 = magnitude[left_out[-1]], magnitude[right_out[0]]
    chord = y0 + (delta[inside] - x0) * (y1 - y0) / (x1 - x0)
    deviation = magnitude[inside] - chord
    pick = int(np.argmax(np.abs(deviation)))
    indices = np.nonzero(inside)[0]
    idx = indices[pick]
    return float(delta[idx]), float(magnitude[idx]), bool(deviation[pick] > 0.0)


class RegimeLabel(enum.Enum):
    MIT = "MIT"
    MIABS = "MIABS"
    MIAMP = "MIAMP"
    FANO = "Fano"
    NULL = "Null"


@dataclass(frozen=True)
class RegimeThresholds:
    """Declared constants behind the regime labels.

    contrast_floor: smallest max |T - T_bare| (within the feature window)
        counted as a real feature; below it the label is Null.
    amp_tol: fractional headroom over the far-detuned baseline separating a
        transparency peak (MIT) from amplification (MIAMP).
    fano_lobe_ratio: a feature with both a positive and a negative lobe
        against the bare-cavity curve is Fano-like once the smaller lobe
        exceeds this fraction of the larger one.
    window: feature window half-width in MHz; None means 6x the narrow
        feature width kappa_m + g^2/kappa_c.
    baseline_span_factor: half-span of the internal baseline-estimation grid
        in units of kappa_c.
    """

    contrast_floor: float = 0.05
    amp_tol: float = 0.10
    fano_lobe_ratio: float = 0.32
    window: float | None = None
    baseline_span_factor: float = 10.0


def classify_regime(
    params: SystemParams,
    drive: DriveField,
    thresholds: RegimeThresholds | None = None,
    grid: DetuningGrid | None = None,
) -> RegimeLabel:
    """Label the narrow feature of the trace at this drive setting.

    The feature is judged against the bare-cavity curve (same params with
    coupling_g = 0, pump off) inside the feature window, and against the
    far-detuned baseline estimated on a wide internal grid.
    """
    if thresholds is None:
        thresholds = RegimeThresholds()
    if grid is None:
        grid = default_grid()
    window = thresholds.window
    if window is None:
        window = 6.0 * params.feature_width()
    if grid.start > -window or grid.stop < window:
        raise DomainError(
            f"grid [{grid.start}, {grid.stop}] does not span the "
            f"{window:g} MHz feature window"
        )

    bare_params = replace(params, coupling_g=0.0)
    bare_drive = replace(drive, ratio_delta=0.0)
    measured = trace(params, drive, grid)
    bare = trace(bare_params, bare_drive, grid)

    inside = np.abs(grid.values) <= window
    deviation = measured.magnitude[inside] - bare.magnitude[inside]
    positive_lobe = float(np.max(deviation, initial=0.0))
    negative_lobe = float(-np.min(deviation, initial=0.0))
    contrast = max(positive_lobe, negative_lobe)
    if contrast < thresholds.contrast_floor:
        return RegimeLabel.NULL
    if min(positive_lobe, negative_lobe) > thresholds.fano_lobe_ratio * contrast:
        return RegimeLabel.FANO
    if positive_lobe >= negative_lobe:
        half_span = min(
            max(thresholds.baseline_span_factor * params.kappa_c, grid.stop, -grid.start),
            MAX_MAGNITUDE,
        )
        wide = DetuningGrid(-half_span, half_span, DEFAULT_GRID_COUNT)
        baseline = baseline_level(trace(params, drive, wide))
        peak = float(np.max(measured.magnitude[inside]))
        if peak <= baseline * (1.0 + thresholds.amp_tol):
            return RegimeLabel.MIT
        return RegimeLabel.MIAMP
    return RegimeLabel.MIABS

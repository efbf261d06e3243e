"""Reflection spectra on detuning grids and interference-regime labels.

Detuning here is always the probe detuning Delta_p = cavity_freq - probe_freq
in MHz, so positive detuning means the probe sits below the cavity.  A trace
is the complex reflection t_p sampled on a uniform detuning grid; a sweep
stacks traces along a pump-phase or pump-ratio axis.

Regime labels follow the usual magnon-induced naming: a narrow peak riding on
the broad cavity line is transparency (MIT) or amplification (MIAMP)
depending on whether it clears the far-detuned baseline, a narrow dip below
the bare-cavity curve is absorption (MIABS), a strongly two-sided feature is
Fano-like, and a feature too weak to call is Null.  A label evaluates only
the samples it reads: those in the feature window and the far-detuned
samples of its baseline (see classify_regime).

Labels are asked for as tables of drives on one device, so classify_regime
keeps the drive-free terms of the last device and grid it labelled in one
module-private entry, and a call with the same device and grid forms only
what its drive changes.  The entry holds den, t_probe and the bare-cavity
|t_p| on the window samples (40 bytes per sample), and the far baseline's
terms once a label needs them; it keeps at most one grid's samples alive.
A call hits it when its device equals the entry's by value and its grid
holds the entry's read-only samples array itself (the same DetuningGrid, or
one sharing its values); grids equal by == may hold different samples.  The
entry is replaced whole, so concurrent calls are safe, and nothing is built
at import.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import (
    MAX_MAGNITUDE,
    DriveField,
    SystemParams,
    _drive_coefficient,
    _pump_terms,
    _Response,
    _scale_exponent,
)

DEFAULT_GRID_SPAN = 60.0
DEFAULT_GRID_COUNT = 1201
# Largest sample count a DetuningGrid accepts: one complex trace of this
# length is 16 MB, and a sweep holds one such trace per axis value.
MAX_GRID_COUNT = 1_000_000

_GRID_UNIFORM_RTOL = 1e-9


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

        The samples must be finite and at most MAX_MAGNITUDE in magnitude,
        like start and stop, and strictly increasing and uniform to relative
        tolerance 1e-9 of the spacing.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DomainError("grid values must be a 1-d array of length >= 2")
        if not np.all(np.abs(values) <= MAX_MAGNITUDE):  # nan fails too
            raise DomainError(
                f"grid values must be finite and at most {MAX_MAGNITUDE:g} in magnitude"
            )
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


_DEFAULT_GRID = DetuningGrid(-DEFAULT_GRID_SPAN, DEFAULT_GRID_SPAN, DEFAULT_GRID_COUNT)


def default_grid() -> DetuningGrid:
    """The +-60 MHz, 1201-sample grid; one shared instance, since a grid is
    frozen and its values are read-only."""
    return _DEFAULT_GRID


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


def trace(params: SystemParams, drive: DriveField, grid: DetuningGrid | None = None) -> SpectrumTrace:
    """Complex reflection t_p over a detuning grid (default +-60 MHz, 1201)."""
    if grid is None:
        grid = default_grid()
    r = _Response(params, grid.values)
    return SpectrumTrace(grid=grid, t=r.probe() + _drive_coefficient(r.pump_scale, drive) / r.den)


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


def sweep(
    params: SystemParams,
    base_drive: DriveField,
    axis: SweepAxis,
    values,
    grid: DetuningGrid | None = None,
) -> SweepMap:
    """Sweep the pump phase or pump/probe ratio, tracing the spectrum at each value.

    The drive-independent factors (den, t_probe) are computed once for the
    grid, and every value's pump coefficient is divided by den in one
    (values, samples) array; each trace is a read-only row of it.  Each
    trace equals trace(params, drive, grid) for that value's drive.
    """
    if grid is None:
        grid = default_grid()
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError("sweep axis values must be a non-empty 1-d array")
    r = _Response(params, grid.values)
    t_probe = r.probe()
    if axis is SweepAxis.PHASE:
        field = "phase_phi"
    elif axis is SweepAxis.RATIO:
        field = "ratio_delta"
    else:
        raise DomainError(f"unknown sweep axis {axis!r}")

    # written in place: a second (values, samples) temporary page-faulted
    # on every call and cost more than the arithmetic
    t = np.empty((values.size, grid.count), dtype=complex)
    np.divide(_pump_terms(r.pump_scale, base_drive, field, values).reshape(-1, 1), r.den, out=t)
    np.add(t_probe, t, out=t)
    t.flags.writeable = False
    values = values.copy()
    values.flags.writeable = False
    traces = tuple(_wrap_trace(grid, row) for row in t)
    return SweepMap(axis=axis, axis_values=values, grid=grid, traces=traces)


def _wrap_trace(grid: DetuningGrid, t: np.ndarray) -> SpectrumTrace:
    """A SpectrumTrace holding t itself, without __post_init__'s copy: t
    must be a read-only complex array of grid.count samples that nothing
    writes."""
    trace = object.__new__(SpectrumTrace)
    trace.__dict__.update(grid=grid, t=t)
    return trace


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d float array, bit for bit: the same partition
    (nan sorts last and wins) and the same np.mean of the middle one or two.
    np.median itself imports numpy.ma on its first call, which a cold
    command would pay for."""
    size = values.size
    half = size // 2
    odd = size % 2
    part = np.partition(values, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd : half + 1]))


def _outer(samples: np.ndarray) -> np.ndarray:
    """The outer 5% of the samples on each side (at least one per side)."""
    edge = max(1, round(0.05 * samples.size))
    return np.concatenate([samples[:edge], samples[-edge:]])


def baseline_level(spectrum: SpectrumTrace) -> float:
    """Median magnitude over the outer 10% of the grid (5% per side)."""
    return _median(_outer(spectrum.magnitude))


class RegimeLabel(enum.Enum):
    MIT = "MIT"
    MIABS = "MIABS"
    MIAMP = "MIAMP"
    FANO = "Fano"
    NULL = "Null"


# The regime-label rules; classify_regime says how each is used.
_CONTRAST_FLOOR = 0.05
_AMPLIFICATION_TOL = 0.10
_FANO_LOBE_RATIO = 0.32
_WINDOW_WIDTHS = 6.0  # feature widths, kappa_m + g^2/kappa_c
_BASELINE_SPAN = 10.0  # units of kappa_c


def classify_regime(
    params: SystemParams,
    drive: DriveField,
    grid: DetuningGrid | None = None,
) -> RegimeLabel:
    """Label the narrow feature of the trace at this drive setting.

    The feature window is |Delta_p| <= _WINDOW_WIDTHS (6) feature widths
    (params.feature_width()), and the grid must span it.  The feature is
    judged against the bare-cavity curve (same params with coupling_g = 0,
    pump off) inside the window, and against the far-detuned baseline: the
    median |t_p| over the outer 5% per side of a wide internal grid of
    DEFAULT_GRID_COUNT samples spanning +-_BASELINE_SPAN (10) kappa_c, or
    the grid if it is wider (as baseline_level on the full trace there).

    The largest deviation from the bare curve is the contrast.  Below
    _CONTRAST_FLOOR (0.05) the label is Null; when both lobes exceed
    _FANO_LOBE_RATIO (0.32) of it, Fano; a dip is MIABS; a peak is MIT up
    to _AMPLIFICATION_TOL (10%) over the baseline, and MIAMP above.

    Only the samples that decide the label are evaluated: the grid samples
    inside the window, for both curves, and, when the positive lobe wins,
    the 2 x 60 outer samples of the wide grid.  Both curves are computed at
    the prescale the core picks for the whole grid, so every sample has the
    bits of the full trace (the bare cavity's own prescale, without g, is
    the same on any grid that spans the window); a sample that is not
    representable raises DomainError, and so does a grid with no sample
    inside the window.

    The drive-free terms of the last device and grid labelled are kept in
    one entry (_LabelTerms): den, t_probe, the pump scale and the bare curve
    on the window samples, 40 bytes per sample, and the far baseline's den,
    t_probe and pump scale, filled on the first positive-lobe label.  A call
    whose device equals the entry's by value, on a grid holding the entry's
    read-only values array itself (the same DetuningGrid object or one
    sharing its samples; == compares only the ends and the count), forms
    only the drive's coefficient, |t_p| in the window, the lobes and, on the
    positive-lobe path, the baseline median.  The entry keeps that one
    grid's samples alive.  A call that raises leaves it as it was, and
    concurrent calls are safe: the entry is replaced whole, and its far
    terms can only ever take one value.
    """
    global _last_label_terms
    if grid is None:
        grid = default_grid()
    terms = _last_label_terms
    if terms is None or not terms.matches(params, grid):
        terms = _LabelTerms(params, grid, drive)
    coefficient = _drive_coefficient(terms.pump_scale, drive)
    measured = np.abs(terms.t_probe + coefficient / terms.den)
    deviation = measured - terms.bare
    positive_lobe = float(deviation.max(initial=0.0))
    negative_lobe = float(-deviation.min(initial=0.0))
    contrast = max(positive_lobe, negative_lobe)
    if contrast < _CONTRAST_FLOOR:
        label = RegimeLabel.NULL
    elif min(positive_lobe, negative_lobe) > _FANO_LOBE_RATIO * contrast:
        label = RegimeLabel.FANO
    elif positive_lobe >= negative_lobe:
        far, far_probe = terms.far
        baseline = _median(np.abs(far_probe + _drive_coefficient(far.pump_scale, drive) / far.den))
        peak = float(measured.max())
        if peak <= baseline * (1.0 + _AMPLIFICATION_TOL):
            label = RegimeLabel.MIT
        else:
            label = RegimeLabel.MIAMP
    else:
        label = RegimeLabel.MIABS
    _last_label_terms = terms
    return label


class _LabelTerms:
    """classify_regime's drive-free terms for one device on one grid.

    Built from the grid samples inside the feature window: den and
    pump_scale of the model's _Response there at the whole grid's prescale,
    its t_probe, and the bare-cavity |t_p|; that is 40 bytes per window
    sample, and the entry keeps the grid's values array alive.  far holds
    the baseline's (_Response, t_probe) on the 2 x 60 outer samples of the
    wide grid, built on the first positive-lobe label.

    The module keeps one entry, the last one a label was made from.  It is
    replaced whole, and far is only ever set to the one value it can have,
    so concurrent calls read a consistent entry, at worst building far
    twice.
    """

    def __init__(self, params: SystemParams, grid: DetuningGrid, drive: DriveField):
        """The terms, with classify_regime's errors in its order; drive is
        checked where its coefficient was always formed, after t_probe and
        before the bare curve."""
        window = _WINDOW_WIDTHS * params.feature_width()
        if grid.start > -window or grid.stop < window:
            raise DomainError(
                f"grid [{grid.start}, {grid.stop}] does not span the "
                f"{window:g} MHz feature window"
            )
        values = grid.values
        inside = values[
            np.searchsorted(values, -window) : np.searchsorted(values, window, "right")
        ]
        if inside.size == 0:
            raise DomainError(
                f"grid [{grid.start}, {grid.stop}] with {grid.count} samples has none "
                f"inside the {window:g} MHz feature window"
            )
        r = _Response(params, inside, _scale_exponent(params, values[0], values[-1]))
        self.den, self.pump_scale, self.t_probe = r.den, r.pump_scale, r.probe()
        _drive_coefficient(self.pump_scale, drive)
        # the bare cavity (coupling_g = 0, pump off) has den = zc*zm and t_p =
        # t_probe; zc and zm do not depend on g
        self.bare = np.abs(r.probe(r.zc * r.zm))
        self.params, self.values = params, values
        self.half_span = min(
            max(_BASELINE_SPAN * params.kappa_c, grid.stop, -grid.start), MAX_MAGNITUDE
        )

    def matches(self, params: SystemParams, grid: DetuningGrid) -> bool:
        """Whether these are the terms of params on grid: the device equal
        by value, and the grid's samples the same read-only array (grids
        equal by == may hold different samples)."""
        values = grid.values
        return (
            values is self.values
            and not values.flags.writeable
            and (params is self.params or params == self.params)
        )

    @cached_property
    def far(self):
        # the outer samples include both ends, so the core picks the whole
        # wide grid's prescale
        far = _Response(
            self.params, _outer(np.linspace(-self.half_span, self.half_span, DEFAULT_GRID_COUNT))
        )
        return far, far.probe()


# The entry classify_regime made its last label from, or None.
_last_label_terms: _LabelTerms | None = None

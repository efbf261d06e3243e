"""Closed-form model of a two-tone driven cavity-magnon system.

A microwave cavity mode (half-linewidth kappa_c, input coupling kappa_c1) and
a magnon mode (kappa_m, kappa_m1) hybridize with strength coupling_g.  A probe
tone of amplitude probe_amp drives the cavity port; a pump tone of amplitude
ratio_delta * probe_amp and relative phase phase_phi (+ a hardware offset
phase_offset) drives the magnon directly.  All rates and frequencies are in
MHz, understood as linear frequencies; a rate kappa enters the response as
(i*Delta + kappa) with Delta in MHz.

The reflected probe normalized to the incident probe is

    t_p = t_probe + t_pump
    t_probe = 1 - 2*kappa_c1*zm / den
    t_pump  = i*g*2*sqrt(kappa_c1*kappa_m1)*delta*exp(-i*phi_eff) / den
    den     = zc*zm + g**2,  zc = i*Delta_c + kappa_c,  zm = i*Delta_m + kappa_m

with Delta_c = cavity_freq - probe_freq, Delta_m = magnon_freq - probe_freq,
and phi_eff = phase_phi + phase_offset.  The same den appears in the
steady-state mode amplitudes, which feed the equivalent input-output route
t_p = output_field / probe_amp (see oracle.py).

Every response path (transmission, spectra.trace and sweep, the regime
labels, the fit, the group delay and the zero-reflection solver) builds zc,
zm and den in one core, _Response.  It first scales every rate,
frequency and detuning by an exact power of two that brings the largest
below 1, so no product underflows or overflows because of the overall scale
of the rates: t_p at rates near 1e-170 MHz is the same number as at the same
device scaled up by 2^560.  Scaling by a power of two is exact, so t_p keeps
its bits wherever the unscaled terms are representable.  A _Response holds
the prescale (exponent and scale = 2^-exponent), the scaled device
(kappa_c, kappa_m, kappa_c1, kappa_m1, g and the mode offset), zc, zm, den,
the pump scale and t_probe through probe(); the other modules take every
scaled rate from it and read the prescale only to turn a result back into
MHz.

den never vanishes for a valid device: with kappa_c, kappa_m > 0,
Re den >= kappa_c*kappa_m wherever Im den = kappa_c*Delta_m + kappa_m*Delta_c
is 0.  After the prescale it can underflow to 0 only when the rates span
about 300 decades; there the response raises DomainError ("not
representable") instead of returning a non-finite number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DomainError

# Largest magnitude (MHz) of a SystemParams field or a DetuningGrid bound.
# The response, the zero-reflection quadratic and the fit Jacobian multiply
# at most four such magnitudes, with coefficients below 250; at this cap even
# a product of six, with coefficients up to 1e8, stays below the largest
# double (about 1.8e308), so no finite input can overflow them.
MAX_MAGNITUDE = 1e50


@dataclass(frozen=True)
class SystemParams:
    """Static device parameters, all in MHz.

    cavity_freq / magnon_freq are the bare mode frequencies; either may be 0
    when working purely in detuning space.  kappa_c1 (kappa_m1) is the
    external portion of kappa_c (kappa_m) and may not exceed it.  All seven
    must be finite and at most MAX_MAGNITUDE in magnitude.
    """

    cavity_freq: float
    magnon_freq: float
    coupling_g: float
    kappa_c: float
    kappa_m: float
    kappa_c1: float
    kappa_m1: float

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not math.isfinite(value):
                raise DomainError(f"{item.name} must be finite, got {value}")
            if abs(value) > MAX_MAGNITUDE:
                raise DomainError(
                    f"{item.name} must be at most {MAX_MAGNITUDE:g} in magnitude, got {value}"
                )
        for name in ("kappa_c", "kappa_m", "kappa_c1", "kappa_m1"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.coupling_g < 0.0:
            raise DomainError(f"coupling_g must be nonnegative, got {self.coupling_g}")
        if self.kappa_c1 > self.kappa_c:
            raise DomainError(
                f"kappa_c1 ({self.kappa_c1}) cannot exceed kappa_c ({self.kappa_c})"
            )
        if self.kappa_m1 > self.kappa_m:
            raise DomainError(
                f"kappa_m1 ({self.kappa_m1}) cannot exceed kappa_m ({self.kappa_m})"
            )

    def feature_width(self) -> float:
        """Width scale (MHz) of the narrow magnon-like feature,
        kappa_m + g^2/kappa_c; formed without g^2, which underflows for
        rates below about 1e-162 MHz."""
        return self.kappa_m + self.coupling_g * (self.coupling_g / self.kappa_c)


@dataclass(frozen=True)
class DriveField:
    """Two-tone drive configuration.

    ratio_delta is the pump/probe amplitude ratio (dimensionless, >= 0),
    phase_phi the programmed pump-probe phase and phase_offset the hardware
    calibration offset, both in radians.  Phases are stored as given;
    effective_phase reduces their sum to (-pi, pi] for evaluation.
    probe_amp >= 0; zero is allowed only for the degenerate no-drive case.
    All four must be finite, and so must the sum of the two phases.
    ratio_delta must be at most MAX_MAGNITUDE, which keeps the pump
    coefficient 2*g*sqrt(kappa_c1*kappa_m1)*ratio_delta below about 2e150.
    """

    ratio_delta: float
    phase_phi: float = 0.0
    phase_offset: float = field(default=math.pi)
    probe_amp: float = 1.0

    def __post_init__(self):
        for name in ("ratio_delta", "phase_phi", "phase_offset", "probe_amp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.ratio_delta > MAX_MAGNITUDE:
            raise DomainError(
                f"ratio_delta must be at most {MAX_MAGNITUDE:g} in magnitude, "
                f"got {self.ratio_delta}"
            )
        if self.ratio_delta < 0.0:
            raise DomainError(f"ratio_delta must be >= 0, got {self.ratio_delta}")
        if self.probe_amp < 0.0:
            raise DomainError(f"probe_amp must be >= 0, got {self.probe_amp}")
        if not math.isfinite(self.phase_phi + self.phase_offset):
            raise DomainError(
                f"phase_phi + phase_offset must be finite, got "
                f"{self.phase_phi} + {self.phase_offset}"
            )

    @property
    def effective_phase(self) -> float:
        return _effective_phase(self.phase_phi, self.phase_offset)

    @classmethod
    def with_effective_phase(
        cls, ratio_delta: float, phase_eff: float, probe_amp: float = 1.0
    ) -> "DriveField":
        """Drive whose effective phase equals phase_eff (offset folded in)."""
        return cls(
            ratio_delta=ratio_delta,
            phase_phi=phase_eff,
            phase_offset=0.0,
            probe_amp=probe_amp,
        )


def _effective_phase(phase_phi: float, phase_offset: float) -> float:
    """phase_phi + phase_offset reduced to (-pi, pi]."""
    return math.remainder(phase_phi + phase_offset, math.tau)


@dataclass(frozen=True)
class ModeAmplitudes:
    """Steady-state intracavity and magnon amplitudes (complex)."""

    cavity_amp: complex
    magnon_amp: complex


def _scale_exponent(params: SystemParams, *detunings) -> int:
    """The exponent of _Response's prescale: 2^exponent is the smallest
    power of two above the largest of kappa_c, kappa_m, g, |offset| and the
    given probe detunings in magnitude."""
    offset = params.magnon_freq - params.cavity_freq
    rates = (params.kappa_c, params.kappa_m, params.coupling_g, abs(offset))
    exponent = math.frexp(max(*rates, *map(abs, detunings)))[1]
    # keeps 2^-exponent and 2^exponent normal doubles
    if not -1020 <= exponent <= 1020:
        raise DomainError("reflection is not representable for these rates")
    return exponent


class _Response:
    """The drive-free factors of t_p at probe detunings delta_p (a float,
    or an increasing array), every rate, frequency and detuning scaled by
    scale = 2^-exponent; with exponent None it is _scale_exponent at
    delta_p (at the ends of an array).

    kappa_c, kappa_m, kappa_c1, kappa_m1, g and offset = magnon_freq -
    cavity_freq are the device's, scaled; zc = i*Delta_p + kappa_c,
    zm = i*(Delta_p + offset) + kappa_m and den = zc*zm + g*g.  The pump
    coefficient of a drive is _pump_term(pump_scale, ratio, phase), at the
    same scale.
    """

    __slots__ = (
        "exponent", "scale", "kappa_c", "kappa_m", "kappa_c1", "kappa_m1", "g", "offset",
        "zc", "zm", "den", "pump_scale",
    )

    def __init__(self, params: SystemParams, delta_p, exponent: int | None = None):
        if exponent is None:
            ends = (delta_p[0], delta_p[-1]) if isinstance(delta_p, np.ndarray) else (delta_p,)
            exponent = _scale_exponent(params, *ends)
        scale = math.ldexp(1.0, -exponent)
        self.exponent, self.scale = exponent, scale
        self.kappa_c = params.kappa_c * scale
        self.kappa_m = params.kappa_m * scale
        self.kappa_c1 = params.kappa_c1 * scale
        self.kappa_m1 = params.kappa_m1 * scale
        self.g = g = params.coupling_g * scale
        self.offset = (params.magnon_freq - params.cavity_freq) * scale
        delta_p = delta_p * scale
        self.zc = 1j * delta_p + self.kappa_c
        self.zm = 1j * (delta_p + self.offset) + self.kappa_m
        self.den = self.zc * self.zm + g * g
        self.pump_scale = 2.0 * g * math.sqrt(self.kappa_c1 * self.kappa_m1)

    def probe(self, den=None) -> np.ndarray:
        """t_probe = 1 - 2*kappa_c1*zm/den on array detunings, with den the
        device's by default (the bare cavity's is zc*zm); DomainError unless
        it is finite on every sample, which fails only where den underflows
        (rates spanning about 300 decades)."""
        if den is None:
            den = self.den
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_probe = 1.0 - 2.0 * self.kappa_c1 * self.zm / den
        if not np.isfinite(t_probe).all():
            raise DomainError(
                "reflection is not representable: the response denominator underflows"
            )
        return t_probe


def _pump_term(pump_scale: float, ratio: float, phase_eff: float) -> complex:
    """The pump drive's contribution c to t_p * den (t_pump = c / den)."""
    pump = pump_scale * ratio
    return 1j * pump * complex(math.cos(phase_eff), -math.sin(phase_eff))


def _drive_coefficient(pump_scale: float, drive: DriveField) -> complex:
    """The pump coefficient c (t_pump = c / den) of one drive; every
    drive-level response path takes it from here, or from _pump_terms for
    one drive swept along a field.  t_p is normalized to the probe, so it is
    undefined without one: DomainError for probe_amp == 0."""
    if drive.probe_amp == 0.0:
        raise DomainError("transmission is undefined for probe_amp == 0")
    return _pump_term(pump_scale, drive.ratio_delta, drive.effective_phase)


def _pump_terms(
    pump_scale: float, base_drive: DriveField, name: str, values: np.ndarray
) -> np.ndarray:
    """The pump coefficients of base_drive with its field name ("ratio_delta"
    or "phase_phi") set to each of values, with the bits and the errors of
    _drive_coefficient on each such drive.

    DriveField accepts an interval of ratios and of phases (nan fails), so
    when the smallest and the largest value pass, all do; otherwise the
    first value that fails raises its own error, as a loop over drives
    would.  The values that pass need no drive each.
    """

    def coefficient(value):
        return _drive_coefficient(pump_scale, replace(base_drive, **{name: float(value)}))

    try:
        coefficient(values.min())
        coefficient(values.max())
    except DomainError:
        for value in values:
            coefficient(value)
        raise
    if name == "ratio_delta":
        # _pump_term's expression, with the one phase's rotation formed once
        phase = base_drive.effective_phase
        rotation = complex(math.cos(phase), -math.sin(phase))
        terms = [1j * (pump_scale * value) * rotation for value in values.tolist()]
    else:
        ratio, offset = base_drive.ratio_delta, base_drive.phase_offset
        terms = [
            _pump_term(pump_scale, ratio, _effective_phase(value, offset))
            for value in values.tolist()
        ]
    return np.array(terms)


def output_field(params: SystemParams, cavity_amp: complex, probe_amp: float) -> complex:
    """Reflected probe field for a given intracavity amplitude."""
    return probe_amp - math.sqrt(2.0 * params.kappa_c1) * cavity_amp


def transmission(params: SystemParams, drive: DriveField, probe_freq: float) -> complex:
    """Normalized complex reflection t_p of the probe tone.

    Raises DomainError for a probe_freq that is not finite, and where t_p
    is not representable, which takes rates that span about 300 decades.
    """
    if not math.isfinite(probe_freq):
        raise DomainError(f"probe_freq must be finite, got {probe_freq}")
    r = _Response(params, params.cavity_freq - probe_freq)
    pump = _drive_coefficient(r.pump_scale, drive)
    t = math.nan  # den underflows to 0 only across about 300 decades of rates
    if r.den != 0.0:
        t = 1.0 - 2.0 * r.kappa_c1 * r.zm / r.den + pump / r.den
    if not cmath.isfinite(t):
        raise DomainError("reflection is not representable for these rates")
    return t

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
    t_probe = 1 - 2*kappa_c1*(i*Delta_m + kappa_m) / den
    t_pump  = i*g*2*sqrt(kappa_c1*kappa_m1)*delta*exp(-i*phi_eff) / den
    den     = (i*Delta_c + kappa_c)*(i*Delta_m + kappa_m) + g**2

with Delta_c = cavity_freq - probe_freq, Delta_m = magnon_freq - probe_freq,
and phi_eff = phase_phi + phase_offset.  The same den appears in the
steady-state mode amplitudes, which feed the equivalent input-output route
t_p = output_field / probe_amp.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, fields

from .errors import DomainError, SingularityError

ETA_CRITICAL_TOL = 1e-12
DENOMINATOR_GUARD = 1e-15


class CouplingRegime(enum.Enum):
    OVERCOUPLED = "overcoupled"
    CRITICAL = "critical"
    UNDERCOUPLED = "undercoupled"


def classify_coupling(eta: float) -> CouplingRegime:
    """Classify a port coupling ratio eta = kappa_ext / kappa_total.

    eta must lie in (0, 1].  Critical coupling is declared within an absolute
    tolerance of 1e-12 around 1/2.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"coupling ratio must be in (0, 1], got {eta}")
    if abs(eta - 0.5) <= ETA_CRITICAL_TOL:
        return CouplingRegime.CRITICAL
    if eta > 0.5:
        return CouplingRegime.OVERCOUPLED
    return CouplingRegime.UNDERCOUPLED


@dataclass(frozen=True)
class SystemParams:
    """Static device parameters, all in MHz.

    cavity_freq / magnon_freq are the bare mode frequencies; either may be 0
    when working purely in detuning space.  kappa_c1 (kappa_m1) is the
    external portion of kappa_c (kappa_m), so eta_c = kappa_c1/kappa_c must
    not exceed 1.  All seven must be finite.
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

    @property
    def eta_c(self) -> float:
        return self.kappa_c1 / self.kappa_c

    @property
    def eta_m(self) -> float:
        return self.kappa_m1 / self.kappa_m

    @property
    def cavity_regime(self) -> CouplingRegime:
        return classify_coupling(self.eta_c)

    @property
    def magnon_regime(self) -> CouplingRegime:
        return classify_coupling(self.eta_m)

    def feature_width(self) -> float:
        """Width scale (MHz) of the narrow magnon-like feature."""
        return self.kappa_m + self.coupling_g**2 / self.kappa_c


@dataclass(frozen=True)
class DriveField:
    """Two-tone drive configuration.

    ratio_delta is the pump/probe amplitude ratio (dimensionless, >= 0),
    phase_phi the programmed pump-probe phase and phase_offset the hardware
    calibration offset, both in radians.  Phases are stored as given;
    effective_phase reduces their sum to (-pi, pi] for evaluation.
    probe_amp >= 0; zero is allowed only for the degenerate no-drive case.
    All four must be finite.
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
        if self.ratio_delta < 0.0:
            raise DomainError(f"ratio_delta must be >= 0, got {self.ratio_delta}")
        if self.probe_amp < 0.0:
            raise DomainError(f"probe_amp must be >= 0, got {self.probe_amp}")

    @property
    def effective_phase(self) -> float:
        return math.remainder(self.phase_phi + self.phase_offset, math.tau)

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


@dataclass(frozen=True)
class ModeAmplitudes:
    """Steady-state intracavity and magnon amplitudes (complex)."""

    cavity_amp: complex
    magnon_amp: complex


def _denominator(params: SystemParams, delta_c, delta_m):
    return (1j * delta_c + params.kappa_c) * (
        1j * delta_m + params.kappa_m
    ) + params.coupling_g**2


def _probe_terms(params: SystemParams, delta_c, delta_m):
    """(den, t_probe): the drive-independent part of t_p; scalar or array."""
    den = _denominator(params, delta_c, delta_m)
    t_probe = 1.0 - 2.0 * params.kappa_c1 * (1j * delta_m + params.kappa_m) / den
    return den, t_probe


def _pump_coefficient(params: SystemParams, drive: DriveField) -> complex:
    """Complex scalar c with t_pump = c / den; the only drive-dependent factor."""
    pump_amp = (
        2.0
        * params.coupling_g
        * math.sqrt(params.kappa_c1 * params.kappa_m1)
        * drive.ratio_delta
    )
    return 1j * pump_amp * cmath.exp(-1j * drive.effective_phase)


def _transmission_terms(params: SystemParams, drive: DriveField, delta_c, delta_m):
    """Probe and pump pathway terms of t_p; accepts scalar or array detunings."""
    den, t_probe = _probe_terms(params, delta_c, delta_m)
    return t_probe, _pump_coefficient(params, drive) / den


def steady_state(
    params: SystemParams, drive: DriveField, probe_freq: float
) -> ModeAmplitudes:
    """Steady-state amplitudes in the frame rotating with the probe.

    Solves the 2x2 linear response of the driven coupled modes.  Amplitudes
    are normalized so the input-output relation reads
    output = probe_amp - sqrt(2*kappa_c1)*cavity_amp.
    """
    delta_c = params.cavity_freq - probe_freq
    delta_m = params.magnon_freq - probe_freq
    den = _denominator(params, delta_c, delta_m)
    if abs(den) < DENOMINATOR_GUARD:
        raise SingularityError(
            f"response denominator collapsed (|den| = {abs(den)!r})"
        )
    drive_c = math.sqrt(2.0 * params.kappa_c1) * drive.probe_amp
    drive_m = (
        math.sqrt(2.0 * params.kappa_m1)
        * drive.ratio_delta
        * drive.probe_amp
        * cmath.exp(-1j * drive.effective_phase)
    )
    zc = 1j * delta_c + params.kappa_c
    zm = 1j * delta_m + params.kappa_m
    g = params.coupling_g
    cavity = (drive_c * zm - 1j * g * drive_m) / den
    magnon = (drive_m * zc - 1j * g * drive_c) / den
    return ModeAmplitudes(cavity_amp=cavity, magnon_amp=magnon)


def output_field(params: SystemParams, cavity_amp: complex, probe_amp: float) -> complex:
    """Reflected probe field for a given intracavity amplitude."""
    return probe_amp - math.sqrt(2.0 * params.kappa_c1) * cavity_amp


def transmission_parts(
    params: SystemParams, drive: DriveField, probe_freq: float
) -> tuple[complex, complex]:
    """(t_probe, t_pump) pathway terms; their sum is the full t_p."""
    if drive.probe_amp == 0.0:
        raise DomainError("transmission is undefined for probe_amp == 0")
    delta_c = params.cavity_freq - probe_freq
    delta_m = params.magnon_freq - probe_freq
    den = _denominator(params, delta_c, delta_m)
    if abs(den) < DENOMINATOR_GUARD:
        raise SingularityError(
            f"response denominator collapsed (|den| = {abs(den)!r})"
        )
    return _transmission_terms(params, drive, delta_c, delta_m)


def transmission(params: SystemParams, drive: DriveField, probe_freq: float) -> complex:
    """Normalized complex reflection t_p of the probe tone."""
    t_probe, t_pump = transmission_parts(params, drive, probe_freq)
    return t_probe + t_pump

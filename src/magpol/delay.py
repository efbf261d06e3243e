"""Group delay, zero-reflection roots, and the advance/delay transition.

Group delay follows the convention tau[us] = -(1/2pi) * d(arg t_p)/dDelta_p
with Delta_p = cavity_freq - probe_freq in MHz, which is the physical
(e^{-i omega t}) group delay of the reflected probe: positive tau is slow
light, negative tau is an advance.  Near a zero of t_p the phase winds
arbitrarily fast and the delay diverges; samples with |t_p| below a guard
are flagged rather than trusted.

Zeros of t_p in the (pump ratio, detuning) plane are found in closed form:
at fixed effective phase, Im t_p = 0 is linear in the detuning and Re t_p = 0
reduces to a quadratic in the ratio.  A Newton polish on the exact residual
then brings the root to machine precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import DriveField, SystemParams
from .spectra import DetuningGrid

ZERO_GUARD = 1e-13

_TWO_PI = 2.0 * math.pi


def unwrap_phase(raw) -> np.ndarray:
    """Unwrap a phase series so adjacent jumps stay within (-pi, pi]."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise DomainError("phase series must be 1-d")
    return np.unwrap(raw)


def _drive_free_response(params: SystemParams, delta_p):
    """(base, den, dnum, dden): every factor of the response that does not
    depend on the pump drive, with num = base + _pump_term(...)."""
    offset = params.magnon_freq - params.cavity_freq
    delta_m = delta_p + offset
    a_ext = params.kappa_c - 2.0 * params.kappa_c1
    zc_ext = 1j * delta_p + a_ext
    zm = 1j * delta_m + params.kappa_m
    zc = 1j * delta_p + params.kappa_c
    g = params.coupling_g
    base = zc_ext * zm + g * g
    den = zc * zm + g * g
    dnum = 1j * zm + 1j * zc_ext
    dden = 1j * zm + 1j * zc
    return base, den, dnum, dden


def _pump_term(params: SystemParams, ratio: float, phase_eff: float) -> complex:
    """The pump drive's complex contribution to the numerator of t_p."""
    g = params.coupling_g
    pump = 2.0 * g * math.sqrt(params.kappa_c1 * params.kappa_m1) * ratio
    return 1j * pump * complex(math.cos(phase_eff), -math.sin(phase_eff))


def _response(params: SystemParams, ratio: float, phase_eff: float, delta_p):
    """Numerator/denominator of t_p and their detuning derivatives."""
    base, den, dnum, dden = _drive_free_response(params, delta_p)
    return base + _pump_term(params, ratio, phase_eff), den, dnum, dden


@dataclass(frozen=True)
class DelayTrace:
    """Group delay over a detuning grid.

    delay is in us; diverged marks samples where |t_p| fell below the zero
    guard, whose delay entries are signed infinities.
    """

    grid: DetuningGrid
    t: np.ndarray
    unwrapped_phase: np.ndarray
    delay: np.ndarray
    diverged: np.ndarray

    def __post_init__(self):
        for name in ("t", "unwrapped_phase", "delay", "diverged"):
            arr = getattr(self, name)
            if arr.shape != (self.grid.count,):
                raise DomainError(f"{name} length does not match grid")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def group_delay(
    params: SystemParams,
    drive: DriveField,
    grid: DetuningGrid,
    method: str = "analytic",
) -> DelayTrace:
    """Group delay trace, either from the analytic phase derivative of the
    rational response or by central differences on the unwrapped phase."""
    num, den, dnum, dden = _response(
        params, drive.ratio_delta, drive.effective_phase, grid.values
    )
    t = num / den
    magnitude = np.abs(t)
    diverged = magnitude < ZERO_GUARD
    phase = unwrap_phase(np.angle(t))
    if method == "analytic":
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (dnum / num - dden / den).imag
        delay = -slope / _TWO_PI
    elif method == "finite-difference":
        delay = -np.gradient(phase, grid.values, edge_order=2) / _TWO_PI
    else:
        raise DomainError(
            f"unknown delay method {method!r}; use 'analytic' or 'finite-difference'"
        )
    if np.any(diverged):
        sentinel = np.where(np.signbit(delay), -np.inf, np.inf)
        delay = np.where(diverged, sentinel, delay)
    return DelayTrace(
        grid=grid, t=t, unwrapped_phase=phase, delay=delay, diverged=diverged
    )


def delay_at(params: SystemParams, drive: DriveField, detuning: float) -> float:
    """Analytic group delay (us) at a single probe detuning."""
    num, den, dnum, dden = _response(
        params, drive.ratio_delta, drive.effective_phase, detuning
    )
    if abs(num) < ZERO_GUARD * abs(den):
        raise DomainError(f"delay diverges at detuning {detuning} (|t_p| ~ 0)")
    slope = (dnum / num - dden / den).imag
    return -slope / _TWO_PI


@dataclass(frozen=True)
class ZeroReflectionPoint:
    """A (pump ratio, detuning) pair where t_p vanishes."""

    ratio_delta: float
    detuning: float
    residual: float


def find_zero_reflection(
    params: SystemParams,
    phase_eff: float,
    max_ratio: float | None = None,
) -> ZeroReflectionPoint | None:
    """Solve t_p = 0 for (ratio, detuning) at a fixed effective pump phase.

    Returns the smallest-ratio root with ratio >= 0, polished by Newton
    iteration on the exact residual, or None when no such root exists (or
    when it exceeds max_ratio).
    """
    g = params.coupling_g
    pump_scale = 2.0 * g * math.sqrt(params.kappa_c1 * params.kappa_m1)
    if pump_scale == 0.0:
        return None
    a_ext = params.kappa_c - 2.0 * params.kappa_c1
    s_lin = params.kappa_m + a_ext
    offset = params.magnon_freq - params.cavity_freq
    c = math.cos(phase_eff)
    s = math.sin(phase_eff)
    if abs(s_lin) < 1e-12 * params.kappa_c:
        # the imaginary part no longer pins the detuning; outside this
        # codimension-one parameter slice no root is reported
        return None
    w = offset * a_ext
    base = a_ext * params.kappa_m + g * g
    # quadratic a2*u^2 + a1*u + a0 = 0 in u = pump_scale * ratio, obtained by
    # eliminating the detuning between Im t_p = 0 and Re t_p = 0
    a2 = -c * c
    a1 = -2.0 * w * c + offset * s_lin * c + s_lin * s_lin * s
    a0 = -w * w + offset * s_lin * w + s_lin * s_lin * base
    roots = []
    if abs(a2) < 1e-24:
        if a1 != 0.0:
            roots.append(-a0 / a1)
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return None
        sq = math.sqrt(disc)
        roots.extend([(-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)])
    candidates = sorted(u for u in roots if u >= 0.0)
    if not candidates:
        return None
    u = candidates[0]
    ratio = u / pump_scale
    detuning = -(w + u * c) / s_lin

    # Newton polish on (Re num, Im num); num is linear in the ratio
    dnum_dratio = 1j * pump_scale * complex(math.cos(phase_eff), -math.sin(phase_eff))
    for _ in range(12):
        num, den, dnum, _ = _response(params, ratio, phase_eff, detuning)
        if abs(num) <= 1e-15 * abs(den):
            break
        j00, j01 = dnum_dratio.real, dnum.real
        j10, j11 = dnum_dratio.imag, dnum.imag
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            break
        d_ratio = (-num.real * j11 + num.imag * j01) / det
        d_detuning = (-num.imag * j00 + num.real * j10) / det
        ratio += d_ratio
        detuning += d_detuning
    if ratio < 0.0:
        return None
    if max_ratio is not None and ratio > max_ratio:
        return None
    num, den, _, _ = _response(params, ratio, phase_eff, detuning)
    return ZeroReflectionPoint(
        ratio_delta=ratio, detuning=detuning, residual=abs(num / den)
    )


def delay_extremum_vs_ratio(
    params: SystemParams,
    phase_eff: float,
    ratio_values,
    grid: DetuningGrid,
) -> np.ndarray:
    """Signed extremal delay within the grid window for each pump ratio.

    For each ratio the analytic delay trace is computed on the grid and the
    finite sample of largest |delay| is reported with its sign.  The
    drive-independent factors (den, dnum, dden / den and the numerator's
    drive-free part) are computed once for the grid; each ratio then adds its
    pump term, so the result equals the per-ratio group_delay exactly.
    """
    ratio_values = np.asarray(ratio_values, dtype=float)
    if ratio_values.ndim != 1 or ratio_values.size == 0:
        raise DomainError("ratio values must be a non-empty 1-d array")
    base, den, dnum, dden = _drive_free_response(params, grid.values)
    dden_over_den = dden / den
    out = np.empty(ratio_values.size)
    for i, ratio in enumerate(ratio_values):
        drive = DriveField.with_effective_phase(float(ratio), phase_eff)
        num = base + _pump_term(params, drive.ratio_delta, drive.effective_phase)
        finite = ~(np.abs(num / den) < ZERO_GUARD)
        if not np.any(finite):
            raise DomainError(f"all samples diverged at ratio {ratio}")
        with np.errstate(divide="ignore", invalid="ignore"):
            delay = -(dnum / num - dden_over_den).imag / _TWO_PI
        delays = delay[finite]
        out[i] = delays[int(np.argmax(np.abs(delays)))]
    return out


class TransitionSign(enum.Enum):
    ADVANCE_TO_DELAY = "advance-to-delay"
    DELAY_TO_ADVANCE = "delay-to-advance"


@dataclass(frozen=True)
class TransitionReport:
    """An abrupt sign flip in the extremal delay vs pump ratio."""

    critical_ratio: float
    jump_sign: TransitionSign
    peak_advance: float
    peak_delay: float


def detect_abrupt_transition(
    ratio_values, extremal_delays, jump_factor: float = 10.0
) -> TransitionReport | None:
    """First sign change of the extremal delay whose jump dwarfs the median.

    A qualifying pair of adjacent ratios changes the delay sign with
    |delta tau| greater than jump_factor times the median adjacent change.
    Returns None when no pair qualifies.
    """
    ratios = np.asarray(ratio_values, dtype=float)
    delays = np.asarray(extremal_delays, dtype=float)
    if ratios.shape != delays.shape or ratios.ndim != 1:
        raise DomainError("ratio and delay arrays must be 1-d and equal length")
    if ratios.size < 3:
        raise DomainError("need at least 3 points to detect a transition")
    if np.any(np.diff(ratios) <= 0.0):
        raise DomainError("ratio values must be strictly increasing")
    jumps = np.abs(np.diff(delays))
    median_jump = float(np.median(jumps))
    for i in range(ratios.size - 1):
        if delays[i] * delays[i + 1] < 0.0 and jumps[i] > jump_factor * median_jump:
            sign = (
                TransitionSign.ADVANCE_TO_DELAY
                if delays[i] < 0.0
                else TransitionSign.DELAY_TO_ADVANCE
            )
            return TransitionReport(
                critical_ratio=float(0.5 * (ratios[i] + ratios[i + 1])),
                jump_sign=sign,
                peak_advance=float(np.min(delays)),
                peak_delay=float(np.max(delays)),
            )
    return None

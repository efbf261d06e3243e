"""Group delay, zero-reflection roots, and the advance/delay transition.

Group delay follows the convention tau[us] = -(1/2pi) * d(arg t_p)/dDelta_p
with Delta_p = cavity_freq - probe_freq in MHz, which is the physical
(e^{-i omega t}) group delay of the reflected probe: positive tau is slow
light, negative tau is an advance.  Near a zero of t_p the phase winds
arbitrarily fast and the delay diverges; samples with |t_p| at or below a
guard are flagged rather than trusted.

group_delay, delay_at and delay_extremum_vs_ratio share one kernel that
computes the analytic delay in real arithmetic.  With t_p = num/den,

    tau = (Im(dden/den) - (Im dnum * Re num - Re dnum * Im num) / |num|^2) / 2pi

where d is d/dDelta_p, and a sample diverges where
|num|^2 <= ZERO_GUARD^2 * |den|^2.  Every rate, frequency and detuning is
first scaled by an exact power of two that brings the largest below 1, so
the squares cannot underflow or overflow because of the overall scale of
the rates, and the delay is exactly homogeneous: scaling every input by
2^k divides it by 2^k bit for bit.

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
    """Unwrap a phase series so adjacent jumps stay within (-pi, pi].

    Equals np.unwrap(raw) bit for bit, but computes the 2pi correction only
    at the steps that need one (|step| >= pi, or NaN), not at every step.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise DomainError("phase series must be 1-d")
    step = np.diff(raw)
    jumps = np.flatnonzero(~(np.abs(step) < math.pi))
    correction = np.zeros_like(step)
    if jumps.size:
        jump = step[jumps]
        wrapped = np.mod(jump + math.pi, _TWO_PI) - math.pi
        wrapped[(wrapped == -math.pi) & (jump > 0.0)] = math.pi
        correction[jumps] = wrapped - jump
    unwrapped = raw.copy()
    unwrapped[1:] += np.cumsum(correction)
    return unwrapped


def _drive_free_response(params: SystemParams, delta_p, exponent: int = 0):
    """(base, den, slope, dnum_imag, dden_imag, pump_scale): every factor of
    the response that does not depend on the pump drive.  num = base +
    _pump_term(pump_scale, ...), and the detuning derivatives are
    dnum = slope + i*dnum_imag and dden = slope + i*dden_imag.

    Every rate and frequency of params enters scaled by 2^-exponent; delta_p
    is taken as given, so the caller scales it alike.
    """
    offset = math.ldexp(params.magnon_freq - params.cavity_freq, -exponent)
    kappa_c = math.ldexp(params.kappa_c, -exponent)
    kappa_m = math.ldexp(params.kappa_m, -exponent)
    kappa_c1 = math.ldexp(params.kappa_c1, -exponent)
    g = math.ldexp(params.coupling_g, -exponent)
    delta_m = delta_p + offset
    a_ext = kappa_c - 2.0 * kappa_c1
    i_delta_p = 1j * delta_p
    zc_ext = i_delta_p + a_ext
    zm = 1j * delta_m + kappa_m
    zc = i_delta_p + kappa_c
    base = zc_ext * zm + g * g
    den = zc * zm + g * g
    # dnum = i*(zm + zc_ext) and dden = i*(zm + zc)
    slope = -delta_m - delta_p
    pump_scale = 2.0 * g * math.sqrt(kappa_c1 * math.ldexp(params.kappa_m1, -exponent))
    return base, den, slope, kappa_m + a_ext, kappa_m + kappa_c, pump_scale


def _pump_term(pump_scale: float, ratio: float, phase_eff: float) -> complex:
    """The pump drive's complex contribution to the numerator of t_p."""
    pump = pump_scale * ratio
    return 1j * pump * complex(math.cos(phase_eff), -math.sin(phase_eff))


def _response(params: SystemParams, ratio: float, phase_eff: float, delta_p):
    """(num, den, dnum) at one detuning: t_p = num/den, dnum = d num/dDelta_p."""
    base, den, slope, dnum_imag, _, pump_scale = _drive_free_response(params, delta_p)
    return base + _pump_term(pump_scale, ratio, phase_eff), den, complex(slope, dnum_imag)


class _DelayKernel:
    """Analytic group delay on one set of detunings, in real arithmetic.

    Implements the module docstring's formula.  Everything that does not
    depend on the drive (Re and Im of base, Re dnum, q = Im(dden/den) and
    the guard limit ZERO_GUARD^2 * |den|^2) is built once as contiguous
    float64 arrays; Im dnum is a constant.  So one drive costs twelve
    in-place ufunc calls on preallocated buffers, with no complex division,
    complex temporary or boolean-index copy.

    Rates, frequencies and detunings are scaled by 2^-exponent, where
    2^exponent is the smallest power of two above the largest of them
    (near 1e-170 MHz the unscaled |den| underflows to 0), and the delay is
    scaled back by dividing by 2pi * 2^exponent.  Every scaling is exact, so
    base, den and t = num/den keep their bits wherever the unscaled terms
    are representable.
    """

    def __init__(self, params: SystemParams, delta_p: np.ndarray):
        """delta_p is increasing, so its largest magnitude is at an end."""
        offset = params.magnon_freq - params.cavity_freq
        scale = max(
            params.kappa_c,
            params.kappa_m,
            params.coupling_g,
            abs(offset),
            abs(float(delta_p[0])),
            abs(float(delta_p[-1])),
        )
        exponent = math.frexp(scale)[1]
        # keeps 2^-exponent and 2pi * 2^exponent normal doubles
        if not -1020 <= exponent <= 1020:
            raise DomainError("group delay is not representable for these rates")
        self.detunings = delta_p * math.ldexp(1.0, -exponent)
        base, den, slope, dnum_imag, dden_imag, self.pump_scale = _drive_free_response(
            params, self.detunings, exponent
        )
        den_sq = den.real * den.real + den.imag * den.imag
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._q = (dden_imag * den.real - slope * den.imag) / den_sq
        if not np.isfinite(self._q).all():  # den underflows to 0 somewhere
            raise DomainError("group delay is not representable for these rates")
        self._limit = ZERO_GUARD**2 * den_sq
        self._dnum_re, self._dnum_im = slope, dnum_imag
        # d/d(delta_p) is 2^-exponent times d/d(scaled detuning), so a phase
        # slope in scaled units over this divisor is a delay in us
        self.divisor = math.ldexp(_TWO_PI, exponent)
        self.base, self.den = base, den
        self._base_re = np.ascontiguousarray(base.real)
        self._base_im = np.ascontiguousarray(base.imag)
        buffers = np.empty((5, base.size))
        self._num_re, self._num_im, self._num_sq, self._scratch, self._delay = buffers
        self._diverged = np.empty(base.size, dtype=bool)

    def pump(self, ratio: float, phase_eff: float) -> complex:
        """The pump term of num for one drive, in the kernel's scaled units."""
        return _pump_term(self.pump_scale, ratio, phase_eff)

    def __call__(self, pump: complex) -> tuple[np.ndarray, np.ndarray]:
        """(delay in us, diverged) for num = base + pump; both arrays are
        buffers that the next call overwrites."""
        num_re, num_im = self._num_re, self._num_im
        num_sq, scratch, delay = self._num_sq, self._scratch, self._delay
        np.add(self._base_re, pump.real, out=num_re)
        np.add(self._base_im, pump.imag, out=num_im)
        np.multiply(num_re, num_re, out=num_sq)
        np.multiply(num_im, num_im, out=scratch)
        np.add(num_sq, scratch, out=num_sq)
        np.less_equal(num_sq, self._limit, out=self._diverged)
        np.multiply(self._dnum_im, num_re, out=delay)
        np.multiply(self._dnum_re, num_im, out=scratch)
        np.subtract(delay, scratch, out=delay)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(delay, num_sq, out=delay)  # inf or nan where num is 0
        np.subtract(self._q, delay, out=delay)
        np.divide(delay, self.divisor, out=delay)
        return delay, self._diverged


@dataclass(frozen=True)
class DelayTrace:
    """Group delay over a detuning grid.

    delay is in us; diverged marks samples where |t_p| is at or below the
    zero guard, whose delay entries are signed infinities.
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
    rational response or by central differences on the unwrapped phase.

    The analytic delay and the diverged mask of both methods come from the
    shared real-arithmetic kernel (see the module docstring).
    """
    if method not in ("analytic", "finite-difference"):
        raise DomainError(
            f"unknown delay method {method!r}; use 'analytic' or 'finite-difference'"
        )
    kernel = _DelayKernel(params, grid.values)
    pump = kernel.pump(drive.ratio_delta, drive.effective_phase)
    delay, diverged = kernel(pump)
    t = (kernel.base + pump) / kernel.den
    phase = unwrap_phase(np.angle(t))
    if method == "finite-difference":
        delay = -np.gradient(phase, kernel.detunings, edge_order=2) / kernel.divisor
    if diverged.any():
        sentinel = np.where(np.signbit(delay), -np.inf, np.inf)
        delay = np.where(diverged, sentinel, delay)
    return DelayTrace(
        grid=grid, t=t, unwrapped_phase=phase, delay=delay, diverged=diverged
    )


def delay_at(params: SystemParams, drive: DriveField, detuning: float) -> float:
    """Analytic group delay (us) at a single probe detuning, from the same
    kernel and guard as group_delay."""
    if not math.isfinite(detuning):
        raise DomainError(f"detuning must be finite, got {detuning}")
    kernel = _DelayKernel(params, np.array([detuning], dtype=float))
    delay, diverged = kernel(kernel.pump(drive.ratio_delta, drive.effective_phase))
    if diverged[0]:
        raise DomainError(f"delay diverges at detuning {detuning} (|t_p| ~ 0)")
    return float(delay[0])


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
        num, den, dnum = _response(params, ratio, phase_eff, detuning)
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
    num, den, _ = _response(params, ratio, phase_eff, detuning)
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
    sample of largest |delay| that is not diverged is reported with its sign.
    One _DelayKernel serves every ratio, so the drive-free terms are built
    once and the result equals the per-ratio group_delay exactly.
    """
    ratio_values = np.asarray(ratio_values, dtype=float)
    if ratio_values.ndim != 1 or ratio_values.size == 0:
        raise DomainError("ratio values must be a non-empty 1-d array")
    kernel = _DelayKernel(params, grid.values)
    magnitude = np.empty(grid.count)
    out = np.empty(ratio_values.size)
    for i, ratio in enumerate(ratio_values):
        drive = DriveField.with_effective_phase(float(ratio), phase_eff)
        delay, diverged = kernel(kernel.pump(drive.ratio_delta, drive.effective_phase))
        np.absolute(delay, out=magnitude)
        np.putmask(magnitude, diverged, -1.0)
        pick = int(np.argmax(magnitude))
        if diverged[pick]:
            raise DomainError(f"all samples diverged at ratio {ratio}")
        out[i] = delay[pick]
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

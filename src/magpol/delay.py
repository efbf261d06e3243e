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
|num|^2 <= ZERO_GUARD^2 * |den|^2.  The kernel builds that mask only on
request: group_delay always asks for it, and the ratio scan only when the
largest |delay| of a ratio falls on a diverged sample.  zc, zm and den come
from the model's core, model._response_terms, which scales every rate,
frequency and detuning by an exact power of two that brings the largest
below 1; so the squares cannot underflow or overflow because of the overall
scale of the rates, and the delay is exactly homogeneous: scaling every
input by 2^k divides it by 2^k bit for bit.  den itself never vanishes for
a valid device (Re den >= kappa_c*kappa_m wherever Im den = 0; see
model.py), so the only guard is on num; a den that underflows to 0 even
after the prescale, which takes rates spanning about 300 decades, is a
DomainError.

A kernel call takes one pump term (group_delay, delay_at) or a 1-d block of
them (the ratio scan) and evaluates a block as one (ratios, samples) array,
with the same ufuncs in the same order, so every row has the bits of a call
with its pump alone.  The scan's blocks hold about 2^15 samples, 8 ratios of
its 4001-sample grid: the kernel's four buffers and the scan's |delay| then
take about 1.3 MB, which fits in L2 (2 MB per core on the 2-vCPU Xeon it was
measured on).  There a 4001-sample row cost about 30 us inside a block and
41 us as a call of its own, the difference being per-call overhead.  On the
scan's 81 ratios x 4001 samples, blocks of 2^14 and 2^15 samples were alike
within the spread; 2^16 and 2^17 (about 2.6 and 5 MB) no longer fit in L2
and were slower, and 2^13 or fewer paid the Python around each block too
often.

Zeros of t_p in the (pump ratio, detuning) plane are found in closed form:
at fixed effective phase, Im t_p = 0 is linear in the detuning and Re t_p = 0
reduces to a quadratic in the ratio.  A Newton polish on the exact residual
then brings the root to machine precision.  The quadratic, the polish and
the residual all run in the core's scaled units, so the ratio and residual
are scale-free and the detuning scales exactly with the rates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import DriveField, SystemParams, _drive_coefficient, _pump_term, _response_terms
from .spectra import DetuningGrid, _median

ZERO_GUARD = 1e-13

# Samples per block of the ratio scan (see the module docstring)
_BLOCK_SAMPLES = 2**15

_TWO_PI = 2.0 * math.pi

# A transition's delay jump exceeds this many median adjacent changes.
_JUMP_FACTOR = 10.0


def _numerator_terms(params: SystemParams, zc, zm, exponent: int):
    """(base, slope, dnum_imag, dden_imag) from the core's scaled zc and zm:
    num = base + pump term, dnum = slope + i*dnum_imag and
    dden = slope + i*dden_imag, all in the units of 2^-exponent."""
    kappa_c1 = math.ldexp(params.kappa_c1, -exponent)
    g = math.ldexp(params.coupling_g, -exponent)
    kappa_c = math.ldexp(params.kappa_c, -exponent)
    kappa_m = math.ldexp(params.kappa_m, -exponent)
    a_ext = kappa_c - 2.0 * kappa_c1
    # zc - 2*kappa_c1 is i*Delta_p + a_ext, and dnum = i*(zm + zc_ext)
    base = (zc - 2.0 * kappa_c1) * zm + g * g
    return base, -zm.imag - zc.imag, kappa_m + a_ext, kappa_m + kappa_c


class _DelayKernel:
    """Analytic group delay on one set of detunings, in real arithmetic.

    Implements the module docstring's formula.  Everything that does not
    depend on the drive (Re and Im of base, Re dnum, q = Im(dden/den) and
    the guard limit ZERO_GUARD^2 * |den|^2) is built once as contiguous
    float64 arrays; Im dnum is a constant.  A call takes one complex pump
    term, or a 1-d block of up to `rows` of them, and costs eleven ufunc
    calls on four preallocated (rows, N) buffers, with no complex division,
    complex temporary or boolean-index copy; the cross term overwrites num
    in place, which moves less memory than writing a fifth buffer.  A block
    broadcasts the drive-free rows against a column of pumps, and every
    ufunc here rounds each element on its own, so row i has the bits of a
    call with pump i alone.  The diverged mask is built only on request,
    from the last call's |num|^2.

    Works in the core's scaled units (near 1e-170 MHz the unscaled |den|
    underflows to 0) and scales the delay back by dividing by
    2pi * 2^exponent.  Every scaling is exact, so base, den and t = num/den
    keep their bits wherever the unscaled terms are representable.
    """

    def __init__(self, params: SystemParams, delta_p: np.ndarray, rows: int = 1):
        """delta_p is increasing, as the core requires; rows is the largest
        block a call may take."""
        zc, zm, den, self.pump_scale, exponent = _response_terms(params, delta_p)
        base, slope, dnum_imag, dden_imag = _numerator_terms(params, zc, zm, exponent)
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
        self._buffers = tuple(np.empty((4, rows, base.size)))

    def __call__(self, pump) -> np.ndarray:
        """The delay in us for num = base + pump, in a buffer that the next
        call overwrites; diverged samples hold inf or nan.  A complex pump
        gives one delay per sample; a 1-d array of k <= rows pumps gives a
        (k, N) block, row i for pump i."""
        pump = np.asarray(pump)
        column = pump.reshape(-1, 1)
        buffers = self._buffers
        if column.shape[0] < buffers[0].shape[0]:
            buffers = [buffer[: column.shape[0]] for buffer in buffers]
        num_re, num_im, num_sq, scratch = buffers
        np.add(self._base_re, column.real, out=num_re)
        np.add(self._base_im, column.imag, out=num_im)
        np.multiply(num_re, num_re, out=num_sq)
        np.multiply(num_im, num_im, out=scratch)
        np.add(num_sq, scratch, out=num_sq)
        delay = np.multiply(self._dnum_im, num_re, out=num_re)
        np.multiply(self._dnum_re, num_im, out=num_im)
        np.subtract(delay, num_im, out=delay)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(delay, num_sq, out=delay)  # inf or nan where num is 0
        np.subtract(self._q, delay, out=delay)
        np.divide(delay, self.divisor, out=delay)
        self._num_sq = num_sq
        return delay if pump.ndim else delay[0]

    def diverges_at(self, index, row=0):
        """Whether sample index of the last call's row-th pump is at or
        below the guard; equal-length arrays of indices and rows give one
        answer per pair."""
        return self._num_sq[row, index] <= self._limit[index]

    def diverged(self, row: int = 0) -> np.ndarray:
        """The diverged mask of the last call's row-th pump,
        |num|^2 <= ZERO_GUARD^2 * |den|^2."""
        return np.less_equal(self._num_sq[row], self._limit)


@dataclass(frozen=True)
class DelayTrace:
    """Group delay over a detuning grid.

    delay is in us; diverged marks samples where |t_p| is at or below the
    zero guard, whose delay entries are signed infinities.
    """

    grid: DetuningGrid
    t: np.ndarray
    delay: np.ndarray
    diverged: np.ndarray

    def __post_init__(self):
        for name in ("t", "delay", "diverged"):
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
    pump = _drive_coefficient(kernel.pump_scale, drive)
    delay = kernel(pump)
    diverged = kernel.diverged()
    t = (kernel.base + pump) / kernel.den
    if method == "finite-difference":
        if grid.count < 3:
            raise DomainError(
                f"the finite-difference delay needs at least 3 grid samples, got {grid.count}"
            )
        # differentiate on the grid scaled by a power of two to its own
        # extent, so np.gradient's spacing products cannot underflow
        extent = math.frexp(max(-grid.start, grid.stop))[1]
        phase = np.unwrap(np.angle(t))
        slope = np.gradient(phase, np.ldexp(grid.values, -extent), edge_order=2)
        delay = np.ldexp(-slope / _TWO_PI, -extent)
    if diverged.any():
        sentinel = np.where(np.signbit(delay), -np.inf, np.inf)
        delay = np.where(diverged, sentinel, delay)
    return DelayTrace(grid=grid, t=t, delay=delay, diverged=diverged)


def delay_at(params: SystemParams, drive: DriveField, detuning: float) -> float:
    """Analytic group delay (us) at a single probe detuning, from the same
    kernel and guard as group_delay."""
    if not math.isfinite(detuning):
        raise DomainError(f"detuning must be finite, got {detuning}")
    kernel = _DelayKernel(params, np.array([detuning], dtype=float))
    delay = kernel(_drive_coefficient(kernel.pump_scale, drive))
    if kernel.diverges_at(0):
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
    when it exceeds max_ratio, or the largest double).
    """
    _, _, _, pump_scale, exponent = _response_terms(params, 0.0)
    if pump_scale == 0.0:
        return None
    kappa_c, kappa_m, kappa_c1, g, offset = (
        math.ldexp(value, -exponent)
        for value in (
            params.kappa_c,
            params.kappa_m,
            params.kappa_c1,
            params.coupling_g,
            params.magnon_freq - params.cavity_freq,
        )
    )
    a_ext = kappa_c - 2.0 * kappa_c1
    s_lin = kappa_m + a_ext
    c = math.cos(phase_eff)
    s = math.sin(phase_eff)
    if abs(s_lin) < 1e-12 * kappa_c:
        # the imaginary part no longer pins the detuning; outside this
        # codimension-one parameter slice no root is reported
        return None
    w = offset * a_ext
    base = a_ext * kappa_m + g * g
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
    detuning = math.ldexp(-(w + u * c) / s_lin, exponent)

    def response(ratio, detuning):
        """(num, den, dnum) at one detuning, in the scaled units."""
        zc, zm, den, _, _ = _response_terms(params, detuning, exponent)
        base, slope, dnum_imag, _ = _numerator_terms(params, zc, zm, exponent)
        return base + _pump_term(pump_scale, ratio, phase_eff), den, complex(slope, dnum_imag)

    # Newton polish on (Re num, Im num); num is linear in the ratio
    dnum_dratio = _pump_term(pump_scale, 1.0, phase_eff)
    for _ in range(12):
        num, den, dnum = response(ratio, detuning)
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
        detuning += math.ldexp(d_detuning, exponent)
    # a ratio past the largest double (the pump coupling underflows) polishes to nan
    if not (0.0 <= ratio < math.inf and math.isfinite(detuning)):
        return None
    if max_ratio is not None and ratio > max_ratio:
        return None
    num, den, _ = response(ratio, detuning)
    if den == 0.0:  # only for rates spanning about 300 decades
        raise DomainError("reflection is not representable for these rates")
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
    once, and it takes the ratios in blocks of about _BLOCK_SAMPLES samples
    (at least one ratio per block); the result equals the per-ratio
    group_delay exactly.

    The diverged mask is built only for a ratio whose plain argmax of
    |delay| lands on a diverged sample.  Otherwise that argmax is the
    answer: a sample that does not diverge has a finite delay, and argmax
    returns the first maximum (or the first nan, which only a diverged
    sample can hold), so masking could only lower samples after it.
    """
    ratio_values = np.asarray(ratio_values, dtype=float)
    if ratio_values.ndim != 1 or ratio_values.size == 0:
        raise DomainError("ratio values must be a non-empty 1-d array")
    rows = min(ratio_values.size, max(1, _BLOCK_SAMPLES // grid.count))
    kernel = _DelayKernel(params, grid.values, rows)
    # DriveField checks the phase and every ratio before any is scanned.  The
    # ratios it accepts form an interval (nan fails), so when the smallest
    # and the largest pass, all do; otherwise the first drive that fails
    # raises its own error.
    try:
        drives = [
            DriveField.with_effective_phase(float(ratio), phase_eff)
            for ratio in (ratio_values.min(), ratio_values.max())
        ]
    except DomainError:
        for ratio in ratio_values:
            DriveField.with_effective_phase(float(ratio), phase_eff)
        raise
    phase = drives[0].effective_phase
    pumps = np.array(
        [_pump_term(kernel.pump_scale, ratio, phase) for ratio in ratio_values.tolist()]
    )
    magnitude = np.empty((rows, grid.count))
    index = np.arange(rows)
    out = np.empty(ratio_values.size)
    for start in range(0, ratio_values.size, rows):
        delay = kernel(pumps[start : start + rows])
        if delay.shape[0] < rows:  # the last block
            magnitude, index = magnitude[: delay.shape[0]], index[: delay.shape[0]]
        np.absolute(delay, out=magnitude)
        picks = np.argmax(magnitude, axis=1)
        for row in np.flatnonzero(kernel.diverges_at(picks, index)):
            diverged = kernel.diverged(row)
            np.putmask(magnitude[row], diverged, -1.0)
            picks[row] = np.argmax(magnitude[row])
            if diverged[picks[row]]:
                raise DomainError(f"all samples diverged at ratio {float(ratio_values[start + row])}")
        out[start : start + rows] = delay[index, picks]
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


def detect_abrupt_transition(ratio_values, extremal_delays) -> TransitionReport | None:
    """First sign change of the extremal delay whose jump dwarfs the median.

    A qualifying pair of adjacent ratios changes the delay sign with
    |delta tau| greater than _JUMP_FACTOR (10) times the median adjacent
    change.  Returns None when no pair qualifies.
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
    median_jump = _median(jumps)
    for i in range(ratios.size - 1):
        if delays[i] * delays[i + 1] < 0.0 and jumps[i] > _JUMP_FACTOR * median_jump:
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

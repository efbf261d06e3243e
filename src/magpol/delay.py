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
from the model's core, model._Response, which scales every rate,
frequency and detuning by an exact power of two that brings the largest
below 1; so the squares cannot underflow or overflow because of the overall
scale of the rates, and the delay is exactly homogeneous: scaling every
input by 2^k divides it by 2^k bit for bit.  den itself never vanishes for
a valid device (Re den >= kappa_c*kappa_m wherever Im den = 0; see
model.py), so the only guard is on num; a den that underflows to 0 even
after the prescale, which takes rates spanning about 300 decades, is a
DomainError.

A kernel call takes one pump term (group_delay, delay_at) or a 1-d block of
them (the ratio scan), on all samples or a contiguous range of them, and
evaluates a block as one (ratios, samples) array with the same ufuncs in
the same order, so every sample of every row has the bits of a whole-grid
call with its pump alone.  Per sample the kernel cannot go faster in numpy:
on the scan's 8 x 4001 blocks it is bound by L2 bandwidth (about 161 us per
block on the 2-vCPU Xeon it was measured on, 2 MB of L2 per core).  So the
scan evaluates fewer samples.  delay_extremum_vs_ratio bounds |delay| on
chunks of _CHUNK_SAMPLES samples (_DelayKernel.chunk_bounds) and runs the
kernel only on the chunks that can hold a ratio's extremum; on the
benchmark's scan (81 ratios, a +-10 MHz grid of 4001 samples, a feature
about 1.7 MHz wide) that is about a sixth of the samples, and the scan runs
about twice as fast.  The gain needs a narrow feature in a wide window.  A
grid of one chunk, or a feature that fills the window, evaluates every
sample, and the bound adds about 0.2 ms to an 81-ratio scan: on the
reference device, on the same Xeon, the scan ran slower than a whole-grid
one below about 800 samples (0.42 against 0.20 ms at 2 samples, 0.68
against 0.64 ms at 769) and faster above (0.74 against 0.84 ms at 1025,
0.68 against 1.38 ms at 2001).
Chunks of 64 to 128 samples were alike within a few percent, and 32 or 256
were slower.  A block holds at most (_BLOCK_SAMPLES // samples) x samples
values, about 2^15, so the kernel's four buffers and the scan's |delay|
take about 1.3 MB and stay in L2; blocks of 2^16 and 2^17 values were
slower, and 2^13 or fewer paid the Python around each block too often.

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
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import (
    DriveField,
    SystemParams,
    _drive_coefficient,
    _pump_term,
    _pump_terms,
    _Response,
)
from .spectra import DetuningGrid, _median

ZERO_GUARD = 1e-13

# Samples per block of the ratio scan (see the module docstring)
_BLOCK_SAMPLES = 2**15

# Samples per chunk of the ratio scan's bound, and the bound's relative
# slack for rounding (see _DelayKernel.chunk_bounds)
_CHUNK_SAMPLES = 128
_BOUND_SLACK = 1e-9

_TWO_PI = 2.0 * math.pi

# A transition's delay jump exceeds this many median adjacent changes.
_JUMP_FACTOR = 10.0


def _numerator_terms(r: _Response):
    """(base, slope, dnum_imag, dden_imag) of the core's response r:
    num = base + pump term, dnum = slope + i*dnum_imag and
    dden = slope + i*dden_imag, all in r's scaled units."""
    a_ext = r.kappa_c - 2.0 * r.kappa_c1
    # zc - 2*kappa_c1 is i*Delta_p + a_ext, and dnum = i*(zm + zc_ext)
    base = (r.zc - 2.0 * r.kappa_c1) * r.zm + r.g * r.g
    return base, -r.zm.imag - r.zc.imag, r.kappa_m + a_ext, r.kappa_m + r.kappa_c


class _DelayKernel:
    """Analytic group delay on one set of detunings, in real arithmetic.

    Implements the module docstring's formula.  Everything that does not
    depend on the drive (Re and Im of base, Re dnum, q = Im(dden/den) and
    the guard limit ZERO_GUARD^2 * |den|^2) is built once as contiguous
    float64 arrays; Im dnum is a constant.  A call takes one complex pump
    term, or a 1-d block of them, and a contiguous range of samples (by
    default all), and costs eleven ufunc calls on four preallocated
    buffers, with no complex division, complex temporary or boolean-index
    copy; the cross term overwrites num in place, which moves less memory
    than writing a fifth buffer.  A block broadcasts the drive-free rows
    against a column of pumps, and every ufunc here rounds each element on
    its own, so each sample of row i has the bits of a whole-grid call with
    pump i alone, and so do the samples that at() picks.  The diverged mask
    is built only on request, from the last call's |num|^2.  chunk_bounds,
    for the ratio scan, builds its own drive-free terms on its first call.

    Works on one model._Response's scaled units (near 1e-170 MHz the
    unscaled |den| underflows to 0) and scales the delay back by dividing by
    2pi * 2^exponent.  Every scaling is exact, so base, den and t = num/den
    keep their bits wherever the unscaled terms are representable.
    """

    def __init__(self, params: SystemParams, delta_p: np.ndarray, rows: int = 1):
        """delta_p is increasing, as the core requires; a call may take
        up to rows * delta_p.size values (pumps times samples)."""
        r = _Response(params, delta_p)
        base, slope, dnum_imag, dden_imag = _numerator_terms(r)
        den, self.pump_scale = r.den, r.pump_scale
        den_sq = den.real * den.real + den.imag * den.imag
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._q = (dden_imag * den.real - slope * den.imag) / den_sq
        if not np.isfinite(self._q).all():  # den underflows to 0 somewhere
            raise DomainError("group delay is not representable for these rates")
        self._limit = ZERO_GUARD**2 * den_sq
        self._den_sq = den_sq
        self._dnum_re, self._dnum_im, self._dden_im = slope, dnum_imag, dden_imag
        # d/d(delta_p) is 2^-exponent times d/d(scaled detuning), so a phase
        # slope in scaled units over this divisor is a delay in us
        self.divisor = math.ldexp(_TWO_PI, r.exponent)
        self.base, self.den = base, den
        self._base_re = np.ascontiguousarray(base.real)
        self._base_im = np.ascontiguousarray(base.imag)
        self._buffers = np.empty((4, rows * base.size))

    def __call__(self, pump, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The delay in us for num = base + pump on samples start:stop, in a
        buffer that the next call overwrites; diverged samples hold inf or
        nan.  A complex pump gives one delay per sample; a 1-d array of k
        pumps gives a (k, stop - start) block, row i for pump i, that must
        fit the buffers the constructor sized."""
        pump = np.asarray(pump)
        column = pump.reshape(-1, 1)
        samples = slice(start, stop)
        shape = (column.shape[0], self._q[samples].size)
        buffers = [buffer[: shape[0] * shape[1]].reshape(shape) for buffer in self._buffers]
        delay, self._num_sq = self._delay(column, samples, buffers)
        self._last_limit = self._limit[samples]
        return delay if pump.ndim else delay[0]

    def at(self, pumps: np.ndarray, index: np.ndarray):
        """(delay, diverged) of every pump in a 1-d array at the samples
        index, as (pumps, samples) arrays with the bits that a call on the
        whole grid gives there."""
        buffers = np.empty((4, pumps.size, index.size))
        delay, num_sq = self._delay(pumps.reshape(-1, 1), index, buffers)
        return delay, num_sq <= self._limit[index]

    def _delay(self, pump, samples, buffers):
        """The formula on the drive-free values at samples (a slice or an
        index array) against pump, into buffers; returns (delay, |num|^2)."""
        num_re, num_im, num_sq, scratch = buffers
        np.add(self._base_re[samples], pump.real, out=num_re)
        np.add(self._base_im[samples], pump.imag, out=num_im)
        np.multiply(num_re, num_re, out=num_sq)
        np.multiply(num_im, num_im, out=scratch)
        np.add(num_sq, scratch, out=num_sq)
        delay = np.multiply(self._dnum_im, num_re, out=num_re)
        np.multiply(self._dnum_re[samples], num_im, out=num_im)
        np.subtract(delay, num_im, out=delay)
        # inf or nan where num is 0, and past the largest double near it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(delay, num_sq, out=delay)
            np.subtract(self._q[samples], delay, out=delay)
            np.divide(delay, self.divisor, out=delay)
        return delay, num_sq

    def diverges_at(self, index, row=0):
        """Whether sample index of the last call's row-th pump is at or
        below the guard, counted from the call's start; equal-length arrays
        of indices and rows give one answer per pair."""
        return self._num_sq[row, index] <= self._last_limit[index]

    def diverged(self, row: int = 0) -> np.ndarray:
        """The diverged mask of the last call's row-th pump on its samples,
        |num|^2 <= ZERO_GUARD^2 * |den|^2."""
        return np.less_equal(self._num_sq[row], self._last_limit)

    def chunk_bounds(self, pumps: np.ndarray):
        """(bounds, centres): bounds[i, j] >= |delay| * divisor, as a call
        computes it, on every sample of chunk j that does not diverge under
        pumps[i], or inf where no bound is proven; centres[j] is chunk j's
        centre sample.  Chunk j starts at sample j * _CHUNK_SAMPLES, and the
        last one holds what is left.

        With num = base + P, tau * divisor = q - Im(dnum/num) =
        -Im((dnum*den - dden*num) / (num*den)), and W0 = dnum*den - dden*base
        does not depend on the drive.  On a chunk C with centre c, every
        sample has dden - dden_c = slope - slope_c (real) and
        |num| >= |base_c + P| - rho with rho = max_C |base - base_c|, so

            |tau| * divisor <= (|W0_c - dden_c*P| + max_C |W0 - W0_c|
                                + max_C |slope - slope_c| * |P|)
                               / ((|base_c + P| - rho) * min_C |den|).

        A call rounds, and so does this bound.  Each of their operations
        errs by at most c*u (u = 2^-53, c well below 100) times the
        magnitudes it combines.  Times |num| * |den|, those of the call's
        q - Im(dnum/num) are |dden| * |num| + |dnum| * |den|, and those of
        the numerator above are |dnum| * |den| + |dden| * (|base| + |P|).
        In the core's scaled units every rate, frequency and detuning is
        below 1, so |den| and |base| are below 4.2 and |dnum| and |dden|
        below 3.7, and both sums are below E = 32 + 4|P|.  A single addition
        or subtraction errs relative to its result, so |base_c + P| and rho
        are within a few u of their exact values.  _BOUND_SLACK = 1e-9,
        about 10^7 u, covers all of it: the numerator is inflated by it and
        gains slack * E, and |base_c + P| - rho is lowered to the reach
        |base_c + P| * (1 - slack) - rho * (1 + slack).  These relative
        estimates hold while nothing is subnormal.  With the reach and
        min_C |den| above 2^-400, |num|^2, |den|^2 and the bound's
        denominator are normal, and a subnormal product or difference errs
        by at most 2^-1074, which adds less than 2^-260 after the divisions
        by them; the bound adds 2^-256.  A chunk whose reach or min |den| is
        2^-400 or less (the pump nearly cancels base there, or den nearly
        vanishes) gets no bound.
        """
        centres, w0_c, dden_c, base_c, w0_spread, base_spread, slope_spread, den_min = (
            self._chunk_terms
        )
        slack, tiny = _BOUND_SLACK, 2.0**-400
        column = pumps.reshape(-1, 1)
        pump = np.abs(column)
        numerator = np.abs(w0_c - dden_c * column) + w0_spread + slope_spread * pump
        reach = np.abs(base_c + column) * (1.0 - slack) - base_spread * (1.0 + slack)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bounds = ((1.0 + slack) * numerator + slack * (32.0 + 4.0 * pump)) / (reach * den_min)
        proven = (reach > tiny) & (den_min > tiny)
        return np.where(proven, bounds + 2.0**-256, np.inf), centres

    @cached_property
    def _chunk_terms(self):
        """The drive-free parts of chunk_bounds, built on its first call:
        the centres, W0, dden and base at them, the spreads of W0, base and
        slope about them, and min |den| on each chunk."""
        base, slope = self.base, self._dnum_re
        starts = np.arange(0, base.size, _CHUNK_SAMPLES)
        ends = np.minimum(starts + _CHUNK_SAMPLES, base.size)
        centres = (starts + ends - 1) // 2

        def spread(values):
            """max_C |values - values_c| for each chunk."""
            centre_values = np.repeat(values[centres], ends - starts)
            return np.maximum.reduceat(np.abs(values - centre_values), starts)

        dden = slope + 1j * self._dden_im
        w0 = (slope + 1j * self._dnum_im) * self.den - dden * base
        # slope = -(2*Delta + offset), rounded once per term, is monotone in
        # the detuning, so it strays furthest from the centre at a chunk's end
        slope_spread = np.maximum(
            np.abs(slope[starts] - slope[centres]), np.abs(slope[ends - 1] - slope[centres])
        )
        den_min = np.sqrt(np.minimum.reduceat(self._den_sq, starts))
        return (
            centres, w0[centres], dden[centres], base[centres],
            spread(w0), spread(base), slope_spread, den_min,
        )


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
    when it exceeds max_ratio, or the largest double).  DomainError for a
    phase_eff that is not finite or a max_ratio that is nan.
    """
    if not math.isfinite(phase_eff):
        raise DomainError(f"phase_eff must be finite, got {phase_eff}")
    if max_ratio is not None and math.isnan(max_ratio):
        raise DomainError(f"max_ratio must be a number, got {max_ratio}")
    r = _Response(params, 0.0)
    if r.pump_scale == 0.0:
        return None
    a_ext = r.kappa_c - 2.0 * r.kappa_c1
    s_lin = r.kappa_m + a_ext
    c = math.cos(phase_eff)
    s = math.sin(phase_eff)
    if abs(s_lin) < 1e-12 * r.kappa_c:
        # the imaginary part no longer pins the detuning; outside this
        # codimension-one parameter slice no root is reported
        return None
    w = r.offset * a_ext
    base = a_ext * r.kappa_m + r.g * r.g
    # quadratic a2*u^2 + a1*u + a0 = 0 in u = pump_scale * ratio, obtained by
    # eliminating the detuning between Im t_p = 0 and Re t_p = 0
    a2 = -c * c
    a1 = -2.0 * w * c + r.offset * s_lin * c + s_lin * s_lin * s
    a0 = -w * w + r.offset * s_lin * w + s_lin * s_lin * base
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
    ratio = u / r.pump_scale
    detuning = math.ldexp(-(w + u * c) / s_lin, r.exponent)

    def response(ratio, detuning):
        """(num, den, dnum) at one detuning, in the scaled units."""
        at = _Response(params, detuning, r.exponent)
        base, slope, dnum_imag, _ = _numerator_terms(at)
        return base + _pump_term(r.pump_scale, ratio, phase_eff), at.den, complex(slope, dnum_imag)

    # Newton polish on (Re num, Im num); num is linear in the ratio
    dnum_dratio = _pump_term(r.pump_scale, 1.0, phase_eff)
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
        detuning += math.ldexp(d_detuning, r.exponent)
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

    For each ratio the sample of largest |delay| that is not diverged is
    reported with its sign, bit for bit as the per-ratio group_delay trace
    gives it.  One _DelayKernel serves every ratio, so the drive-free terms
    are built once.

    The kernel runs only on the samples that can hold a ratio's extremum.
    kernel.chunk_bounds bounds |delay| on each chunk of _CHUNK_SAMPLES samples,
    and the kernel evaluates every ratio at every chunk's centre.  For each
    ratio, M is the largest of those |delay| that does not diverge, a lower
    bound on its extremum, and a chunk is needed when its bound reaches
    M * (1 - _BOUND_SLACK).  A ratio with no such M, or with an M that is
    not a normal double, needs every sample.  So every sample left out
    either diverges or has a |delay| strictly below M (the slack keeps it
    strict through the division by the divisor), while M's own sample is
    kept: the extremum, argmax's first-maximum tie-break and the diverged
    path below are those of the whole grid.  A grid of one chunk evaluates
    every sample, after the bound (see the module docstring for its cost).

    Consecutive ratios form a block, evaluated by one kernel call on the
    one contiguous range that covers the needed chunks of all its ratios.
    A block grows while its ratios times its range fit the kernel's buffers
    of (_BLOCK_SAMPLES // grid.count) * grid.count values, at least one
    ratio on the whole grid; so a block of narrow ranges holds more ratios,
    and with nothing left out the blocks are those of the whole grid.

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
    # the first ratio's drive fails first, with its own error, as in a loop
    # over drives; _pump_terms checks the rest
    first_drive = DriveField.with_effective_phase(float(ratio_values[0]), phase_eff)
    pumps = _pump_terms(kernel.pump_scale, first_drive, "ratio_delta", ratio_values)
    capacity = rows * grid.count  # values in each kernel buffer
    first = np.empty(ratio_values.size, dtype=int)
    stop = np.empty_like(first)
    # ratios in groups whose (ratios, chunks) arrays hold about as many
    # values as a buffer, so memory does not grow with the ratio count
    group = rows * _CHUNK_SAMPLES
    for start in range(0, ratio_values.size, group):
        part = slice(start, start + group)
        bounds, centres = kernel.chunk_bounds(pumps[part])
        centre_delay, diverged = kernel.at(pumps[part], centres)
        lower = np.max(np.where(diverged, -1.0, np.abs(centre_delay)), axis=1)  # M
        # a ratio with no normal M needs every sample (nan fails too)
        usable = lower >= np.finfo(float).tiny
        cut = np.where(usable, lower * kernel.divisor * (1.0 - _BOUND_SLACK), -np.inf)
        needed = ~(bounds < cut[:, None])
        first[part] = np.argmax(needed, axis=1) * _CHUNK_SAMPLES
        last = centres.size - np.argmax(needed[:, ::-1], axis=1)
        stop[part] = np.minimum(last * _CHUNK_SAMPLES, grid.count)
    magnitudes = np.empty(capacity)
    index = np.arange(ratio_values.size)
    out = np.empty(ratio_values.size)
    start = 0
    while start < ratio_values.size:
        # the block grows while its rows times its sample range fit the
        # buffers; that product only grows with the block, so the block is
        # the longest run of ratios from start that fits
        lo = np.minimum.accumulate(first[start:])
        hi = np.maximum.accumulate(stop[start:])
        fits = np.searchsorted(np.arange(1, hi.size + 1) * (hi - lo), capacity, "right")
        end, lo, hi = start + fits, int(lo[fits - 1]), int(hi[fits - 1])
        delay = kernel(pumps[start:end], lo, hi)
        magnitude = np.absolute(delay, out=magnitudes[: delay.size].reshape(delay.shape))
        rows_here = index[: end - start]
        picks = np.argmax(magnitude, axis=1)
        for row in np.flatnonzero(kernel.diverges_at(picks, rows_here)):
            diverged = kernel.diverged(row)
            np.putmask(magnitude[row], diverged, -1.0)
            picks[row] = np.argmax(magnitude[row])
            if diverged[picks[row]]:
                raise DomainError(f"all samples diverged at ratio {float(ratio_values[start + row])}")
        out[start:end] = delay[rows_here, picks]
        start = end
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
    change.  Returns None when no pair qualifies.  Both arrays must be
    finite (DomainError otherwise): a nan passes no comparison, so it would
    hide a decrease of the ratios or a flip of the sign.

    The detector sees only the delays, so it promises no more than the first
    abrupt sign flip of the signed extremal delay.  The paper's transition,
    where reflection passes through zero, gives such a flip, but so does a
    swap of which delay lobe, positive or negative, is larger.  On the
    reference device at effective phase 1.89pi, the extremal delay goes from
    0.0252 to -0.0267 us between ratios 1.0 and 1.05 and a flip is reported
    at 1.025, although each lobe changes smoothly and the zero lies at ratio
    6.46.  Where the device is known, the transition located by its zero is
    find_zero_reflection's ratio_delta (delta*).
    """
    ratios = np.asarray(ratio_values, dtype=float)
    delays = np.asarray(extremal_delays, dtype=float)
    if ratios.shape != delays.shape or ratios.ndim != 1:
        raise DomainError("ratio and delay arrays must be 1-d and equal length")
    if ratios.size < 3:
        raise DomainError("need at least 3 points to detect a transition")
    if not np.isfinite(ratios).all():
        raise DomainError("ratio values must be finite")
    if not np.isfinite(delays).all():
        raise DomainError("extremal delays must be finite")
    if np.any(np.diff(ratios) <= 0.0):
        raise DomainError("ratio values must be strictly increasing")
    jumps = np.abs(np.diff(delays))
    qualifying = (delays[:-1] * delays[1:] < 0.0) & (jumps > _JUMP_FACTOR * _median(jumps))
    if not qualifying.any():
        return None
    i = int(qualifying.argmax())  # the first qualifying pair
    sign = (
        TransitionSign.ADVANCE_TO_DELAY if delays[i] < 0.0 else TransitionSign.DELAY_TO_ADVANCE
    )
    return TransitionReport(
        critical_ratio=float(0.5 * (ratios[i] + ratios[i + 1])),
        jump_sign=sign,
        peak_advance=float(np.min(delays)),
        peak_delay=float(np.max(delays)),
    )
